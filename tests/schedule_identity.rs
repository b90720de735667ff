//! Schedule identity: a change to how the runtime *finds* enabled actions
//! must not change which actions fire, in which order, at which instants.
//!
//! `tests/fixtures/serve_hashes.txt` pins, for a grid of descriptors, what
//! two drivers reach: the round-robin-min policy (`run_sustained`, the
//! serve path) and a seeded random source (`run_with_source`, the path the
//! explorer and the `Executor` read the choice space through). One line per
//! cell: the delivery trace hash, a hash of the full `fold_state` walk, the
//! final clock, the actions fired and the outcome. The table was generated
//! on the commit *before* the deliver-frontier / stale-cell readiness
//! change and is replayed here on every commit since; regenerate it only
//! for a change that is meant to alter schedules:
//!
//! ```text
//! cargo test --release --test schedule_identity -- --ignored
//! ```

use genuine_multicast::engine::digest::{fnv1a, trace_hash};
use genuine_multicast::kernel::schedule::RandomSource;
use genuine_multicast::kernel::RunOutcome;
use genuine_multicast::prelude::*;
use genuine_multicast::scenarios::FIXTURES;

const TABLE: &str = include_str!("fixtures/serve_hashes.txt");

/// Families × traffic of the generated cells: the dense cyclic shape the
/// benchmark serves, a ring, a tree and a hub, each with a real backlog.
const FAMILIES: [&str; 4] = [
    "family=rand(64,8,450) seed={seed} crash={crash} traffic=zipf(1200,256)",
    "family=ring(5,3) seed={seed} crash={crash} traffic=zipf(1200,120)",
    "family=randacyclic(24,3) seed={seed} crash={crash} traffic=zipf(1100,160)",
    "family=hub(4,3) seed={seed} crash={crash} traffic=uniform(100)",
];

/// Every descriptor of the grid: the pinned `.scn` fixtures, then
/// families × crash plans × variants × three seeds.
fn descriptors() -> Vec<String> {
    let mut out: Vec<String> = FIXTURES
        .iter()
        .map(|(_, text)| (*text).to_string())
        .collect();
    for family in FAMILIES {
        for crash in ["none", "isect(2)", "rand(2)"] {
            for variant in ["standard", "strict", "pairwise"] {
                for seed in [7000u64, 7001, 7002] {
                    let body = family
                        .replace("{seed}", &seed.to_string())
                        .replace("{crash}", crash);
                    out.push(format!("gam-scn v1 {body} variant={variant} budget=100000"));
                }
            }
        }
    }
    out
}

/// One line of the table: what `driver` reaches on `text` at `batch_max`.
fn cell(text: &str, batch_max: u32, driver: &str) -> String {
    let d = ScnDescriptor::parse(text).expect("grid descriptors parse");
    // The descriptor's runtime with its whole traffic trace preloaded.
    let mut rt = Scenario::from_descriptor(&d)
        .with_batch_max(batch_max)
        .runtime_executor()
        .into_runtime();
    let set = rt.system().universe();
    let quiescent = match driver {
        "sustained" => rt.run_sustained(set, d.budget),
        "random" => {
            let mut source = RandomSource::new(d.seed);
            rt.run_with_source(set, &mut source, d.budget) == RunOutcome::Quiescent
        }
        other => panic!("unknown driver {other:?}"),
    };
    let report = rt.report(quiescent);
    let mut words = Vec::new();
    rt.fold_state(&mut |w| words.push(w));
    format!(
        "{text} | batch={batch_max} driver={driver} | trace={:016x} fold={:016x} now={} actions={} quiescent={quiescent}",
        trace_hash(&report),
        fnv1a(words),
        rt.now().0,
        report.actions_of.iter().sum::<u64>(),
    )
}

#[test]
fn every_cell_replays_to_the_pinned_hashes() {
    // Debug builds re-derive every ready-set row at every read (that is
    // the point of running this suite in that profile too) and take ~40×
    // longer per step: they replay the fixtures and one seed of three, and
    // leave the random driver on the 64-process family — 64 rows read per
    // step — to release builds.
    let replayed = |line: &str| {
        !cfg!(debug_assertions)
            || !line.contains("seed=700")
            || (line.contains("seed=7000")
                && !(line.contains("rand(64") && line.contains("driver=random")))
    };
    let mut cells = 0;
    for pinned in TABLE.lines() {
        cells += 1;
        let mut parts = pinned.split(" | ");
        let (text, how) = (
            parts.next().expect("descriptor"),
            parts.next().expect("driver"),
        );
        if !replayed(pinned) {
            continue;
        }
        let (batch, driver) = how.split_once(' ').expect("batch and driver");
        let batch = batch
            .strip_prefix("batch=")
            .and_then(|b| b.parse().ok())
            .expect("batch=N");
        let driver = driver.strip_prefix("driver=").expect("driver=D");
        assert_eq!(
            cell(text, batch, driver),
            pinned,
            "this commit (left) left the pinned schedule (right)"
        );
    }
    assert_eq!(cells, descriptors().len() * 4, "the table covers the grid");
}

#[test]
#[ignore = "rewrites tests/fixtures/serve_hashes.txt from this commit's behaviour"]
fn regenerate_serve_hashes() {
    let mut table = String::new();
    for text in descriptors() {
        for batch_max in [1, 16] {
            for driver in ["sustained", "random"] {
                table += &cell(&text, batch_max, driver);
                table.push('\n');
            }
        }
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/serve_hashes.txt"
    );
    std::fs::write(path, table).expect("write the table");
}
