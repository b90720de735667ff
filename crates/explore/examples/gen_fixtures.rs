//! Regenerates the checked-in repro fixtures under `tests/fixtures/`.
//!
//! Each fixture is a clean (property `-`) recorded run on one suite
//! topology; `tests/regressions.rs` replays them and asserts the verdict
//! still matches. Run from the workspace root:
//!
//! ```text
//! cargo run -p gam-explore --example gen_fixtures [out_dir]
//! ```

use gam_explore::{Repro, Scenario};
use gam_groups::topology;
use gam_kernel::{RandomSource, RecordInto};

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "tests/fixtures".into());
    std::fs::create_dir_all(&out_dir).expect("create fixture dir");
    for (name, gs, seed) in [
        ("fig1", topology::fig1(), 1),
        ("ring_3_2", topology::ring(3, 2), 2),
        ("two_overlapping_3_1", topology::two_overlapping(3, 1), 3),
    ] {
        let scenario = Scenario::one_per_group(&gs, 500_000);
        let mut schedule = Vec::new();
        let report = scenario.run(&mut RecordInto::new(RandomSource::new(seed), &mut schedule));
        assert!(report.quiescent, "{name}: fixture run must quiesce");
        let repro = Repro {
            scenario,
            schedule,
            seed,
            property: None,
        };
        repro.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        let path = format!("{out_dir}/{name}.repro");
        let text = format!(
            "# {name}: clean seed-{seed} swarm run, hash {:#018x}\n{}",
            repro.trace_hash(),
            repro.to_text()
        );
        std::fs::write(&path, text).expect("write fixture");
        println!("wrote {path}");
    }
}
