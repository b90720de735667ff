//! Thread-count invariance of the group-sharded sustained driver.
//!
//! The contract of [`gam_engine::run_sustained_par`] is the same one the
//! parallel explorer already honours (`tests/parallel_determinism.rs`):
//! parallelism changes wall-clock time and *nothing else*. Sharding the
//! consensus families by connected component of the group intersection
//! graph and re-merging the per-shard recordings must reproduce the
//! sequential `run_sustained` state **byte-for-byte** — the full
//! `fold_state` word stream, every per-process delivery sequence
//! (messages *and* timestamps), the spec verdict, and the quiescence
//! boolean — for every corpus topology, seed, batch width and worker
//! count. Crashy and strict templates ride along too: there the driver
//! must *fall back* to the sequential loop (sharding is only sound for
//! crash-free non-strict runs, where detector guards are time-invariant),
//! so equality is the fallback test.
//!
//! This is the determinism argument for the sharded driver's threads and
//! atomics (DESIGN.md decision 10): no lint polices them, this identity
//! does.

use genuine_multicast::engine::{run_sustained_par, shard_specs};
use genuine_multicast::prelude::*;

/// Builds the descriptor's runtime with the whole traffic trace preloaded,
/// exactly as the `serve` section of the `counts` bin does.
fn runtime_for(d: &ScnDescriptor, batch_max: u32) -> Runtime {
    let generated = d.generate();
    let pattern = FailurePattern::from_crashes(generated.system.universe(), generated.crashes);
    let config = RuntimeConfig {
        variant: d.variant,
        batch_max,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(&generated.system, pattern, config);
    for (src, g, payload) in generated.submissions {
        rt.multicast(src, g, payload);
    }
    rt
}

fn fold_vec(rt: &Runtime) -> Vec<u64> {
    let mut out = Vec::new();
    rt.fold_state(&mut |w| out.push(w));
    out
}

/// ≥20 descriptors (every corpus template × two seeds) × batch {1, 16} ×
/// threads {1, 2, 4}: the sharded run is byte-identical to the sequential
/// one in every cell.
#[test]
fn sharded_runs_are_byte_identical_across_the_corpus_grid() {
    let corpus = genuine_multicast::scenarios::corpus();
    let mut cells = 0u32;
    let mut descriptors = 0u32;
    for (name, template) in &corpus {
        for seed in [1u64, 2] {
            let d = template.with_seed(seed);
            descriptors += 1;
            for batch_max in [1u32, 16] {
                // One sequential reference per (descriptor, batch): the
                // parallel runs at every worker count must match it.
                let mut seq = runtime_for(&d, batch_max);
                let seq_quiesced = seq.run_sustained(seq.system().universe(), d.budget);
                assert!(seq_quiesced, "{name} seed {seed}: corpus runs quiesce");
                let seq_fold = fold_vec(&seq);
                let seq_report = seq.report(true);
                let seq_verdict = spec::check_all(&seq_report, d.variant).is_ok();

                for threads in [1usize, 2, 4] {
                    let mut par = runtime_for(&d, batch_max);
                    let set = par.system().universe();
                    let par_quiesced = run_sustained_par(&mut par, set, d.budget, threads);
                    let tag = format!("{name} seed {seed} batch {batch_max} threads {threads}");
                    assert_eq!(par_quiesced, seq_quiesced, "{tag}: outcome");
                    assert_eq!(fold_vec(&par), seq_fold, "{tag}: fold_state stream");
                    let par_report = par.report(true);
                    assert_eq!(
                        par_report.delivered, seq_report.delivered,
                        "{tag}: per-process delivery sequences"
                    );
                    assert_eq!(
                        spec::check_all(&par_report, d.variant).is_ok(),
                        seq_verdict,
                        "{tag}: spec verdict"
                    );
                    cells += 1;
                }
            }
        }
    }
    assert!(descriptors >= 20, "grid spans at least 20 descriptors");
    assert!(cells >= 120, "grid spans at least 120 cells");
}

/// Re-running the sharded driver on the same input is schedule-
/// deterministic: five repetitions at four workers produce one fold
/// stream, even though OS scheduling interleaves the workers differently
/// every time. (The merge orders commits by visit slot, not by arrival.)
#[test]
fn repeated_sharded_runs_are_deterministic() {
    let d = ScnDescriptor::parse(
        "gam-scn v1 family=multichain(8,4,4) seed=11 crash=none \
         traffic=zipf(1200,512) variant=standard budget=2000000",
    )
    .expect("valid descriptor");
    let mut reference: Option<Vec<u64>> = None;
    for rep in 0..5 {
        let mut rt = runtime_for(&d, 16);
        let set = rt.system().universe();
        assert!(run_sustained_par(&mut rt, set, d.budget, 4), "rep {rep}");
        let fold = fold_vec(&rt);
        match &reference {
            None => reference = Some(fold),
            Some(first) => assert_eq!(&fold, first, "rep {rep}: fold diverged"),
        }
    }
}

/// The many-shard workload really is sharded: eight components of four
/// groups, each with live processes. Whether the workers then beat one
/// thread is a wall-clock question, and the benchmark's
/// `engine.shard.speedup` on `serve_sharded` answers it.
#[test]
fn the_many_shard_workload_is_eight_shards_of_four_groups() {
    let d = ScnDescriptor::parse(
        "gam-scn v1 family=multichain(8,4,4) seed=11 crash=none \
         traffic=zipf(1200,512) variant=standard budget=2000000",
    )
    .expect("valid descriptor");
    let rt = runtime_for(&d, 16);
    let specs = shard_specs(&rt, rt.system().universe());
    assert_eq!(specs.len(), 8, "eight chain copies, eight shards");
    for s in &specs {
        assert_eq!(s.groups.len(), 4, "each shard is one 4-group chain");
        assert!(!s.pids.is_empty(), "every shard has live processes");
    }
}
