//! Regenerates **Table 1** of the paper as an executable solvability
//! matrix.
//!
//! For each row (genuineness × order × failure detector) the harness runs
//! the corresponding algorithm over the topology suite with the stated
//! detector, under failure-free and intersection-crash patterns, and checks
//! the row's properties. Rows whose detector is *too weak* are also run to
//! exhibit the failure mode (blocked liveness or a violated property).
//!
//! Run with: `cargo run -p gam-bench --bin table1`
//! Output:   stdout table + `target/experiments/table1.json`

use gam_bench::json::{write_experiment, Json};
use gam_bench::{classify, crash_first_intersection, one_per_group_workload, Outcome};
use gam_core::baseline::BroadcastBased;
use gam_core::variants::{check_group_parallelism, check_group_parallelism_staged};
use gam_core::{spec, Runtime, RuntimeConfig, Variant};
use gam_engine::{run_fair, KernelExecutor, RuntimeExecutor};
use gam_groups::{topology, GroupId};
use gam_kernel::{FailurePattern, ProcessId, ProcessSet, RandomSource, RotatingSource, Time};

struct Row {
    genuine: &'static str,
    order: &'static str,
    detector: &'static str,
    scenario: String,
    outcome: String,
    expected: &'static str,
    matches: bool,
}

fn main() {
    let mut rows: Vec<Row> = Vec::new();
    let budget = 2_000_000;

    // ---- Row 1: non-genuine, global order, Ω ∧ Σ -----------------------
    {
        let gs = topology::disjoint(3, 2);
        let mut bb = BroadcastBased::new(&gs, FailurePattern::all_correct(gs.universe()));
        bb.multicast(ProcessId(0), GroupId(0), 0);
        let q = bb.run(budget);
        let r = bb.report(q);
        let ordered = spec::check_ordering(&r).is_ok() && spec::check_termination(&r).is_ok();
        let minimal = spec::check_minimality(&r).is_ok();
        rows.push(Row {
            genuine: "×",
            order: "global",
            detector: "Ω ∧ Σ",
            scenario: "broadcast-based on disjoint(3x2)".into(),
            outcome: format!("ordering+termination: {}, minimality: {}", ordered, minimal),
            expected: "orders globally but not minimal",
            matches: ordered && !minimal,
        });
    }

    // ---- Row 4 (headline): genuine, global, μ --------------------------
    for (name, gs) in topology::suite() {
        let out = classify(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            RuntimeConfig::default(),
            budget,
        );
        rows.push(Row {
            genuine: "✓",
            order: "global",
            detector: "μ",
            scenario: format!("{name}, failure-free"),
            outcome: out.to_string(),
            expected: "solved",
            matches: out == Outcome::Solved,
        });
        let pattern = crash_first_intersection(&gs, Time(3));
        let out = classify(&gs, pattern, RuntimeConfig::default(), budget);
        rows.push(Row {
            genuine: "✓",
            order: "global",
            detector: "μ",
            scenario: format!("{name}, intersection crash"),
            outcome: out.to_string(),
            expected: "solved",
            matches: out == Outcome::Solved,
        });
    }

    // ---- Row 5: strict order needs μ ∧ (∧ 1^{g∩h}) ----------------------
    {
        let gs = topology::two_overlapping(3, 1);
        let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(2), Time(2))]);
        let strict_cfg = RuntimeConfig {
            variant: Variant::Strict,
            ..Default::default()
        };
        let out = classify(&gs, pattern.clone(), strict_cfg, budget);
        rows.push(Row {
            genuine: "✓",
            order: "strict",
            detector: "μ ∧ (∧ 1^{g∩h})",
            scenario: "two-overlapping, g∩h crash".into(),
            outcome: out.to_string(),
            expected: "solved",
            matches: out == Outcome::Solved,
        });
        // ablation: strict guard with indicators disabled == waiting for
        // announcements that can never come → blocked. We model this by
        // making the indicator infinitely late.
        let late_cfg = RuntimeConfig {
            variant: Variant::Strict,
            indicator_delay: u64::MAX / 2,
            ..Default::default()
        };
        let out = classify(&gs, pattern, late_cfg, 300_000);
        // the runtime quiesces with the message stuck before `stable`:
        // a termination violation (equivalently, blocked liveness)
        let matches = matches!(out, Outcome::Blocked | Outcome::Violated("termination"));
        rows.push(Row {
            genuine: "✓",
            order: "strict",
            detector: "μ only (1^{g∩h} withheld)",
            scenario: "two-overlapping, g∩h crash".into(),
            outcome: out.to_string(),
            expected: "blocked/termination-violated",
            matches,
        });
    }

    // ---- Row 6: pairwise order with (∧ Σ_{g∩h}) ∧ (∧ Ω_g) ---------------
    {
        let gs = topology::ring(3, 2);
        let cfg = RuntimeConfig {
            variant: Variant::Pairwise,
            ..Default::default()
        };
        let out = classify(&gs, FailurePattern::all_correct(gs.universe()), cfg, budget);
        rows.push(Row {
            genuine: "✓",
            order: "pairwise",
            detector: "(∧ Σ_{g∩h}) ∧ (∧ Ω_g)",
            scenario: "ring(3,2), failure-free".into(),
            outcome: out.to_string(),
            expected: "solved",
            matches: out == Outcome::Solved,
        });
        // the separation: hunt random schedules for a *global* delivery
        // cycle — pairwise ordering still holds, global ordering does not,
        // so pairwise really is a weaker problem (why its weakest detector
        // can drop γ).
        let mut global_cycles = 0usize;
        let trials = 100u64;
        for seed in 0..trials {
            let report = one_per_group_workload(
                &gs,
                FailurePattern::all_correct(gs.universe()),
                RuntimeConfig {
                    variant: Variant::Pairwise,
                    ..Default::default()
                },
                1,
                RandomSource::new(seed),
                budget,
            );
            assert!(report.quiescent);
            spec::check_pairwise_ordering(&report).expect("pairwise always holds");
            if spec::check_ordering(&report).is_err() {
                global_cycles += 1;
            }
        }
        rows.push(Row {
            genuine: "✓",
            order: "pairwise",
            detector: "(∧ Σ_{g∩h}) ∧ (∧ Ω_g)",
            scenario: format!(
                "ring(3,2): global ↦ cycles in {global_cycles}/{trials} random schedules"
            ),
            outcome: "pairwise holds; global ordering violated".into(),
            expected: "separation witnessed",
            matches: global_cycles > 0,
        });
    }

    // ---- Row 7: strongly genuine --------------------------------------
    {
        let chain = topology::chain(3, 3);
        let ok = chain.iter().all(|(g, _)| {
            check_group_parallelism(
                &chain,
                FailurePattern::all_correct(chain.universe()),
                g,
                RuntimeConfig::default(),
                budget,
            )
            .is_ok()
        });
        rows.push(Row {
            genuine: "✓✓",
            order: "global",
            detector: "μ ∧ (∧ Ω_{g∩h}), ℱ=∅",
            scenario: "chain(3,3), every group isolated".into(),
            outcome: if ok {
                "solved".into()
            } else {
                "blocked".into()
            },
            expected: "solved",
            matches: ok,
        });
        // ℱ ≠ ∅: contended isolation blocks (the ≥ separation).
        let ring = topology::ring(3, 2);
        let mut rt = Runtime::new(
            &ring,
            FailurePattern::all_correct(ring.universe()),
            RuntimeConfig::default(),
        );
        rt.multicast(ProcessId(1), GroupId(1), 0);
        // adversarial restricted schedule: only p2 runs, through the engine
        let mut exec = RuntimeExecutor::with_set(rt, ProcessSet::singleton(ProcessId(1)));
        run_fair(&mut exec, 100_000);
        let mut rt = exec.into_runtime();
        let blocked = check_group_parallelism_staged(&mut rt, GroupId(0), 200_000).is_err();
        rows.push(Row {
            genuine: "✓✓",
            order: "global",
            detector: "μ (ℱ≠∅, contended)",
            scenario: "ring(3,2), isolated g1 after g2 contention".into(),
            outcome: if blocked {
                "blocked".into()
            } else {
                "solved".into()
            },
            expected: "blocked",
            matches: blocked,
        });
    }

    // ---- Liveness ablation: μ without γ on a cyclic topology -----------
    {
        // With γ withheld (never excluding faulty families), an intersection
        // crash on the ring blocks commitment forever.
        let gs = topology::ring(3, 2);
        let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(0), Time(2))]);
        let cfg = RuntimeConfig {
            mu: gam_detectors::MuConfig {
                gamma_delay: u64::MAX / 2, // γ never reports the faultiness
                ..Default::default()
            },
            ..Default::default()
        };
        let report =
            one_per_group_workload(&gs, pattern, cfg, 1, RotatingSource::default(), 300_000);
        let out = if report.quiescent {
            match spec::check_all(&report, Variant::Standard) {
                Ok(()) => Outcome::Solved,
                Err(v) => Outcome::Violated(if v.property == "termination" {
                    "termination"
                } else {
                    "other"
                }),
            }
        } else {
            Outcome::Blocked
        };
        let matches = matches!(out, Outcome::Blocked | Outcome::Violated("termination"));
        rows.push(Row {
            genuine: "✓",
            order: "global",
            detector: "μ without γ (withheld)",
            scenario: "ring(3,2), joint crash".into(),
            outcome: out.to_string(),
            expected: "blocked/termination-violated",
            matches,
        });
    }

    // ---- Level B: Algorithm 1 over the wire -----------------------------
    {
        use gam_core::distributed::{DistProcess, MuHistory};
        use gam_core::MessageId;
        use gam_detectors::{MuConfig, MuOracle};
        use gam_kernel::{RunOutcome, Simulator};
        let gs = topology::ring(3, 2);
        let pattern = FailurePattern::all_correct(gs.universe());
        let mu = MuOracle::new(&gs, pattern.clone(), MuConfig::default());
        let autos: Vec<DistProcess> = gs
            .universe()
            .iter()
            .map(|p| DistProcess::new(p, &gs))
            .collect();
        let mut sim = Simulator::new(autos, pattern, MuHistory::new(mu));
        for g in 0..3u32 {
            let src = gs.members(GroupId(g)).min().unwrap();
            sim.automaton_mut(src)
                .multicast(MessageId(g as u64), GroupId(g));
        }
        let mut exec = KernelExecutor::new(sim);
        let out = run_fair(&mut exec, 10_000_000);
        let all_delivered = (0..3u32).all(|g| {
            gs.members(GroupId(g)).iter().all(|p| {
                exec.sim()
                    .automaton(p)
                    .delivered()
                    .contains(&MessageId(g as u64))
            })
        });
        let solved = out == RunOutcome::Quiescent && all_delivered;
        rows.push(Row {
            genuine: "✓",
            order: "global",
            detector: "μ (message passing)",
            scenario: format!(
                "ring(3,2) over the wire, {} protocol messages",
                exec.sim().total_messages()
            ),
            outcome: if solved {
                "solved".into()
            } else {
                "blocked".into()
            },
            expected: "solved",
            matches: solved,
        });
    }

    // ---- print + persist ------------------------------------------------
    println!(
        "{:<4} {:<9} {:<28} {:<44} {:<28} match",
        "gen", "order", "detector", "scenario", "outcome"
    );
    let mut all_match = true;
    for r in &rows {
        all_match &= r.matches;
        println!(
            "{:<4} {:<9} {:<28} {:<44} {:<28} {}",
            r.genuine,
            r.order,
            r.detector,
            r.scenario,
            r.outcome,
            if r.matches { "✔" } else { "✘" }
        );
    }
    let record: Json = rows
        .iter()
        .map(|r| {
            Json::obj([
                ("genuine", Json::from(r.genuine)),
                ("order", Json::from(r.order)),
                ("detector", Json::from(r.detector)),
                ("scenario", Json::from(r.scenario.clone())),
                ("outcome", Json::from(r.outcome.clone())),
                ("expected", Json::from(r.expected)),
                ("matches", Json::from(r.matches)),
            ])
        })
        .collect();
    write_experiment("table1.json", &record);
    println!(
        "\n{} rows; all match the paper: {}",
        rows.len(),
        if all_match { "YES" } else { "NO" }
    );
    assert!(all_match, "Table 1 reproduction failed");
}
