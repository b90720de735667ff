//! Property-based integration tests: random topologies and workloads.
//!
//! - Lemma 30: `H(p, g) = H(p', g)` for processes in intersections of a
//!   common cyclic family containing `g` (Figure 2's construction).
//! - Family faultiness is monotone in the crashed set.
//! - Algorithm 1 satisfies integrity + ordering on random workloads and
//!   schedules over the topology suite.
//! - `γ` oracles are valid for random patterns and delays.
//! - Scheduling is deterministic: equal seeds give equal trace hashes, and
//!   recorded schedules replay (also through text serialization) to the
//!   identical run.

use genuine_multicast::explore::{trace_hash, Repro, Scenario};
use genuine_multicast::kernel::{RecordInto, RunOutcome};
use genuine_multicast::prelude::*;
use proptest::prelude::*;

/// A random group system: `n ∈ 4..8` processes, `k ∈ 2..5` random groups of
/// size ≥ 2 (deduplicated), via [`topology::random`].
fn arb_system() -> impl Strategy<Value = GroupSystem> {
    (4usize..8, 2usize..5, any::<u64>()).prop_map(|(n, k, seed)| topology::random(n, k, 0.45, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Lemma 30 (Figure 2): H-sets agree across the intersections of a
    /// cyclic family.
    #[test]
    fn lemma30_h_sets_agree(gs in arb_system()) {
        for f in gs.cyclic_families() {
            for g in f {
                // processes in intersections of f (with any other group of f)
                let witnesses: Vec<ProcessId> = gs
                    .universe()
                    .iter()
                    .filter(|p| gs.in_some_intersection(f, *p)
                        && gs.members(g).contains(*p))
                    .collect();
                let hsets: Vec<GroupSet> =
                    witnesses.iter().map(|p| gs.h_set(*p, g)).collect();
                for w in hsets.windows(2) {
                    prop_assert_eq!(w[0], w[1], "H(p,{}) differs", g);
                }
            }
        }
    }

    /// Faultiness of a family is monotone in the crashed set.
    #[test]
    fn family_faultiness_is_monotone(gs in arb_system(), crash_seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(crash_seed);
        let mut crashed = ProcessSet::new();
        let families = gs.cyclic_families();
        let mut was_faulty: Vec<bool> = families.iter().map(|_| false).collect();
        for p in gs.universe() {
            if rng.gen_bool(0.5) {
                crashed.insert(p);
            }
            for (i, f) in families.iter().enumerate() {
                let now = gs.family_faulty(*f, crashed);
                prop_assert!(!was_faulty[i] || now, "faultiness regressed");
                was_faulty[i] = now;
            }
        }
        // with everyone crashed, every cyclic family is faulty
        for f in &families {
            prop_assert!(gs.family_faulty(*f, gs.universe()));
        }
    }

    /// Algorithm 1 on random workloads: integrity + ordering + minimality
    /// always hold; termination whenever the run quiesces in budget.
    #[test]
    fn algorithm1_safe_on_random_workloads(
        topo_idx in 0usize..9,
        seed in any::<u64>(),
        burst in 1usize..4,
    ) {
        let (_, gs) = topology::suite().swap_remove(topo_idx);
        let mut rt = Runtime::new(
            &gs,
            FailurePattern::all_correct(gs.universe()),
            RuntimeConfig::default(),
        );
        for round in 0..burst {
            for (g, members) in gs.iter() {
                let srcs: Vec<ProcessId> = members.iter().collect();
                rt.multicast(srcs[round % srcs.len()], g, round as u64);
            }
        }
        let mut source = RandomSource::new(seed);
        let q = rt.run_with_source(gs.universe(), &mut source, 3_000_000) == RunOutcome::Quiescent;
        let report = rt.report(q);
        prop_assert!(q, "must quiesce");
        spec::check_integrity(&report).map_err(|v| TestCaseError::fail(v.to_string()))?;
        spec::check_ordering(&report).map_err(|v| TestCaseError::fail(v.to_string()))?;
        spec::check_minimality(&report).map_err(|v| TestCaseError::fail(v.to_string()))?;
        spec::check_termination(&report).map_err(|v| TestCaseError::fail(v.to_string()))?;
    }

    /// Algorithm 1 under a random single crash on a random suite topology:
    /// safety always; liveness (quiescence + termination) as the paper
    /// guarantees with μ.
    #[test]
    fn algorithm1_correct_under_random_crashes(
        topo_idx in 0usize..9,
        seed in any::<u64>(),
        victim_pick in any::<u32>(),
        crash_at in 0u64..30,
    ) {
        let (_, gs) = topology::suite().swap_remove(topo_idx);
        let victim = ProcessId(victim_pick % gs.universe().len() as u32);
        let pattern = FailurePattern::from_crashes(gs.universe(), [(victim, Time(crash_at))]);
        let mut rt = Runtime::new(
            &gs,
            pattern.clone(),
            RuntimeConfig::default(),
        );
        for (g, members) in gs.iter() {
            if let Some(src) = (members & pattern.correct()).min() {
                rt.multicast(src, g, 0);
            }
        }
        let mut source = RandomSource::new(seed);
        let q = rt.run_with_source(gs.universe(), &mut source, 3_000_000) == RunOutcome::Quiescent;
        let report = rt.report(q);
        prop_assert!(q, "must quiesce under μ");
        spec::check_all(&report, Variant::Standard)
            .map_err(|v| TestCaseError::fail(v.to_string()))?;
    }

    /// γ oracle validity on random systems, patterns and delays.
    #[test]
    fn gamma_oracle_valid_on_random_systems(
        gs in arb_system(),
        victim in 0u32..8,
        crash_at in 0u64..20,
        delay in 0u64..5,
    ) {
        let universe = gs.universe();
        let victim = ProcessId(victim % universe.len() as u32);
        let pattern = FailurePattern::from_crashes(universe, [(victim, Time(crash_at))]);
        let gamma = GammaOracle::new(&gs, pattern.clone(), delay);
        genuine_multicast::detectors::validate::validate_gamma(
            |p, t| gamma.families(p, t),
            &gs,
            &pattern,
            Time(crash_at + delay + 1),
            Time(crash_at + delay + 20),
        )
        .map_err(|v| TestCaseError::fail(v.to_string()))?;
    }

    /// The log object under random operation sequences keeps `<_L` a strict
    /// total order consistent with lock stability (cross-crate composition
    /// of gam-objects invariants at the workspace level).
    #[test]
    fn log_order_composes_with_runtime_data(ops in proptest::collection::vec((0u8..2, 0u64..8, 1u64..12), 1..40)) {
        use genuine_multicast::core::Datum;
        use genuine_multicast::core::MessageId;
        let mut log: Log<Datum> = Log::new();
        for (op, m, k) in ops {
            let d = Datum::Msg(MessageId(m));
            match op {
                0 => { log.append(d); }
                _ => if log.contains(&d) { log.bump_and_lock(&d, Pos(k)); },
            }
        }
        let in_order: Vec<Datum> = log.iter_in_order().cloned().collect();
        for i in 0..in_order.len() {
            for j in (i + 1)..in_order.len() {
                prop_assert!(log.before(&in_order[i], &in_order[j]));
                prop_assert!(!log.before(&in_order[j], &in_order[i]));
            }
        }
    }

    /// Same seed ⇒ identical trace hash, across the whole topology suite;
    /// different seeds diverge somewhere in the suite.
    #[test]
    fn runs_are_seed_deterministic_across_the_suite(
        topo_idx in 0usize..9,
        seed in any::<u64>(),
    ) {
        let (name, gs) = topology::suite().swap_remove(topo_idx);
        let scenario = Scenario::one_per_group(&gs, 1_000_000);
        let run = |seed: u64| {
            let mut source = RandomSource::new(seed);
            let report = scenario.run(&mut source);
            prop_assert!(report.quiescent, "{}: must quiesce", name);
            Ok(trace_hash(&report))
        };
        prop_assert_eq!(run(seed)?, run(seed)?, "{}: same seed, same trace", name);
        // a perturbed seed must change *some* schedule; on the 1-process
        // corner there is nothing to reorder, so only check n > 1
        if gs.universe().len() > 1 {
            prop_assert_ne!(run(seed)?, run(!seed)?, "{}: seeds must matter", name);
        }
    }

    /// Record → serialize → parse → replay reproduces the original trace
    /// exactly (the fixture pipeline of `tests/regressions.rs`).
    #[test]
    fn recorded_schedules_replay_identically(
        topo_idx in 0usize..9,
        seed in any::<u64>(),
    ) {
        let (name, gs) = topology::suite().swap_remove(topo_idx);
        let scenario = Scenario::one_per_group(&gs, 1_000_000);
        let mut schedule = Vec::new();
        let original = scenario.run(&mut RecordInto::new(RandomSource::new(seed), &mut schedule));
        let repro = Repro {
            scenario,
            schedule,
            seed,
            property: None,
        };
        prop_assert_eq!(
            repro.trace_hash(),
            trace_hash(&original),
            "{}: replay diverged from the recording", name
        );
        let reparsed = Repro::parse(&repro.to_text())
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(
            reparsed.trace_hash(),
            trace_hash(&original),
            "{}: replay diverged after text round-trip", name
        );
    }
}
