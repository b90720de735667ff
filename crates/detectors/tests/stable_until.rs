//! `History::stable_until` is sound for every oracle and every mode: up to
//! and including the instant it returns, the oracle outputs at `p` what it
//! outputs at `t` — so a simulator that keeps `H(p, t)` for that long hands
//! its automata exactly the history a per-step query would have — and it is
//! not vacuous where the detector's events are known.

use gam_detectors::{
    GammaOracle, MuConfig, MuOracle, OmegaMode, OmegaOracle, SigmaMode, SigmaOracle,
};
use gam_groups::{topology, GroupSystem};
use gam_kernel::{FailurePattern, History, ProcessId, ProcessSet, Time};
use proptest::prelude::*;

/// Instants at which windows are opened.
const T_MAX: u64 = 200;
/// Windows are followed this far (crashes and stabilisations all fall
/// earlier, so the last window opened is checked over a stretch too).
const HORIZON: u64 = 240;

fn omega_mode(kind: u8, at: u64, period: u64, correct: Option<ProcessId>) -> OmegaMode {
    match (kind % 3, correct) {
        (1, _) => OmegaMode::RotateUntil {
            stabilize_at: Time(at),
            period,
        },
        (2, Some(l)) => OmegaMode::Fixed(l),
        _ => OmegaMode::MinAlive,
    }
}

fn sigma_mode(kind: u8, at: u64) -> SigmaMode {
    match kind % 3 {
        0 => SigmaMode::Alive,
        1 => SigmaMode::LazyUntil(Time(at)),
        _ => SigmaMode::MinCorrectSingleton,
    }
}

/// A crash plan over `universe`: each listed process (mod `n`) at its time.
fn pattern(universe: ProcessSet, crashes: &[(u32, u64)]) -> FailurePattern {
    let n = universe.len() as u32;
    FailurePattern::from_crashes(
        universe,
        crashes.iter().map(|(p, t)| (ProcessId(p % n), Time(*t))),
    )
}

/// Every window `stable_until` opens at `(p, t ≤ T_MAX)` holds one value.
fn check_windows<V: PartialEq + std::fmt::Debug>(
    what: &str,
    universe: ProcessSet,
    sample: impl Fn(ProcessId, Time) -> V,
    stable_until: impl Fn(ProcessId, Time) -> Time,
) -> Result<(), TestCaseError> {
    for p in universe {
        let values: Vec<V> = (0..=HORIZON).map(|t| sample(p, Time(t))).collect();
        for t in 0..=T_MAX {
            let until = stable_until(p, Time(t));
            prop_assert!(
                until >= Time(t),
                "{what}: window of {p} at t{t} ends before it"
            );
            for later in t..=until.0.min(HORIZON) {
                prop_assert_eq!(
                    &values[later as usize],
                    &values[t as usize],
                    "{}: {} at t{} vouched for until {}, moved at t{}",
                    what,
                    p,
                    t,
                    until,
                    later
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_constituent_oracle_holds_its_windows(
        crashes in proptest::collection::vec((0u32..6, 0u64..180), 0..5),
        scope_bits in 1u32..64,
        omega in (0u8..3, 0u64..220, 0u64..12),
        sigma in (0u8..3, 0u64..220),
    ) {
        let universe = ProcessSet::first_n(6);
        let pattern = pattern(universe, &crashes);
        let scope: ProcessSet = (0..6u32).filter(|i| scope_bits & (1 << i) != 0).collect();
        let correct = (scope & pattern.correct()).min();
        let o = OmegaOracle::new(scope, pattern.clone(), omega_mode(omega.0, omega.1, omega.2, correct));
        check_windows("Ω", universe, |p, t| o.sample(p, t), |p, t| o.stable_until(p, t))?;
        let s = SigmaOracle::new(scope, pattern, sigma_mode(sigma.0, sigma.1));
        check_windows("Σ", universe, |p, t| s.sample(p, t), |p, t| s.stable_until(p, t))?;
    }

    #[test]
    fn mu_holds_its_windows_on_cyclic_topologies(
        crashes in proptest::collection::vec((0u32..8, 0u64..180), 0..4),
        which in 0u8..3,
        omega in (0u8..2, 0u64..220, 0u64..12),
        sigma in (0u8..3, 0u64..220),
        gamma_delay in 0u64..40,
    ) {
        let gs: GroupSystem = match which {
            0 => topology::fig1(),
            1 => topology::ring(3, 2),
            _ => topology::hub(3, 2),
        };
        let pattern = pattern(gs.universe(), &crashes);
        let gamma = GammaOracle::new(&gs, pattern.clone(), gamma_delay);
        check_windows("γ", gs.universe(), |p, t| gamma.sample(p, t), |p, t| gamma.stable_until(p, t))?;
        let config = MuConfig {
            sigma: sigma_mode(sigma.0, sigma.1),
            omega: omega_mode(omega.0, omega.1, omega.2, None),
            gamma_delay,
        };
        let mu = MuOracle::new(&gs, pattern, config);
        // everything Algorithm 1 reads of μ at one process
        let everything = |p: ProcessId, t: Time| {
            let groups: Vec<_> = gs
                .iter()
                .map(|(g, _)| (mu.omega(g, p, t), mu.gamma_groups(p, g, t)))
                .collect();
            let quorums: Vec<_> = gs
                .iter()
                .flat_map(|(g, _)| gs.iter().map(move |(h, _)| (g, h)))
                .map(|(g, h)| mu.sigma(g, h, p, t))
                .collect();
            (groups, quorums, mu.gamma_families(p, t))
        };
        check_windows("μ", gs.universe(), everything, |p, t| mu.stable_until(p, t))?;
    }
}

#[test]
fn a_crash_free_default_mu_never_moves() {
    let gs = topology::fig1();
    let mu = MuOracle::new(
        &gs,
        FailurePattern::all_correct(gs.universe()),
        MuConfig::default(),
    );
    for p in gs.universe() {
        assert_eq!(mu.stable_until(p, Time(0)), Time(u64::MAX));
        assert_eq!(mu.stable_until(p, Time(12_345)), Time(u64::MAX));
    }
}

#[test]
fn a_rotating_omega_vouches_for_the_current_turn() {
    let scope = ProcessSet::first_n(4);
    let omega = OmegaOracle::new(
        scope,
        FailurePattern::all_correct(scope),
        OmegaMode::RotateUntil {
            stabilize_at: Time(100),
            period: 7,
        },
    );
    let p = ProcessId(1);
    assert_eq!(omega.stable_until(p, Time(0)), Time(6));
    assert_eq!(omega.stable_until(p, Time(6)), Time(6));
    assert_eq!(omega.stable_until(p, Time(7)), Time(13));
    // the last turn is cut short by stabilisation, after which Ω is still
    assert_eq!(omega.stable_until(p, Time(98)), Time(99));
    assert_eq!(omega.stable_until(p, Time(100)), Time::MAX);
    // ⊥ outside the scope, forever
    assert_eq!(omega.stable_until(ProcessId(9), Time(3)), Time::MAX);
}

#[test]
fn a_crash_ends_the_window_of_the_oracles_it_concerns() {
    let gs = topology::fig1();
    let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(1), Time(50))]);
    let mu = MuOracle::new(&gs, pattern, MuConfig::default());
    // p1 shares g1 with the crashing p2: its window ends the tick before
    assert_eq!(mu.stable_until(ProcessId(0), Time(0)), Time(49));
    assert_eq!(mu.stable_until(ProcessId(0), Time(50)), Time::MAX);
}
