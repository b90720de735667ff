//! A tour of the necessity side (§5–§6): extracting every constituent of
//! the weakest failure detector `μ` from a multicast black box.
//!
//! Runs the four extraction algorithms on the Figure 1 system under a crash
//! of `p2 = g1 ∩ g2`, and certifies each emulated detector against its
//! class axioms with the validators of `gam-detectors`.
//!
//! Run with: `cargo run --example necessity_tour`

use genuine_multicast::detectors::validate::{validate_gamma, validate_indicator, validate_sigma};
use genuine_multicast::emulation::{
    GammaExtraction, IndicatorExtraction, OmegaExtraction, SigmaExtraction,
};
use genuine_multicast::prelude::*;

fn main() {
    let gs = topology::fig1();
    let pattern = FailurePattern::from_crashes(gs.universe(), [(ProcessId(1), Time(5))]);
    let env = Environment::wait_free(gs.universe());
    println!("system: Figure 1; crash: p2 (= g1∩g2) at t5\n");

    // --- Algorithm 2: Σ_{g∩h} -------------------------------------------
    // Extract Σ for g3 ∩ g4 = {p1, p4} (both alive) and certify it.
    let (g3, g4) = (GroupId(2), GroupId(3));
    let mut sigma = SigmaExtraction::new(&gs, pattern.clone(), &[g3, g4]);
    for t in 0..=80u64 {
        sigma.advance(Time(t));
    }
    validate_sigma(
        |p, t| sigma.quorum(p, t),
        &pattern,
        sigma.scope(),
        Time(40),
        Time(80),
    )
    .expect("emulated Σ_(g3∩g4) is a valid quorum detector");
    let witness = sigma.scope().min().unwrap();
    println!(
        "Algorithm 2: Σ_(g3∩g4) certified; stabilised quorum at {witness}: {:?}",
        sigma.quorum(witness, Time(80)).unwrap()
    );

    // --- Algorithm 3: γ ---------------------------------------------------
    let mut gamma = GammaExtraction::new(&gs, pattern.clone(), &env);
    let n = gs.universe().len();
    let mut samples: Vec<Vec<Vec<GroupSet>>> = Vec::new();
    for t in 0..=80u64 {
        gamma.advance(Time(t));
        samples.push(
            (0..n)
                .map(|i| gamma.families(ProcessId(i as u32)))
                .collect(),
        );
    }
    validate_gamma(
        |p, t| samples[t.0 as usize][p.index()].clone(),
        &gs,
        &pattern,
        Time(40),
        Time(80),
    )
    .expect("emulated γ is a valid cyclicity detector");
    println!(
        "Algorithm 3: γ certified; ℱ(p1) after the crash: {:?}",
        gamma.families(ProcessId(0))
    );

    // --- Algorithm 4: 1^{g1∩g2} -------------------------------------------
    let (g1, g2) = (GroupId(0), GroupId(1));
    let mut ind = IndicatorExtraction::new(&gs, pattern.clone(), g1, g2);
    for t in 0..=60u64 {
        ind.advance(Time(t));
    }
    validate_indicator(
        |p, t| ind.indicates(p, t),
        &pattern,
        ind.monitored(),
        gs.members(g1) | gs.members(g2),
        Time(30),
        Time(60),
    )
    .expect("emulated 1^(g1∩g2) is a valid indicator");
    println!(
        "Algorithm 4: 1^(g1∩g2) certified; fires after p2's crash: {:?} → {:?}",
        ind.indicates(ProcessId(0), Time(4)).unwrap(),
        ind.indicates(ProcessId(0), Time(60)).unwrap()
    );

    // --- Algorithm 5: Ω_{g∩h} ----------------------------------------------
    // The CHT simulation forest over a two-process intersection.
    let scope = ProcessSet::first_n(2);
    let omega_pattern = FailurePattern::from_crashes(scope, [(ProcessId(0), Time(0))]);
    let ext = OmegaExtraction::new(scope, omega_pattern.clone(), 8, 4);
    let leader = ext.leader(ProcessId(1)).expect("in scope");
    assert!(omega_pattern.is_correct(leader));
    println!("Algorithm 5: simulation forest elects {leader} (correct) with p0 crashed at start");

    println!("\n✔ every constituent of μ was extracted from the black box and certified");
}
