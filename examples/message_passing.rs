//! Algorithm 1 deployed over the wire — the Level-B execution.
//!
//! Each process runs `gam_core::distributed::DistProcess`: one `Ω_g ∧ Σ_g`
//! replicated state machine per group (for `LOG_g` and the `CONS_{m,𝔣}`
//! objects) plus one Proposition-47 fast log per group intersection. The
//! guarded actions of Algorithm 1 execute as sagas of sequential object
//! operations, exactly as in §4.3's "Implementing the shared objects".
//!
//! Run with: `cargo run --example message_passing`

use gam_kernel::RunOutcome;
use genuine_multicast::core::distributed::{DistProcess, MuHistory};
use genuine_multicast::core::MessageId;
use genuine_multicast::prelude::*;

fn main() {
    // The minimal cyclic topology: three groups in a ring.
    let gs = topology::ring(3, 2);
    println!(
        "topology: ring(3,2) — {} processes, ℱ = {:?}",
        gs.universe().len(),
        gs.cyclic_families()
    );

    let pattern = FailurePattern::all_correct(gs.universe());
    let mu = MuOracle::new(&gs, pattern.clone(), MuConfig::default());
    let autos: Vec<DistProcess> = gs
        .universe()
        .iter()
        .map(|p| DistProcess::new(p, &gs))
        .collect();
    let mut sim = Simulator::new(autos, pattern, MuHistory::new(mu));

    // Concurrent multicasts to all three groups.
    for g in 0..3u32 {
        let src = gs.members(GroupId(g)).min().unwrap();
        sim.automaton_mut(src)
            .multicast(MessageId(g as u64), GroupId(g));
        println!("multicast m{g} from {src} to {}", GroupId(g));
    }

    let out = sim.run(&mut RotatingSource::default(), 10_000_000);
    assert_eq!(out, RunOutcome::Quiescent);

    for p in gs.universe() {
        println!(
            "{p}: delivered {:?}  ({} msgs sent, {} received)",
            sim.automaton(p).delivered(),
            sim.trace().sends_of(p),
            sim.trace().receives_of(p)
        );
    }

    // Agreement on shared destinations.
    for p in gs.universe() {
        for q in gs.universe() {
            let (dp, dq) = (sim.automaton(p).delivered(), sim.automaton(q).delivered());
            for (i, m1) in dp.iter().enumerate() {
                for m2 in &dp[i + 1..] {
                    if let (Some(j1), Some(j2)) = (
                        dq.iter().position(|x| x == m1),
                        dq.iter().position(|x| x == m2),
                    ) {
                        assert!(j1 < j2, "{p} and {q} disagree");
                    }
                }
            }
        }
    }
    println!(
        "✔ all {} messages delivered over the wire in an agreed order ({} protocol messages total)",
        3,
        sim.total_messages()
    );

    // What the run cost, as counts: the detector is queried once per process
    // (a crash-free μ never moves), and a step visits only the consensus
    // instances still open at the stepping process.
    let kernel = sim.counters();
    let (visited, walks) = gs.universe().iter().fold((0, 0), |(v, w), p| {
        let c = sim.automaton(p).counters();
        (v + c.instances_visited, w + c.log_order_walks)
    });
    println!(
        "work: {} steps ({} null, {} receives); μ sampled {} times, reused {}; \
         {visited} consensus instances visited, {walks} ordered log walks",
        kernel.steps, kernel.null_steps, kernel.receives, kernel.fd_sampled, kernel.fd_reused,
    );
}
