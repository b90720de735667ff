//! Driving the Level-B (message-passing) deployment through schedule
//! sources.
//!
//! The runtime-level explorer checks Algorithm 1 over linearizable shared
//! objects; this module aims the same [`ScheduleSource`] machinery at the
//! other end of the stack: `gam_core::distributed::DistProcess` automata
//! under the kernel [`Simulator`], where every
//! scheduling choice is *which pending network message a process receives
//! next*. Both ends go through the same [`gam_engine::Executor`] stepping
//! layer: this module builds the Level-B executor for a [`Scenario`].
//!
//! [`ScheduleSource`]: gam_kernel::schedule::ScheduleSource

use crate::Scenario;
use gam_core::distributed::{DistProcess, MuHistory};
use gam_detectors::{MuConfig, MuOracle};
use gam_engine::KernelExecutor;
use gam_kernel::Simulator;

impl Scenario {
    /// The Level-B (message passing) executor of the scenario: one
    /// [`DistProcess`] per process under the kernel simulator with a `μ`
    /// history, submissions multicast from their sources. Kernel-level
    /// messages carry no user payload, so submission payloads are dropped.
    /// What the processes share of the topology — `ℱ` — is enumerated once.
    pub fn kernel_executor(&self) -> KernelExecutor<DistProcess, MuHistory> {
        let pattern = self.pattern();
        let cyclic = self.system.cyclic_families();
        let autos = self
            .system
            .universe()
            .iter()
            .map(|p| DistProcess::with_families(p, &self.system, &cyclic))
            .collect();
        let mu = MuOracle::new(&self.system, pattern.clone(), MuConfig::default());
        let mut sim = Simulator::new(autos, pattern, MuHistory::new(mu));
        for (i, (src, g, _payload)) in self.submissions.iter().enumerate() {
            sim.automaton_mut(*src)
                .multicast(gam_core::MessageId(i as u64), *g);
        }
        KernelExecutor::new(sim).with_delivery_msg(|e| Some(e.msg))
    }
}
