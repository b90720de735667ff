//! [`Executor`] over the Level-A substrate: the Algorithm 1 shared-object
//! [`Runtime`] of `gam-core`.
//!
//! A scheduling option of process `p` is one of its enabled guarded actions
//! in the deterministic action order (so sub-choice `0` is the action the
//! round-robin policy would fire). Unlike the kernel, the runtime's
//! clock may *idle*: guards can become enabled purely by the passage of
//! detector time, so an empty choice space with outstanding delivery
//! obligations advances the clock instead of ending the run.

use crate::digest::{Digest, Fingerprint};
use crate::exec::{Executor, SnapshotExec};
use gam_core::{ActionDesc, Fired, RunReport, Runtime};
use gam_kernel::schedule::ChoiceStep;
use gam_kernel::{ProcessId, ProcessSet, Refill, RunOutcome};

/// The Algorithm 1 runtime as an [`Executor`].
pub struct RuntimeExecutor {
    rt: Runtime,
    set: ProcessSet,
    digest: Digest,
}

impl RuntimeExecutor {
    /// Wraps `rt`, scheduling every process of its universe.
    pub fn new(rt: Runtime) -> Self {
        let set = rt.system().universe();
        RuntimeExecutor::with_set(rt, set)
    }

    /// Wraps `rt`, scheduling **only** the processes of `set` (the
    /// adversarial subset schedules group parallelism and genuineness
    /// quantify over).
    pub fn with_set(rt: Runtime, set: ProcessSet) -> Self {
        RuntimeExecutor {
            rt,
            set,
            digest: Digest::new(),
        }
    }

    /// An executor standing at `snap`, scheduling every process — the twin
    /// [`SnapshotExec::restore`] is specified against: a fresh digest
    /// history continued from the checkpoint's. Costs what a
    /// restore costs (chunk-table refcount bumps; the interned topology and
    /// oracle tables stay shared), which is what lets an explorer build a
    /// scenario's executor once and stamp every later run from it.
    pub fn from_snapshot(snap: &RuntimeSnapshot) -> Self {
        RuntimeExecutor {
            digest: snap.digest,
            ..RuntimeExecutor::new(snap.rt.clone())
        }
    }

    /// Read access to the wrapped runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Mutable access to the wrapped runtime (e.g. to submit multicasts
    /// between runs).
    // gam-lint: allow(U001, reason = "tests/ready_set.rs and tests/fair_tail.rs drive the runtime behind an executor through it")
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.rt
    }

    /// Consumes the executor, returning the runtime.
    pub fn into_runtime(self) -> Runtime {
        self.rt
    }

    /// The report of the run so far (see [`Runtime::report`]).
    pub fn report(&self, quiescent: bool) -> RunReport {
        self.rt.report(quiescent)
    }

    /// The report of the run so far, written over an earlier report of the
    /// same scenario (see [`Runtime::report_into`]).
    pub fn report_into(&self, report: &mut RunReport, quiescent: bool) {
        self.rt.report_into(report, quiescent);
    }

    /// [`SnapshotExec::snapshot`] into the storage of a checkpoint that is
    /// no longer needed: `slot` ends up sharing every chunk with the
    /// executor exactly as a fresh snapshot would — it costs, and
    /// [`SnapshotExec::snapshot_cost`] reports, the same pointer copies —
    /// but its pointer tables and row buffers are reused instead of
    /// allocated.
    pub fn snapshot_into(&self, slot: &mut RuntimeSnapshot) {
        slot.rt.refill(&self.rt, Refill::Share);
        slot.digest = self.digest;
    }

    /// Describes the current choice space in flat digit order (see
    /// [`Runtime::describe_enabled`]), one descriptor per option for the
    /// independence relation. Only the gated benchmark calls it.
    pub fn describe_enabled(&self, out: &mut Vec<ActionDesc>) {
        self.rt.describe_enabled(self.set, out);
    }

    /// Folds one step of `pid`, after the runtime fired it, into the
    /// history digest.
    fn fold_step(&mut self, pid: ProcessId, fired: Fired) {
        self.digest.push(self.rt.now().0);
        self.digest.push(u64::from(pid.0));
        self.digest
            .push(fired.delivered.map_or(u64::from(fired.fired), |m| m.0 + 2));
        // Batched units fold their width as an extra word; unbatched runs
        // (count ≤ 1) keep the historical three-word stream byte-identical,
        // so existing `.repro` fixtures and cross-substrate digests replay
        // unchanged when batching is off.
        if fired.delivered_count > 1 {
            self.digest.push(u64::from(fired.delivered_count));
        }
    }
}

/// A [`RuntimeExecutor`] checkpoint: the full Algorithm 1 runtime (logs,
/// oracles, clock) plus the executor's history digest. Not a deep copy:
/// the runtime's columns are shared with the executor chunk by chunk until
/// one side writes (see `gam_kernel::cow`), and nothing ever writes
/// through a snapshot. The scheduled process set is configuration, not
/// state, and stays out.
#[derive(Debug, Clone)]
pub struct RuntimeSnapshot {
    rt: Runtime,
    digest: Digest,
}

impl SnapshotExec for RuntimeExecutor {
    type Snapshot = RuntimeSnapshot;

    fn snapshot(&self) -> RuntimeSnapshot {
        RuntimeSnapshot {
            rt: self.rt.clone(),
            digest: self.digest,
        }
    }

    fn restore(&mut self, snap: &RuntimeSnapshot) {
        self.rt.clone_from(&snap.rt);
        self.digest = snap.digest;
    }

    fn snapshot_cost(&self) -> (u64, u64) {
        self.rt.snapshot_cost_bytes()
    }
}

impl Executor for RuntimeExecutor {
    fn enabled_actions(&mut self, out: &mut Vec<(ProcessId, usize)>) {
        self.rt.options_into(self.set, out);
    }

    fn step(&mut self, action: ChoiceStep) {
        let fired = self.rt.fire_enabled(action.pid, action.choice);
        self.fold_step(action.pid, fired);
    }

    fn state_digest(&self) -> u64 {
        self.digest.value()
    }

    fn state_fingerprint(&self) -> u64 {
        // A real state walk (unlike the history-digest default): folds what
        // a continuation and a verdict can observe of the runtime's state
        // ([`Runtime::fold_observable`]), so schedules that *converge* —
        // different interleavings reaching the same machine, up to unit
        // names and who of a group took which step — collide here and the
        // explorer's dedup can prune them.
        let mut f = Fingerprint::new();
        self.rt.fold_observable(&mut |w| f.push(w));
        f.value()
    }

    fn is_quiescent(&self) -> bool {
        self.rt.is_quiescent_in(self.set)
    }

    fn idle_tick(&mut self) -> bool {
        self.rt.idle_tick();
        // Sentinel keeps the word stream prefix-free: a step folds
        // (time, pid, effect), an idle folds (MAX, time).
        self.digest.push(u64::MAX);
        self.digest.push(self.rt.now().0);
        true
    }

    /// The default loop's run, without listing the choice space: the
    /// runtime's round-robin picker ([`Runtime::fire_round_robin`]) on a
    /// cursor this call owns, starting at 0, makes exactly the fresh
    /// [`RotatingSource`](gam_kernel::schedule::RotatingSource)'s picks, and
    /// each step is folded and recorded as [`Executor::step`] would with
    /// sub-choice 0. Only the rows the scan reaches are brought up to date.
    fn run_fair_tail(&mut self, max_steps: u64, record: &mut Vec<ChoiceStep>) -> (RunOutcome, u64) {
        let mut cursor = 0;
        let mut taken = 0u64;
        loop {
            if taken >= max_steps {
                return (RunOutcome::BudgetExhausted, taken);
            }
            match self.rt.fire_round_robin(self.set, &mut cursor) {
                Some((pid, fired)) => {
                    self.fold_step(pid, fired);
                    record.push(ChoiceStep { pid, choice: 0 });
                }
                // Nothing enabled: every row the scan visited is current
                // and empty, so `is_quiescent` reduces to owing nothing.
                None if !self.rt.has_obligations(self.set) => {
                    return (RunOutcome::Quiescent, taken);
                }
                None => {
                    self.idle_tick();
                }
            }
            taken += 1;
        }
    }
}
