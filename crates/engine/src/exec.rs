//! The [`Executor`] interface and the unified schedule drivers.
//!
//! The paper reasons about two very different machines — Algorithm 1 over
//! linearizable shared objects (Level A, `gam_core::Runtime`) and automata
//! over an asynchronous message-passing network (Level B,
//! `gam_kernel::Simulator`) — but quantifies both over the same adversary:
//! *which enabled move happens next*. [`Executor`] is that common shape.
//! Everything downstream of the substrates (the explorer, replay, the bench
//! bins, equivalence checks) is written once against it, and every
//! [`ScheduleSource`] drives either substrate through the same
//! [`run_with_source`] loop.
//!
//! The driver owns exactly one reusable options buffer, consults the source,
//! and forwards the pick; substrate specifics (what a sub-choice means, when
//! the clock may idle) live behind the trait. The one driver a substrate may
//! specialise is the fair tail, [`Executor::run_fair_tail`]: by default that
//! loop under [`RotatingSource`], which lists the whole choice space only to
//! take its first entry at or after a cursor.

use crate::Observer;
use gam_kernel::schedule::{ChoiceStep, RecordInto, ReplaySource, RotatingSource};
use gam_kernel::{ProcessId, RunOutcome, ScheduleSource};

/// A steppable execution substrate: a state machine exposing its current
/// choice space, accepting scheduling decisions, and reporting quiescence
/// and an incremental run digest.
///
/// Implementations exist for both substrates ([`RuntimeExecutor`] and
/// [`KernelExecutor`]); see the crate docs for how to add a new one.
///
/// `Send` is a supertrait, so the compiler checks every impl: parallel
/// explorers build and drive one executor per worker thread. Observers
/// cross the same boundary, hence the `Send` bound on [`Executor::attach`].
///
/// [`RuntimeExecutor`]: crate::RuntimeExecutor
/// [`KernelExecutor`]: crate::KernelExecutor
pub trait Executor: Send {
    /// Writes the current choice space into `out`: each process eligible to
    /// step, in ascending process order, paired with its positive option
    /// arity. Sub-choice `0` is always the substrate's "default" option
    /// (oldest message / least enabled action), the invariant the shrinker
    /// and the fair tail rely on.
    fn enabled_actions(&mut self, out: &mut Vec<(ProcessId, usize)>);

    /// Executes one scheduling decision. Out-of-range sub-choices clamp to
    /// the last option (replay tolerance); a decision for a process that
    /// crashes at the very tick of its step is consumed without effect.
    fn step(&mut self, action: ChoiceStep);

    /// The incremental digest of the run so far: folds every step taken (and
    /// every substrate-observable effect) in order, so two runs agree on
    /// their digests iff they agree on their observable histories.
    fn state_digest(&self) -> u64;

    /// A digest of the substrate's **current state** (as opposed to
    /// [`Executor::state_digest`], which hashes the *history* that led
    /// there), as far as anything downstream can observe it: equal values ⇒
    /// equal continuations as reports and verdicts observe them — under any
    /// deterministic continuation the two executors offer the same choice
    /// spaces, consume the same budget, and end in reports no spec checker
    /// tells apart — even when they got there along different schedules.
    /// This is the key the explorer's visited-set dedup prunes on:
    /// converging prefixes (e.g. two interleavings of independent actions)
    /// collide here but never on the history digest.
    ///
    /// It is a *key*, not an identity: a substrate may leave out of it
    /// whatever no continuation and no verdict reads (the Level A runtime
    /// leaves out unit names and per-process step counts, see
    /// `Runtime::fold_observable`), so tests that mean "the same state, bit
    /// for bit" compare the substrate's full state walk beside it.
    ///
    /// The default falls back to the history digest, which is always sound
    /// (equal histories ⇒ equal states) but never detects convergence;
    /// substrates that want dedup to bite override it with a real state
    /// walk.
    fn state_fingerprint(&self) -> u64 {
        self.state_digest()
    }

    /// Returns `true` when the run is over: the choice space is empty and no
    /// option can ever become enabled again (for substrates whose guards
    /// wait on time, this includes "no obligations remain").
    fn is_quiescent(&self) -> bool;

    /// Advances the substrate clock without a step, for substrates whose
    /// guards can become enabled by the passage of time alone. Returns
    /// `false` if the substrate has no notion of idling (the message-passing
    /// kernel: an empty choice space there is final).
    fn idle_tick(&mut self) -> bool;

    /// Subscribes `observer` to the substrate's trace bus (see
    /// [`TraceEvent`](crate::TraceEvent)). Executors publish nothing until
    /// the first observer is attached, keeping the hot loop allocation- and
    /// branch-free in the common case. Observers are `Send` so an observed
    /// executor can still move to a worker thread.
    fn attach(&mut self, observer: Box<dyn Observer + Send>);

    /// Completes the run from where it stands under the fair round-robin
    /// tail — a fresh [`RotatingSource`] — within `max_steps`, appending
    /// every decision taken to `record`: the outcome and the budget
    /// consumed, as [`run_with_source_counted`] returns them. Since that
    /// driver is resumable, a prefix under any source followed by this call
    /// with the remaining budget is the run [`PrefixTail`] drives.
    ///
    /// The default is that loop. A substrate that can find the rotating
    /// pick without listing its whole choice space overrides it with a loop
    /// that takes the same steps, folds the same digest, publishes the same
    /// events and records the same schedule.
    fn run_fair_tail(&mut self, max_steps: u64, record: &mut Vec<ChoiceStep>) -> (RunOutcome, u64) {
        let mut tail = RecordInto::new(RotatingSource::default(), record);
        run_with_source_counted(self, &mut tail, max_steps)
    }
}

/// Checkpoint/restore extension of [`Executor`] — the capability the
/// prefix-sharing DFS explorer is built on.
///
/// A snapshot captures **everything** that determines future behaviour *and*
/// future digests: the substrate state (logs, oracles, clocks, in-flight
/// messages) plus the executor's own incremental
/// history [`Digest`](crate::digest::Digest). After `restore`, the executor must be
/// bit-for-bit indistinguishable from one that reached the checkpoint
/// fresh: the same `enabled_actions`, and — after any continuation — the
/// same `state_digest`, the same substrate state word for word, hence the
/// same `state_fingerprint`. That is what lets the DFS
/// engine prove its runs byte-identical to the restart-from-scratch
/// odometer engine.
///
/// Attached observers are *not* part of a snapshot: `restore` rewinds the
/// machine, not the audience. Observed explorations therefore see each
/// shared prefix published once, at first execution.
///
/// Snapshots are `Send` so the parallel DFS can hold them in per-worker
/// stacks (asserted at compile time for both built-in substrates).
pub trait SnapshotExec: Executor {
    /// The checkpoint type: the substrate + digest state as it stood, by
    /// value or — where the substrate keeps its state in copy-on-write
    /// chunks — by sharing the chunks neither side has written since.
    type Snapshot: Send;

    /// Captures the current state as a checkpoint.
    fn snapshot(&self) -> Self::Snapshot;

    /// Rewinds to a checkpoint previously taken on this executor (or an
    /// identical twin). The snapshot is only read — never written through,
    /// never consumed — so it can be restored any number of times, and on
    /// any twin. The executor rewrites the storage it already owns where
    /// it can (`Clone::clone_from` all the way down) instead of dropping
    /// it for a fresh copy: what it has written since the snapshot it keeps
    /// as private copies, so a caller that backtracks to one checkpoint
    /// repeatedly pays for the first restore and little for the rest.
    /// Restoring a snapshot from a *different* scenario is not meaningful
    /// and yields an unspecified (but memory-safe) state.
    fn restore(&mut self, snap: &Self::Snapshot);

    /// Analytic cost of taking a snapshot *right now*, in bytes, as
    /// `(copied, deep)`: what [`SnapshotExec::snapshot`] actually copies
    /// versus what a deep per-element copy of the same logical state would
    /// have copied. The explorer sums both at every branch point; their
    /// ratio is the copy-on-write saving the DFS bench gates on.
    /// Substrates without cost accounting report `(0, 0)`.
    fn snapshot_cost(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl<E: Executor + ?Sized> Executor for &mut E {
    fn enabled_actions(&mut self, out: &mut Vec<(ProcessId, usize)>) {
        (**self).enabled_actions(out);
    }
    fn step(&mut self, action: ChoiceStep) {
        (**self).step(action);
    }
    fn state_digest(&self) -> u64 {
        (**self).state_digest()
    }
    fn state_fingerprint(&self) -> u64 {
        (**self).state_fingerprint()
    }
    fn is_quiescent(&self) -> bool {
        (**self).is_quiescent()
    }
    fn idle_tick(&mut self) -> bool {
        (**self).idle_tick()
    }
    fn attach(&mut self, observer: Box<dyn Observer + Send>) {
        (**self).attach(observer);
    }
    fn run_fair_tail(&mut self, max_steps: u64, record: &mut Vec<ChoiceStep>) -> (RunOutcome, u64) {
        (**self).run_fair_tail(max_steps, record)
    }
}

/// Runs `exec` with every scheduling decision delegated to `source`, until
/// quiescence, budget exhaustion, or the source stopping. Idle ticks (on
/// substrates that have them) count toward the budget, exactly as in the
/// substrates' native loops.
pub fn run_with_source<E, S>(exec: &mut E, source: &mut S, max_steps: u64) -> RunOutcome
where
    E: Executor + ?Sized,
    S: ScheduleSource + ?Sized,
{
    run_with_source_counted(exec, source, max_steps).0
}

/// [`run_with_source`], additionally returning how much of `max_steps` the
/// run consumed (scheduled steps plus idle ticks). Resumable: a run driven
/// in two phases — a prefix under one source, then a tail under another with
/// the *remaining* budget — takes exactly the steps of the equivalent
/// single-phase run. The explorer relies on this to split a run at the end
/// of its enumerated prefix, and [`replay`] to hand the rest of a run to
/// [`Executor::run_fair_tail`].
pub fn run_with_source_counted<E, S>(
    exec: &mut E,
    source: &mut S,
    max_steps: u64,
) -> (RunOutcome, u64)
where
    E: Executor + ?Sized,
    S: ScheduleSource + ?Sized,
{
    let mut options = Vec::new();
    let mut taken = 0u64;
    loop {
        if taken >= max_steps {
            return (RunOutcome::BudgetExhausted, taken);
        }
        exec.enabled_actions(&mut options);
        if options.is_empty() {
            if exec.is_quiescent() || !exec.idle_tick() {
                return (RunOutcome::Quiescent, taken);
            }
            taken += 1;
            continue;
        }
        let Some((idx, choice)) = source.next_choice(&options) else {
            return (RunOutcome::Stopped, taken);
        };
        exec.step(ChoiceStep {
            pid: options[idx].0,
            choice,
        });
        taken += 1;
    }
}

/// Runs `exec` under the deterministic fair round-robin policy
/// ([`Executor::run_fair_tail`]) — the canonical "just run it" driver.
pub fn run_fair<E: Executor + ?Sized>(exec: &mut E, max_steps: u64) -> RunOutcome {
    exec.run_fair_tail(max_steps, &mut Vec::new()).0
}

/// Runs `exec` under `source`, recording every decision taken. Returns the
/// outcome together with the recorded schedule, which [`replay`]s to the
/// identical run.
pub fn run_recorded<E, S>(exec: &mut E, source: S, max_steps: u64) -> (RunOutcome, Vec<ChoiceStep>)
where
    E: Executor + ?Sized,
    S: ScheduleSource,
{
    let mut log = Vec::new();
    let outcome = run_with_source(exec, &mut RecordInto::new(source, &mut log), max_steps);
    (outcome, log)
}

/// Replays a recorded `schedule` on `exec`, completing with the fair
/// round-robin tail ([`Executor::run_fair_tail`]) once the schedule is
/// exhausted — so every replayed prefix extends to a *fair* run whose
/// quiescence is meaningful. The same run as under
/// `PrefixTail::new(ReplaySource::new(schedule))`.
pub fn replay<E: Executor + ?Sized>(
    exec: &mut E,
    schedule: &[ChoiceStep],
    max_steps: u64,
) -> RunOutcome {
    let mut source = ReplaySource::new(schedule.to_vec());
    match run_with_source_counted(exec, &mut source, max_steps) {
        (RunOutcome::Stopped, taken) => exec.run_fair_tail(max_steps - taken, &mut Vec::new()).0,
        (out, _) => out,
    }
}

/// A source that plays a prefix and then falls back to the fair
/// deterministic round-robin tail forever — the run-completion policy of
/// the explorer as one [`ScheduleSource`]: any enumerated or replayed prefix
/// is extended to a *fair* run, so quiescence (and hence the spec checkers)
/// is meaningful. The explorer and [`replay`] complete their prefixes with
/// [`Executor::run_fair_tail`] instead; this source is the reference that
/// method is held to.
#[derive(Debug)]
pub struct PrefixTail<S> {
    prefix: Option<S>,
    tail: RotatingSource,
}

impl<S: ScheduleSource> PrefixTail<S> {
    /// Plays `prefix` until it stops, then the round-robin tail.
    pub fn new(prefix: S) -> Self {
        PrefixTail {
            prefix: Some(prefix),
            tail: RotatingSource::default(),
        }
    }
}

impl<S: ScheduleSource> ScheduleSource for PrefixTail<S> {
    fn next_choice(&mut self, options: &[(ProcessId, usize)]) -> Option<(usize, usize)> {
        if let Some(prefix) = &mut self.prefix {
            if let Some(pick) = prefix.next_choice(options) {
                return Some(pick);
            }
            self.prefix = None;
        }
        self.tail.next_choice(options)
    }
}
