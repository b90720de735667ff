//! The deterministic discrete-event simulator.
//!
//! A [`Simulator`] drives one [`Automaton`](crate::Automaton) per process
//! against a [`FailurePattern`] and a failure-detector [`History`], recording
//! a [`Trace`]. Steps are scheduled by a [`Scheduler`] policy; crashes are
//! injected exactly at the times the pattern dictates; fairness (every
//! message addressed to a live process is eventually received) is guaranteed
//! by the built-in policies.
//!
//! A step of `p` at `t` consumes `H(p, t)`. The simulator holds one sample
//! per process and asks the history for a new one only when the clock has
//! left the window the history vouched for ([`History::stable_until`]), so
//! a step costs a detector query only when the detector's output can have
//! changed — under any failure pattern and any history; one that vouches
//! for nothing is sampled at every step.
//!
//! Low-level control ([`Simulator::step_process`], [`Simulator::run_only`])
//! exposes the adversarial scheduling the necessity proofs of the paper
//! quantify over: running only a chosen subset of processes, choosing which
//! pending message a step receives, or forcing null-message steps.

use crate::automaton::{Automaton, History, StepCtx};
use crate::failure::FailurePattern;
use crate::message::{Envelope, MessageBuffer, MsgId};
use crate::process::{ProcessId, ProcessSet};
#[cfg(doc)]
use crate::schedule::ScheduleSource;
use crate::time::Time;
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the next step is chosen when running the simulator in a loop.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Scheduler {
    /// Cycle over processes in index order; each scheduled process receives
    /// its oldest pending message (FIFO), or takes a null step if it is
    /// active. Deterministic and fair.
    #[default]
    RoundRobin,
    /// Pick a random eligible process; it receives a uniformly random pending
    /// message, or (with probability `null_prob`) takes a null step. Fair
    /// with probability 1. Seeded — runs are replayable.
    Random {
        /// Probability that a step of an active process receives the null
        /// message even though messages are pending.
        null_prob: f64,
    },
}

/// Which message a manually scheduled step receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Receive {
    /// The oldest pending message, or null if none.
    Oldest,
    /// The `k`-th oldest pending message (panics if out of range).
    Nth(usize),
    /// The null message `m_⊥`, regardless of pending messages.
    Null,
}

/// Why a run loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// No live process had a pending message or wanted a null step.
    Quiescent,
    /// The step budget was exhausted before quiescence.
    BudgetExhausted,
    /// The [`ScheduleSource`] declined to pick a step (its schedule or path
    /// was exhausted) while the system was still live.
    Stopped,
}

/// Deterministic work counters of a [`Simulator`], read with
/// [`Simulator::counters`]: functions of the steps this simulator executed,
/// never of the host. They are no part of the simulation state — no digest
/// or comparison reads them; a `clone` starts counting from zero and
/// `clone_from` rewinds them to the source's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimCounters {
    /// Steps executed (a step scheduled for a crashed process is none).
    pub steps: u64,
    /// Of those, the steps that received the null message.
    pub null_steps: u64,
    /// Of those, the steps that received a message.
    pub receives: u64,
    /// Calls to [`History::sample`]: one per (process, window) entered.
    pub fd_sampled: u64,
    /// Steps served from the sample the process already held.
    pub fd_reused: u64,
}

/// `H(p, t)` as last sampled for one process, and the instant up to which
/// the history vouched for it.
#[derive(Debug)]
struct Sample<V> {
    value: V,
    until: Time,
}

/// The simulator: automata + buffer + failure pattern + detector history.
///
/// `Clone` copies the entire simulation state (automata, in-flight
/// messages, trace, scheduler cursor and RNG; the trace's sealed log chunks
/// are shared, not copied), so a clone restarted from a checkpoint replays
/// bit-for-bit — the [`ScheduleSource`]-driven explorer relies on this for
/// prefix-sharing DFS snapshots. `clone_from` rewinds to such a checkpoint
/// field by field, into the buffers the simulator already holds. The
/// detector samples are derived from `(history, now)` and are not copied:
/// a clone, and a simulator rewound by `clone_from`, sample afresh.
#[derive(Debug)]
pub struct Simulator<A: Automaton, H: History<Value = A::Fd>> {
    automata: Vec<A>,
    buffer: MessageBuffer<A::Msg>,
    pattern: FailurePattern,
    history: H,
    now: Time,
    crashed: ProcessSet,
    trace: Trace<A::Event>,
    rng: StdRng,
    rr_cursor: usize,
    /// Per process: the sample its steps consume while `now ≤ until`.
    samples: Vec<Option<Sample<A::Fd>>>,
    counters: SimCounters,
}

impl<A: Automaton + Clone, H: History<Value = A::Fd> + Clone> Clone for Simulator<A, H> {
    fn clone(&self) -> Self {
        Simulator {
            automata: self.automata.clone(),
            buffer: self.buffer.clone(),
            pattern: self.pattern.clone(),
            history: self.history.clone(),
            now: self.now,
            crashed: self.crashed,
            trace: self.trace.clone(),
            rng: self.rng.clone(),
            rr_cursor: self.rr_cursor,
            samples: (0..self.samples.len()).map(|_| None).collect(),
            counters: SimCounters::default(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let Simulator {
            automata,
            buffer,
            pattern,
            history,
            now,
            crashed,
            trace,
            rng,
            rr_cursor,
            samples,
            counters,
        } = src;
        self.automata.clone_from(automata);
        self.buffer.clone_from(buffer);
        self.pattern.clone_from(pattern);
        self.history.clone_from(history);
        self.now = *now;
        self.crashed = *crashed;
        self.trace.clone_from(trace);
        self.rng.clone_from(rng);
        self.rr_cursor = *rr_cursor;
        // Taken under the history and clock this call just replaced.
        self.samples.clear();
        self.samples.resize_with(samples.len(), || None);
        self.counters = *counters;
    }
}

impl<A: Automaton, H: History<Value = A::Fd>> Simulator<A, H> {
    /// Creates a simulator over `automata` (one per process, by index) with
    /// the given failure pattern and detector history.
    ///
    /// # Panics
    ///
    /// Panics if the number of automata differs from the size of the
    /// pattern's universe, or the universe is not `{p_0..p_{n-1}}`.
    pub fn new(automata: Vec<A>, pattern: FailurePattern, history: H) -> Self {
        let n = automata.len();
        assert_eq!(
            pattern.universe(),
            ProcessSet::first_n(n),
            "universe must be the first {n} processes"
        );
        let mut sim = Simulator {
            automata,
            buffer: MessageBuffer::new(n),
            pattern,
            history,
            now: Time::ZERO,
            crashed: ProcessSet::EMPTY,
            trace: Trace::new(n, false),
            rng: StdRng::seed_from_u64(0),
            rr_cursor: 0,
            samples: (0..n).map(|_| None).collect(),
            counters: SimCounters::default(),
        };
        sim.inject_crashes();
        sim
    }

    /// Seeds the random scheduler (default seed: 0).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = StdRng::seed_from_u64(seed);
        self
    }

    /// Enables recording of the full schedule in the trace.
    pub fn with_schedule_recording(mut self) -> Self {
        let n = self.automata.len();
        self.trace = Trace::new(n, true);
        self
    }

    /// The current global time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The set of all processes.
    pub fn universe(&self) -> ProcessSet {
        self.pattern.universe()
    }

    /// The processes alive (not yet crashed) at the current time.
    pub fn alive(&self) -> ProcessSet {
        self.universe() - self.crashed
    }

    /// The failure pattern driving the run.
    pub fn pattern(&self) -> &FailurePattern {
        &self.pattern
    }

    /// The run trace so far.
    pub fn trace(&self) -> &Trace<A::Event> {
        &self.trace
    }

    /// Read access to a process automaton (e.g. to inspect final state).
    pub fn automaton(&self, p: ProcessId) -> &A {
        &self.automata[p.index()]
    }

    /// Mutable access to a process automaton, for injecting protocol-level
    /// requests (e.g. "multicast this message") between steps.
    pub fn automaton_mut(&mut self, p: ProcessId) -> &mut A {
        &mut self.automata[p.index()]
    }

    /// Number of messages currently pending for `p`.
    pub fn pending(&self, p: ProcessId) -> usize {
        self.buffer.pending(p)
    }

    /// Total number of messages sent so far.
    pub fn total_messages(&self) -> u64 {
        self.buffer.total_sent()
    }

    /// The work counters accumulated by this simulator.
    pub fn counters(&self) -> SimCounters {
        self.counters
    }

    fn inject_crashes(&mut self) {
        let newly = self.pattern.faulty_at(self.now) - self.crashed;
        for p in newly {
            self.crashed.insert(p);
            self.buffer.drop_for(p);
        }
    }

    fn eligible(&self, p: ProcessId) -> bool {
        !self.crashed.contains(p)
            && (self.buffer.pending(p) > 0 || self.automata[p.index()].is_active())
    }

    /// Executes one step of process `p`, receiving per `receive`.
    ///
    /// Returns the id of the received message, if any. Does nothing and
    /// returns `None` if `p` has already crashed.
    ///
    /// # Panics
    ///
    /// Panics if `Receive::Nth(k)` is out of range.
    pub fn step_process(&mut self, p: ProcessId, receive: Receive) -> Option<MsgId> {
        self.now = self.now.next();
        self.inject_crashes();
        if self.crashed.contains(p) {
            return None;
        }
        let input: Option<Envelope<A::Msg>> = match receive {
            Receive::Null => None,
            Receive::Oldest => self.buffer.receive_oldest(p),
            Receive::Nth(k) => Some(
                self.buffer
                    .receive_nth(p, k)
                    .expect("Receive::Nth out of range"),
            ),
        };
        let received_id = input.as_ref().map(|e| e.id);
        self.counters.steps += 1;
        match received_id {
            Some(_) => self.counters.receives += 1,
            None => self.counters.null_steps += 1,
        }
        let slot = &mut self.samples[p.index()];
        let sample = match slot {
            Some(sample) if self.now <= sample.until => {
                self.counters.fd_reused += 1;
                sample
            }
            _ => {
                self.counters.fd_sampled += 1;
                slot.insert(Sample {
                    value: self.history.sample(p, self.now),
                    until: self.history.stable_until(p, self.now),
                })
            }
        };
        let mut ctx = StepCtx::new(p, self.now);
        self.automata[p.index()].step(&mut ctx, input, &sample.value);
        self.trace.record_step(self.now, p, received_id);
        for event in ctx.events.drain(..) {
            self.trace.record_event(self.now, p, event);
        }
        for (dst, payload) in ctx.sends.drain(..) {
            self.trace.record_send(p);
            // Copies addressed to already-crashed processes are dead letters.
            let live_dst = dst - self.crashed;
            self.buffer.send(p, live_dst, self.now, payload);
        }
        received_id
    }

    /// Runs under `scheduler` until quiescence or `max_steps` elapsed,
    /// considering every process schedulable.
    pub fn run(&mut self, scheduler: Scheduler, max_steps: u64) -> RunOutcome {
        self.run_only(self.universe(), scheduler, max_steps)
    }

    /// Runs under `scheduler`, scheduling **only** the processes of `set`
    /// (the others take no step — the adversarial schedules of §5).
    pub fn run_only(
        &mut self,
        set: ProcessSet,
        scheduler: Scheduler,
        max_steps: u64,
    ) -> RunOutcome {
        let mut taken = 0u64;
        loop {
            if taken >= max_steps {
                return RunOutcome::BudgetExhausted;
            }
            let Some((p, receive)) = self.pick(set, scheduler) else {
                return RunOutcome::Quiescent;
            };
            self.step_process(p, receive);
            taken += 1;
        }
    }

    /// Runs until `pred` holds over the simulator, quiescence, or budget
    /// exhaustion. Returns `true` iff `pred` held.
    pub fn run_until<F>(
        &mut self,
        set: ProcessSet,
        scheduler: Scheduler,
        max_steps: u64,
        mut pred: F,
    ) -> bool
    where
        F: FnMut(&Self) -> bool,
    {
        let mut taken = 0u64;
        loop {
            if pred(self) {
                return true;
            }
            if taken >= max_steps {
                return false;
            }
            let Some((p, receive)) = self.pick(set, scheduler) else {
                return pred(self);
            };
            self.step_process(p, receive);
            taken += 1;
        }
    }

    fn pick(&mut self, set: ProcessSet, scheduler: Scheduler) -> Option<(ProcessId, Receive)> {
        // Crash injection may lag behind `now` if no step occurred; the next
        // step will inject. Eligibility is computed over current knowledge.
        match scheduler {
            Scheduler::RoundRobin => {
                // Advance the cursor to the next eligible process.
                let n = self.automata.len();
                for off in 0..n {
                    let idx = (self.rr_cursor + off) % n;
                    let p = ProcessId(idx as u32);
                    if set.contains(p) && self.eligible(p) {
                        self.rr_cursor = (idx + 1) % n;
                        return Some((p, Receive::Oldest));
                    }
                }
                None
            }
            Scheduler::Random { null_prob } => {
                let candidates: ProcessSet = set.iter().filter(|p| self.eligible(*p)).collect();
                if candidates.is_empty() {
                    return None;
                }
                let p = candidates
                    .iter()
                    .nth(self.rng.gen_range(0..candidates.len()))
                    .expect("index drawn below the set's length");
                let pending = self.buffer.pending(p);
                let receive = if pending == 0
                    || (self.automata[p.index()].is_active() && self.rng.gen_bool(null_prob))
                {
                    Receive::Null
                } else {
                    Receive::Nth(self.rng.gen_range(0..pending))
                };
                Some((p, receive))
            }
        }
    }

    /// Replays a fixed schedule: executes each `(process, receive)` step in
    /// order. Crashed processes silently skip their steps (as in the
    /// model). The necessity arguments of §5 construct runs step-by-step;
    /// this is their programmatic form.
    pub fn run_schedule(&mut self, schedule: &[(ProcessId, Receive)]) {
        for (p, receive) in schedule {
            self.step_process(*p, *receive);
        }
    }

    /// The current choice space over `set`: each eligible process paired
    /// with its option arity, in ascending process order. Process `p` with
    /// `k` pending messages offers choices `0..k` (receive the `c`-th
    /// oldest) plus, when it is active, choice `k` (the null message).
    pub fn options_in(&self, set: ProcessSet) -> Vec<(ProcessId, usize)> {
        let mut out = Vec::new();
        self.options_into(set, &mut out);
        out
    }

    /// [`Simulator::options_in`], writing into a caller-provided buffer —
    /// the allocation-free form the hot step loop of `gam-engine` uses.
    pub fn options_into(&self, set: ProcessSet, out: &mut Vec<(ProcessId, usize)>) {
        out.clear();
        for p in set {
            if self.eligible(p) {
                let pending = self.buffer.pending(p);
                let null = usize::from(self.automata[p.index()].is_active());
                out.push((p, pending + null));
            }
        }
    }

    /// Returns `true` if no process of `set` is eligible to step: nothing is
    /// pending for any live process of `set` and none is active. For the
    /// message-passing substrate an empty choice space *is* quiescence — no
    /// step will ever become enabled again without outside intervention.
    pub fn is_quiescent_in(&self, set: ProcessSet) -> bool {
        set.iter().all(|p| !self.eligible(p))
    }

    /// The current choice space over the full universe
    /// (see [`Simulator::options_in`]).
    pub fn options(&self) -> Vec<(ProcessId, usize)> {
        self.options_in(self.universe())
    }

    /// Executes one step of `p` taking sub-choice `choice` of its current
    /// option space: `choice < pending` receives the `choice`-th oldest
    /// pending message, `choice >= pending` takes a null step.
    pub fn step_choice(&mut self, p: ProcessId, choice: usize) -> Option<MsgId> {
        let receive = if choice < self.buffer.pending(p) {
            Receive::Nth(choice)
        } else {
            Receive::Null
        };
        self.step_process(p, receive)
    }

    /// Consumes the simulator, returning the trace.
    pub fn into_trace(self) -> Trace<A::Event> {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::NoDetector;

    /// A ping automaton: process 0 starts by flooding a token; every process
    /// that first receives the token forwards it to everyone and delivers.
    #[derive(Debug)]
    struct Flood {
        start: bool,
        seen: bool,
        everyone: ProcessSet,
    }

    impl Automaton for Flood {
        type Msg = u8;
        type Fd = ();
        type Event = &'static str;

        fn step(
            &mut self,
            ctx: &mut StepCtx<u8, &'static str>,
            input: Option<Envelope<u8>>,
            _fd: &(),
        ) {
            if self.start {
                self.start = false;
                self.seen = true;
                ctx.send(self.everyone, 1);
                ctx.emit("got");
            } else if input.is_some() && !self.seen {
                self.seen = true;
                ctx.send(self.everyone, 1);
                ctx.emit("got");
            }
        }

        fn is_active(&self) -> bool {
            self.start
        }
    }

    fn flood_system(n: usize, starter: usize) -> Vec<Flood> {
        let everyone = ProcessSet::first_n(n);
        (0..n)
            .map(|i| Flood {
                start: i == starter,
                seen: false,
                everyone,
            })
            .collect()
    }

    #[test]
    fn simulator_is_send_for_threaded_exploration() {
        // The parallel explorer moves whole simulators onto worker threads;
        // a non-Send field sneaking into the state (Rc, raw pointers, …)
        // must fail here rather than in gam-explore's build.
        fn assert_send<T: Send>(_: &T) {}
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(3));
        let sim = Simulator::new(flood_system(3, 0), pattern, NoDetector);
        assert_send(&sim);
    }

    #[test]
    fn round_robin_floods_everyone() {
        let n = 5;
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(n));
        let mut sim = Simulator::new(flood_system(n, 0), pattern, NoDetector);
        let outcome = sim.run(Scheduler::RoundRobin, 10_000);
        assert_eq!(outcome, RunOutcome::Quiescent);
        for p in ProcessSet::first_n(n) {
            assert_eq!(sim.trace().events_of(p).count(), 1, "{p} delivered once");
        }
    }

    #[test]
    fn random_scheduler_is_fair_and_replayable() {
        let n = 6;
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(n));
        let run = |seed| {
            let mut sim =
                Simulator::new(flood_system(n, 2), pattern.clone(), NoDetector).with_seed(seed);
            let outcome = sim.run(Scheduler::Random { null_prob: 0.1 }, 100_000);
            assert_eq!(outcome, RunOutcome::Quiescent);
            sim.trace().total_steps()
        };
        assert_eq!(run(42), run(42), "same seed, same run");
        for p in ProcessSet::first_n(n) {
            // all processes deliver under the random scheduler too
            let mut sim =
                Simulator::new(flood_system(n, 2), pattern.clone(), NoDetector).with_seed(7);
            sim.run(Scheduler::Random { null_prob: 0.2 }, 100_000);
            assert_eq!(sim.trace().events_of(p).count(), 1);
        }
    }

    #[test]
    fn crashed_process_takes_no_step_and_receives_nothing() {
        let n = 3;
        let pattern = FailurePattern::from_crashes(
            ProcessSet::first_n(n),
            [(ProcessId(2), Time(0))], // p2 is initially dead
        );
        let mut sim = Simulator::new(flood_system(n, 0), pattern, NoDetector);
        sim.run(Scheduler::RoundRobin, 10_000);
        assert_eq!(sim.trace().steps_of(ProcessId(2)), 0);
        assert_eq!(sim.trace().events_of(ProcessId(2)).count(), 0);
        // the others still deliver
        assert_eq!(sim.trace().events_of(ProcessId(0)).count(), 1);
        assert_eq!(sim.trace().events_of(ProcessId(1)).count(), 1);
    }

    #[test]
    fn run_only_restricts_steps_to_subset() {
        let n = 4;
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(n));
        let mut sim = Simulator::new(flood_system(n, 0), pattern, NoDetector);
        let subset = ProcessSet::from_iter([0u32, 1]);
        sim.run_only(subset, Scheduler::RoundRobin, 10_000);
        assert!(sim.trace().steps_of(ProcessId(2)) == 0);
        assert!(sim.trace().steps_of(ProcessId(3)) == 0);
        // p0 and p1 delivered; p2, p3 have the token pending but never step
        assert_eq!(sim.trace().events_of(ProcessId(0)).count(), 1);
        assert_eq!(sim.trace().events_of(ProcessId(1)).count(), 1);
        assert!(sim.pending(ProcessId(2)) > 0);
    }

    #[test]
    fn manual_stepping_and_receive_choices() {
        let n = 2;
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(n));
        let mut sim =
            Simulator::new(flood_system(n, 0), pattern, NoDetector).with_schedule_recording();
        // p0 spontaneous step sends to everyone
        let got = sim.step_process(ProcessId(0), Receive::Null);
        assert_eq!(got, None);
        assert_eq!(sim.pending(ProcessId(1)), 1);
        // p1 receives the oldest message
        let got = sim.step_process(ProcessId(1), Receive::Oldest);
        assert!(got.is_some());
        assert_eq!(sim.trace().steps().len(), 2);
    }

    #[test]
    fn run_schedule_replays_exactly() {
        let n = 3;
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(n));
        let mut sim =
            Simulator::new(flood_system(n, 0), pattern, NoDetector).with_schedule_recording();
        sim.run_schedule(&[
            (ProcessId(0), Receive::Null),   // p0 floods
            (ProcessId(1), Receive::Oldest), // p1 receives, refloods
            (ProcessId(2), Receive::Oldest), // p2 receives
        ]);
        assert_eq!(sim.trace().steps().len(), 3);
        assert_eq!(sim.trace().events().len(), 3);
        // crashed processes skip scheduled steps
        let pattern =
            FailurePattern::from_crashes(ProcessSet::first_n(n), [(ProcessId(1), Time(0))]);
        let mut sim = Simulator::new(flood_system(n, 0), pattern, NoDetector);
        sim.run_schedule(&[(ProcessId(1), Receive::Null)]);
        assert_eq!(sim.trace().steps_of(ProcessId(1)), 0);
    }

    #[test]
    fn run_until_predicate() {
        let n = 4;
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(n));
        let mut sim = Simulator::new(flood_system(n, 0), pattern, NoDetector);
        let ok = sim.run_until(ProcessSet::first_n(n), Scheduler::RoundRobin, 10_000, |s| {
            s.trace().events().len() >= 2
        });
        assert!(ok);
        assert!(sim.trace().events().len() >= 2);
    }

    /// A detector that counts its queries and reports, at every process,
    /// which `window`-tick window the clock is in.
    #[derive(Debug, Clone)]
    struct Windowed {
        window: u64,
        vouches: bool,
        sampled: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl History for Windowed {
        type Value = u64;

        fn sample(&self, _p: ProcessId, t: Time) -> u64 {
            self.sampled.set(self.sampled.get() + 1);
            t.0 / self.window
        }

        fn stable_until(&self, _p: ProcessId, t: Time) -> Time {
            if self.vouches {
                Time((t.0 / self.window + 1) * self.window - 1)
            } else {
                t
            }
        }
    }

    /// Emits every detector output it is handed; active for `budget` steps.
    #[derive(Debug, Clone)]
    struct Echo(u32);

    impl Automaton for Echo {
        type Msg = ();
        type Fd = u64;
        type Event = u64;

        fn step(&mut self, ctx: &mut StepCtx<(), u64>, _input: Option<Envelope<()>>, fd: &u64) {
            self.0 -= 1;
            ctx.emit(*fd);
        }

        fn is_active(&self) -> bool {
            self.0 > 0
        }
    }

    #[test]
    fn the_history_is_sampled_once_per_process_and_window() {
        let n = 3;
        let run = |vouches: bool| {
            let sampled = std::rc::Rc::new(std::cell::Cell::new(0));
            let history = Windowed {
                window: 10,
                vouches,
                sampled: sampled.clone(),
            };
            // p2 crashes mid-run: crash plans go through the same slots
            let pattern =
                FailurePattern::from_crashes(ProcessSet::first_n(n), [(ProcessId(2), Time(25))]);
            let mut sim = Simulator::new(vec![Echo(20); n], pattern, history).with_seed(5);
            let outcome = sim.run(Scheduler::Random { null_prob: 0.5 }, 1_000);
            assert_eq!(outcome, RunOutcome::Quiescent);
            let emitted: Vec<_> = sim.trace().events().iter().cloned().collect();
            (sim, sampled.get(), emitted)
        };
        let (reusing, sampled, emitted) = run(true);
        // every step consumed H(p, t) for its own t …
        assert!(emitted.iter().all(|e| e.event == e.time.0 / 10));
        // … from one query per (process, window) in which the process stepped
        let mut windows: Vec<(ProcessId, u64)> = emitted.iter().map(|e| (e.pid, e.event)).collect();
        windows.sort();
        windows.dedup();
        assert_eq!(sampled, windows.len() as u64);
        let c = reusing.counters();
        assert_eq!(c.fd_sampled, sampled);
        assert_eq!(c.fd_sampled + c.fd_reused, c.steps);
        assert_eq!(c.null_steps + c.receives, c.steps);
        assert_eq!(c.steps, reusing.trace().total_steps());
        assert!(c.fd_reused > c.fd_sampled, "windows of 10 ticks are reused");
        // a history that vouches for nothing is queried at every step, to
        // the same trace
        let (every_step, sampled_every_step, same) = run(false);
        assert_eq!(sampled_every_step, every_step.counters().steps);
        assert_eq!(every_step.counters().fd_reused, 0);
        assert_eq!(same, emitted);
    }

    #[test]
    fn samples_and_counters_are_not_simulation_state() {
        let n = 2;
        let history = Windowed {
            window: 1_000,
            vouches: true,
            sampled: Default::default(),
        };
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(n));
        let mut sim = Simulator::new(vec![Echo(6); n], pattern, history);
        sim.run(Scheduler::RoundRobin, 4);
        assert_eq!(sim.counters().fd_sampled, 2);
        // a clone counts from zero and samples for itself …
        let mut twin = sim.clone();
        assert_eq!(twin.counters(), SimCounters::default());
        twin.run(Scheduler::RoundRobin, 4);
        assert_eq!((twin.counters().steps, twin.counters().fd_sampled), (4, 2));
        // … and `clone_from` rewinds the counters with the state and drops
        // the samples taken under what it replaced
        let checkpoint = sim.counters();
        twin.clone_from(&sim);
        assert_eq!(twin.counters(), checkpoint);
        twin.run(Scheduler::RoundRobin, 100);
        sim.run(Scheduler::RoundRobin, 100);
        assert_eq!(twin.counters().fd_sampled, checkpoint.fd_sampled + 2);
        assert_eq!(sim.counters().fd_sampled, checkpoint.fd_sampled);
        let events = |s: &Simulator<Echo, Windowed>| s.trace().events().iter().cloned().collect();
        let (a, b): (Vec<_>, Vec<_>) = (events(&sim), events(&twin));
        assert_eq!(a, b);
    }

    #[test]
    fn mid_run_crash_silences_process() {
        let n = 3;
        // p1 crashes at time 1: before it can ever step.
        let pattern =
            FailurePattern::from_crashes(ProcessSet::first_n(n), [(ProcessId(1), Time(1))]);
        let mut sim = Simulator::new(flood_system(n, 0), pattern, NoDetector);
        sim.run(Scheduler::RoundRobin, 10_000);
        assert_eq!(sim.trace().steps_of(ProcessId(1)), 0);
        assert_eq!(sim.trace().events_of(ProcessId(2)).count(), 1);
    }
}
