//! The deterministic discrete-event simulator.
//!
//! A [`Simulator`] drives one [`Automaton`](crate::Automaton) per process
//! against a [`FailurePattern`] and a failure-detector [`History`], recording
//! a [`Trace`]. Which step comes next is always a [`ScheduleSource`]'s
//! choice ([`Simulator::run`]); crashes are injected exactly at the times
//! the pattern dictates.
//!
//! A step of `p` at `t` consumes `H(p, t)`. The simulator holds one sample
//! per process and asks the history for a new one only when the clock has
//! left the window the history vouched for ([`History::stable_until`]), so
//! a step costs a detector query only when the detector's output can have
//! changed — under any failure pattern and any history; one that vouches
//! for nothing is sampled at every step.
//!
//! Low-level control ([`Simulator::options_into`],
//! [`Simulator::step_choice`]) exposes the adversarial scheduling the
//! necessity proofs of the paper quantify over: running only a chosen
//! subset of processes, choosing which pending message a step receives, or
//! forcing null-message steps.

use crate::automaton::{Automaton, History, StepCtx};
use crate::failure::FailurePattern;
use crate::message::{Envelope, MessageBuffer, MsgId};
use crate::process::{ProcessId, ProcessSet};
use crate::schedule::ScheduleSource;
use crate::time::Time;
use crate::trace::Trace;

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
/// messages, clock and trace; the trace's sealed event chunks are shared,
/// not copied), so a clone restarted from a checkpoint replays
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
            trace: Trace::new(n),
            samples: (0..n).map(|_| None).collect(),
            counters: SimCounters::default(),
        };
        sim.inject_crashes();
        sim
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

    /// Runs under `source` until quiescence, `max_steps` steps, or the
    /// source stopping: each step lists the choice space over every process
    /// ([`Simulator::options_into`]), asks `source` for one option and takes
    /// it ([`Simulator::step_choice`]) — the calls `gam-engine`'s
    /// `KernelExecutor` makes, in the same order.
    pub fn run(&mut self, source: &mut impl ScheduleSource, max_steps: u64) -> RunOutcome {
        let universe = self.universe();
        let mut options = Vec::new();
        for _ in 0..max_steps {
            self.options_into(universe, &mut options);
            if options.is_empty() {
                return RunOutcome::Quiescent;
            }
            let Some((idx, choice)) = source.next_choice(&options) else {
                return RunOutcome::Stopped;
            };
            self.step_choice(options[idx].0, choice);
        }
        RunOutcome::BudgetExhausted
    }

    /// The current choice space over `set`, written into a caller-provided
    /// buffer (the allocation-free form the hot step loop of `gam-engine`
    /// uses): each eligible process paired with its option arity, in
    /// ascending process order. Process `p` with `k` pending messages offers
    /// choices `0..k` (receive the `c`-th oldest) plus, when it is active,
    /// choice `k` (the null message).
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

    /// Executes one step of `p` taking sub-choice `choice` of its current
    /// option space: `choice < pending` receives the `choice`-th oldest
    /// pending message, `choice >= pending` takes a null step.
    ///
    /// Returns the id of the received message, if any. The clock advances
    /// either way; a process that has crashed by then takes no step.
    pub fn step_choice(&mut self, p: ProcessId, choice: usize) -> Option<MsgId> {
        self.now = self.now.next();
        self.inject_crashes();
        if self.crashed.contains(p) {
            return None;
        }
        // `p` is alive, so crash injection left its queue as it stood when
        // `choice` was picked; a choice past its end is the null message.
        let input: Option<Envelope<A::Msg>> = self.buffer.receive_nth(p, choice);
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
        self.trace.record_step(p, received_id.is_some());
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::NoDetector;
    use crate::schedule::{RandomSource, RotatingSource};

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
        let outcome = sim.run(&mut RotatingSource::default(), 10_000);
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
            let mut sim = Simulator::new(flood_system(n, 2), pattern.clone(), NoDetector);
            let outcome = sim.run(&mut RandomSource::new(seed), 100_000);
            assert_eq!(outcome, RunOutcome::Quiescent);
            sim.trace().total_steps()
        };
        assert_eq!(run(42), run(42), "same seed, same run");
        for p in ProcessSet::first_n(n) {
            // all processes deliver under the random scheduler too
            let mut sim = Simulator::new(flood_system(n, 2), pattern.clone(), NoDetector);
            sim.run(&mut RandomSource::new(7), 100_000);
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
        sim.run(&mut RotatingSource::default(), 10_000);
        assert_eq!(sim.trace().steps_of(ProcessId(2)), 0);
        assert_eq!(sim.trace().events_of(ProcessId(2)).count(), 0);
        // the others still deliver
        assert_eq!(sim.trace().events_of(ProcessId(0)).count(), 1);
        assert_eq!(sim.trace().events_of(ProcessId(1)).count(), 1);
    }

    #[test]
    fn a_subset_choice_space_restricts_steps_to_the_subset() {
        let n = 4;
        let pattern = FailurePattern::all_correct(ProcessSet::first_n(n));
        let mut sim = Simulator::new(flood_system(n, 0), pattern, NoDetector);
        let subset = ProcessSet::from_iter([0u32, 1]);
        let mut options = Vec::new();
        loop {
            sim.options_into(subset, &mut options);
            let Some(&(p, _)) = options.first() else {
                break;
            };
            sim.step_choice(p, 0);
        }
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
        let mut sim = Simulator::new(flood_system(n, 0), pattern, NoDetector);
        // p0 spontaneous step sends to everyone
        let got = sim.step_choice(ProcessId(0), 0);
        assert_eq!(got, None);
        assert_eq!(sim.pending(ProcessId(1)), 1);
        // a choice past the pending messages is the null message …
        assert_eq!(sim.step_choice(ProcessId(1), 1), None);
        assert_eq!(sim.pending(ProcessId(1)), 1);
        // … and choice 0 receives the oldest
        let got = sim.step_choice(ProcessId(1), 0);
        assert!(got.is_some());
        assert_eq!(sim.trace().total_steps(), 3);
        assert_eq!(sim.trace().receives_of(ProcessId(1)), 1);
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
            let mut sim = Simulator::new(vec![Echo(20); n], pattern, history);
            let outcome = sim.run(&mut RandomSource::new(5), 1_000);
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
        sim.run(&mut RotatingSource::default(), 4);
        assert_eq!(sim.counters().fd_sampled, 2);
        // a clone counts from zero and samples for itself …
        let mut twin = sim.clone();
        assert_eq!(twin.counters(), SimCounters::default());
        twin.run(&mut RotatingSource::default(), 4);
        assert_eq!((twin.counters().steps, twin.counters().fd_sampled), (4, 2));
        // … and `clone_from` rewinds the counters with the state and drops
        // the samples taken under what it replaced
        let checkpoint = sim.counters();
        twin.clone_from(&sim);
        assert_eq!(twin.counters(), checkpoint);
        twin.run(&mut RotatingSource::default(), 100);
        sim.run(&mut RotatingSource::default(), 100);
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
        sim.run(&mut RotatingSource::default(), 10_000);
        assert_eq!(sim.trace().steps_of(ProcessId(1)), 0);
        assert_eq!(sim.trace().events_of(ProcessId(2)).count(), 1);
    }
}
