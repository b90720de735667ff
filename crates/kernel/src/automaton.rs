//! Process automata and failure-detector histories.
//!
//! An algorithm `A` is a family of deterministic automata, one per process.
//! At each step a process (1) retrieves a message (or the null message) from
//! the buffer, (2) queries its local failure detector module, (3) changes its
//! local state, and (4) sends messages. The [`Automaton`] trait captures
//! exactly this step structure; the [`History`] trait captures `H(p, t)`, the
//! local failure-detector output at process `p` and time `t`.

use crate::message::Envelope;
use crate::process::{ProcessId, ProcessSet};
use crate::time::Time;
use std::fmt;

/// A failure-detector history `H : P × ℕ → range(D)`.
///
/// Implementations are the oracles of `gam-detectors`. In the model of
/// Appendix A every step of `p` at `t` queries `H(p, t)`; a detector's
/// output changes only at events (a crash, a detection, a stabilisation
/// instant), so `H(p, ·)` is piecewise constant and the simulator calls
/// [`History::sample`] once per window of [`History::stable_until`] — the
/// step still consumes `H(p, t)`, from the sample it already holds.
pub trait History {
    /// The range of the failure detector.
    type Value: Clone + fmt::Debug;

    /// Returns `H(p, t)`.
    fn sample(&self, p: ProcessId, t: Time) -> Self::Value;

    /// The end of the window of `H(p, ·)` that `t` lies in, as far as the
    /// history can tell: `sample(p, t') == sample(p, t)` for every
    /// `t ≤ t' ≤ stable_until(p, t)`. Any sound under-estimate is valid;
    /// the default, `t`, promises nothing and makes every step sample.
    fn stable_until(&self, _p: ProcessId, t: Time) -> Time {
        t
    }
}

/// The trivial history of the "null" failure detector, which carries no
/// information. Useful for purely asynchronous protocols.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoDetector;

impl History for NoDetector {
    type Value = ();

    fn sample(&self, _p: ProcessId, _t: Time) {}

    fn stable_until(&self, _p: ProcessId, _t: Time) -> Time {
        Time(u64::MAX)
    }
}

impl<H: History + ?Sized> History for &H {
    type Value = H::Value;
    fn sample(&self, p: ProcessId, t: Time) -> Self::Value {
        (**self).sample(p, t)
    }
    fn stable_until(&self, p: ProcessId, t: Time) -> Time {
        (**self).stable_until(p, t)
    }
}

impl<H: History + ?Sized> History for Box<H> {
    type Value = H::Value;
    fn sample(&self, p: ProcessId, t: Time) -> Self::Value {
        (**self).sample(p, t)
    }
    fn stable_until(&self, p: ProcessId, t: Time) -> Time {
        (**self).stable_until(p, t)
    }
}

impl<H: History + ?Sized> History for std::rc::Rc<H> {
    type Value = H::Value;
    fn sample(&self, p: ProcessId, t: Time) -> Self::Value {
        (**self).sample(p, t)
    }
    fn stable_until(&self, p: ProcessId, t: Time) -> Time {
        (**self).stable_until(p, t)
    }
}

impl<H: History + ?Sized> History for std::sync::Arc<H> {
    type Value = H::Value;
    fn sample(&self, p: ProcessId, t: Time) -> Self::Value {
        (**self).sample(p, t)
    }
    fn stable_until(&self, p: ProcessId, t: Time) -> Time {
        (**self).stable_until(p, t)
    }
}

/// The effects a step may produce: outgoing messages and observable events.
///
/// A [`StepCtx`] is handed to [`Automaton::step`]; the automaton calls
/// [`StepCtx::send`] to add messages to the buffer and [`StepCtx::emit`] to
/// expose an observable event (e.g., the delivery of a multicast message) to
/// the run trace.
#[derive(Debug)]
pub struct StepCtx<M, E> {
    me: ProcessId,
    now: Time,
    pub(crate) sends: Vec<(ProcessSet, M)>,
    pub(crate) events: Vec<E>,
}

impl<M, E> StepCtx<M, E> {
    pub(crate) fn new(me: ProcessId, now: Time) -> Self {
        StepCtx {
            me,
            now,
            sends: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Creates a detached context for driving a *sub-automaton* from within
    /// another automaton's step (protocol composition): run the inner
    /// automaton against the detached context, then drain its messages
    /// with [`StepCtx::take_sends`] and translate them into the outer
    /// protocol.
    pub fn detached(me: ProcessId, now: Time) -> Self {
        StepCtx::new(me, now)
    }

    /// Drains the messages sent into this context.
    pub fn take_sends(&mut self) -> Vec<(ProcessSet, M)> {
        std::mem::take(&mut self.sends)
    }

    /// The identity of the stepping process.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The current global time. (Processes cannot read the global clock in
    /// the model; protocol code must not branch on this value. It is exposed
    /// for trace annotations only.)
    pub fn now(&self) -> Time {
        self.now
    }

    /// Sends `payload` to every process of `dst` (possibly including self).
    pub fn send(&mut self, dst: ProcessSet, payload: M) {
        self.sends.push((dst, payload));
    }

    /// Sends `payload` to a single process.
    pub fn send_to(&mut self, dst: ProcessId, payload: M) {
        self.send(ProcessSet::singleton(dst), payload);
    }

    /// Emits an observable event into the run trace.
    pub fn emit(&mut self, event: E) {
        self.events.push(event);
    }
}

/// A deterministic process automaton.
///
/// # Examples
///
/// A process that echoes every received payload back to its sender:
///
/// ```
/// use gam_kernel::{Automaton, StepCtx, Envelope};
///
/// struct Echo;
/// impl Automaton for Echo {
///     type Msg = u64;
///     type Fd = ();
///     type Event = u64;
///     fn step(
///         &mut self,
///         ctx: &mut StepCtx<u64, u64>,
///         input: Option<Envelope<u64>>,
///         _fd: &(),
///     ) {
///         if let Some(env) = input {
///             ctx.emit(env.payload);
///             ctx.send_to(env.src, env.payload + 1);
///         }
///     }
/// }
/// ```
pub trait Automaton {
    /// The protocol message type.
    type Msg: Clone + fmt::Debug;
    /// The failure-detector output type the automaton consumes.
    type Fd: Clone + fmt::Debug;
    /// The observable event type (e.g. deliveries).
    type Event: Clone + fmt::Debug;

    /// Executes one atomic step: `input` is the received message (or `None`
    /// for the null message `m_⊥`) and `fd` the failure-detector sample.
    fn step(
        &mut self,
        ctx: &mut StepCtx<Self::Msg, Self::Event>,
        input: Option<Envelope<Self::Msg>>,
        fd: &Self::Fd,
    );

    /// Whether the automaton has useful work to do *without* receiving a
    /// message. The simulator uses this (together with buffer emptiness) to
    /// detect quiescence; it keeps scheduling null-message steps while any
    /// alive automaton is active.
    ///
    /// Defaults to `false`: most protocols are message-driven.
    fn is_active(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_detector_samples_unit() {
        NoDetector.sample(ProcessId(0), Time(3));
    }

    #[test]
    fn ctx_collects_sends_and_events() {
        let mut ctx: StepCtx<u32, &'static str> = StepCtx::new(ProcessId(1), Time(4));
        assert_eq!(ctx.me(), ProcessId(1));
        assert_eq!(ctx.now(), Time(4));
        ctx.send(ProcessSet::first_n(2), 10);
        ctx.send_to(ProcessId(3), 20);
        ctx.emit("delivered");
        assert_eq!(ctx.sends.len(), 2);
        assert_eq!(ctx.sends[1].0, ProcessSet::singleton(ProcessId(3)));
        assert_eq!(ctx.events, vec!["delivered"]);
    }

    #[test]
    fn history_through_smart_pointers() {
        fn total<H: History>(h: H, p: ProcessId) -> H::Value {
            h.sample(p, Time(0))
        }
        total(NoDetector, ProcessId(0));
        total(&NoDetector, ProcessId(0));
        total(Box::new(NoDetector), ProcessId(0));
        total(std::sync::Arc::new(NoDetector), ProcessId(0));
    }
}
