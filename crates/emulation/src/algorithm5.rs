//! Algorithm 5 — emulating `Ω_{g∩h}` from a strongly genuine algorithm
//! (§6.2, Appendix B): the CHT simulation-forest construction.
//!
//! Each process samples the underlying failure detector `D` into a sampling
//! DAG `G`; every path of `G` induces schedules of the black-box algorithm
//! `A` that are *simulated locally* from the initial configurations `ℑ` in
//! which each process of `g ∩ h` multicasts a single message to either `g`
//! or `h`. Schedules are tagged by which group's message is delivered first
//! (`g`-valent / `h`-valent / bivalent); the extraction then finds either a
//! *univalent critical* pair of adjacent configurations — whose connecting
//! process must be correct (Proposition 71) — or a *decision gadget* (a fork
//! or a hook, Figure 5) inside a bivalent tree, whose deciding process must
//! be correct and in `g ∩ h` (Proposition 72).
//!
//! The simulation forest is explored to a bounded depth (the paper's trees
//! are unbounded; the extraction stabilises on finite prefixes, which is
//! what we materialise), and leaves are closed by a fair round-robin
//! continuation so that every explored schedule obtains its eventual tag
//! (Proposition 67 guarantees such an extension exists).

use gam_kernel::{FailurePattern, ProcessId, ProcessSet, Time};
use std::collections::VecDeque;
use std::fmt;

/// Which group's message is delivered first in a simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    /// A message addressed to `g` was delivered first.
    G,
    /// A message addressed to `h` was delivered first.
    H,
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tag::G => write!(f, "g"),
            Tag::H => write!(f, "h"),
        }
    }
}

/// The valency of a schedule: the set of tags reachable from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Valency {
    /// Only `g`-tagged runs are reachable.
    GValent,
    /// Only `h`-tagged runs are reachable.
    HValent,
    /// Both.
    Bivalent,
}

impl Valency {
    fn from_tags(g: bool, h: bool) -> Option<Valency> {
        match (g, h) {
            (true, true) => Some(Valency::Bivalent),
            (true, false) => Some(Valency::GValent),
            (false, true) => Some(Valency::HValent),
            (false, false) => None,
        }
    }

    /// The univalent valency for a tag.
    pub fn of(tag: Tag) -> Valency {
        match tag {
            Tag::G => Valency::GValent,
            Tag::H => Valency::HValent,
        }
    }
}

/// A deterministic process of the simulated algorithm `A`.
///
/// The simulation applies steps `(p, m, d)` exactly as in the model: receive
/// one message (or `⊥`), read one failure-detector sample, transition, send.
pub trait SimProcess: Clone {
    /// Protocol messages.
    type Msg: Clone + fmt::Debug;
    /// Failure-detector sample type.
    type Fd: Clone + fmt::Debug;

    /// One atomic step; returns messages to send and the tag of a delivery
    /// performed during the step, if any.
    fn step(
        &mut self,
        me: ProcessId,
        input: Option<(ProcessId, Self::Msg)>,
        fd: &Self::Fd,
    ) -> (Vec<(ProcessSet, Self::Msg)>, Option<Tag>);
}

/// A configuration of the simulated system: process states plus the message
/// buffer, plus the first delivery observed (which fixes the run's tag).
#[derive(Debug, Clone)]
pub struct SimConfig<P: SimProcess> {
    procs: Vec<P>,
    buffers: Vec<VecDeque<(ProcessId, P::Msg)>>,
    /// The first delivery's tag, once some process delivers.
    pub first_delivery: Option<Tag>,
}

impl<P: SimProcess> SimConfig<P> {
    /// Creates the configuration from initial process states.
    pub fn new(procs: Vec<P>) -> Self {
        let n = procs.len();
        SimConfig {
            procs,
            buffers: (0..n).map(|_| VecDeque::new()).collect(),
            first_delivery: None,
        }
    }

    /// Number of messages pending for `p`.
    pub fn pending(&self, p: ProcessId) -> usize {
        self.buffers[p.index()].len()
    }

    /// Applies the step `(p, m, d)`; `msg_index` selects which pending
    /// message is received (`None` = the null message).
    pub fn apply(&mut self, p: ProcessId, msg_index: Option<usize>, fd: &P::Fd) {
        let input = msg_index.map(|i| {
            self.buffers[p.index()]
                .remove(i)
                .expect("message index in range")
        });
        let (sends, delivered) = self.procs[p.index()].step(p, input, fd);
        for (dst, msg) in sends {
            for q in dst {
                self.buffers[q.index()].push_back((p, msg.clone()));
            }
        }
        if self.first_delivery.is_none() {
            if let Some(tag) = delivered {
                self.first_delivery = Some(tag);
            }
        }
    }
}

/// One sample of the sampling DAG `G`: process, detector value, sequence
/// number, and the real time at which it was taken (the process is alive at
/// that time — crashed processes contribute no samples).
#[derive(Debug, Clone)]
pub struct Sample<Fd> {
    /// The sampling process.
    pub p: ProcessId,
    /// The detector value `D(p, t)`.
    pub d: Fd,
    /// Per-process sample counter `k`.
    pub k: u64,
}

/// Builds the sampling list (a maximal path of the collaborative sampling
/// DAG) by querying `detector` round-robin at the live processes of `scope`
/// over `0..horizon`.
fn sample_dag<Fd>(
    scope: ProcessSet,
    pattern: &FailurePattern,
    horizon: u64,
    mut detector: impl FnMut(ProcessId, Time) -> Fd,
) -> Vec<Sample<Fd>> {
    let mut out = Vec::new();
    let mut counters = std::collections::BTreeMap::new();
    for t in 0..horizon {
        for p in scope {
            if pattern.is_crashed(p, Time(t)) {
                continue;
            }
            let k = counters.entry(p).or_insert(0u64);
            *k += 1;
            out.push(Sample {
                p,
                d: detector(p, Time(t)),
                k: *k,
            });
        }
    }
    out
}

/// The shape of a decision gadget (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GadgetKind {
    /// Same process, same message, two detector samples with opposite
    /// valencies.
    Fork,
    /// The valency split goes through an intermediate step of another
    /// process.
    Hook,
}

/// A located decision gadget: its deciding process and shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gadget {
    /// The process whose step fixes the valency — correct and in `g∩h` by
    /// Proposition 72.
    pub decider: ProcessId,
    /// Fork or hook.
    pub kind: GadgetKind,
}

/// One node of a simulation tree: a schedule, the configuration it leads
/// to, and its (eventual) tag computed by fair extension.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// Indices into the simulation tree's node arena; `steps[i]` is the
    /// `(sample index, message index)` taken at depth `i`.
    pub schedule: Vec<(usize, Option<usize>)>,
    /// The eventual tag of the fair continuation of this schedule.
    pub tag: Tag,
    /// Children node ids.
    pub children: Vec<usize>,
    /// Reachable tags within the explored tree (computed bottom-up).
    pub reach_g: bool,
    /// See [`Node::reach_g`].
    pub reach_h: bool,
}

/// The simulation tree `Υ_i` of one initial configuration, explored to a
/// bounded depth.
#[derive(Debug)]
pub struct SimulationTree<P: SimProcess> {
    /// Node arena; node 0 is the root (empty schedule `S_⊥`).
    pub(crate) nodes: Vec<Node>,
    initial: SimConfig<P>,
    samples: Vec<Sample<P::Fd>>,
}

impl<P: SimProcess> SimulationTree<P> {
    /// Builds the tree for `initial`, exploring schedules that follow the
    /// sample list (each step consumes the next sample of its process) up to
    /// `depth` steps, closing every node with a fair continuation to get its
    /// tag.
    fn build(
        initial: SimConfig<P>,
        samples: Vec<Sample<P::Fd>>,
        depth: usize,
        fair_budget: usize,
    ) -> Self {
        let mut tree = SimulationTree {
            nodes: Vec::new(),
            initial,
            samples,
        };
        let root_tag = tree.fair_tag(&[], fair_budget);
        tree.nodes.push(Node {
            schedule: Vec::new(),
            tag: root_tag,
            children: Vec::new(),
            reach_g: false,
            reach_h: false,
        });
        tree.expand(0, 0, depth, fair_budget);
        tree.compute_reach(0);
        tree
    }

    /// Replays `schedule` from the initial configuration.
    fn config_of(&self, schedule: &[(usize, Option<usize>)]) -> SimConfig<P> {
        let mut cfg = self.initial.clone();
        for (si, mi) in schedule {
            let s = &self.samples[*si];
            cfg.apply(s.p, *mi, &s.d);
        }
        cfg
    }

    /// The eventual tag of the fair (round-robin, FIFO) continuation.
    fn fair_tag(&self, schedule: &[(usize, Option<usize>)], fair_budget: usize) -> Tag {
        let mut cfg = self.config_of(schedule);
        if let Some(tag) = cfg.first_delivery {
            return tag;
        }
        // Continue with the remaining samples in order, FIFO reception.
        let consumed: std::collections::BTreeSet<usize> =
            schedule.iter().map(|(si, _)| *si).collect();
        let mut used = 0usize;
        for (si, s) in self.samples.iter().enumerate() {
            if consumed.contains(&si) || used >= fair_budget {
                continue;
            }
            let mi = if cfg.pending(s.p) > 0 { Some(0) } else { None };
            cfg.apply(s.p, mi, &s.d);
            used += 1;
            if let Some(tag) = cfg.first_delivery {
                return tag;
            }
        }
        // A strongly genuine A always delivers under fair scheduling of the
        // live participants; running out of samples means the horizon was
        // too short.
        panic!("fair continuation did not deliver; increase the sampling horizon");
    }

    fn expand(&mut self, node: usize, sample_from: usize, depth: usize, fair_budget: usize) {
        if depth == 0 {
            return;
        }
        let schedule = self.nodes[node].schedule.clone();
        let cfg = self.config_of(&schedule);
        if cfg.first_delivery.is_some() {
            return; // the tag is fixed; no need to branch further
        }
        // Next step: for each process, its next *two* samples after
        // `sample_from` — branching on the message choice (where
        // scheduling-driven valency lives) and on the detector sample
        // (where *fork* gadgets live: the same `(p, m)` step with two
        // different values of `d`).
        let mut next_of: std::collections::BTreeMap<ProcessId, Vec<usize>> = Default::default();
        for (si, s) in self.samples.iter().enumerate().skip(sample_from) {
            let v = next_of.entry(s.p).or_default();
            if v.len() < 2 {
                v.push(si);
            }
        }
        for (p, sis) in next_of {
            let choices: Vec<Option<usize>> = (0..cfg.pending(p))
                .map(Some)
                .chain(std::iter::once(None))
                .collect();
            for si in sis {
                for mi in &choices {
                    let mut sched = schedule.clone();
                    sched.push((si, *mi));
                    let tag = self.fair_tag(&sched, fair_budget);
                    let id = self.nodes.len();
                    self.nodes.push(Node {
                        schedule: sched,
                        tag,
                        children: Vec::new(),
                        reach_g: false,
                        reach_h: false,
                    });
                    self.nodes[node].children.push(id);
                    self.expand(id, si + 1, depth - 1, fair_budget);
                }
            }
        }
    }

    fn compute_reach(&mut self, node: usize) {
        let children = self.nodes[node].children.clone();
        let (mut g, mut h) = match self.nodes[node].tag {
            Tag::G => (true, false),
            Tag::H => (false, true),
        };
        for c in children {
            self.compute_reach(c);
            g |= self.nodes[c].reach_g;
            h |= self.nodes[c].reach_h;
        }
        self.nodes[node].reach_g = g;
        self.nodes[node].reach_h = h;
    }

    /// The valency of a node from the reachable tags.
    fn valency(&self, node: usize) -> Valency {
        Valency::from_tags(self.nodes[node].reach_g, self.nodes[node].reach_h)
            .expect("every node has a tag")
    }

    /// Searches the tree for a decision gadget: a bivalent node with a
    /// `g`-valent child and an `h`-valent child. Returns the *deciding
    /// process* — the process whose step fixes the valency.
    fn decision_gadget(&self) -> Option<ProcessId> {
        self.decision_gadget_detail().map(|g| g.decider)
    }

    /// As [`SimulationTree::decision_gadget`], also classifying the gadget
    /// as a *fork* or a *hook* (Figure 5). Prefers a fork when both shapes
    /// exist.
    fn decision_gadget_detail(&self) -> Option<Gadget> {
        let gadgets = self.decision_gadgets();
        gadgets
            .iter()
            .find(|g| g.kind == GadgetKind::Fork)
            .or_else(|| gadgets.first())
            .copied()
    }

    /// Every decision gadget of the explored tree: for each bivalent node,
    /// every `(g-valent child, h-valent child)` pair, classified as fork or
    /// hook.
    fn decision_gadgets(&self) -> Vec<Gadget> {
        let mut out = Vec::new();
        for (id, node) in self.nodes.iter().enumerate() {
            if self.valency(id) != Valency::Bivalent {
                continue;
            }
            let gvs: Vec<usize> = node
                .children
                .iter()
                .copied()
                .filter(|c| self.valency(*c) == Valency::GValent)
                .collect();
            let hvs: Vec<usize> = node
                .children
                .iter()
                .copied()
                .filter(|c| self.valency(*c) == Valency::HValent)
                .collect();
            for a in &gvs {
                for b in &hvs {
                    let (sa, ma) = *self.nodes[*a].schedule.last().expect("child has a step");
                    let (sb, mb) = *self.nodes[*b].schedule.last().expect("child has a step");
                    let (pa, pb) = (self.samples[sa].p, self.samples[sb].p);
                    // A fork: the same process receives the same message
                    // with two different detector samples and the valency
                    // splits.
                    let kind = if pa == pb && ma == mb && sa != sb {
                        GadgetKind::Fork
                    } else {
                        GadgetKind::Hook
                    };
                    out.push(Gadget { decider: pa, kind });
                }
            }
        }
        out
    }
}

/// A minimal strongly-genuine two-group algorithm used to *demonstrate* the
/// extraction: each process of `g∩h` starts with a proposal (a target
/// group); its first step claims it; the first claim received anywhere wins
/// and its message is delivered first. The valency of a configuration is
/// therefore decided by scheduling, exactly the structure CHT exploits.
#[derive(Debug, Clone)]
pub struct FirstClaimWins {
    peers: ProcessSet,
    proposal: Option<Tag>,
    claimed: bool,
    delivered: bool,
}

impl FirstClaimWins {
    /// The initial configuration in which process `i` of the scope proposes
    /// `proposals[i]`.
    pub fn initial(proposals: &[Tag]) -> SimConfig<FirstClaimWins> {
        let peers = ProcessSet::first_n(proposals.len());
        SimConfig::new(
            proposals
                .iter()
                .map(|t| FirstClaimWins {
                    peers,
                    proposal: Some(*t),
                    claimed: false,
                    delivered: false,
                })
                .collect(),
        )
    }
}

impl SimProcess for FirstClaimWins {
    type Msg = Tag;
    type Fd = ();

    fn step(
        &mut self,
        me: ProcessId,
        input: Option<(ProcessId, Tag)>,
        _fd: &(),
    ) -> (Vec<(ProcessSet, Tag)>, Option<Tag>) {
        let mut sends = Vec::new();
        let mut delivered = None;
        if let Some((_, claim)) = input {
            if !self.delivered {
                self.delivered = true;
                delivered = Some(claim);
            }
        } else if !self.claimed {
            if let Some(p) = self.proposal {
                self.claimed = true;
                // broadcast to everyone including self, so that a process
                // running alone still delivers (strong genuineness)
                let _ = me;
                sends.push((self.peers, p));
            }
        }
        (sends, delivered)
    }
}

/// A second demo algorithm whose behaviour depends on the *failure-detector
/// sample*: a process claims its proposal only when the leader hint `d`
/// names itself, and defers otherwise. Two steps of the same process with
/// the same message but different hints can therefore fix opposite
/// valencies — producing the *fork* decision gadgets of Figure 5 (the
/// [`FirstClaimWins`] demo only produces hook-style gadgets, since it
/// ignores `d`).
#[derive(Debug, Clone)]
pub struct LeaderDefers {
    peers: ProcessSet,
    proposal: Option<Tag>,
    claimed: bool,
    delivered: bool,
}

impl LeaderDefers {
    /// The initial configuration in which process `i` proposes
    /// `proposals[i]`.
    pub fn initial(proposals: &[Tag]) -> SimConfig<LeaderDefers> {
        let peers = ProcessSet::first_n(proposals.len());
        SimConfig::new(
            proposals
                .iter()
                .map(|t| LeaderDefers {
                    peers,
                    proposal: Some(*t),
                    claimed: false,
                    delivered: false,
                })
                .collect(),
        )
    }
}

impl SimProcess for LeaderDefers {
    type Msg = Tag;
    /// The leader hint (an `Ω`-style sample).
    type Fd = ProcessId;

    fn step(
        &mut self,
        me: ProcessId,
        input: Option<(ProcessId, Tag)>,
        fd: &ProcessId,
    ) -> (Vec<(ProcessSet, Tag)>, Option<Tag>) {
        let mut sends = Vec::new();
        let mut delivered = None;
        if let Some((_, claim)) = input {
            if !self.delivered {
                self.delivered = true;
                delivered = Some(claim);
            }
        } else if !self.claimed && *fd == me {
            if let Some(p) = self.proposal {
                self.claimed = true;
                sends.push((self.peers, p));
            }
        }
        (sends, delivered)
    }
}

/// The full Ω extraction of Algorithm 5 over the demo algorithm: one
/// simulation tree per initial configuration of `ℑ` (every assignment of
/// `g`/`h` proposals to the processes of the scope), searched for a
/// univalent critical pair of adjacent configurations or a decision gadget.
#[derive(Debug)]
pub struct OmegaExtraction {
    scope: ProcessSet,
    /// (proposal vector, tree) per initial configuration `I_i ∈ ℑ`.
    trees: Vec<(Vec<Tag>, SimulationTree<FirstClaimWins>)>,
}

impl OmegaExtraction {
    /// Builds the forest for the first `n = |scope|` processes.
    ///
    /// # Panics
    ///
    /// Panics if the scope has more than 8 processes (`|ℑ| = 2^n`).
    pub fn new(scope: ProcessSet, pattern: FailurePattern, horizon: u64, depth: usize) -> Self {
        let n = scope.len();
        assert!(n <= 8, "configuration enumeration caps at 8 processes");
        assert_eq!(scope, ProcessSet::first_n(n), "scope must be p0..p(n-1)");
        let mut trees = Vec::new();
        for mask in 0u32..(1u32 << n) {
            let proposals: Vec<Tag> = (0..n)
                .map(|i| if mask & (1 << i) != 0 { Tag::H } else { Tag::G })
                .collect();
            let samples = sample_dag(scope, &pattern, horizon, |_, _| ());
            let tree = SimulationTree::build(
                FirstClaimWins::initial(&proposals),
                samples,
                depth,
                (horizon as usize) * n,
            );
            trees.push((proposals, tree));
        }
        OmegaExtraction { scope, trees }
    }

    /// The `Extract` procedure (lines 36–44): the emulated `Ω_{g∩h}` output
    /// at `p`, `⊥` outside the scope.
    pub fn leader(&self, p: ProcessId) -> Option<ProcessId> {
        if !self.scope.contains(p) {
            return None;
        }
        // Univalent critical pair: adjacent configurations with opposite
        // univalent roots — the connecting process is correct (Prop. 71).
        for (props_i, tree_i) in &self.trees {
            if tree_i.valency(0) != Valency::GValent {
                continue;
            }
            for (props_j, tree_j) in &self.trees {
                if tree_j.valency(0) != Valency::HValent {
                    continue;
                }
                let diff: Vec<usize> = (0..props_i.len())
                    .filter(|k| props_i[*k] != props_j[*k])
                    .collect();
                if diff.len() == 1 {
                    return Some(ProcessId(diff[0] as u32));
                }
            }
        }
        // Bivalent critical index: a decision gadget's deciding process is
        // correct and in the scope (Prop. 72).
        for (_, tree) in &self.trees {
            if tree.valency(0) == Valency::Bivalent {
                if let Some(q) = tree.decision_gadget() {
                    if self.scope.contains(q) {
                        return Some(q);
                    }
                }
            }
        }
        // line 44: fall back to the local process.
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn initial(proposals: &[Tag]) -> SimConfig<FirstClaimWins> {
        FirstClaimWins::initial(proposals)
    }

    fn samples(scope: ProcessSet, pattern: &FailurePattern, horizon: u64) -> Vec<Sample<()>> {
        sample_dag(scope, pattern, horizon, |_, _| ())
    }

    #[test]
    fn unanimous_configuration_is_univalent() {
        let scope = ProcessSet::first_n(2);
        let pattern = FailurePattern::all_correct(scope);
        let tree = SimulationTree::build(
            initial(&[Tag::G, Tag::G]),
            samples(scope, &pattern, 6),
            3,
            64,
        );
        assert_eq!(tree.valency(0), Valency::GValent);
        assert!(tree.decision_gadget().is_none());
    }

    #[test]
    fn mixed_configuration_is_bivalent_with_a_gadget() {
        let scope = ProcessSet::first_n(2);
        let pattern = FailurePattern::all_correct(scope);
        let tree = SimulationTree::build(
            initial(&[Tag::G, Tag::H]),
            samples(scope, &pattern, 6),
            4,
            64,
        );
        assert_eq!(tree.valency(0), Valency::Bivalent);
        let decider = tree.decision_gadget().expect("gadget exists");
        assert!(scope.contains(decider));
        assert!(pattern.is_correct(decider));
    }

    #[test]
    fn crashed_process_contributes_no_samples_and_cannot_decide() {
        let scope = ProcessSet::first_n(2);
        // p0 crashed from the start: it takes no simulated step, so the
        // mixed configuration is h-univalent (p1's claim always wins) and
        // no gadget is needed.
        let pattern = FailurePattern::from_crashes(scope, [(ProcessId(0), Time(0))]);
        let tree = SimulationTree::build(
            initial(&[Tag::G, Tag::H]),
            samples(scope, &pattern, 6),
            4,
            64,
        );
        assert_eq!(tree.valency(0), Valency::HValent);
    }

    #[test]
    fn three_process_gadget_decider_is_correct() {
        let scope = ProcessSet::first_n(3);
        let pattern = FailurePattern::from_crashes(scope, [(ProcessId(0), Time(0))]);
        let tree = SimulationTree::build(
            initial(&[Tag::G, Tag::G, Tag::H]),
            samples(scope, &pattern, 8),
            4,
            128,
        );
        assert_eq!(tree.valency(0), Valency::Bivalent);
        let decider = tree.decision_gadget().expect("gadget exists");
        assert!(pattern.is_correct(decider), "{decider} must be correct");
    }

    #[test]
    fn tag_display_and_valency() {
        assert_eq!(Tag::G.to_string(), "g");
        assert_eq!(Valency::of(Tag::H), Valency::HValent);
    }

    #[test]
    fn leader_defers_produces_a_fork_gadget() {
        // Alternate the leader hint between the two processes: the very
        // first step of p0 either claims (hint = p0) or defers (hint = p1),
        // flipping the run's valency — a *fork* in the sense of Figure 5a.
        let scope = ProcessSet::first_n(2);
        let pattern = FailurePattern::all_correct(scope);
        let samples = sample_dag(scope, &pattern, 8, |p, t| {
            // a rotating (pre-stabilisation) Ω history
            if t.0 % 2 == 0 {
                p
            } else {
                ProcessId(1 - p.0)
            }
        });
        let tree = SimulationTree::build(LeaderDefers::initial(&[Tag::G, Tag::H]), samples, 3, 64);
        assert_eq!(tree.valency(0), Valency::Bivalent);
        let gadget = tree.decision_gadget_detail().expect("gadget exists");
        assert_eq!(gadget.kind, GadgetKind::Fork, "FD-driven split is a fork");
        assert!(scope.contains(gadget.decider));
    }

    #[test]
    fn first_claim_wins_produces_hook_gadgets() {
        let scope = ProcessSet::first_n(2);
        let pattern = FailurePattern::all_correct(scope);
        let tree = SimulationTree::build(
            initial(&[Tag::G, Tag::H]),
            samples(scope, &pattern, 6),
            4,
            64,
        );
        let gadget = tree.decision_gadget_detail().expect("gadget exists");
        assert_eq!(
            gadget.kind,
            GadgetKind::Hook,
            "schedule-driven split is a hook"
        );
    }

    #[test]
    fn omega_extraction_agrees_and_elects_correct_process() {
        let scope = ProcessSet::first_n(2);
        for crashed in [None, Some(0u32), Some(1u32)] {
            let pattern = match crashed {
                None => FailurePattern::all_correct(scope),
                Some(i) => FailurePattern::from_crashes(scope, [(ProcessId(i), Time(0))]),
            };
            let ext = OmegaExtraction::new(scope, pattern.clone(), 8, 4);
            let mut leaders = std::collections::BTreeSet::new();
            for p in scope & pattern.correct() {
                let l = ext.leader(p).expect("in scope");
                assert!(scope.contains(l));
                assert!(
                    pattern.is_correct(l),
                    "crashed={crashed:?}: leader {l} must be correct"
                );
                leaders.insert(l);
            }
            assert!(leaders.len() <= 1, "crashed={crashed:?}: {leaders:?}");
        }
    }

    #[test]
    fn omega_extraction_three_processes() {
        let scope = ProcessSet::first_n(3);
        let pattern = FailurePattern::from_crashes(scope, [(ProcessId(2), Time(0))]);
        let ext = OmegaExtraction::new(scope, pattern.clone(), 10, 3);
        for p in scope & pattern.correct() {
            let l = ext.leader(p).expect("in scope");
            assert!(pattern.is_correct(l), "leader {l} must be correct");
        }
    }

    #[test]
    fn omega_extraction_bot_outside_scope() {
        let scope = ProcessSet::first_n(2);
        let ext = OmegaExtraction::new(scope, FailurePattern::all_correct(scope), 6, 3);
        assert_eq!(ext.leader(ProcessId(5)), None);
    }

    #[test]
    fn config_replay_is_deterministic() {
        let scope = ProcessSet::first_n(2);
        let pattern = FailurePattern::all_correct(scope);
        let tree = SimulationTree::build(
            initial(&[Tag::G, Tag::H]),
            samples(scope, &pattern, 6),
            3,
            64,
        );
        for node in &tree.nodes {
            let a = tree.config_of(&node.schedule);
            let b = tree.config_of(&node.schedule);
            assert_eq!(a.first_delivery, b.first_delivery);
        }
    }
}
