//! The explorer's dedup key is a function of the outcome.
//!
//! `RuntimeExecutor::state_fingerprint` folds `Runtime::fold_observable`:
//! the state walk with unit names and action counts taken out, because no
//! continuation and no verdict can observe them (DESIGN.md decision 17).
//! The DFS's visited set skips the fair tail of a post-prefix state whose
//! key it has seen complete clean, and the whole subtree below a choice
//! point whose `subtree_key` — the key mixed with the remaining depth — it
//! has seen complete clean (decision 18). So the claims to hold are:
//! **equal keys ⇒ equal outcomes** at a tail, and **equal subtree keys ⇒
//! equal outcome sets** above one, where an outcome is exactly what
//! `fold_observable` says is observable — every delivery sequence with its
//! instants, the quiescence bit, the `check_all` verdict, and whether each
//! process that no message addresses has acted.
//!
//! Checked here, not argued: with dedup and POR out of the way this test
//! walks the bounded choice tree itself, takes the keys where the DFS takes
//! them (at each choice point, after idle ticks), runs the fair tail from
//! *every* tail state, collects at each choice point of a complete subtree
//! the set of leaf outcomes below it, and asserts that no key maps to two
//! outcome sets — on every committed `.scn` fixture and on generated
//! descriptors with crashes (`isect`, `rand`), batching, skewed traffic and
//! traffic that leaves groups, hence processes, unaddressed. The proptest
//! twin takes pairs of prefixes the walk found under one tail key and
//! continues both under the same seeded random schedule instead of the
//! fair one.

use genuine_multicast::engine::run_with_source_counted;
use genuine_multicast::explore::subtree_key;
use genuine_multicast::kernel::{ChoiceStep, RandomSource, RotatingSource, RunOutcome};
use genuine_multicast::prelude::*;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// What a continuation and a verdict can observe of a finished run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    delivered: Vec<Vec<Delivery>>,
    quiescent: bool,
    verdict: Result<(), spec::SpecViolation>,
    /// Per process outside every destination group: has it taken a step?
    unaddressed_acted: Vec<bool>,
}

fn addressed(scenario: &Scenario) -> ProcessSet {
    scenario
        .submissions
        .iter()
        .fold(ProcessSet::EMPTY, |set, &(_, g, _)| {
            set | scenario.system.members(g)
        })
}

/// The leaf outcomes below a choice point, as indices into
/// [`Walk::outcomes`].
type OutcomeSet = BTreeSet<usize>;

/// The bounded tree of one scenario, walked without dedup and without POR.
struct Walk<'a> {
    scenario: &'a Scenario,
    unaddressed: ProcessSet,
    report: RunReport,
    /// Every distinct leaf outcome met (a few dozen per tree).
    outcomes: Vec<Outcome>,
    /// Subtree key → the remaining depth, the outcome set of the first
    /// complete subtree seen under it, and the prefix that led there.
    seen: BTreeMap<u64, (usize, OutcomeSet, Vec<ChoiceStep>)>,
    /// The first few pairs of prefixes that landed on one tail key.
    twins: Vec<(Vec<ChoiceStep>, Vec<ChoiceStep>)>,
    prefix: Vec<ChoiceStep>,
    leaves: usize,
    leaf_cap: usize,
    /// At most this many options are taken at each level.
    width: usize,
    /// Tail keys, and keys of interior subtrees, met a second time.
    hits: usize,
    subtree_hits: usize,
}

impl<'a> Walk<'a> {
    fn new(scenario: &'a Scenario, leaf_cap: usize) -> Self {
        Walk {
            scenario,
            unaddressed: scenario.system.universe() - addressed(scenario),
            report: scenario.runtime_executor().report(false),
            outcomes: Vec::new(),
            seen: BTreeMap::new(),
            twins: Vec::new(),
            prefix: Vec::new(),
            leaves: 0,
            leaf_cap,
            width: usize::MAX,
            hits: 0,
            subtree_hits: 0,
        }
    }

    fn outcome(&mut self, exec: &RuntimeExecutor, quiescent: bool) -> Outcome {
        exec.report_into(&mut self.report, quiescent);
        Outcome {
            delivered: self.report.delivered.clone(),
            quiescent,
            verdict: spec::check_all(&self.report, self.scenario.variant),
            unaddressed_acted: self
                .unaddressed
                .iter()
                .map(|p| self.report.actions_of[p.index()] > 0)
                .collect(),
        }
    }

    /// The run `exec` has just finished, as a one-outcome set.
    fn leaf(&mut self, exec: &RuntimeExecutor, quiescent: bool) -> OutcomeSet {
        let outcome = self.outcome(exec, quiescent);
        let id = match self.outcomes.iter().position(|o| *o == outcome) {
            Some(id) => id,
            None => {
                self.outcomes.push(outcome);
                self.outcomes.len() - 1
            }
        };
        BTreeSet::from([id])
    }

    /// Records `below`, the outcome set of the complete subtree of
    /// `remaining` digits under `key`, and asserts that every earlier
    /// subtree under that key had the same one.
    fn record(&mut self, name: &str, key: u64, remaining: usize, below: &OutcomeSet) {
        let Some((depth, first, path)) = self.seen.get(&key) else {
            self.seen
                .insert(key, (remaining, below.clone(), self.prefix.clone()));
            return;
        };
        if (*depth, first) != (remaining, below) {
            let odd = first.symmetric_difference(below).next();
            panic!(
                "{name}: one key, two outcome sets — {} leaf outcomes {depth} digits below \
                 {path:?}, {} leaf outcomes {remaining} digits below {:?}; an outcome only \
                 one of them has: {:?}",
                first.len(),
                below.len(),
                self.prefix,
                odd.map(|&i| &self.outcomes[i]),
            );
        }
        if remaining > 0 {
            self.subtree_hits += 1;
            return;
        }
        self.hits += 1;
        if self.twins.len() < 8 {
            self.twins.push((path.clone(), self.prefix.clone()));
        }
    }

    /// Every path of `depth` more choices from where `exec` stands, `taken`
    /// steps into the budget — the explorers' enumeration: idle ticks pass
    /// on their own, a run that ends inside the prefix is a leaf with no
    /// tail. Returns the outcomes of the subtree's leaves, or `None` when
    /// the leaf cap or the width cut the subtree short.
    fn descend(
        &mut self,
        name: &str,
        exec: &mut RuntimeExecutor,
        depth: usize,
        mut taken: u64,
    ) -> Option<OutcomeSet> {
        let budget = self.scenario.max_steps;
        let mut options = Vec::new();
        loop {
            if self.leaves >= self.leaf_cap {
                return None;
            }
            if taken >= budget {
                return Some(self.leaf(exec, false));
            }
            exec.enabled_actions(&mut options);
            if !options.is_empty() {
                break;
            }
            if exec.is_quiescent() || !exec.idle_tick() {
                return Some(self.leaf(exec, true));
            }
            taken += 1;
        }
        let key = subtree_key(exec.state_fingerprint(), depth);
        let below = if depth == 0 {
            let (out, _) =
                run_with_source_counted(exec, &mut RotatingSource::default(), budget - taken);
            self.leaves += 1;
            Some(self.leaf(exec, out == RunOutcome::Quiescent))
        } else {
            let snap = exec.snapshot();
            let flat: Vec<ChoiceStep> = options
                .iter()
                .flat_map(|&(pid, arity)| (0..arity).map(move |choice| ChoiceStep { pid, choice }))
                .collect();
            let mut below = (flat.len() <= self.width).then(BTreeSet::new);
            for &step in flat.iter().take(self.width) {
                exec.step(step);
                self.prefix.push(step);
                let child = self.descend(name, exec, depth - 1, taken + 1);
                self.prefix.pop();
                exec.restore(&snap);
                below = below.zip(child).map(|(mut below, child)| {
                    below.extend(child);
                    below
                });
            }
            below
        };
        if let Some(below) = &below {
            self.record(name, key, depth, below);
        }
        below
    }
}

fn scenario_of(text: &str) -> Scenario {
    Scenario::from_descriptor(&ScnDescriptor::parse(text).expect("descriptor parses"))
}

/// Every `.scn` file under `tests/fixtures/`.
fn committed_scenarios() -> Vec<(String, Scenario)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("tests/fixtures exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|e| e == "scn") {
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("readable fixture");
            out.push((name, scenario_of(&text)));
        }
    }
    assert!(!out.is_empty(), "no .scn fixtures checked in");
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

const UNADDRESSED: &str = "chain(4,3) uniform(2), groups unaddressed";

/// The generated half of the corpus.
fn generated_scenarios() -> Vec<(String, Scenario)> {
    let scn =
        |rest: &str| scenario_of(&format!("gam-scn v1 {rest} variant=standard budget=200000"));
    let named = [
        (
            "fig1 isect(1)",
            scn("family=fig1 seed=3 crash=isect(1) traffic=one"),
        ),
        (
            "rand(8,3,450) rand(1) uniform(4)",
            scn("family=rand(8,3,450) seed=5 crash=rand(1) traffic=uniform(4)"),
        ),
        (
            "ring(3,2) zipf(1200,5)",
            scn("family=ring(3,2) seed=2 crash=none traffic=zipf(1200,5)"),
        ),
        (
            "fig1 uniform(8) batch 4",
            scn("family=fig1 seed=4 crash=none traffic=uniform(8)").with_batch_max(4),
        ),
        // Two messages over four groups: at least two groups, and the
        // processes only they contain, are addressed by nothing.
        (
            UNADDRESSED,
            scn("family=chain(4,3) seed=1 crash=none traffic=uniform(2)"),
        ),
        (
            "chain(4,3) hot(700,3) isect(1), groups unaddressed",
            scn("family=chain(4,3) seed=1 crash=isect(1) traffic=hot(700,3)"),
        ),
    ];
    named.map(|(name, s)| (name.to_string(), s)).into()
}

#[test]
fn no_key_maps_to_two_outcomes() {
    // Debug builds re-derive every ready row they read: a level shallower.
    let (depth, leaf_cap) = if cfg!(debug_assertions) {
        (3, 1_500)
    } else {
        (5, 30_000)
    };
    let (mut hits, mut subtree_hits) = (0, 0);
    for (name, scenario) in committed_scenarios()
        .into_iter()
        .chain(generated_scenarios())
    {
        let name = name.as_str();
        let wide = scenario.system.universe().len() > 64;
        if wide && cfg!(debug_assertions) {
            continue;
        }
        let mut walk = Walk::new(&scenario, leaf_cap);
        let mut depth = depth;
        if wide {
            // The 479-process tree has hundreds of options per level and
            // tails of tens of thousands of steps: the first eight options
            // of two levels, which hold both orders of commuting pairs.
            (depth, walk.width) = (2, 8);
        }
        if name == UNADDRESSED {
            assert!(
                !walk.unaddressed.is_empty(),
                "{name}: every process is addressed"
            );
        }
        // Within one tree the clock in the key already tells the depths
        // apart, so the tree is walked a second time, a level shallower,
        // into the same map: a state's subtrees of two depths must not
        // share a key either.
        for depth in [depth, depth - 1] {
            walk.leaves = 0;
            walk.descend(name, &mut scenario.runtime_executor(), depth, 0);
            assert!(walk.leaves > 0, "{name}: the tree has no tail leaf");
        }
        hits += walk.hits;
        subtree_hits += walk.subtree_hits;
    }
    assert!(
        hits > 0,
        "no two prefixes ever shared a key: nothing checked"
    );
    assert!(
        subtree_hits > 0,
        "no two complete subtrees ever shared a key: nothing checked"
    );
}

/// Two prefixes of one scenario that land on the same key.
type Twin = (Scenario, Vec<ChoiceStep>, Vec<ChoiceStep>);

/// A few twins from each generated scenario, found by the walk itself.
fn twins() -> &'static [Twin] {
    static TWINS: OnceLock<Vec<Twin>> = OnceLock::new();
    TWINS.get_or_init(|| {
        let mut out = Vec::new();
        for (name, scenario) in generated_scenarios() {
            let mut walk = Walk::new(&scenario, 400);
            walk.descend(&name, &mut scenario.runtime_executor(), 3, 0);
            let pairs = std::mem::take(&mut walk.twins);
            out.extend(pairs.into_iter().map(|(a, b)| (scenario.clone(), a, b)));
        }
        assert!(!out.is_empty(), "no key-equal prefixes to continue");
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two executors with equal keys, continued under the same seeded
    /// random schedule, end in equal outcomes.
    #[test]
    fn key_equal_executors_have_equal_futures(pick in any::<usize>(), seed in any::<u64>()) {
        let twins = twins();
        let (scenario, a, b) = &twins[pick % twins.len()];
        let mut walk = Walk::new(scenario, 0);
        let mut finish = |prefix: &[ChoiceStep]| {
            let mut exec = scenario.runtime_executor();
            let mut taken = 0;
            let mut options = Vec::new();
            // The walk lets idle ticks pass before each choice, and before
            // it takes the key.
            let mut steps = prefix.iter();
            loop {
                exec.enabled_actions(&mut options);
                if options.is_empty() {
                    assert!(exec.idle_tick());
                } else if let Some(&step) = steps.next() {
                    exec.step(step);
                } else {
                    break;
                }
                taken += 1;
            }
            let key = exec.state_fingerprint();
            let (out, _) = run_with_source_counted(
                &mut exec,
                &mut RandomSource::new(seed),
                scenario.max_steps - taken,
            );
            (key, walk.outcome(&exec, out == RunOutcome::Quiescent))
        };
        let (key_a, outcome_a) = finish(a);
        let (key_b, outcome_b) = finish(b);
        prop_assert_eq!(key_a, key_b, "the walk paired them by key");
        prop_assert_eq!(outcome_a, outcome_b, "after {:?} and {:?}, seed {}", a, b, seed);
    }
}
