//! The explorer's dedup key is a function of the outcome.
//!
//! `RuntimeExecutor::state_fingerprint` folds `Runtime::fold_observable`:
//! the state walk with unit names and action counts taken out, because no
//! continuation and no verdict can observe them (DESIGN.md decision 17).
//! The visited set skips the fair tail of a post-prefix state whose key it
//! has seen complete clean, so the claim to hold is: **equal keys ⇒ equal
//! outcomes**, where an outcome is exactly what `fold_observable` says is
//! observable — every delivery sequence with its instants, the quiescence
//! bit, the `check_all` verdict, and whether each process that no message
//! addresses has acted.
//!
//! Checked here, not argued: with dedup and POR out of the way this test
//! walks the bounded choice tree itself, takes the key where the explorers
//! take it (at the choice point the enumerated prefix ends on), runs the
//! fair tail from *every* such state and asserts that no key maps to two
//! outcomes — on every committed `.scn` fixture and on generated
//! descriptors with crashes (`isect`, `rand`), batching, skewed traffic and
//! traffic that leaves groups, hence processes, unaddressed. The proptest
//! twin takes pairs of prefixes the walk found under one key and continues
//! both under the same seeded random schedule instead of the fair one.

use genuine_multicast::engine::run_with_source_counted;
use genuine_multicast::kernel::{ChoiceStep, RandomSource, RotatingSource, RunOutcome};
use genuine_multicast::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;
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

/// The bounded tree of one scenario, walked without dedup and without POR.
struct Walk<'a> {
    scenario: &'a Scenario,
    unaddressed: ProcessSet,
    report: RunReport,
    /// Key → the first outcome seen under it and the prefix that led there.
    seen: BTreeMap<u64, (Outcome, Vec<ChoiceStep>)>,
    /// The first few pairs of prefixes that landed on one key.
    twins: Vec<(Vec<ChoiceStep>, Vec<ChoiceStep>)>,
    prefix: Vec<ChoiceStep>,
    leaves: usize,
    leaf_cap: usize,
    /// At most this many options are taken at each level.
    width: usize,
    hits: usize,
}

impl<'a> Walk<'a> {
    fn new(scenario: &'a Scenario, leaf_cap: usize) -> Self {
        Walk {
            scenario,
            unaddressed: scenario.system.universe() - addressed(scenario),
            report: scenario.runtime_executor().report(false),
            seen: BTreeMap::new(),
            twins: Vec::new(),
            prefix: Vec::new(),
            leaves: 0,
            leaf_cap,
            width: usize::MAX,
            hits: 0,
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

    /// Every path of `depth` more choices from where `exec` stands, `taken`
    /// steps into the budget — the explorers' enumeration: idle ticks pass
    /// on their own, a run that ends inside the prefix has no tail.
    fn descend(&mut self, name: &str, exec: &mut RuntimeExecutor, depth: usize, mut taken: u64) {
        let budget = self.scenario.max_steps;
        let mut options = Vec::new();
        loop {
            if self.leaves >= self.leaf_cap || taken >= budget {
                return;
            }
            exec.enabled_actions(&mut options);
            if !options.is_empty() {
                break;
            }
            if exec.is_quiescent() || !exec.idle_tick() {
                return;
            }
            taken += 1;
        }
        if depth == 0 {
            let key = exec.state_fingerprint();
            let (out, _) =
                run_with_source_counted(exec, &mut RotatingSource::default(), budget - taken);
            let outcome = self.outcome(exec, out == RunOutcome::Quiescent);
            self.leaves += 1;
            if let Some((first, path)) = self.seen.get(&key) {
                assert_eq!(
                    &outcome, first,
                    "{name}: one key, two outcomes — after {path:?} and after {:?}",
                    self.prefix
                );
                self.hits += 1;
                if self.twins.len() < 8 {
                    self.twins.push((path.clone(), self.prefix.clone()));
                }
            } else {
                self.seen.insert(key, (outcome, self.prefix.clone()));
            }
            return;
        }
        let snap = exec.snapshot();
        let flat = options
            .iter()
            .flat_map(|&(pid, arity)| (0..arity).map(move |choice| ChoiceStep { pid, choice }));
        for step in flat.take(self.width) {
            exec.step(step);
            self.prefix.push(step);
            self.descend(name, exec, depth - 1, taken + 1);
            self.prefix.pop();
            exec.restore(&snap);
        }
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
    let mut hits = 0;
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
        walk.descend(name, &mut scenario.runtime_executor(), depth, 0);
        assert!(walk.leaves > 0, "{name}: the tree has no tail leaf");
        hits += walk.hits;
    }
    assert!(
        hits > 0,
        "no two prefixes ever shared a key: nothing checked"
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
