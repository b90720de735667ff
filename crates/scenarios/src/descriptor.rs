//! The `gam-scn v1` descriptor format.
//!
//! A descriptor is a compact, single-line, fully deterministic address of a
//! scenario: topology family + parameters, generation seed, crash plan,
//! traffic trace, problem variant and step budget. Rendering is canonical
//! and parsing is its exact inverse (`parse ∘ render = id`), so a
//! descriptor string pasted into a fixture file, a bench record or a CI log
//! regenerates the identical topology and workload anywhere:
//!
//! ```text
//! gam-scn v1 family=ring(3,2) seed=7 crash=isect(1) traffic=zipf(1200,6) variant=standard budget=200000
//! ```
//!
//! Only `family` is mandatory; the other keys default to
//! `seed=0 crash=none traffic=one variant=standard budget=200000`. Blank
//! lines and `#` comments are ignored, so a `.scn` fixture file may carry
//! provenance notes above the descriptor line.

use gam_core::Variant;
use std::fmt;

/// The default step budget of a descriptor (`budget=` absent).
pub const DEFAULT_BUDGET: u64 = 200_000;

/// A parameterized topology family.
///
/// The families deliberately straddle the paper's solvability boundary:
/// [`Family::Chain`], [`Family::Two`], [`Family::Disjoint`],
/// [`Family::Single`] and [`Family::RandAcyclic`] have acyclic intersection
/// graphs (`ℱ = ∅`), while [`Family::Ring`], [`Family::Hub`] (for `k ≥ 3`)
/// and [`Family::RandCyclic`] contain cyclic families, and [`Family::Rand`]
/// samples either side depending on the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The paper's Figure 1 system (5 processes, 4 groups, 3 cyclic families).
    Fig1,
    /// One group of `n` processes (atomic broadcast).
    Single {
        /// Number of processes.
        n: u32,
    },
    /// `k` pairwise-disjoint groups of `size` processes.
    Disjoint {
        /// Number of groups.
        k: u32,
        /// Processes per group.
        size: u32,
    },
    /// A chain of `k` groups, adjacent groups sharing one process (acyclic).
    Chain {
        /// Number of groups.
        k: u32,
        /// Processes per group.
        size: u32,
    },
    /// `c` pairwise-disjoint chains of `k` groups each (acyclic): the
    /// canonical multi-shard workload — `c` connected components for the
    /// sharded parallel driver, each with real cross-group coordination
    /// along its chain.
    Multichain {
        /// Number of disjoint chains (connected components).
        c: u32,
        /// Groups per chain.
        k: u32,
        /// Processes per group.
        size: u32,
    },
    /// A ring of `k ≥ 3` groups (the minimal cyclic family).
    Ring {
        /// Number of groups.
        k: u32,
        /// Processes per group.
        size: u32,
    },
    /// `k` groups sharing one hub process (complete intersection graph).
    Hub {
        /// Number of groups.
        k: u32,
        /// Processes per group.
        size: u32,
    },
    /// Two groups of `size` processes intersecting in `overlap` processes.
    Two {
        /// Processes per group.
        size: u32,
        /// Size of the intersection.
        overlap: u32,
    },
    /// `k` seeded-random groups over `n` processes with membership density
    /// `density_permille / 1000`.
    Rand {
        /// Number of processes.
        n: u32,
        /// Number of groups.
        k: u32,
        /// Membership probability, in permille (`50..=900`).
        density_permille: u32,
    },
    /// A seeded-random *tree* of `k` groups (adjacent groups share one
    /// dedicated process; the intersection graph is the tree, so `ℱ = ∅`).
    RandAcyclic {
        /// Number of groups.
        k: u32,
        /// Base group size (private members + one joint per tree edge).
        size: u32,
    },
    /// A ring of `k` groups plus `chords` seeded-random chord overlaps —
    /// guaranteed cyclic (the ring's hamiltonian cycle survives chords).
    RandCyclic {
        /// Number of groups.
        k: u32,
        /// Processes per group before chords.
        size: u32,
        /// Extra shared processes between random non-adjacent group pairs.
        chords: u32,
    },
}

impl Family {
    /// A short label naming the family (the descriptor keyword).
    pub fn label(self) -> &'static str {
        match self {
            Family::Fig1 => "fig1",
            Family::Single { .. } => "single",
            Family::Disjoint { .. } => "disjoint",
            Family::Chain { .. } => "chain",
            Family::Multichain { .. } => "multichain",
            Family::Ring { .. } => "ring",
            Family::Hub { .. } => "hub",
            Family::Two { .. } => "two",
            Family::Rand { .. } => "rand",
            Family::RandAcyclic { .. } => "randacyclic",
            Family::RandCyclic { .. } => "randcyclic",
        }
    }

    /// Whether every system of the family has an acyclic intersection graph
    /// (`None` when it depends on the seed, as for [`Family::Rand`]).
    pub fn known_acyclic(self) -> Option<bool> {
        match self {
            Family::Fig1 => Some(false),
            Family::Single { .. } | Family::Disjoint { .. } | Family::Chain { .. } => Some(true),
            Family::Multichain { .. } => Some(true),
            Family::Two { .. } => Some(true),
            Family::Ring { .. } | Family::RandCyclic { .. } => Some(false),
            Family::Hub { k, .. } => Some(k < 3),
            Family::Rand { .. } => None,
            Family::RandAcyclic { .. } => Some(true),
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Family::Fig1 => write!(f, "fig1"),
            Family::Single { n } => write!(f, "single({n})"),
            Family::Disjoint { k, size } => write!(f, "disjoint({k},{size})"),
            Family::Chain { k, size } => write!(f, "chain({k},{size})"),
            Family::Multichain { c, k, size } => write!(f, "multichain({c},{k},{size})"),
            Family::Ring { k, size } => write!(f, "ring({k},{size})"),
            Family::Hub { k, size } => write!(f, "hub({k},{size})"),
            Family::Two { size, overlap } => write!(f, "two({size},{overlap})"),
            Family::Rand {
                n,
                k,
                density_permille,
            } => write!(f, "rand({n},{k},{density_permille})"),
            Family::RandAcyclic { k, size } => write!(f, "randacyclic({k},{size})"),
            Family::RandCyclic { k, size, chords } => {
                write!(f, "randcyclic({k},{size},{chords})")
            }
        }
    }
}

/// A deterministic crash schedule, derived from the descriptor seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPlan {
    /// No crashes (every process is correct).
    None,
    /// Crash the first `count` eligible *intersection* processes at
    /// staggered times — the adversarial victims of the paper's
    /// constructions (a crash inside `g ∩ h` is what makes families
    /// faulty).
    Isect {
        /// Number of victims (best effort; fewer when eligibility runs out).
        count: u32,
    },
    /// Crash `count` seeded-random processes at seeded-random times.
    /// Victims additionally keep every nonempty `g ∩ h` live: fully
    /// crashing an edge of a chorded-but-live cyclic family is the
    /// Lemma 25 traversal-semantics corner (DESIGN.md "Deviations",
    /// note 1) where `γ` never excludes the dead edge and termination
    /// legitimately stalls.
    Rand {
        /// Number of victims (best effort; fewer when eligibility runs out).
        count: u32,
    },
}

impl fmt::Display for CrashPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CrashPlan::None => write!(f, "none"),
            CrashPlan::Isect { count } => write!(f, "isect({count})"),
            CrashPlan::Rand { count } => write!(f, "rand({count})"),
        }
    }
}

/// A deterministic traffic trace, derived from the descriptor seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPlan {
    /// One message per group, from its least live member (the classic
    /// fixture workload).
    One,
    /// `msgs` messages to uniformly-random groups.
    Uniform {
        /// Number of messages.
        msgs: u32,
    },
    /// `msgs` messages, group picked Zipfian with exponent
    /// `s_permille / 1000` over group indices.
    Zipf {
        /// Zipf exponent, in permille (e.g. `1200` ≈ s = 1.2).
        s_permille: u32,
        /// Number of messages.
        msgs: u32,
    },
    /// `msgs` messages; with probability `hot_permille / 1000` the message
    /// goes to group `g1`, otherwise to a uniform other group.
    Hot {
        /// Probability of hitting the hot group, in permille.
        hot_permille: u32,
        /// Number of messages.
        msgs: u32,
    },
}

impl fmt::Display for TrafficPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TrafficPlan::One => write!(f, "one"),
            TrafficPlan::Uniform { msgs } => write!(f, "uniform({msgs})"),
            TrafficPlan::Zipf { s_permille, msgs } => write!(f, "zipf({s_permille},{msgs})"),
            TrafficPlan::Hot { hot_permille, msgs } => write!(f, "hot({hot_permille},{msgs})"),
        }
    }
}

/// A typed `gam-scn v1` parse/validation error. The parser never panics:
/// malformed input of any shape maps to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScnError {
    /// The `gam-scn v1` header is missing or wrong.
    Header,
    /// A token is not of the form `key=value`.
    Token(String),
    /// A key appeared that the format does not define.
    UnknownKey(String),
    /// A key appeared twice.
    DuplicateKey(&'static str),
    /// The mandatory `family` key is missing.
    MissingFamily,
    /// A value failed to parse for the named key.
    BadValue {
        /// The key whose value is malformed.
        key: &'static str,
        /// What went wrong.
        reason: String,
    },
    /// The descriptor parsed but its parameters are out of the supported
    /// bounds (process/group caps, family minimums, density range…).
    Invalid(String),
}

impl fmt::Display for ScnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScnError::Header => write!(f, "missing `gam-scn v1` header"),
            ScnError::Token(t) => write!(f, "malformed token {t:?} (expected key=value)"),
            ScnError::UnknownKey(k) => write!(f, "unknown key {k:?}"),
            ScnError::DuplicateKey(k) => write!(f, "duplicate key {k:?}"),
            ScnError::MissingFamily => write!(f, "missing mandatory `family` key"),
            ScnError::BadValue { key, reason } => write!(f, "bad value for {key:?}: {reason}"),
            ScnError::Invalid(why) => write!(f, "invalid descriptor: {why}"),
        }
    }
}

impl std::error::Error for ScnError {}

/// A parsed, validated `gam-scn v1` descriptor.
///
/// Everything a scenario needs is a pure function of this value: the
/// topology ([`ScnDescriptor::system`]), the crash schedule
/// ([`ScnDescriptor::crashes`]) and the traffic trace
/// ([`ScnDescriptor::submissions`]) each draw from an independent RNG
/// stream derived from [`ScnDescriptor::seed`], so they regenerate
/// byte-identically on any thread, engine or host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScnDescriptor {
    /// The topology family and its parameters.
    pub family: Family,
    /// The generation seed (topology for `rand*` families, crash times,
    /// traffic).
    pub seed: u64,
    /// The crash schedule.
    pub crash: CrashPlan,
    /// The traffic trace.
    pub traffic: TrafficPlan,
    /// The problem variation the scenario is checked against.
    pub variant: Variant,
    /// The step budget of one run (schedule prefix + fair tail).
    pub budget: u64,
}

fn variant_name(v: Variant) -> &'static str {
    match v {
        Variant::Standard => "standard",
        Variant::Strict => "strict",
        Variant::Pairwise => "pairwise",
    }
}

impl ScnDescriptor {
    /// A descriptor of `family` with all other fields at their defaults
    /// (`seed=0 crash=none traffic=one variant=standard budget=200000`).
    pub fn new(family: Family) -> Self {
        ScnDescriptor {
            family,
            seed: 0,
            crash: CrashPlan::None,
            traffic: TrafficPlan::One,
            variant: Variant::Standard,
            budget: DEFAULT_BUDGET,
        }
    }

    /// The same descriptor under a different generation seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The same descriptor under a different step budget.
    #[must_use]
    // gam-lint: allow(U001, reason = "tests/scenario_determinism.rs lifts a starved descriptor budget through it")
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Renders the canonical single-line form. `parse(render(d)) == d` and
    /// `render(parse(s)) == s` for canonical `s`.
    pub fn render(&self) -> String {
        format!(
            "gam-scn v1 family={} seed={} crash={} traffic={} variant={} budget={}",
            self.family,
            self.seed,
            self.crash,
            self.traffic,
            variant_name(self.variant),
            self.budget
        )
    }

    // `Display` (below) delegates here, so `{descriptor}` in an assertion
    // message prints the canonical replayable line.

    /// Parses a descriptor (inverse of [`ScnDescriptor::render`]). Blank
    /// lines and `#` comment lines are ignored; keys may come in any order;
    /// every key except `family` is optional.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ScnError`] on the first malformed token or
    /// out-of-bounds parameter; never panics.
    pub fn parse(text: &str) -> Result<Self, ScnError> {
        let mut tokens = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .flat_map(str::split_whitespace);
        if tokens.next() != Some("gam-scn") || tokens.next() != Some("v1") {
            return Err(ScnError::Header);
        }
        let mut family: Option<Family> = None;
        let mut seed: Option<u64> = None;
        let mut crash: Option<CrashPlan> = None;
        let mut traffic: Option<TrafficPlan> = None;
        let mut variant: Option<Variant> = None;
        let mut budget: Option<u64> = None;
        for tok in tokens {
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| ScnError::Token(tok.to_string()))?;
            match key {
                "family" => set_once(&mut family, "family", parse_family(value)?)?,
                "seed" => set_once(&mut seed, "seed", parse_u64("seed", value)?)?,
                "crash" => set_once(&mut crash, "crash", parse_crash(value)?)?,
                "traffic" => set_once(&mut traffic, "traffic", parse_traffic(value)?)?,
                "variant" => set_once(&mut variant, "variant", parse_variant(value)?)?,
                "budget" => set_once(&mut budget, "budget", parse_u64("budget", value)?)?,
                other => return Err(ScnError::UnknownKey(other.to_string())),
            }
        }
        let descriptor = ScnDescriptor {
            family: family.ok_or(ScnError::MissingFamily)?,
            seed: seed.unwrap_or(0),
            crash: crash.unwrap_or(CrashPlan::None),
            traffic: traffic.unwrap_or(TrafficPlan::One),
            variant: variant.unwrap_or(Variant::Standard),
            budget: budget.unwrap_or(DEFAULT_BUDGET),
        };
        descriptor.validate()?;
        Ok(descriptor)
    }

    /// Checks the parameter bounds that keep generation total (no panics
    /// downstream). Acyclic families scale to the bitset widths — 512
    /// processes, 256 groups — since `ℱ = ∅` costs nothing to enumerate.
    /// Cyclic families stay much smaller (`ring`/`randcyclic` ≤ 16 groups,
    /// `hub` ≤ 12, `rand` ≤ 8): cyclic-family enumeration is exponential in
    /// the 2-core of the intersection graph and hard-caps at 20 groups.
    ///
    /// # Errors
    ///
    /// Returns [`ScnError::Invalid`] naming the violated bound.
    pub fn validate(&self) -> Result<(), ScnError> {
        let invalid = |why: String| Err(ScnError::Invalid(why));
        let check = |ok: bool, why: &str| {
            if ok {
                Ok(())
            } else {
                Err(ScnError::Invalid(why.to_string()))
            }
        };
        match self.family {
            Family::Fig1 => {}
            Family::Single { n } => check((1..=512).contains(&n), "single: 1 <= n <= 512")?,
            Family::Disjoint { k, size } => {
                check((1..=256).contains(&k), "disjoint: 1 <= k <= 256")?;
                check(size >= 1, "disjoint: size >= 1")?;
                check(k * size <= 512, "disjoint: k*size <= 512 processes")?;
            }
            Family::Chain { k, size } => {
                check((1..=256).contains(&k), "chain: 1 <= k <= 256")?;
                check((2..=8).contains(&size), "chain: 2 <= size <= 8")?;
                check(
                    (k + 1) + k * (size - 2) <= 512,
                    "chain: process count <= 512",
                )?;
            }
            Family::Multichain { c, k, size } => {
                check((1..=64).contains(&c), "multichain: 1 <= c <= 64")?;
                check((1..=256).contains(&k), "multichain: 1 <= k <= 256")?;
                check((2..=8).contains(&size), "multichain: 2 <= size <= 8")?;
                check(c * k <= 256, "multichain: c*k <= 256 groups")?;
                check(
                    c * ((k + 1) + k * (size - 2)) <= 512,
                    "multichain: process count <= 512",
                )?;
            }
            Family::Ring { k, size } => {
                check((3..=16).contains(&k), "ring: 3 <= k <= 16")?;
                check((2..=8).contains(&size), "ring: 2 <= size <= 8")?;
                check(k + k * (size - 2) <= 512, "ring: process count <= 512")?;
            }
            Family::Hub { k, size } => {
                check((1..=12).contains(&k), "hub: 1 <= k <= 12")?;
                check((2..=8).contains(&size), "hub: 2 <= size <= 8")?;
                check(k * (size - 1) < 512, "hub: process count <= 512")?;
            }
            Family::Two { size, overlap } => {
                check((1..=256).contains(&size), "two: 1 <= size <= 256")?;
                check(overlap >= 1 && overlap <= size, "two: 1 <= overlap <= size")?;
            }
            Family::Rand {
                n,
                k,
                density_permille,
            } => {
                check((4..=64).contains(&n), "rand: 4 <= n <= 64")?;
                check((1..=8).contains(&k) && k <= n, "rand: 1 <= k <= min(8, n)")?;
                check(
                    (100..=900).contains(&density_permille),
                    "rand: 100 <= density_permille <= 900",
                )?;
            }
            Family::RandAcyclic { k, size } => {
                check((2..=256).contains(&k), "randacyclic: 2 <= k <= 256")?;
                check((2..=8).contains(&size), "randacyclic: 2 <= size <= 8")?;
                check(
                    (k - 1) + k * (size - 1) <= 512,
                    "randacyclic: process count <= 512",
                )?;
            }
            Family::RandCyclic { k, size, chords } => {
                check((3..=16).contains(&k), "randcyclic: 3 <= k <= 16")?;
                check((2..=8).contains(&size), "randcyclic: 2 <= size <= 8")?;
                check(chords <= 8, "randcyclic: chords <= 8")?;
                check(
                    chords == 0 || k >= 4,
                    "randcyclic: chords need k >= 4 (no non-adjacent pairs in a triangle)",
                )?;
                check(
                    k + k * (size - 2) + chords <= 512,
                    "randcyclic: process count <= 512",
                )?;
            }
        }
        match self.crash {
            CrashPlan::None => {}
            CrashPlan::Isect { count } | CrashPlan::Rand { count } => {
                if count > 256 {
                    return invalid("crash: count <= 256".to_string());
                }
            }
        }
        match self.traffic {
            TrafficPlan::One => {}
            TrafficPlan::Uniform { msgs } => {
                check((1..=10_000).contains(&msgs), "traffic: 1 <= msgs <= 10000")?
            }
            TrafficPlan::Zipf { s_permille, msgs } => {
                check((1..=10_000).contains(&msgs), "traffic: 1 <= msgs <= 10000")?;
                check(s_permille <= 4000, "zipf: s_permille <= 4000")?;
            }
            TrafficPlan::Hot { hot_permille, msgs } => {
                check((1..=10_000).contains(&msgs), "traffic: 1 <= msgs <= 10000")?;
                check(hot_permille <= 1000, "hot: hot_permille <= 1000")?;
            }
        }
        if self.budget == 0 {
            return invalid("budget must be positive".to_string());
        }
        Ok(())
    }
}

impl fmt::Display for ScnDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn set_once<T>(slot: &mut Option<T>, key: &'static str, value: T) -> Result<(), ScnError> {
    if slot.is_some() {
        return Err(ScnError::DuplicateKey(key));
    }
    *slot = Some(value);
    Ok(())
}

fn parse_u64(key: &'static str, value: &str) -> Result<u64, ScnError> {
    value.parse().map_err(|_| ScnError::BadValue {
        key,
        reason: format!("{value:?} is not an unsigned integer"),
    })
}

/// Splits `name(a,b,…)` into the name and its integer arguments; a bare
/// `name` has zero arguments.
fn parse_call<'v>(key: &'static str, value: &'v str) -> Result<(&'v str, Vec<u32>), ScnError> {
    let bad = |reason: String| ScnError::BadValue { key, reason };
    let Some(open) = value.find('(') else {
        return Ok((value, Vec::new()));
    };
    let Some(inner) = value[open + 1..].strip_suffix(')') else {
        return Err(bad(format!("{value:?} is missing the closing ')'")));
    };
    let name = &value[..open];
    let mut args = Vec::new();
    for part in inner.split(',') {
        args.push(
            part.parse::<u32>()
                .map_err(|_| bad(format!("argument {part:?} is not an unsigned integer")))?,
        );
    }
    Ok((name, args))
}

fn arity<const N: usize>(
    key: &'static str,
    name: &str,
    args: Vec<u32>,
) -> Result<[u32; N], ScnError> {
    let got = args.len();
    args.try_into().map_err(|_| ScnError::BadValue {
        key,
        reason: format!("{name} takes {N} argument(s), got {got}"),
    })
}

fn parse_family(value: &str) -> Result<Family, ScnError> {
    let (name, args) = parse_call("family", value)?;
    match name {
        "fig1" => {
            arity::<0>("family", name, args)?;
            Ok(Family::Fig1)
        }
        "single" => {
            let [n] = arity("family", name, args)?;
            Ok(Family::Single { n })
        }
        "disjoint" => {
            let [k, size] = arity("family", name, args)?;
            Ok(Family::Disjoint { k, size })
        }
        "chain" => {
            let [k, size] = arity("family", name, args)?;
            Ok(Family::Chain { k, size })
        }
        "multichain" => {
            let [c, k, size] = arity("family", name, args)?;
            Ok(Family::Multichain { c, k, size })
        }
        "ring" => {
            let [k, size] = arity("family", name, args)?;
            Ok(Family::Ring { k, size })
        }
        "hub" => {
            let [k, size] = arity("family", name, args)?;
            Ok(Family::Hub { k, size })
        }
        "two" => {
            let [size, overlap] = arity("family", name, args)?;
            Ok(Family::Two { size, overlap })
        }
        "rand" => {
            let [n, k, density_permille] = arity("family", name, args)?;
            Ok(Family::Rand {
                n,
                k,
                density_permille,
            })
        }
        "randacyclic" => {
            let [k, size] = arity("family", name, args)?;
            Ok(Family::RandAcyclic { k, size })
        }
        "randcyclic" => {
            let [k, size, chords] = arity("family", name, args)?;
            Ok(Family::RandCyclic { k, size, chords })
        }
        other => Err(ScnError::BadValue {
            key: "family",
            reason: format!("unknown family {other:?}"),
        }),
    }
}

fn parse_crash(value: &str) -> Result<CrashPlan, ScnError> {
    let (name, args) = parse_call("crash", value)?;
    match name {
        "none" => {
            arity::<0>("crash", name, args)?;
            Ok(CrashPlan::None)
        }
        "isect" => {
            let [count] = arity("crash", name, args)?;
            Ok(CrashPlan::Isect { count })
        }
        "rand" => {
            let [count] = arity("crash", name, args)?;
            Ok(CrashPlan::Rand { count })
        }
        other => Err(ScnError::BadValue {
            key: "crash",
            reason: format!("unknown crash plan {other:?}"),
        }),
    }
}

fn parse_traffic(value: &str) -> Result<TrafficPlan, ScnError> {
    let (name, args) = parse_call("traffic", value)?;
    match name {
        "one" => {
            arity::<0>("traffic", name, args)?;
            Ok(TrafficPlan::One)
        }
        "uniform" => {
            let [msgs] = arity("traffic", name, args)?;
            Ok(TrafficPlan::Uniform { msgs })
        }
        "zipf" => {
            let [s_permille, msgs] = arity("traffic", name, args)?;
            Ok(TrafficPlan::Zipf { s_permille, msgs })
        }
        "hot" => {
            let [hot_permille, msgs] = arity("traffic", name, args)?;
            Ok(TrafficPlan::Hot { hot_permille, msgs })
        }
        other => Err(ScnError::BadValue {
            key: "traffic",
            reason: format!("unknown traffic trace {other:?}"),
        }),
    }
}

fn parse_variant(value: &str) -> Result<Variant, ScnError> {
    match value {
        "standard" => Ok(Variant::Standard),
        "strict" => Ok(Variant::Strict),
        "pairwise" => Ok(Variant::Pairwise),
        other => Err(ScnError::BadValue {
            key: "variant",
            reason: format!("unknown variant {other:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canonical() -> ScnDescriptor {
        ScnDescriptor {
            family: Family::Ring { k: 3, size: 2 },
            seed: 7,
            crash: CrashPlan::Isect { count: 1 },
            traffic: TrafficPlan::Zipf {
                s_permille: 1200,
                msgs: 6,
            },
            variant: Variant::Standard,
            budget: 200_000,
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let d = canonical();
        let text = d.render();
        assert_eq!(
            text,
            "gam-scn v1 family=ring(3,2) seed=7 crash=isect(1) traffic=zipf(1200,6) variant=standard budget=200000"
        );
        assert_eq!(ScnDescriptor::parse(&text).unwrap(), d);
        assert_eq!(ScnDescriptor::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn defaults_fill_in_missing_keys() {
        let d = ScnDescriptor::parse("gam-scn v1 family=fig1").unwrap();
        assert_eq!(d, ScnDescriptor::new(Family::Fig1));
        assert_eq!(d.budget, DEFAULT_BUDGET);
        // comments and blank lines are ignored
        let d2 = ScnDescriptor::parse("# provenance\n\n  gam-scn v1 family=fig1\n").unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn keys_come_in_any_order_but_render_is_canonical() {
        let shuffled = "gam-scn v1 budget=99 family=two(3,1) variant=pairwise seed=4";
        let d = ScnDescriptor::parse(shuffled).unwrap();
        assert_eq!(d.budget, 99);
        assert_eq!(d.variant, Variant::Pairwise);
        assert_eq!(
            d.render(),
            "gam-scn v1 family=two(3,1) seed=4 crash=none traffic=one variant=pairwise budget=99"
        );
    }

    type ErrCase = (&'static str, fn(&ScnError) -> bool);

    #[test]
    fn typed_errors_on_malformed_input() {
        use ScnError::*;
        let cases: &[ErrCase] = &[
            ("", |e| matches!(e, Header)),
            ("gam-scn v2 family=fig1", |e| matches!(e, Header)),
            ("gam-scn v1", |e| matches!(e, MissingFamily)),
            ("gam-scn v1 family=fig1 bogus", |e| matches!(e, Token(_))),
            ("gam-scn v1 family=fig1 color=red", |e| {
                matches!(e, UnknownKey(_))
            }),
            ("gam-scn v1 family=fig1 seed=1 seed=2", |e| {
                matches!(e, DuplicateKey("seed"))
            }),
            ("gam-scn v1 family=nope(1)", |e| {
                matches!(e, BadValue { key: "family", .. })
            }),
            ("gam-scn v1 family=ring(3", |e| {
                matches!(e, BadValue { key: "family", .. })
            }),
            ("gam-scn v1 family=ring(3,2,9)", |e| {
                matches!(e, BadValue { key: "family", .. })
            }),
            ("gam-scn v1 family=ring(x,2)", |e| {
                matches!(e, BadValue { key: "family", .. })
            }),
            ("gam-scn v1 family=ring(2,2)", |e| matches!(e, Invalid(_))),
            ("gam-scn v1 family=single(999)", |e| matches!(e, Invalid(_))),
            ("gam-scn v1 family=fig1 seed=banana", |e| {
                matches!(e, BadValue { key: "seed", .. })
            }),
            ("gam-scn v1 family=fig1 variant=loose", |e| {
                matches!(e, BadValue { key: "variant", .. })
            }),
            ("gam-scn v1 family=fig1 budget=0", |e| {
                matches!(e, Invalid(_))
            }),
            ("gam-scn v1 family=rand(32,8,950)", |e| {
                matches!(e, Invalid(_))
            }),
            // chords need a non-adjacent pair to attach to, so k >= 4
            ("gam-scn v1 family=randcyclic(3,2,1)", |e| {
                matches!(e, Invalid(_))
            }),
        ];
        for (text, matches) in cases {
            let err = ScnDescriptor::parse(text).unwrap_err();
            assert!(matches(&err), "{text:?} gave unexpected error: {err}");
            // every error renders a message
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn acyclic_families_scale_to_the_bitset_widths() {
        // In-bounds large instances: hundreds of groups / processes.
        for text in [
            "gam-scn v1 family=single(512)",
            "gam-scn v1 family=disjoint(256,2)",
            "gam-scn v1 family=chain(170,3)",
            "gam-scn v1 family=randacyclic(240,2)",
            "gam-scn v1 family=two(256,4)",
            "gam-scn v1 family=ring(16,2)",
            "gam-scn v1 family=rand(64,8,450)",
            "gam-scn v1 family=fig1 crash=rand(256)",
        ] {
            ScnDescriptor::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        }
        // One past each cap still rejects.
        for text in [
            "gam-scn v1 family=single(513)",
            "gam-scn v1 family=randacyclic(257,2)",
            "gam-scn v1 family=randacyclic(256,3)", // 255 + 256*2 > 512
            "gam-scn v1 family=ring(17,2)",         // cyclic: 2-core cap
            "gam-scn v1 family=rand(65,8,450)",
            "gam-scn v1 family=fig1 crash=rand(257)",
        ] {
            assert!(
                matches!(ScnDescriptor::parse(text), Err(ScnError::Invalid(_))),
                "{text} should be out of bounds"
            );
        }
    }

    #[test]
    fn every_family_renders_and_reparses() {
        let families = [
            Family::Fig1,
            Family::Single { n: 4 },
            Family::Disjoint { k: 3, size: 3 },
            Family::Chain { k: 4, size: 3 },
            Family::Multichain {
                c: 3,
                k: 3,
                size: 3,
            },
            Family::Ring { k: 3, size: 2 },
            Family::Hub { k: 3, size: 2 },
            Family::Two {
                size: 3,
                overlap: 1,
            },
            Family::Rand {
                n: 8,
                k: 4,
                density_permille: 450,
            },
            Family::RandAcyclic { k: 5, size: 3 },
            Family::RandCyclic {
                k: 4,
                size: 2,
                chords: 1,
            },
        ];
        for family in families {
            let d = ScnDescriptor::new(family);
            let parsed = ScnDescriptor::parse(&d.render()).unwrap();
            assert_eq!(parsed, d, "{family}");
            assert_eq!(parsed.family.label(), family.label());
        }
    }
}
