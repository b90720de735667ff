//! Deterministic generation: descriptor → topology, crash schedule, traffic.
//!
//! Everything here is a pure function of the descriptor. The three
//! ingredients draw from *independent* RNG streams derived from the one
//! descriptor seed via [`gam_engine::digest::derive_seed`], so changing the
//! crash plan of a descriptor never shifts which groups its traffic
//! targets, and vice versa.

use crate::descriptor::{CrashPlan, Family, ScnDescriptor, TrafficPlan};
use gam_engine::digest::derive_seed;
use gam_groups::{topology, GroupId, GroupSystem};
use gam_kernel::{ProcessId, ProcessSet, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sub-seed tag of the topology stream (`rand*` families only).
const TAG_TOPOLOGY: u64 = 1;
/// Sub-seed tag of the crash-schedule stream.
const TAG_CRASH: u64 = 2;
/// Sub-seed tag of the traffic stream.
const TAG_TRAFFIC: u64 = 3;

/// A fully generated scenario: the three deterministic ingredients of one
/// descriptor, computed together (cheaper than calling the per-ingredient
/// accessors separately, since crashes and traffic both need the system).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Generated {
    /// The group system `𝒢`.
    pub system: GroupSystem,
    /// Crash schedule: `(victim, crash time)` pairs, ascending in victim id
    /// for [`CrashPlan::Isect`], in draw order for [`CrashPlan::Rand`].
    pub crashes: Vec<(ProcessId, Time)>,
    /// Traffic trace: `(source, destination group, payload)` triples.
    pub submissions: Vec<(ProcessId, GroupId, u64)>,
}

impl ScnDescriptor {
    /// Generates the group system of this descriptor. Deterministic: equal
    /// descriptors generate equal (`==`) systems on any thread or host.
    pub fn system(&self) -> GroupSystem {
        let topo_seed = derive_seed(self.seed, TAG_TOPOLOGY);
        match self.family {
            Family::Fig1 => topology::fig1(),
            Family::Single { n } => topology::single_group(n as usize),
            Family::Disjoint { k, size } => topology::disjoint(k as usize, size as usize),
            Family::Chain { k, size } => topology::chain(k as usize, size as usize),
            Family::Multichain { c, k, size } => multichain(c as usize, k as usize, size as usize),
            Family::Ring { k, size } => topology::ring(k as usize, size as usize),
            Family::Hub { k, size } => topology::hub(k as usize, size as usize),
            Family::Two { size, overlap } => {
                topology::two_overlapping(size as usize, overlap as usize)
            }
            #[expect(
                clippy::disallowed_types,
                clippy::float_arithmetic,
                reason = "`topology::random` takes its membership probability as an f64; \
                          a permille over 1000 is the same double on every IEEE 754 host"
            )]
            Family::Rand {
                n,
                k,
                density_permille,
            } => topology::random(
                n as usize,
                k as usize,
                f64::from(density_permille) / 1000.0,
                topo_seed,
            ),
            Family::RandAcyclic { k, size } => random_acyclic(k as usize, size as usize, topo_seed),
            Family::RandCyclic { k, size, chords } => {
                random_cyclic(k as usize, size as usize, chords as usize, topo_seed)
            }
        }
    }

    /// Generates the crash schedule of this descriptor (see
    /// [`ScnDescriptor::generate`] to share the system computation).
    pub fn crashes(&self) -> Vec<(ProcessId, Time)> {
        crashes_for(self, &self.system())
    }

    /// Generates the traffic trace of this descriptor (see
    /// [`ScnDescriptor::generate`] to share the system computation).
    pub fn submissions(&self) -> Vec<(ProcessId, GroupId, u64)> {
        let system = self.system();
        let crashes = crashes_for(self, &system);
        submissions_for(self, &system, &crashes)
    }

    /// Generates system, crashes and submissions in one pass.
    pub fn generate(&self) -> Generated {
        let system = self.system();
        let crashes = crashes_for(self, &system);
        let submissions = submissions_for(self, &system, &crashes);
        Generated {
            system,
            crashes,
            submissions,
        }
    }
}

/// A seeded random *tree* of `k` groups: group `i > 0` is attached to a
/// uniformly random earlier group (a random recursive tree), and each tree
/// edge is realized by one dedicated joint process shared by exactly its
/// two endpoint groups. Every group additionally owns `size - 1` private
/// processes, so groups are distinct and the intersection graph is exactly
/// the tree — acyclic by construction (`ℱ = ∅`).
/// `c` disjoint copies of [`topology::chain`]`(k, size)`, each copy's
/// process ids offset by a full chain's worth: `c` connected components of
/// the intersection graph (= `c` shards for the parallel driver), with
/// genuine cross-group coordination along every chain.
fn multichain(c: usize, k: usize, size: usize) -> GroupSystem {
    assert!(c >= 1 && k >= 1 && size >= 2);
    let per = (k + 1) + k * (size - 2);
    let universe = ProcessSet::first_n(c * per);
    let chain = topology::chain(k, size);
    let mut groups = Vec::with_capacity(c * k);
    for copy in 0..c {
        let base = copy * per;
        for (_, members) in chain.iter() {
            groups.push(
                members
                    .iter()
                    .map(|p| ProcessId((p.index() + base) as u32))
                    .collect::<ProcessSet>(),
            );
        }
    }
    GroupSystem::new(universe, groups)
}

fn random_acyclic(k: usize, size: usize, seed: u64) -> GroupSystem {
    assert!(k >= 2 && size >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let private = size - 1;
    let n = k * private + (k - 1);
    let universe = ProcessSet::first_n(n);
    let mut groups: Vec<ProcessSet> = (0..k)
        .map(|i| (i * private..(i + 1) * private).collect())
        .collect();
    for i in 1..k {
        let parent = rng.gen_range(0usize..i);
        let joint = ProcessId((k * private + (i - 1)) as u32);
        groups[parent].insert(joint);
        groups[i].insert(joint);
    }
    GroupSystem::new(universe, groups)
}

/// A ring of `k` groups plus `chords` seeded-random chord processes, each
/// shared between two non-adjacent ring groups. The ring's hamiltonian
/// cycle survives every chord, so the system is cyclic by construction;
/// chords only densify the intersection graph (and add cyclic families).
fn random_cyclic(k: usize, size: usize, chords: usize, seed: u64) -> GroupSystem {
    assert!(k >= 3 && size >= 2);
    assert!(chords == 0 || k >= 4, "chords need a non-adjacent pair");
    let mut rng = StdRng::seed_from_u64(seed);
    let ring = topology::ring(k, size);
    let base = ring.universe().len();
    let universe = ProcessSet::first_n(base + chords);
    let mut groups: Vec<ProcessSet> = ring.iter().map(|(_, members)| members).collect();
    for c in 0..chords {
        let i = rng.gen_range(0usize..k);
        // Ring distance ≥ 2 in both directions keeps the pair non-adjacent.
        let offset = rng.gen_range(2usize..k - 1);
        let j = (i + offset) % k;
        let chord = ProcessId((base + c) as u32);
        groups[i].insert(chord);
        groups[j].insert(chord);
    }
    GroupSystem::new(universe, groups)
}

/// Whether crashing `p` on top of `victims` still leaves every group with
/// at least one live member — the eligibility rule of every crash plan
/// (a fully crashed group would make termination vacuously unfalsifiable).
fn keeps_groups_live(system: &GroupSystem, victims: ProcessSet, p: ProcessId) -> bool {
    let mut v = victims;
    v.insert(p);
    system.iter().all(|(_, members)| !(members - v).is_empty())
}

/// Whether crashing `p` on top of `victims` also leaves every nonempty
/// pairwise intersection `g ∩ h` with at least one live member. This is the
/// stricter eligibility rule of [`CrashPlan::Rand`]: a fully crashed edge
/// inside a *chorded* cyclic family that stays alive through another
/// hamiltonian cycle is exactly the Lemma 25 corner flagged in DESIGN.md
/// ("Deviations", note 1) — under traversal semantics `γ` never excludes
/// the dead edge's groups, the line-32 stable guard blocks forever, and
/// termination legitimately stalls. Keeping every edge live keeps the
/// random-churn corpus inside the regime where the two faultiness readings
/// agree and the corpus termination obligation is meaningful.
fn keeps_edges_live(system: &GroupSystem, victims: ProcessSet, p: ProcessId) -> bool {
    if !keeps_groups_live(system, victims, p) {
        return false;
    }
    let mut v = victims;
    v.insert(p);
    system
        .intersecting_pairs()
        .into_iter()
        .all(|(g, h)| !(system.intersection(g, h) - v).is_empty())
}

fn crashes_for(d: &ScnDescriptor, system: &GroupSystem) -> Vec<(ProcessId, Time)> {
    let mut out = Vec::new();
    let mut victims = ProcessSet::new();
    match d.crash {
        CrashPlan::None => {}
        CrashPlan::Isect { count } => {
            // The adversarial victims of the paper's constructions: processes
            // inside some g ∩ h, in ascending id order, at staggered times.
            let mut isect = ProcessSet::new();
            for x in system.intersections() {
                for p in x.iter() {
                    isect.insert(p);
                }
            }
            for p in isect.iter() {
                if out.len() as u32 >= count {
                    break;
                }
                if keeps_groups_live(system, victims, p) {
                    victims.insert(p);
                    out.push((p, Time(3 + 2 * out.len() as u64)));
                }
            }
        }
        CrashPlan::Rand { count } => {
            let mut rng = StdRng::seed_from_u64(derive_seed(d.seed, TAG_CRASH));
            let pool: Vec<ProcessId> = system.universe().iter().collect();
            // Best effort: eligibility shrinks as victims accumulate, so a
            // bounded number of draws may find fewer than `count` victims.
            for _ in 0..20 * pool.len() {
                if out.len() as u32 >= count {
                    break;
                }
                let p = pool[rng.gen_range(0usize..pool.len())];
                if !victims.contains(p) && keeps_edges_live(system, victims, p) {
                    victims.insert(p);
                    out.push((p, Time(1 + rng.gen_range(0u64..50))));
                }
            }
        }
    }
    out
}

/// Picks a message source for group `g`: a uniformly random *live* member
/// (falling back to any member when the crash plan leaves none live —
/// crashed sources are legal, their submission just may not terminate).
fn pick_source(rng: &mut StdRng, members: ProcessSet, victims: ProcessSet) -> ProcessId {
    let live = members - victims;
    let pool = if live.is_empty() { members } else { live };
    let idx = rng.gen_range(0usize..pool.len());
    pool.iter().nth(idx).expect("groups are nonempty")
}

fn submissions_for(
    d: &ScnDescriptor,
    system: &GroupSystem,
    crashes: &[(ProcessId, Time)],
) -> Vec<(ProcessId, GroupId, u64)> {
    let mut victims = ProcessSet::new();
    for (p, _) in crashes {
        victims.insert(*p);
    }
    let k = system.len();
    let mut out = Vec::new();
    match d.traffic {
        TrafficPlan::One => {
            // One message per group from its least live member — the shape of
            // `Scenario::one_per_group` (identical when there are no crashes).
            for (g, members) in system.iter() {
                let live = members - victims;
                let pool = if live.is_empty() { members } else { live };
                let src = pool.min().expect("groups are nonempty");
                out.push((src, g, u64::from(g.0)));
            }
        }
        TrafficPlan::Uniform { msgs } => {
            let mut rng = StdRng::seed_from_u64(derive_seed(d.seed, TAG_TRAFFIC));
            for i in 0..msgs {
                let g = GroupId(rng.gen_range(0u32..k as u32));
                let src = pick_source(&mut rng, system.members(g), victims);
                out.push((src, g, u64::from(i)));
            }
        }
        #[expect(
            clippy::disallowed_types,
            clippy::float_arithmetic,
            reason = "the Zipf weights call `f64::powf`, which the platform's libm computes: \
                      the same descriptor regenerates the same workload per libm, not on \
                      every host (DESIGN.md decision 7)"
        )]
        TrafficPlan::Zipf { s_permille, msgs } => {
            let mut rng = StdRng::seed_from_u64(derive_seed(d.seed, TAG_TRAFFIC));
            let s = f64::from(s_permille) / 1000.0;
            // Cumulative Zipf weights over group indices: w_r = (r+1)^-s.
            let mut cum = Vec::with_capacity(k);
            let mut total = 0.0f64;
            for r in 0..k {
                total += ((r + 1) as f64).powf(-s);
                cum.push(total);
            }
            for i in 0..msgs {
                let u = rng.gen_range(0u64..1_000_000) as f64 / 1_000_000.0 * total;
                let gi = cum.iter().position(|c| u < *c).unwrap_or(k - 1);
                let g = GroupId(gi as u32);
                let src = pick_source(&mut rng, system.members(g), victims);
                out.push((src, g, u64::from(i)));
            }
        }
        TrafficPlan::Hot { hot_permille, msgs } => {
            let mut rng = StdRng::seed_from_u64(derive_seed(d.seed, TAG_TRAFFIC));
            for i in 0..msgs {
                let hot = rng.gen_range(0u32..1000) < hot_permille;
                let g = if hot || k == 1 {
                    GroupId(0)
                } else {
                    GroupId(rng.gen_range(1u32..k as u32))
                };
                let src = pick_source(&mut rng, system.members(g), victims);
                out.push((src, g, u64::from(i)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::{CrashPlan, Family, ScnDescriptor, TrafficPlan};
    use gam_core::Variant;

    fn desc(family: Family) -> ScnDescriptor {
        ScnDescriptor::new(family).with_seed(11)
    }

    #[test]
    fn generation_is_deterministic() {
        let d = ScnDescriptor {
            family: Family::Rand {
                n: 8,
                k: 4,
                density_permille: 450,
            },
            seed: 99,
            crash: CrashPlan::Rand { count: 2 },
            traffic: TrafficPlan::Zipf {
                s_permille: 1200,
                msgs: 8,
            },
            variant: Variant::Standard,
            budget: 10_000,
        };
        assert_eq!(d.generate(), d.generate());
        let other = d.with_seed(100);
        assert_ne!(d.generate().system, other.generate().system);
    }

    #[test]
    fn rand_acyclic_is_a_tree() {
        for seed in 0..20 {
            let d = desc(Family::RandAcyclic { k: 5, size: 3 }).with_seed(seed);
            let gs = d.system();
            assert_eq!(gs.len(), 5);
            assert!(gs.cyclic_families().is_empty(), "seed {seed} is acyclic");
            // a tree over 5 groups has exactly 4 intersection edges
            assert_eq!(gs.intersecting_pairs().len(), 4, "seed {seed}");
        }
    }

    #[test]
    fn rand_cyclic_keeps_the_ring_cycle() {
        for seed in 0..20 {
            let d = desc(Family::RandCyclic {
                k: 5,
                size: 2,
                chords: 2,
            })
            .with_seed(seed);
            let gs = d.system();
            assert_eq!(gs.len(), 5);
            assert!(!gs.cyclic_families().is_empty(), "seed {seed} stays cyclic");
            assert_eq!(gs.universe().len(), 5 + 2);
        }
    }

    #[test]
    fn crash_plans_keep_every_group_live() {
        for seed in 0..10 {
            for crash in [CrashPlan::Isect { count: 3 }, CrashPlan::Rand { count: 3 }] {
                let mut d = desc(Family::Ring { k: 4, size: 3 }).with_seed(seed);
                d.crash = crash;
                let gen = d.generate();
                let mut victims = ProcessSet::new();
                for (p, t) in &gen.crashes {
                    assert!(t.0 >= 1);
                    victims.insert(*p);
                }
                for (g, members) in gen.system.iter() {
                    assert!(
                        !(members - victims).is_empty(),
                        "seed {seed} {crash:?}: {g} retains a live member"
                    );
                }
            }
        }
    }

    #[test]
    fn rand_crash_victims_keep_every_edge_live() {
        // Dense cyclic topologies form chorded families; a fully crashed
        // edge inside a live family is the Lemma 25 corner where γ never
        // excludes it and termination stalls. The Rand plan must not
        // generate such patterns.
        for seed in 0..30 {
            let mut d = desc(Family::Rand {
                n: 8,
                k: 4,
                density_permille: 450,
            })
            .with_seed(seed);
            d.crash = CrashPlan::Rand { count: 3 };
            let gen = d.generate();
            let mut victims = ProcessSet::new();
            for (p, _) in &gen.crashes {
                victims.insert(*p);
            }
            for (g, h) in gen.system.intersecting_pairs() {
                assert!(
                    !(gen.system.intersection(g, h) - victims).is_empty(),
                    "seed {seed}: {g} ∩ {h} fully crashed"
                );
            }
        }
    }

    #[test]
    fn isect_crash_victims_sit_in_intersections() {
        let mut d = desc(Family::Ring { k: 4, size: 3 });
        d.crash = CrashPlan::Isect { count: 2 };
        let gen = d.generate();
        assert_eq!(gen.crashes.len(), 2);
        for (p, _) in &gen.crashes {
            assert!(
                gen.system.groups_of(*p).len() >= 2,
                "{p:?} is a joint process"
            );
        }
    }

    #[test]
    fn traffic_one_matches_one_per_group_shape() {
        let d = desc(Family::Fig1);
        let gen = d.generate();
        assert_eq!(gen.submissions.len(), gen.system.len());
        for (src, g, payload) in &gen.submissions {
            assert_eq!(*payload, u64::from(g.0));
            assert_eq!(*src, gen.system.members(*g).min().unwrap());
        }
    }

    #[test]
    fn traffic_sources_are_group_members() {
        for traffic in [
            TrafficPlan::Uniform { msgs: 30 },
            TrafficPlan::Zipf {
                s_permille: 1500,
                msgs: 30,
            },
            TrafficPlan::Hot {
                hot_permille: 700,
                msgs: 30,
            },
        ] {
            let mut d = desc(Family::Chain { k: 4, size: 3 });
            d.traffic = traffic;
            let gen = d.generate();
            assert_eq!(gen.submissions.len(), 30);
            for (i, (src, g, payload)) in gen.submissions.iter().enumerate() {
                assert_eq!(*payload, i as u64);
                assert!(gen.system.members(*g).contains(*src));
            }
        }
    }

    #[test]
    fn zipf_skews_toward_low_groups_and_hot_toward_group_one() {
        let mut d = desc(Family::Disjoint { k: 4, size: 2 });
        d.traffic = TrafficPlan::Zipf {
            s_permille: 2000,
            msgs: 200,
        };
        let zipf = d.generate();
        let count = |subs: &[(ProcessId, GroupId, u64)], g: u32| {
            subs.iter().filter(|(_, gid, _)| gid.0 == g).count()
        };
        assert!(
            count(&zipf.submissions, 0) > count(&zipf.submissions, 3),
            "zipf(2.0) favors g1 over g4"
        );
        d.traffic = TrafficPlan::Hot {
            hot_permille: 900,
            msgs: 200,
        };
        let hot = d.generate();
        assert!(
            count(&hot.submissions, 0) > 120,
            "hot(900‰) sends most traffic to g1"
        );
    }

    #[test]
    fn live_sources_preferred_under_crashes() {
        let mut d = desc(Family::Two {
            size: 3,
            overlap: 1,
        });
        d.crash = CrashPlan::Isect { count: 1 };
        d.traffic = TrafficPlan::Uniform { msgs: 40 };
        let gen = d.generate();
        assert_eq!(gen.crashes.len(), 1);
        let victim = gen.crashes[0].0;
        for (src, _, _) in &gen.submissions {
            assert_ne!(*src, victim, "live members exist, so none picks the victim");
        }
    }
}
