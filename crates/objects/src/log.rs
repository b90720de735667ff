//! The log object of §4.3 — the shared data structure Algorithm 1 is built
//! on.
//!
//! A log is an infinite array of slots, numbered from 1, each holding zero or
//! more data items. `append(d)` inserts `d` at the head (the first free slot
//! after which there are only free slots); `bumpAndLock(d, k)` moves `d` from
//! its slot `l` to `max(k, l)` and locks it there (a locked datum can never
//! move again); `pos(d)` returns the slot of `d` (0 when absent); `locked(d)`
//! tells whether `d` is locked. A log induces the order `d <_L d'` — lower
//! slot first, ties broken by the a-priori total order on data.
//!
//! The "trivia" invariants of Table 2 (Claims 2–8) are enforced by
//! construction and exercised by the unit and property tests below.

use std::collections::BTreeMap;
use std::fmt;

/// A position in a log: slot numbers start at 1; [`Pos::ABSENT`] (0) means
/// the datum is not in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pos(pub u64);

impl Pos {
    /// The position of a datum that is not in the log.
    pub const ABSENT: Pos = Pos(0);

    /// Returns `true` if this denotes a real slot.
    pub fn is_present(self) -> bool {
        self.0 > 0
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    slot: u64,
    locked: bool,
}

/// A linearizable, long-lived, wait-free log (sequential specification).
///
/// In the shared-memory execution level the simulator applies one operation
/// at a time, so this sequential object *is* the linearization the paper
/// reasons over.
///
/// # Examples
///
/// ```
/// use gam_objects::{Log, Pos};
///
/// let mut log: Log<&str> = Log::new();
/// assert_eq!(log.append("a"), Pos(1));
/// assert_eq!(log.append("b"), Pos(2));
/// // Bump "a" to slot 5 and lock it there.
/// assert_eq!(log.bump_and_lock(&"a", Pos(5)), Pos(5));
/// assert!(log.locked(&"a"));
/// assert!(log.before(&"b", &"a")); // b (#2) <_L a (#5)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log<D: Ord + Clone> {
    entries: BTreeMap<D, Entry>,
    /// The data in log order `<_L`: sorted by `(slot, datum)`, kept current
    /// by `append` (always the new last element) and `bump_and_lock` (one
    /// element moves towards the end), so ordered reads borrow it.
    order: Vec<(u64, D)>,
    /// Highest occupied slot (0 when empty). The head is `max_slot + 1`.
    max_slot: u64,
}

impl<D: Ord + Clone> Default for Log<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D: Ord + Clone> Log<D> {
    /// Creates an empty log (head at slot 1).
    pub fn new() -> Self {
        Log {
            entries: BTreeMap::new(),
            order: Vec::new(),
            max_slot: 0,
        }
    }

    /// The head of the log: the first free slot after which there are only
    /// free slots.
    pub fn head(&self) -> Pos {
        Pos(self.max_slot + 1)
    }

    /// `append(d)`: inserts `d` at the head and returns its position. If `d`
    /// is already present, does nothing and returns its current position.
    pub fn append(&mut self, d: D) -> Pos {
        if let Some(e) = self.entries.get(&d) {
            return Pos(e.slot);
        }
        let slot = self.max_slot + 1;
        self.max_slot = slot;
        // above every occupied slot: last in log order
        self.order.push((slot, d.clone()));
        self.entries.insert(
            d,
            Entry {
                slot,
                locked: false,
            },
        );
        Pos(slot)
    }

    /// `pos(d)`: the position of `d`, or [`Pos::ABSENT`].
    pub fn pos(&self, d: &D) -> Pos {
        self.entries.get(d).map_or(Pos::ABSENT, |e| Pos(e.slot))
    }

    /// `d ∈ L`.
    pub fn contains(&self, d: &D) -> bool {
        self.entries.contains_key(d)
    }

    /// `locked(d)`: whether `d` is locked (false when absent).
    pub fn locked(&self, d: &D) -> bool {
        self.entries.get(d).is_some_and(|e| e.locked)
    }

    /// `bumpAndLock(d, k)`: moves `d` from its slot `l` to `max(k, l)`, then
    /// locks it. Returns the final position. If `d` is already locked this
    /// is a no-op (a locked datum cannot be bumped anymore).
    ///
    /// # Panics
    ///
    /// Panics if `d` is not in the log — protocol callers guard with
    /// [`Log::contains`] or use [`Log::try_bump_and_lock`].
    pub fn bump_and_lock(&mut self, d: &D, k: Pos) -> Pos {
        self.try_bump_and_lock(d, k)
            .expect("bumpAndLock requires the datum to be in the log")
    }

    /// Non-panicking [`Log::bump_and_lock`]: returns `None` when `d` is not
    /// in the log, leaving the log unchanged.
    pub fn try_bump_and_lock(&mut self, d: &D, k: Pos) -> Option<Pos> {
        let e = self.entries.get_mut(d)?;
        if e.locked {
            return Some(Pos(e.slot));
        }
        let from = e.slot;
        e.slot = from.max(k.0);
        e.locked = true;
        let slot = e.slot;
        self.max_slot = self.max_slot.max(slot);
        if slot != from {
            // `d` moves from its place to just before the first element
            // above `(slot, d)`; what lay between shifts down by one.
            let at = self.order_index(from, d);
            let to = at + self.order[at..].partition_point(|(s, x)| (*s, x) < (slot, d));
            self.order[at].0 = slot;
            self.order[at..to].rotate_left(1);
        }
        Some(Pos(slot))
    }

    /// Where `(slot, d)` sits in `order`.
    fn order_index(&self, slot: u64, d: &D) -> usize {
        self.order
            .binary_search_by(|(s, x)| (*s, x).cmp(&(slot, d)))
            .expect("every entry is indexed at its slot")
    }

    /// `d <_L d'`: `d` occupies a lower position, or the same slot with
    /// `d < d'` under the a-priori total order. False unless both present.
    pub fn before(&self, d: &D, d2: &D) -> bool {
        match (self.entries.get(d), self.entries.get(d2)) {
            (Some(a), Some(b)) => a.slot < b.slot || (a.slot == b.slot && *d < *d2),
            _ => false,
        }
    }

    /// Number of data items in the log.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the log holds no datum.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries as `(datum, position, locked)` triples, in the a-priori
    /// data order (deterministic regardless of operation history) — the
    /// iteration state fingerprints walk.
    pub fn entries(&self) -> impl Iterator<Item = (&D, Pos, bool)> {
        self.entries.iter().map(|(d, e)| (d, Pos(e.slot), e.locked))
    }

    /// The data items in log order (`<_L`). Borrows the log's own index:
    /// no allocation, no sort.
    pub fn iter_in_order(&self) -> impl Iterator<Item = &D> {
        self.order.iter().map(|(_, d)| d)
    }

    /// The data items strictly before `d` in log order, in that order — a
    /// walk over the prefix of the index that ends at `d`. Empty when `d`
    /// is absent.
    pub fn iter_before<'a>(&'a self, d: &D) -> impl Iterator<Item = &'a D> {
        let end = self
            .entries
            .get(d)
            .map_or(0, |e| self.order_index(e.slot, d));
        self.order[..end].iter().map(|(_, d)| d)
    }

    /// The data items strictly before `d` in log order. Empty when `d` is
    /// absent.
    pub fn predecessors(&self, d: &D) -> Vec<D> {
        self.iter_before(d).cloned().collect()
    }

    /// Log order derived from scratch — collect every entry, sort by
    /// `(slot, datum)` — which the maintained index must equal after every
    /// operation.
    #[cfg(test)]
    fn order_oracle(&self) -> Vec<(u64, D)> {
        let mut v: Vec<(u64, D)> = self
            .entries
            .iter()
            .map(|(d, e)| (e.slot, d.clone()))
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn appends_take_consecutive_slots() {
        let mut log = Log::new();
        assert_eq!(log.head(), Pos(1));
        assert_eq!(log.append(10), Pos(1));
        assert_eq!(log.append(20), Pos(2));
        assert_eq!(log.append(30), Pos(3));
        assert_eq!(log.head(), Pos(4));
    }

    #[test]
    fn append_is_idempotent() {
        let mut log = Log::new();
        log.append("x");
        assert_eq!(log.append("x"), Pos(1));
        assert_eq!(log.len(), 1);
        assert_eq!(log.head(), Pos(2));
    }

    #[test]
    fn pos_of_absent_is_zero() {
        let log: Log<u32> = Log::new();
        assert_eq!(log.pos(&7), Pos::ABSENT);
        assert!(!log.pos(&7).is_present());
        assert!(!log.contains(&7));
        assert!(!log.locked(&7));
        assert!(log.is_empty());
    }

    #[test]
    fn bump_moves_to_max_of_current_and_target() {
        let mut log = Log::new();
        log.append("a"); // slot 1
        log.append("b"); // slot 2
                         // bump below current position: stays
        assert_eq!(log.bump_and_lock(&"b", Pos(1)), Pos(2));
        // bump above: moves
        assert_eq!(log.bump_and_lock(&"a", Pos(9)), Pos(9));
        // head follows the maximum occupied slot (first free after all data)
        assert_eq!(log.head(), Pos(10));
    }

    #[test]
    fn locked_datum_cannot_be_bumped_again() {
        let mut log = Log::new();
        log.append(1u32);
        log.bump_and_lock(&1, Pos(4));
        assert!(log.locked(&1));
        // Claim 4/5: locked stays locked, at the same position
        assert_eq!(log.bump_and_lock(&1, Pos(100)), Pos(4));
        assert_eq!(log.pos(&1), Pos(4));
    }

    #[test]
    #[should_panic(expected = "requires the datum")]
    fn bump_of_absent_panics() {
        let mut log: Log<u32> = Log::new();
        log.bump_and_lock(&5, Pos(1));
    }

    #[test]
    fn shared_slot_orders_by_data_order() {
        let mut log = Log::new();
        log.append("b"); // slot 1
        log.append("a"); // slot 2
        log.bump_and_lock(&"b", Pos(2)); // now both in slot 2
        assert_eq!(log.pos(&"a"), log.pos(&"b"));
        assert!(log.before(&"a", &"b"));
        assert!(!log.before(&"b", &"a"));
        let order: Vec<&&str> = log.iter_in_order().collect();
        assert_eq!(order, vec![&"a", &"b"]);
    }

    #[test]
    fn claim7_new_data_lands_after_locked() {
        // Claim 7: if d' is locked and d joins later, then d' <_L d.
        let mut log = Log::new();
        log.append(1u32);
        log.bump_and_lock(&1, Pos(50));
        log.append(2);
        assert!(log.before(&1, &2));
        assert_eq!(log.pos(&2), Pos(51));
    }

    #[test]
    fn predecessors_in_order() {
        let mut log = Log::new();
        for d in ["a", "b", "c", "d"] {
            log.append(d);
        }
        assert_eq!(log.predecessors(&"c"), vec!["a", "b"]);
        assert!(log.predecessors(&"a").is_empty());
        assert!(log.predecessors(&"zz").is_empty());
    }

    proptest! {
        /// Claim 3: positions only grow over any operation sequence.
        #[test]
        fn prop_positions_monotone(ops in proptest::collection::vec((0u8..2, 0u16..20, 1u64..30), 1..60)) {
            let mut log: Log<u16> = Log::new();
            let mut last_pos: std::collections::BTreeMap<u16, u64> = Default::default();
            for (op, d, k) in ops {
                match op {
                    0 => { log.append(d); }
                    _ => {
                        if log.contains(&d) {
                            log.bump_and_lock(&d, Pos(k));
                        }
                    }
                }
                for (d, p) in &last_pos {
                    prop_assert!(log.pos(d).0 >= *p, "position of {d} shrank");
                }
                for d in 0..20u16 {
                    if log.contains(&d) {
                        last_pos.insert(d, log.pos(&d).0);
                    }
                }
            }
        }

        /// Claim 6: a locked datum ordered before another stays before it.
        /// Claim 8: nothing can later slip *before* a locked datum — its set
        /// of predecessors can only shrink (an unlocked predecessor may be
        /// bumped past it; that is exactly Skeen-style bumping).
        #[test]
        fn prop_locked_order_is_stable(ops in proptest::collection::vec((0u8..2, 0u16..12, 1u64..20), 1..60)) {
            let mut log: Log<u16> = Log::new();
            // (locked d, befores and afters at lock time)
            let mut snapshots: Vec<(u16, Vec<u16>, Vec<u16>)> = Vec::new();
            for (op, d, k) in ops {
                match op {
                    0 => { log.append(d); }
                    _ => {
                        if log.contains(&d) && !log.locked(&d) {
                            log.bump_and_lock(&d, Pos(k));
                            let befores = (0..12u16).filter(|x| log.before(x, &d)).collect();
                            let afters = (0..12u16).filter(|x| log.before(&d, x)).collect();
                            snapshots.push((d, befores, afters));
                        }
                    }
                }
                for (d, befores, afters) in &snapshots {
                    // Claim 6: locked d before x ⇒ stays before x.
                    for x in afters {
                        prop_assert!(log.before(d, x), "locked {d} no longer before {x}");
                    }
                    // Claim 8: predecessors of a locked datum only shrink.
                    for x in 0..12u16 {
                        if log.before(&x, d) {
                            prop_assert!(
                                befores.contains(&x),
                                "{x} slipped before locked {d}"
                            );
                        }
                    }
                }
            }
        }

        /// The order `<_L` is a strict total order over present data, and
        /// the maintained index is that order after every operation.
        #[test]
        fn prop_order_total_and_acyclic(ops in proptest::collection::vec((0u8..3, 0u16..10, 1u64..15), 1..40)) {
            let mut log: Log<u16> = Log::new();
            for (op, d, k) in ops {
                match op {
                    0 => { log.append(d); }
                    1 => if log.contains(&d) { log.bump_and_lock(&d, Pos(k)); }
                    // absent data included: a no-op that must leave the index alone
                    _ => { log.try_bump_and_lock(&d, Pos(k)); }
                }
                prop_assert_eq!(&log.order, &log.order_oracle());
                let before: Vec<u16> = log.iter_before(&d).copied().collect();
                let expected: Vec<u16> = log
                    .order_oracle()
                    .into_iter()
                    .map(|(_, x)| x)
                    .filter(|x| log.before(x, &d))
                    .collect();
                prop_assert_eq!(before, expected);
            }
            let present: Vec<u16> = (0..10).filter(|d| log.contains(d)).collect();
            for a in &present {
                prop_assert!(!log.before(a, a));
                for b in &present {
                    if a != b {
                        prop_assert!(log.before(a, b) ^ log.before(b, a));
                    }
                }
            }
            // iter_in_order is consistent with before()
            let order: Vec<u16> = log.iter_in_order().copied().collect();
            for i in 0..order.len() {
                for j in (i + 1)..order.len() {
                    prop_assert!(log.before(&order[i], &order[j]));
                }
            }
        }
    }
}
