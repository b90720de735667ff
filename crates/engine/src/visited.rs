//! A fixed-capacity, open-addressing visited-set over 64-bit fingerprints.
//!
//! The parallel explorer prunes the fair-tail completion of any enumerated
//! prefix whose post-prefix [`state_fingerprint`] was already seen: equal
//! fingerprints mean states no continuation and no verdict can tell apart,
//! and the tail is a deterministic function of that state, so re-running it
//! can only reproduce a verdict already recorded. The set backing that
//! decision must be cheap (one probe per prefix, on the hot path),
//! allocation-stable (a worker reuses one table across all its work items)
//! and *deterministic* (its answers are a pure function of the insertion
//! sequence — never of timing), which rules out both growable hash maps
//! (rehash points depend on capacity history) and anything concurrently
//! shared (probe outcomes would race).
//!
//! Hence this little table: linear probing over a power-of-two slot array,
//! a bounded probe window, and a deliberate *no-growth* policy — when the
//! window is full the oldest candidate slot is overwritten. Forgetting a
//! fingerprint is always sound (a future duplicate is simply re-explored);
//! remembering a wrong one never happens.
//!
//! [`state_fingerprint`]: crate::Executor::state_fingerprint

/// Slot value marking an empty cell; real keys equal to it are remapped.
const EMPTY: u64 = 0;
/// Stand-in for a genuine key of `0` (an arbitrary odd constant).
const ZERO_KEY: u64 = 0x9e37_79b9_7f4a_7c15;
/// How many consecutive slots an insert probes before evicting.
const PROBE_WINDOW: usize = 32;

/// A fixed-capacity set of `u64` fingerprints with open addressing.
///
/// # Examples
///
/// ```
/// use gam_engine::VisitedSet;
///
/// let mut seen = VisitedSet::with_capacity(64);
/// assert!(seen.insert(7));  // newly inserted
/// assert!(!seen.insert(7)); // already visited
/// assert_eq!(seen.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct VisitedSet {
    slots: Vec<u64>,
    mask: usize,
    len: usize,
    evictions: u64,
}

impl VisitedSet {
    /// A set with room for `capacity` fingerprints, rounded up to the next
    /// power of two (minimum 16). The table never grows.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.clamp(16, 1 << 28).next_power_of_two();
        VisitedSet {
            slots: vec![EMPTY; cap],
            mask: cap - 1,
            len: 0,
            evictions: 0,
        }
    }

    /// Fingerprints currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots of the table.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// How many stored fingerprints were overwritten because their probe
    /// window filled up (each one a potential future dedup hit forgone).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Empties the set, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.len = 0;
        self.evictions = 0;
    }

    /// Whether `key` is in the set.
    pub fn contains(&self, key: u64) -> bool {
        let key = if key == EMPTY { ZERO_KEY } else { key };
        let home = ((key ^ (key >> 32)) as usize) & self.mask;
        for i in 0..PROBE_WINDOW.min(self.slots.len()) {
            match self.slots[(home + i) & self.mask] {
                EMPTY => return false,
                k if k == key => return true,
                _ => {}
            }
        }
        false
    }

    /// Inserts `key`. Returns `true` if the key was **not** present (it is
    /// now), `false` if it was already in the set — i.e. `false` is a dedup
    /// hit. When the key's probe window holds neither the key nor a free
    /// slot, the window's first slot is overwritten (see module docs).
    pub fn insert(&mut self, key: u64) -> bool {
        let key = if key == EMPTY { ZERO_KEY } else { key };
        // Fingerprints come out of an avalanche step — well mixed, but fold
        // the high half down so the table index sees all 64 bits.
        let home = ((key ^ (key >> 32)) as usize) & self.mask;
        for i in 0..PROBE_WINDOW.min(self.slots.len()) {
            let at = (home + i) & self.mask;
            match self.slots[at] {
                EMPTY => {
                    self.slots[at] = key;
                    self.len += 1;
                    return true;
                }
                k if k == key => return false,
                _ => {}
            }
        }
        self.slots[home] = key;
        self.evictions += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_new_vs_seen() {
        let mut s = VisitedSet::with_capacity(100);
        assert_eq!(s.capacity(), 128, "rounded to a power of two");
        assert!(s.is_empty());
        assert!(s.insert(42));
        assert!(!s.insert(42));
        assert!(s.insert(43));
        assert_eq!(s.len(), 2);
        assert_eq!(s.evictions(), 0);
    }

    #[test]
    fn zero_key_is_a_real_member() {
        let mut s = VisitedSet::with_capacity(16);
        assert!(s.insert(0));
        assert!(!s.insert(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn clear_keeps_capacity_and_forgets_members() {
        let mut s = VisitedSet::with_capacity(16);
        for k in 1..=10u64 {
            s.insert(k);
        }
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 16);
        assert!(s.insert(3), "cleared keys are new again");
    }

    #[test]
    fn saturated_window_evicts_instead_of_growing() {
        // Capacity 16 < PROBE_WINDOW: every window wraps the whole table, so
        // the 17th distinct key must evict rather than error or grow.
        let mut s = VisitedSet::with_capacity(16);
        let mut fresh = 0;
        for k in 1..=40u64 {
            if s.insert(k.wrapping_mul(0x2545_f491_4f6c_dd1d)) {
                fresh += 1;
            }
        }
        assert_eq!(fresh, 40, "all keys distinct, none rejected");
        assert_eq!(s.capacity(), 16, "never grows");
        assert!(s.evictions() > 0);
        assert!(s.len() <= s.capacity());
    }

    #[test]
    fn deterministic_for_a_given_insertion_sequence() {
        let seq: Vec<u64> = (0..500).map(|i| i * i + 1).collect();
        let run = || {
            let mut s = VisitedSet::with_capacity(64);
            let hits: Vec<bool> = seq.iter().map(|k| s.insert(*k)).collect();
            (hits, s.len(), s.evictions())
        };
        assert_eq!(run(), run());
    }
}
