//! Process identities and sets of processes.
//!
//! The paper assumes a finite set of processes `P = {p_1, ..., p_n}`. We
//! represent a process by a small integer index ([`ProcessId`]) and a set of
//! processes by a fixed-width bitset ([`ProcessSet`]), which makes the
//! intersection-heavy group machinery (`g ∩ h`, quorum checks, family
//! faultiness) a handful of word operations.

use std::fmt;

/// Number of 64-bit words backing a [`ProcessSet`].
const WORDS: usize = 8;

/// Maximum number of processes supported by [`ProcessSet`].
pub const MAX_PROCESSES: usize = WORDS * 64;

/// The identity of a process, an index in `0..MAX_PROCESSES`.
///
/// # Examples
///
/// ```
/// use gam_kernel::ProcessId;
/// let p = ProcessId(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.to_string(), "p3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// Returns the index of this process as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ProcessId {
    fn from(v: u32) -> Self {
        ProcessId(v)
    }
}

impl From<usize> for ProcessId {
    fn from(v: usize) -> Self {
        assert!(v < MAX_PROCESSES, "process index {v} out of range");
        ProcessId(v as u32)
    }
}

/// A set of processes, represented as a 512-bit bitset.
///
/// Implements the set algebra used throughout the paper: union (`|`),
/// intersection (`&`), difference (`-`), symmetric difference (`^`) and the
/// subset/superset predicates. The total order compares sets as the numbers
/// their bit patterns encode (word 0 holds the lowest process indices), so
/// ordered collections keyed by sets iterate deterministically regardless of
/// the backing width.
///
/// # Examples
///
/// ```
/// use gam_kernel::{ProcessId, ProcessSet};
/// let g: ProcessSet = [0u32, 1, 2].into_iter().collect();
/// let h: ProcessSet = [2u32, 3].into_iter().collect();
/// assert_eq!(g & h, ProcessSet::from_iter([2u32]));
/// assert!(g.contains(ProcessId(1)));
/// assert_eq!((g | h).len(), 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ProcessSet([u64; WORDS]);

impl ProcessSet {
    /// The empty set.
    pub const EMPTY: ProcessSet = ProcessSet([0; WORDS]);

    /// Creates an empty set.
    pub fn new() -> Self {
        ProcessSet::EMPTY
    }

    /// Creates the set `{p_0, ..., p_{n-1}}` of the first `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_PROCESSES`.
    pub fn first_n(n: usize) -> Self {
        assert!(n <= MAX_PROCESSES, "at most {MAX_PROCESSES} processes");
        let mut words = [0u64; WORDS];
        let (full, rest) = (n / 64, n % 64);
        words[..full].fill(u64::MAX);
        if rest > 0 {
            words[full] = (1u64 << rest) - 1;
        }
        ProcessSet(words)
    }

    /// Creates a singleton set.
    pub fn singleton(p: ProcessId) -> Self {
        let mut s = ProcessSet::EMPTY;
        s.insert(p);
        s
    }

    /// Returns `true` if the set contains `p`.
    #[inline]
    pub fn contains(self, p: ProcessId) -> bool {
        self.0[p.index() / 64] & (1u64 << (p.index() % 64)) != 0
    }

    /// Inserts `p`, returning `true` if it was not already present.
    pub fn insert(&mut self, p: ProcessId) -> bool {
        let had = self.contains(p);
        self.0[p.index() / 64] |= 1u64 << (p.index() % 64);
        !had
    }

    /// Removes `p`, returning `true` if it was present.
    pub fn remove(&mut self, p: ProcessId) -> bool {
        let had = self.contains(p);
        self.0[p.index() / 64] &= !(1u64 << (p.index() % 64));
        had
    }

    /// Number of processes in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == [0; WORDS]
    }

    /// Returns `true` if `self ⊆ other`.
    #[inline]
    pub fn is_subset(self, other: ProcessSet) -> bool {
        (0..WORDS).all(|i| self.0[i] & !other.0[i] == 0)
    }

    /// Returns `true` if the two sets intersect (`self ∩ other ≠ ∅`).
    #[inline]
    pub fn intersects(self, other: ProcessSet) -> bool {
        (0..WORDS).any(|i| self.0[i] & other.0[i] != 0)
    }

    /// The minimum process in the set, if any.
    pub fn min(self) -> Option<ProcessId> {
        self.0
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| ProcessId((i * 64) as u32 + w.trailing_zeros()))
    }

    /// The maximum process in the set, if any.
    pub fn max(self) -> Option<ProcessId> {
        self.0
            .iter()
            .enumerate()
            .rev()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| ProcessId((i * 64) as u32 + 63 - w.leading_zeros()))
    }

    /// The least member with index at least `from`, if any — one step of a
    /// scan that resumes at a cursor without materialising the rest.
    ///
    /// # Examples
    ///
    /// ```
    /// use gam_kernel::{ProcessId, ProcessSet};
    /// let s = ProcessSet::from_iter([3u32, 70]);
    /// assert_eq!(s.next_from(0), Some(ProcessId(3)));
    /// assert_eq!(s.next_from(4), Some(ProcessId(70)));
    /// assert_eq!(s.next_from(71), None);
    /// ```
    #[inline]
    pub fn next_from(self, from: usize) -> Option<ProcessId> {
        let first = from / 64;
        let mut masked = self.0.get(first)? & (u64::MAX << (from % 64));
        for w in first..WORDS {
            if w > first {
                masked = self.0[w];
            }
            if masked != 0 {
                return Some(ProcessId((w * 64) as u32 + masked.trailing_zeros()));
            }
        }
        None
    }

    /// Iterates over the processes in ascending order.
    pub fn iter(self) -> Iter {
        Iter {
            words: self.0,
            word: 0,
        }
    }
}

impl PartialOrd for ProcessSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ProcessSet {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Numeric order of the encoded bit pattern: high words first.
        self.0.iter().rev().cmp(other.0.iter().rev())
    }
}

impl fmt::Debug for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Iterator over the processes of a [`ProcessSet`] in ascending order.
#[derive(Debug, Clone)]
pub struct Iter {
    words: [u64; WORDS],
    word: usize,
}

impl Iterator for Iter {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        while self.word < WORDS {
            let w = self.words[self.word];
            if w == 0 {
                self.word += 1;
                continue;
            }
            let idx = w.trailing_zeros();
            self.words[self.word] = w & (w - 1);
            return Some(ProcessId((self.word * 64) as u32 + idx));
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n: usize = self.words[self.word.min(WORDS)..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter {}

impl IntoIterator for ProcessSet {
    type Item = ProcessId;
    type IntoIter = Iter;

    fn into_iter(self) -> Iter {
        self.iter()
    }
}

impl FromIterator<ProcessId> for ProcessSet {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut s = ProcessSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl FromIterator<u32> for ProcessSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        iter.into_iter().map(ProcessId).collect()
    }
}

impl FromIterator<usize> for ProcessSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        iter.into_iter().map(ProcessId::from).collect()
    }
}

impl Extend<ProcessId> for ProcessSet {
    fn extend<I: IntoIterator<Item = ProcessId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl std::ops::BitOr for ProcessSet {
    type Output = ProcessSet;
    fn bitor(mut self, rhs: ProcessSet) -> ProcessSet {
        for i in 0..WORDS {
            self.0[i] |= rhs.0[i];
        }
        self
    }
}

impl std::ops::BitOrAssign for ProcessSet {
    fn bitor_assign(&mut self, rhs: ProcessSet) {
        *self = *self | rhs;
    }
}

impl std::ops::BitAnd for ProcessSet {
    type Output = ProcessSet;
    fn bitand(mut self, rhs: ProcessSet) -> ProcessSet {
        for i in 0..WORDS {
            self.0[i] &= rhs.0[i];
        }
        self
    }
}

impl std::ops::BitAndAssign for ProcessSet {
    fn bitand_assign(&mut self, rhs: ProcessSet) {
        *self = *self & rhs;
    }
}

impl std::ops::BitXor for ProcessSet {
    type Output = ProcessSet;
    fn bitxor(mut self, rhs: ProcessSet) -> ProcessSet {
        for i in 0..WORDS {
            self.0[i] ^= rhs.0[i];
        }
        self
    }
}

impl std::ops::Sub for ProcessSet {
    type Output = ProcessSet;
    fn sub(mut self, rhs: ProcessSet) -> ProcessSet {
        for i in 0..WORDS {
            self.0[i] &= !rhs.0[i];
        }
        self
    }
}

impl std::ops::SubAssign for ProcessSet {
    fn sub_assign(&mut self, rhs: ProcessSet) {
        *self = *self - rhs;
    }
}

impl From<ProcessId> for ProcessSet {
    fn from(p: ProcessId) -> Self {
        ProcessSet::singleton(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_contains_only_itself() {
        let s = ProcessSet::singleton(ProcessId(5));
        assert!(s.contains(ProcessId(5)));
        assert!(!s.contains(ProcessId(4)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn first_n_has_n_elements() {
        for n in [0usize, 1, 5, 64, 127, 128, 200, 511, 512] {
            let s = ProcessSet::first_n(n);
            assert_eq!(s.len(), n);
            if n > 0 {
                assert!(s.contains(ProcessId(0)));
                assert!(s.contains(ProcessId((n - 1) as u32)));
            }
            if n < MAX_PROCESSES {
                assert!(!s.contains(ProcessId(n as u32)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn first_n_rejects_oversize() {
        let _ = ProcessSet::first_n(MAX_PROCESSES + 1);
    }

    #[test]
    fn set_algebra() {
        let g: ProcessSet = [0u32, 1, 2].into_iter().collect();
        let h: ProcessSet = [2u32, 3, 4].into_iter().collect();
        assert_eq!(g & h, ProcessSet::from_iter([2u32]));
        assert_eq!(g | h, ProcessSet::first_n(5));
        assert_eq!(g - h, ProcessSet::from_iter([0u32, 1]));
        assert_eq!(g ^ h, ProcessSet::from_iter([0u32, 1, 3, 4]));
        assert!(g.intersects(h));
        assert!(!(g - h).intersects(h));
    }

    #[test]
    fn set_algebra_across_words() {
        let g: ProcessSet = [0u32, 70, 300, 511].into_iter().collect();
        let h: ProcessSet = [70u32, 300].into_iter().collect();
        assert_eq!(g & h, h);
        assert_eq!((g - h).len(), 2);
        assert_eq!((g | h).len(), 4);
        assert!(h.is_subset(g));
    }

    #[test]
    fn order_matches_numeric_encoding() {
        // Numeric bit-pattern order: {p64} > {p0..p63}, and within a word
        // the usual integer order.
        let low = ProcessSet::first_n(64);
        let high = ProcessSet::singleton(ProcessId(64));
        assert!(low < high);
        assert!(ProcessSet::singleton(ProcessId(1)) > ProcessSet::singleton(ProcessId(0)));
        assert!(ProcessSet::EMPTY < ProcessSet::singleton(ProcessId(0)));
    }

    #[test]
    fn subset() {
        let g: ProcessSet = [0u32, 1, 2].into_iter().collect();
        let h: ProcessSet = [1u32, 2].into_iter().collect();
        assert!(h.is_subset(g));
        assert!(!g.is_subset(h));
        assert!(ProcessSet::EMPTY.is_subset(h));
    }

    #[test]
    fn iteration_is_ascending() {
        let s: ProcessSet = [9u32, 3, 127, 0, 400].into_iter().collect();
        let v: Vec<u32> = s.iter().map(|p| p.0).collect();
        assert_eq!(v, vec![0, 3, 9, 127, 400]);
        assert_eq!(s.iter().len(), 5);
    }

    #[test]
    fn min_max() {
        let s: ProcessSet = [9u32, 3, 127, 509].into_iter().collect();
        assert_eq!(s.min(), Some(ProcessId(3)));
        assert_eq!(s.max(), Some(ProcessId(509)));
        assert_eq!(ProcessSet::EMPTY.min(), None);
        assert_eq!(ProcessSet::EMPTY.max(), None);
    }

    #[test]
    fn insert_remove() {
        let mut s = ProcessSet::new();
        assert!(s.insert(ProcessId(7)));
        assert!(!s.insert(ProcessId(7)));
        assert!(s.remove(ProcessId(7)));
        assert!(!s.remove(ProcessId(7)));
        assert!(s.is_empty());
    }

    #[test]
    fn display_formats() {
        let s: ProcessSet = [1u32, 2].into_iter().collect();
        assert_eq!(format!("{s}"), "{p1,p2}");
        assert_eq!(format!("{s:?}"), "{p1,p2}");
        assert_eq!(format!("{:?}", ProcessSet::EMPTY), "{}");
    }
}
