//! Chunked copy-on-write vector storage — the substrate of O(delta)
//! snapshots.
//!
//! A [`CowVec`] stores its elements in fixed-capacity chunks, each behind
//! an [`Arc`]. `Clone` is *seal-and-share*: it bumps one refcount per chunk
//! (O(len / chunk_capacity) pointer copies, no element copies), which is
//! exactly what a snapshot needs. Mutation goes through
//! [`Arc::make_mut`], which copies a chunk only when it is shared — so
//! after a snapshot, continuing execution pays O(touched chunks), and with
//! no snapshot alive (refcount 1 everywhere) the hot loop runs on the
//! cheap uncontended path.
//!
//! The element-level API mirrors the subset of `Vec` the protocol arenas
//! use: `push`/`pop`/`resize`, `Index`/`IndexMut`, in-order iteration.
//! Logical contents are what they would be in a plain `Vec`; chunking is
//! invisible to every reader, so digest walks over a `CowVec` are
//! byte-identical to the flat-storage walks they replace.
//!
//! ## The restore direction
//!
//! Rewinding to a snapshot is [`Clone::clone_from`], and it is *copy-back*,
//! not re-share: a chunk the destination still shares with the source is
//! skipped, a chunk the destination owns alone (it was copied on a write
//! since the snapshot) is overwritten in place, element by element, and
//! only a chunk some third value also holds is re-shared. So an owner that
//! rewinds to the same snapshot again and again — a backtracking search —
//! keeps private copies of exactly the chunks it writes: after the first
//! rewind neither the rewind nor the writes that follow it allocate or
//! copy-on-write. The source is never written through; its chunks are only
//! read. [`CowVec::refill`] with [`Refill::Share`] is the other direction,
//! a snapshot taken *into* an old snapshot's storage: every chunk is
//! shared as `Clone` shares it, and only the pointer table is reused.
//!
//! Cost accounting for the explorer's snapshot-bytes metric:
//! [`CowVec::shallow_bytes`] is what a `Clone` actually copies (chunk
//! pointers), [`CowVec::deep_bytes`] is what a deep element copy would
//! have copied — the ratio is the explorer's headline saving.
//! [`CowVec::chunk_copies`] counts the chunks this value copied element by
//! element, on a write to a shared chunk or on a copy-back.

use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// A chunked vector whose `Clone` shares (seals) chunk storage and whose
/// writes copy-on-write only the touched chunk. See the module docs.
#[derive(Debug)]
pub struct CowVec<T> {
    /// Every chunk except the last holds exactly `1 << shift` elements;
    /// the last holds the remainder. The sum of chunk lengths is `len`.
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
    /// Chunk capacity is the power of two `1 << shift`.
    shift: u32,
    /// Chunks this value copied element by element (see
    /// [`CowVec::chunk_copies`]). Not logical content: equality ignores
    /// it, a `clone` starts it at zero and a refill leaves the
    /// destination's own count running.
    copies: u64,
}

/// What [`CowVec::refill`] does with a chunk that differs from the
/// source's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refill {
    /// Restore: overwrite in place a chunk the destination owns alone,
    /// re-share any other. This is [`Clone::clone_from`].
    CopyBack,
    /// Snapshot into old storage: share every chunk, as `Clone` does, and
    /// reuse only the pointer table.
    Share,
}

impl<T> Default for CowVec<T> {
    /// An empty `CowVec` with the default chunk capacity (32).
    fn default() -> Self {
        CowVec::new(32)
    }
}

impl<T> CowVec<T> {
    /// An empty `CowVec` whose chunks hold `chunk_capacity` elements
    /// (rounded up to a power of two, minimum 2).
    pub fn new(chunk_capacity: usize) -> Self {
        let cap = chunk_capacity.next_power_of_two().max(2);
        CowVec {
            chunks: Vec::new(),
            len: 0,
            shift: cap.trailing_zeros(),
            copies: 0,
        }
    }

    /// Number of logical elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fixed chunk capacity.
    fn cap(&self) -> usize {
        1usize << self.shift
    }

    /// The element at `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            return None;
        }
        Some(&self.chunks[i >> self.shift][i & (self.cap() - 1)])
    }

    /// The last element, or `None` when empty.
    pub fn last(&self) -> Option<&T> {
        if self.len == 0 {
            None
        } else {
            self.get(self.len - 1)
        }
    }

    /// In-order iteration over the logical contents.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// *Heap* bytes a `Clone` of this value copies: the chunk pointer
    /// table — never the elements, and not the inline struct header,
    /// which the owner's own `size_of` already accounts for and which any
    /// snapshot representation must hold either way.
    pub fn shallow_bytes(&self) -> u64 {
        (self.chunks.len() * std::mem::size_of::<Arc<Vec<T>>>()) as u64
    }

    /// Bytes a *deep* element copy would have copied (flat element
    /// payload; callers add per-element heap internals where they exist).
    pub fn deep_bytes(&self) -> u64 {
        (self.len * std::mem::size_of::<T>()) as u64
    }

    /// Chunks this value has copied element by element so far: writes that
    /// found their chunk shared (copy-on-write) plus chunks a
    /// [`Refill::CopyBack`] overwrote in place. A function of the
    /// operations applied to this value and its clones, never of the host.
    pub fn chunk_copies(&self) -> u64 {
        self.copies
    }
}

/// The accounting of one column with its element type erased, so that an
/// owner of many columns lists them once and sums whichever figure it is
/// asked for.
pub trait ColumnStats {
    /// [`CowVec::shallow_bytes`].
    fn shallow_bytes(&self) -> u64;
    /// [`CowVec::deep_bytes`].
    fn deep_bytes(&self) -> u64;
    /// [`CowVec::chunk_copies`].
    fn chunk_copies(&self) -> u64;
}

impl<T> ColumnStats for CowVec<T> {
    fn shallow_bytes(&self) -> u64 {
        CowVec::shallow_bytes(self)
    }
    fn deep_bytes(&self) -> u64 {
        CowVec::deep_bytes(self)
    }
    fn chunk_copies(&self) -> u64 {
        CowVec::chunk_copies(self)
    }
}

impl<T: Clone> Clone for CowVec<T> {
    fn clone(&self) -> Self {
        CowVec {
            chunks: self.chunks.clone(),
            len: self.len,
            shift: self.shift,
            copies: 0,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.refill(src, Refill::CopyBack);
    }
}

impl<T: Clone> CowVec<T> {
    /// Makes `self` read as `src` does, reusing what `self` already holds:
    /// the pointer table always, and under [`Refill::CopyBack`] the chunks
    /// `self` owns alone. A chunk both already share costs a pointer
    /// compare. `src` is only read — no chunk of it is written, in either
    /// mode.
    pub fn refill(&mut self, src: &Self, how: Refill) {
        let CowVec {
            chunks,
            len,
            shift,
            copies: _,
        } = src;
        self.chunks.truncate(chunks.len());
        let common = self.chunks.len();
        for (mine, theirs) in self.chunks.iter_mut().zip(chunks) {
            if Arc::ptr_eq(mine, theirs) {
                continue;
            }
            let own = match how {
                Refill::CopyBack => Arc::get_mut(mine),
                Refill::Share => None,
            };
            match own {
                Some(own) => {
                    own.clone_from(theirs);
                    self.copies += 1;
                }
                None => *mine = Arc::clone(theirs),
            }
        }
        self.chunks.extend(chunks[common..].iter().cloned());
        self.len = *len;
        self.shift = *shift;
    }

    /// Write access to chunk `ci`, copying it first if it is shared.
    #[inline(always)]
    fn chunk_mut(&mut self, ci: usize) -> &mut Vec<T> {
        let chunk = &mut self.chunks[ci];
        // A copy shows as the payload having moved: no second look at the
        // reference count.
        let before = Arc::as_ptr(chunk);
        let payload = Arc::make_mut(chunk);
        if !std::ptr::eq(before, payload) {
            self.copies += 1;
        }
        payload
    }

    /// Builds from `contents`, sealing full chunks as it goes.
    pub fn from_vec(chunk_capacity: usize, contents: Vec<T>) -> Self {
        let mut v = CowVec::new(chunk_capacity);
        v.extend(contents);
        v
    }

    /// Appends an element, opening a fresh chunk when the last is full.
    pub fn push(&mut self, value: T) {
        if self.len == self.chunks.len() << self.shift {
            self.chunks.push(Arc::new(Vec::with_capacity(self.cap())));
        }
        self.chunk_mut(self.chunks.len() - 1).push(value);
        self.len += 1;
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let last = self.chunk_mut(self.chunks.len() - 1);
        let value = last.pop();
        if last.is_empty() {
            self.chunks.pop();
        }
        self.len -= 1;
        value
    }

    /// Grows (with clones of `value`) or shrinks to `new_len` — the same
    /// contract as `Vec::resize`.
    pub fn resize(&mut self, new_len: usize, value: T) {
        while self.len > new_len {
            self.pop();
        }
        self.extend(std::iter::repeat_n(value, new_len - self.len));
    }

    /// Appends every element of `iter` in order, a chunk at a time: one
    /// reference-count check per chunk filled, not one per element.
    pub fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let mut iter = iter.into_iter();
        while let Some(first) = iter.next() {
            if self.len == self.chunks.len() << self.shift {
                self.chunks.push(Arc::new(Vec::with_capacity(self.cap())));
            }
            let last = self.chunks.len() - 1;
            let room = ((last + 1) << self.shift) - self.len - 1;
            let chunk = self.chunk_mut(last);
            chunk.push(first);
            chunk.extend(iter.by_ref().take(room));
            let filled = chunk.len();
            self.len = (last << self.shift) + filled;
        }
    }
}

impl<T> Index<usize> for CowVec<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.chunks[i >> self.shift][i & (self.cap() - 1)]
    }
}

impl<T: Clone> IndexMut<usize> for CowVec<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        let cap = self.cap();
        &mut self.chunk_mut(i >> self.shift)[i & (cap - 1)]
    }
}

impl<'a, T> IntoIterator for &'a CowVec<T> {
    type Item = &'a T;
    type IntoIter = std::iter::FlatMap<
        std::slice::Iter<'a, Arc<Vec<T>>>,
        std::slice::Iter<'a, T>,
        fn(&'a Arc<Vec<T>>) -> std::slice::Iter<'a, T>,
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.chunks.iter().flat_map(|c| c.iter())
    }
}

impl<T: PartialEq> PartialEq for CowVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T: Eq> Eq for CowVec<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_index_iter_match_vec_semantics() {
        let mut c = CowVec::new(4);
        let mut v = Vec::new();
        for i in 0..37u64 {
            c.push(i * 3);
            v.push(i * 3);
        }
        assert_eq!(c.len(), v.len());
        for i in 0..v.len() {
            assert_eq!(c[i], v[i]);
            assert_eq!(c.get(i), Some(&v[i]));
        }
        assert_eq!(c.get(v.len()), None);
        assert_eq!(c.iter().copied().collect::<Vec<_>>(), v);
        assert_eq!(c.last(), v.last());
    }

    #[test]
    fn clone_shares_and_writes_copy_only_the_touched_chunk() {
        let mut c = CowVec::from_vec(4, (0..16u64).collect());
        let snap = c.clone();
        // Writing through the clone leaves the original untouched…
        c[5] = 999;
        c.push(16);
        assert_eq!(snap[5], 5);
        assert_eq!(snap.len(), 16);
        assert_eq!(c[5], 999);
        assert_eq!(c.len(), 17);
        // …and restoring rewinds exactly.
        c.clone_from(&snap);
        assert_eq!(c.len(), 16);
        assert_eq!(c[5], 5);
    }

    #[test]
    fn restore_copies_back_into_owned_chunks_and_counts_it() {
        let mut c = CowVec::from_vec(4, (0..16u64).collect());
        let snap = c.clone();
        assert_eq!(snap.chunk_copies(), 0, "a clone starts its own count");
        c[5] = 999;
        assert_eq!(
            c.chunk_copies(),
            1,
            "first write to a shared chunk copies it"
        );
        c[6] = 1;
        assert_eq!(c.chunk_copies(), 1, "the copy is private from then on");
        c.clone_from(&snap);
        assert_eq!(c, snap);
        assert_eq!(c.chunk_copies(), 2, "one chunk differed: one copy-back");
        c[5] = 7;
        assert_eq!(c.chunk_copies(), 2, "the restored chunk stayed private");
        assert_eq!(snap[5], 5, "and the snapshot was not written through");
        c.clone_from(&snap);
        c.clone_from(&snap);
        assert_eq!(
            c.chunk_copies(),
            4,
            "a private chunk is copied back unread: pointers are compared, not contents"
        );
        // A snapshot taken into old storage shares like a fresh one: the
        // next write copies again, and the slot keeps what it captured.
        c[5] = 7;
        let mut slot = CowVec::from_vec(4, vec![42u64; 3]);
        slot.refill(&c, Refill::Share);
        assert_eq!((slot.len(), slot[5], slot.chunk_copies()), (16, 7, 0));
        c[5] = 8;
        assert_eq!(c.chunk_copies(), 5);
        assert_eq!(slot[5], 7);
    }

    #[test]
    fn resize_grows_and_shrinks_across_chunk_boundaries() {
        let mut c = CowVec::new(4);
        c.resize(11, 7u32);
        assert_eq!(c.len(), 11);
        assert!(c.iter().all(|&x| x == 7));
        c.resize(3, 0);
        assert_eq!(c.len(), 3);
        c.resize(9, 1);
        assert_eq!(
            c.iter().copied().collect::<Vec<_>>(),
            vec![7, 7, 7, 1, 1, 1, 1, 1, 1]
        );
    }

    #[test]
    fn pop_returns_in_reverse_push_order() {
        let mut c = CowVec::from_vec(2, vec![1, 2, 3]);
        assert_eq!(c.pop(), Some(3));
        assert_eq!(c.pop(), Some(2));
        assert_eq!(c.pop(), Some(1));
        assert_eq!(c.pop(), None);
        assert!(c.is_empty());
    }

    proptest::proptest! {
        /// `clone_from` is `clone`, and aliases never leak: three vectors
        /// of heap rows under random pushes, pops, writes, clones and
        /// restores (lengths shrinking and growing across them) read, after
        /// every operation, exactly as three plain `Vec`s treated the same
        /// way — so a restore makes `a == b`, leaves `b` and every other
        /// live clone as they were, and no later write to one shows in
        /// another.
        #[test]
        fn clone_from_is_clone_and_aliases_never_leak(
            cap in 0usize..3,
            ops in proptest::collection::vec((0u8..6, 0usize..3, 0usize..3, 0u16..1000), 1..200),
        ) {
            let cap = [2, 4, 32][cap];
            let mut cow: Vec<CowVec<Vec<u16>>> = (0..3).map(|_| CowVec::new(cap)).collect();
            let mut model: Vec<Vec<Vec<u16>>> = vec![Vec::new(); 3];
            for (op, i, j, k) in ops {
                match op {
                    0 | 1 => {
                        cow[i].push(vec![k]);
                        model[i].push(vec![k]);
                    }
                    2 => proptest::prop_assert_eq!(cow[i].pop(), model[i].pop()),
                    3 if !model[i].is_empty() => {
                        let at = k as usize % model[i].len();
                        cow[i][at].push(k);
                        model[i][at].push(k);
                    }
                    4 => {
                        cow[i] = cow[j].clone();
                        model[i] = model[j].clone();
                    }
                    5 if i != j => {
                        let src = cow[j].clone();
                        cow[i].clone_from(&src);
                        // Through the clone *and* through the original: the
                        // second call finds every chunk already shared.
                        let (a, b) = if i < j {
                            let (lo, hi) = cow.split_at_mut(j);
                            (&mut lo[i], &hi[0])
                        } else {
                            let (lo, hi) = cow.split_at_mut(i);
                            (&mut hi[0], &lo[j])
                        };
                        a.clone_from(b);
                        proptest::prop_assert!(a == b);
                        model[i] = model[j].clone();
                    }
                    _ => {}
                }
                for (c, m) in cow.iter().zip(&model) {
                    proptest::prop_assert_eq!(c.len(), m.len());
                    proptest::prop_assert_eq!(c.last(), m.last());
                    proptest::prop_assert!(c.iter().eq(m.iter()), "{:?} vs {:?}", c, m);
                    proptest::prop_assert!((0..m.len()).all(|x| c[x] == m[x]));
                }
            }
        }
    }

    #[test]
    fn shallow_bytes_stay_flat_as_contents_grow() {
        let mut c: CowVec<u64> = CowVec::new(32);
        c.resize(4096, 0);
        // 4096 u64s deep vs ~128 chunk pointers shallow.
        assert!(c.deep_bytes() >= 10 * c.shallow_bytes());
    }
}
