//! Order-sensitive run digests — the one shared hash implementation.
//!
//! Determinism claims ("same seed ⇒ same run", "a `Repro` replays
//! byte-identically") are checked by comparing a 64-bit digest of the
//! observable run outcome. Both substrates fold their digests through the
//! same [`Digest`] accumulator, so a runtime-level hash and a kernel-level
//! hash disagree only when the runs genuinely differ — never because two
//! copies of the hash function drifted apart (the pre-engine layout kept a
//! second copy in `gam-explore`).
//!
//! [`Digest`] is *incremental*: an executor folds each step in as it
//! happens, so `state_digest()` is O(1) to read at any point of a run
//! instead of requiring a full end-of-run rehash of a recorded schedule.
//!
//! Two accumulators live here, and only one of them is pinned. [`Digest`]
//! (byte-wise FNV-1a) hashes *histories*: `state_digest`, [`trace_hash`]
//! and [`fnv1a`] values are written into the committed `.repro` fixtures
//! and hash tables, so its function may never change. [`Fingerprint`]
//! hashes *states* for the explorer's visited set: its values are compared
//! within one process and stored nowhere, so it is free to be fast.

use gam_core::RunReport;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a accumulator over a word stream.
///
/// Folding words one at a time yields exactly the same value as hashing
/// the whole stream at once with [`fnv1a`], so post-hoc digests and
/// incrementally-maintained ones are interchangeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    h: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    /// An empty digest (the FNV-1a offset basis).
    pub const fn new() -> Self {
        Digest { h: FNV_OFFSET }
    }

    /// Folds one word into the digest.
    pub fn push(&mut self, w: u64) {
        let mut h = self.h;
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.h = h;
    }

    /// Folds a stream of words into the digest.
    fn push_all(&mut self, words: impl IntoIterator<Item = u64>) {
        for w in words {
            self.push(w);
        }
    }

    /// The current digest value.
    pub const fn value(&self) -> u64 {
        self.h
    }
}

/// A 64-bit accumulator over a word stream for *state fingerprints*
/// ([`Executor::state_fingerprint`](crate::Executor::state_fingerprint)):
/// one multiply and one xor-shift per word, where [`Digest`] spends eight
/// dependent multiplies, and a final avalanche.
///
/// Not pinned: nothing stores a fingerprint across processes — tests and
/// the visited set only compare them — so this function can change, and
/// [`Digest`], whose values the `.repro` fixtures record, cannot (see the
/// module docs). Order-sensitive like `Digest`: each fold is a bijection of
/// the state for a fixed word and of the word for a fixed state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    h: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl Fingerprint {
    /// An empty fingerprint.
    pub const fn new() -> Self {
        Fingerprint { h: FNV_OFFSET }
    }

    /// Folds one word in.
    #[inline]
    pub fn push(&mut self, w: u64) {
        let x = (self.h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.h = x ^ (x >> 32);
    }

    /// The fingerprint of the words folded so far (the splitmix64
    /// finalizer over the running state, so every bit of it depends on
    /// every bit of the last word too).
    pub const fn value(&self) -> u64 {
        splitmix64_finish(self.h)
    }
}

/// The splitmix64 finalizer: a bijection of `u64` that avalanches.
const fn splitmix64_finish(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a over a word stream.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut d = Digest::new();
    d.push_all(words);
    d.value()
}

/// Derives an independent seed stream from `(seed, tag)` — the splitmix64
/// finalizer over their combination.
///
/// The scenario generator draws its topology, crash plan and traffic trace
/// from *separate* RNG streams of one descriptor seed, so that e.g. adding
/// a crash to a descriptor cannot shift which groups its traffic targets.
/// Any consumer needing a family of decorrelated sub-seeds from one
/// recorded seed should derive them here rather than hand-rolling a mixer.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    splitmix64_finish(
        seed.wrapping_add(tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(0x9e37_79b9_7f4a_7c15),
    )
}

/// Digest of a [`RunReport`]'s observable outcome.
///
/// Folds in every delivery (process, message, time) **in order**, plus the
/// per-process action counters and the quiescence bit, so any divergence —
/// including one caused by iteration over an unordered map leaking into
/// scheduling — flips it.
pub fn trace_hash(report: &RunReport) -> u64 {
    let mut d = Digest::new();
    d.push(u64::from(report.quiescent));
    d.push(report.delivered.len() as u64);
    for (i, deliveries) in report.delivered.iter().enumerate() {
        d.push(i as u64);
        d.push(report.actions_of[i]);
        for del in deliveries {
            d.push(del.msg.0);
            d.push(del.at.0);
        }
    }
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_distinguishes_order() {
        assert_ne!(fnv1a([1, 2]), fnv1a([2, 1]));
        assert_ne!(fnv1a([]), fnv1a([0]));
        assert_eq!(fnv1a([7, 9]), fnv1a([7, 9]));
    }

    #[test]
    fn fingerprint_distinguishes_order_length_and_small_words() {
        let fp = |words: &[u64]| {
            let mut f = Fingerprint::new();
            words.iter().for_each(|&w| f.push(w));
            f.value()
        };
        assert_eq!(fp(&[7, 9]), fp(&[7, 9]));
        assert_ne!(fp(&[1, 2]), fp(&[2, 1]));
        assert_ne!(fp(&[]), fp(&[0]));
        assert_ne!(fp(&[0]), fp(&[0, 0]));
        // The state walk is made of small words (phases, counts, ids):
        // all short streams over a small alphabet must stay apart.
        let mut seen = std::collections::BTreeSet::new();
        for a in 0..16u64 {
            for b in 0..16u64 {
                for c in 0..16u64 {
                    assert!(seen.insert(fp(&[a, b, c])), "collision at {a} {b} {c}");
                }
            }
        }
    }

    #[test]
    fn derive_seed_decorrelates_tags() {
        // Distinct tags (and distinct seeds) give distinct streams, and the
        // derivation is a pure function.
        assert_eq!(derive_seed(17, 0), derive_seed(17, 0));
        assert_ne!(derive_seed(17, 0), derive_seed(17, 1));
        assert_ne!(derive_seed(17, 0), derive_seed(18, 0));
        // seed 0 is not a fixed point (splitmix64 finalizer mixes it away)
        assert_ne!(derive_seed(0, 0), 0);
    }

    #[test]
    fn incremental_equals_batch() {
        let words = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let mut d = Digest::new();
        for w in words {
            d.push(w);
        }
        assert_eq!(d.value(), fnv1a(words));
        let mut all = Digest::new();
        all.push_all(words);
        assert_eq!(all.value(), d.value());
    }
}
