//! Canonical state fingerprinting for visited-state pruning.
//!
//! The model checker in `dolbie-mc` enumerates scheduler decisions and
//! prunes a branch as soon as it reaches a protocol state it has already
//! expanded. That is only sound if the fingerprint covers *everything*
//! that determines the continuation of a run: shares, step sizes,
//! membership masks, per-round protocol bookkeeping, and the multiset of
//! in-flight messages. This module provides the two hashing disciplines
//! that construction needs:
//!
//! - [`StateFp`] — an order-*dependent* accumulator (a splitmix64-fed
//!   chain) for positional state: `shares[0]` and `shares[1]` swapping
//!   values must produce a different fingerprint.
//! - [`MultisetFp`] — an order-*independent* accumulator (wrapping sum of
//!   per-element hashes) for the in-flight event multiset: two pending
//!   deliveries hash identically regardless of heap iteration order, and
//!   duplicate elements (unlike an XOR fold) do not cancel.
//!
//! Floats are hashed by their IEEE-754 bit patterns ([`f64::to_bits`]),
//! matching the repo-wide bitwise-determinism discipline: two states
//! fingerprint equal only if every scalar is *bitwise* equal, never
//! merely approximately so. Wall-clock times are deliberately *not*
//! fingerprinted by the callers — delivery order is a scheduler decision
//! in the model checker, so two states differing only in event
//! timestamps have identical protocol-visible continuations (the timing
//! abstraction DESIGN.md §13 argues).

/// One step of the splitmix64 output permutation — the same finalizer the
/// fault plan's decision hashes use, so fingerprints inherit its
/// avalanche behaviour.
#[inline]
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-dependent fingerprint accumulator for positional protocol state.
///
/// ```
/// use dolbie_core::fingerprint::StateFp;
///
/// let mut a = StateFp::new(1);
/// a.push_f64_slice(&[0.25, 0.75]);
/// let mut b = StateFp::new(1);
/// b.push_f64_slice(&[0.75, 0.25]);
/// assert_ne!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone)]
pub struct StateFp {
    state: u64,
}

impl StateFp {
    /// Starts a fingerprint chain from a domain tag (callers use distinct
    /// tags per architecture so a master-worker state can never collide
    /// with a ring state holding the same scalars).
    #[must_use]
    pub fn new(tag: u64) -> Self {
        Self { state: mix64(tag) }
    }

    /// Folds one word into the chain.
    pub fn push_u64(&mut self, word: u64) {
        self.state = mix64(self.state ^ word);
    }

    /// Folds a float by bit pattern (`-0.0` and `0.0` hash differently;
    /// bitwise equality is the repo's determinism contract).
    pub fn push_f64(&mut self, value: f64) {
        self.push_u64(value.to_bits());
    }

    /// Folds `usize` values (rounds, counts, indices) portably.
    pub fn push_usize(&mut self, value: usize) {
        self.push_u64(value as u64);
    }

    /// Folds a slice of floats positionally, length included.
    pub fn push_f64_slice(&mut self, values: &[f64]) {
        self.push_usize(values.len());
        for &v in values {
            self.push_f64(v);
        }
    }

    /// Folds a boolean mask (membership, down, received flags) as packed
    /// words, length included.
    pub fn push_bool_slice(&mut self, values: &[bool]) {
        self.push_bools(values.iter().copied());
    }

    /// [`push_bool_slice`](Self::push_bool_slice) over a mask read field
    /// by field (one flag of each per-worker record): the same words for
    /// the same flags.
    pub fn push_bools(&mut self, values: impl ExactSizeIterator<Item = bool>) {
        self.push_usize(values.len());
        let mut word = 0u64;
        let mut bits = 0u32;
        for b in values {
            word = (word << 1) | u64::from(b);
            bits += 1;
            if bits == 64 {
                self.push_u64(word);
                word = 0;
                bits = 0;
            }
        }
        if bits > 0 {
            self.push_u64(word);
        }
    }

    /// Folds an optional float, distinguishing `None` from any value.
    pub fn push_opt_f64(&mut self, value: Option<f64>) {
        match value {
            None => self.push_u64(0),
            Some(v) => {
                self.push_u64(1);
                self.push_f64(v);
            }
        }
    }

    /// Finishes the chain.
    #[must_use]
    pub fn finish(&self) -> u64 {
        mix64(self.state)
    }
}

/// Order-independent fingerprint accumulator for multisets.
///
/// Elements are hashed individually (callers build each element hash with
/// a [`StateFp`]) and combined with a wrapping sum, so the result does
/// not depend on insertion order and repeated elements accumulate rather
/// than cancel:
///
/// ```
/// use dolbie_core::fingerprint::MultisetFp;
///
/// let mut ab = MultisetFp::new();
/// ab.insert(7);
/// ab.insert(9);
/// let mut ba = MultisetFp::new();
/// ba.insert(9);
/// ba.insert(7);
/// assert_eq!(ab.finish(), ba.finish());
///
/// let mut twice = MultisetFp::new();
/// twice.insert(7);
/// twice.insert(7);
/// let mut once = MultisetFp::new();
/// once.insert(7);
/// assert_ne!(twice.finish(), once.finish());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MultisetFp {
    sum: u64,
    count: u64,
}

impl MultisetFp {
    /// Starts an empty multiset.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one element by its hash.
    pub fn insert(&mut self, element_hash: u64) {
        self.sum = self.sum.wrapping_add(mix64(element_hash));
        self.count += 1;
    }

    /// Finishes the multiset digest (cardinality folded in, so the empty
    /// multiset differs from `{0}`).
    #[must_use]
    pub fn finish(&self) -> u64 {
        mix64(self.sum ^ self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positional_sensitivity() {
        let mut a = StateFp::new(0);
        a.push_f64_slice(&[1.0, 2.0, 3.0]);
        let mut b = StateFp::new(0);
        b.push_f64_slice(&[1.0, 3.0, 2.0]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn tag_separates_domains() {
        let mut a = StateFp::new(1);
        a.push_f64(0.5);
        let mut b = StateFp::new(2);
        b.push_f64(0.5);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn bool_masks_distinguish_lengths_and_patterns() {
        let mut a = StateFp::new(0);
        a.push_bool_slice(&[true, false]);
        let mut b = StateFp::new(0);
        b.push_bool_slice(&[false, true]);
        let mut c = StateFp::new(0);
        c.push_bool_slice(&[true, false, false]);
        assert_ne!(a.finish(), b.finish());
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn bool_masks_cross_word_boundaries() {
        let mut long_a = vec![false; 130];
        long_a[0] = true;
        let mut long_b = vec![false; 130];
        long_b[129] = true;
        let mut a = StateFp::new(0);
        a.push_bool_slice(&long_a);
        let mut b = StateFp::new(0);
        b.push_bool_slice(&long_b);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn multiset_order_independent_and_duplicate_sensitive() {
        let mut fwd = MultisetFp::new();
        let mut rev = MultisetFp::new();
        for h in [3u64, 1, 4, 1, 5] {
            fwd.insert(h);
        }
        for h in [5u64, 1, 4, 1, 3] {
            rev.insert(h);
        }
        assert_eq!(fwd.finish(), rev.finish());

        let mut single = MultisetFp::new();
        for h in [3u64, 1, 4, 5] {
            single.insert(h);
        }
        assert_ne!(fwd.finish(), single.finish());
    }

    #[test]
    fn zero_vs_negative_zero_differ() {
        let mut a = StateFp::new(0);
        a.push_f64(0.0);
        let mut b = StateFp::new(0);
        b.push_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn empty_multiset_differs_from_zero_element() {
        let empty = MultisetFp::new();
        let mut zero = MultisetFp::new();
        zero.insert(0);
        assert_ne!(empty.finish(), zero.finish());
    }
}
