//! Compensated summation with a *fixed* reduction structure.
//!
//! The eq. (6) remainder and the Σx = 1 pin both reduce N-element arrays
//! to one scalar. At N = 10^6 a naive left-to-right `f64` sum loses
//! enough precision for shares to drift, and — worse for determinism — a
//! sum whose association order depended on how the array was cut would
//! make the engines' bits depend on where their passes split it. Both
//! problems are solved at once by giving every reduction the *same*
//! shape:
//!
//! 1. Neumaier (improved Kahan) compensation inside fixed blocks of
//!    [`SUM_BLOCK`] consecutive elements, and
//! 2. a fixed-order pairwise tree over the per-block partials.
//!
//! The shape depends only on the array length, so the fused kernel's
//! inline block partials, [`pairwise_neumaier_sum`] and a [`SumCursor`]
//! carried across shard processes all land on the same bits.
//!
//! The block partials themselves run four blocks at a time across SIMD
//! lanes, one chain per lane in its block's own left-to-right order, so
//! the vectorized partials are the scalar chain's bit for bit.

use crate::lanes::{self, LANES};

/// Elements per compensated block. Block partials are combined by an
/// exact-shape pairwise tree, so this only trades per-block accuracy
/// against tree depth; 128 keeps both error terms far below the 1e-12
/// budget at N = 10^6.
pub const SUM_BLOCK: usize = 128;

/// A running Neumaier-compensated sum.
///
/// Tracks the low-order bits lost by each `+` in a compensation term, so
/// adding 10^6 shares of magnitude 10^-6 keeps |Σx − 1| at the 1e-16
/// level instead of the 1e-11 level. `value()` folds the compensation
/// back in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeumaierSum {
    sum: f64,
    compensation: f64,
}

impl NeumaierSum {
    /// An empty (zero) sum.
    pub fn new() -> Self {
        Self { sum: 0.0, compensation: 0.0 }
    }

    /// A sum seeded with `value` and no accumulated error.
    pub fn from_value(value: f64) -> Self {
        Self { sum: value, compensation: 0.0 }
    }

    /// Adds `value`, capturing the rounding error of the addition in the
    /// compensation term (Neumaier's branch handles the case where the
    /// incoming value is larger than the running sum).
    #[inline]
    pub fn add(&mut self, value: f64) {
        let t = self.sum + value;
        if self.sum.abs() >= value.abs() {
            self.compensation += (self.sum - t) + value;
        } else {
            self.compensation += (value - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated total.
    #[inline]
    pub fn value(&self) -> f64 {
        self.sum + self.compensation
    }
}

impl Default for NeumaierSum {
    fn default() -> Self {
        Self::new()
    }
}

/// Neumaier-compensates one block of consecutive elements: the scalar
/// chain, and the reference every lockstep partial equals bit for bit.
#[inline]
fn block_partial(block: &[f64]) -> f64 {
    let mut acc = NeumaierSum::new();
    for &v in block {
        acc.add(v);
    }
    acc.value()
}

/// Elements of one lockstep group: [`LANES`] consecutive full blocks.
pub(crate) const GROUP: usize = LANES * SUM_BLOCK;

/// The Neumaier partials of the [`LANES`] consecutive blocks of `group`,
/// run in lockstep: lane `j` is block `j`'s own chain, fed its elements
/// left to right. Neumaier's branch becomes a per-lane select on
/// `|s| ≥ |v|` between the two candidate error terms (both computed, one
/// kept), so each lane performs exactly [`NeumaierSum::add`]'s IEEE ops
/// and every partial equals [`block_partial`] of its block bit for bit.
#[inline]
fn lockstep_partials(group: &[f64; GROUP]) -> [f64; LANES] {
    let mut sum = lanes::splat(0.0);
    let mut compensation = lanes::splat(0.0);
    for e in 0..SUM_BLOCK {
        let v = lanes::from_array(std::array::from_fn(|j| group[j * SUM_BLOCK + e]));
        let t = lanes::add(sum, v);
        let sum_bigger = lanes::ge(lanes::abs(sum), lanes::abs(v));
        let lost = lanes::select(
            sum_bigger,
            lanes::add(lanes::sub(sum, t), v),
            lanes::add(lanes::sub(v, t), sum),
        );
        compensation = lanes::add(compensation, lost);
        sum = t;
    }
    lanes::to_array(lanes::add(sum, compensation))
}

/// Writes the Neumaier partial of every [`SUM_BLOCK`] block of `values`
/// (the ragged last block included) into `partials`, one per block — the
/// one block-partial primitive of every fixed-shape reduction. Whole
/// groups of [`LANES`] full blocks run in lockstep
/// ([`lockstep_partials`]); the fewer-than-[`LANES`] blocks left over
/// keep the scalar chain. Each partial is the same bits either way, so
/// the grouping is invisible to [`combine_partials`].
///
/// # Panics
///
/// Panics unless `partials.len() == values.len().div_ceil(SUM_BLOCK)`.
pub(crate) fn block_partials(values: &[f64], partials: &mut [f64]) {
    assert_eq!(partials.len(), values.len().div_ceil(SUM_BLOCK), "one partial per block");
    let (groups, rest) = values.as_chunks::<GROUP>();
    let (grouped, left) = partials.split_at_mut(groups.len() * LANES);
    for (group, out) in groups.iter().zip(grouped.as_chunks_mut::<LANES>().0) {
        *out = lockstep_partials(group);
    }
    for (block, out) in rest.chunks(SUM_BLOCK).zip(left) {
        *out = block_partial(block);
    }
}

/// Combines per-block partials with a fixed-order pairwise tree:
/// neighbours at stride 1, then 2, then 4, … The association order is a
/// pure function of `partials.len()`, so every caller that produces the
/// same partials gets the same bits. Operates in place (callers may reuse
/// a scratch buffer across rounds); the slice contents are clobbered.
pub(crate) fn combine_partials(partials: &mut [f64]) -> f64 {
    if partials.is_empty() {
        return 0.0;
    }
    let mut len = partials.len();
    while len > 1 {
        let half = len / 2;
        for i in 0..half {
            partials[i] = partials[2 * i] + partials[2 * i + 1];
        }
        if len % 2 == 1 {
            partials[half] = partials[len - 1];
            len = half + 1;
        } else {
            len = half;
        }
    }
    partials[0]
}

/// Sums `values` with Neumaier compensation inside fixed [`SUM_BLOCK`]
/// blocks and a fixed-order pairwise tree across blocks.
///
/// The reduction shape depends only on `values.len()`; this is the one
/// order-sensitive primitive both episode engines share, so their sums
/// agree bitwise.
pub fn pairwise_neumaier_sum(values: &[f64]) -> f64 {
    let mut partials = vec![0.0; values.len().div_ceil(SUM_BLOCK)];
    block_partials(values, &mut partials);
    combine_partials(&mut partials)
}

/// A resumable [`pairwise_neumaier_sum`] that can be carried across
/// arbitrary contiguous split points with O(log N) state.
///
/// Feeding the cursor the elements of a slice in order and reading
/// [`value`](Self::value) produces the *bitwise* same result as
/// [`pairwise_neumaier_sum`] on the whole slice — no matter where the
/// stream was split, paused, serialized and resumed in between. This is
/// what lets a sharded control plane compute the eq. (6) remainder over a
/// gains array that lives in M disjoint shard processes: the root hands
/// the cursor state to shard 0, shard 0 folds its contiguous slice and
/// hands the state back, the root forwards it to shard 1, and so on —
/// O(M) small messages, zero loss of the fixed reduction shape.
///
/// # How it reproduces the fixed-shape sum
///
/// `combine_partials` over K block partials evaluates to
/// `T(b₁) + (T(b₂) + (… + T(bₖ)))` where `b₁ > b₂ > …` are the powers of
/// two in K's binary decomposition and each `T(b)` is the left-to-right
/// perfect pairwise tree over the next `b` contiguous blocks. A binary
/// counter of subtree partials — merge two stacked subtrees whenever they
/// reach equal size — builds exactly those trees, keeping at most
/// ⌈log₂ K⌉ `(size, value)` pairs alive. The trailing partial block (the
/// ragged tail of `values.chunks(SUM_BLOCK)`) is one more leaf, pushed
/// through the same counter at finalization. The equivalence is
/// property-tested below against `pairwise_neumaier_sum` for every length
/// and split pattern.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SumCursor {
    /// Completed pairwise subtrees as `(blocks, value)`, sizes strictly
    /// decreasing from the bottom of the stack — the binary counter.
    stack: Vec<(u64, f64)>,
    /// Neumaier state of the current in-progress [`SUM_BLOCK`] block.
    partial: NeumaierSum,
    /// Elements absorbed into `partial` so far (`< SUM_BLOCK`).
    partial_len: u32,
}

/// The serializable state of a [`SumCursor`] — plain words a wire
/// protocol can frame without this crate knowing about encodings.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CursorState {
    /// The subtree stack, bottom first: `(blocks, value)` pairs.
    pub stack: Vec<(u64, f64)>,
    /// Raw running sum of the in-progress block.
    pub partial_sum: f64,
    /// Raw compensation term of the in-progress block.
    pub partial_compensation: f64,
    /// Elements absorbed into the in-progress block.
    pub partial_len: u32,
}

impl SumCursor {
    /// An empty cursor; [`value`](Self::value) of an empty cursor is `0.0`
    /// (matching `pairwise_neumaier_sum(&[])`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Restores a cursor from serialized state (the inverse of
    /// [`state`](Self::state)).
    pub fn from_state(state: &CursorState) -> Self {
        Self {
            stack: state.stack.clone(),
            partial: NeumaierSum {
                sum: state.partial_sum,
                compensation: state.partial_compensation,
            },
            partial_len: state.partial_len,
        }
    }

    /// Extracts the O(log N) serializable state.
    pub fn state(&self) -> CursorState {
        CursorState {
            stack: self.stack.clone(),
            partial_sum: self.partial.sum,
            partial_compensation: self.partial.compensation,
            partial_len: self.partial_len,
        }
    }

    /// Depth of the subtree stack (≤ ⌈log₂(blocks)⌉ + 1) — what a wire
    /// frame must budget for.
    pub fn stack_len(&self) -> usize {
        self.stack.len()
    }

    /// Absorbs one element.
    #[inline]
    pub fn push(&mut self, value: f64) {
        self.partial.add(value);
        self.partial_len += 1;
        if self.partial_len as usize == SUM_BLOCK {
            let leaf = self.partial.value();
            self.partial = NeumaierSum::new();
            self.partial_len = 0;
            push_subtree(&mut self.stack, 1, leaf);
        }
    }

    /// Absorbs a contiguous slice (elements in order).
    pub fn extend(&mut self, values: &[f64]) {
        for &v in values {
            self.push(v);
        }
    }

    /// The fixed-shape compensated total of everything pushed so far —
    /// bitwise equal to [`pairwise_neumaier_sum`] over the concatenated
    /// stream. Non-destructive: the cursor can keep absorbing afterwards.
    pub fn value(&self) -> f64 {
        let mut stack = self.stack.clone();
        if self.partial_len > 0 {
            // The ragged tail block is one more leaf of the combine tree.
            push_subtree(&mut stack, 1, self.partial.value());
        }
        // Fold the strictly-decreasing subtree sizes smallest-first,
        // right-associated: T(b₁) + (T(b₂) + (… + T(bₖ))). The operand
        // order spells out that association (bitwise-equal either way).
        let mut it = stack.into_iter().rev();
        let Some((_, mut acc)) = it.next() else {
            return 0.0;
        };
        for (_, value) in it {
            #[allow(clippy::assign_op_pattern)]
            {
                acc = value + acc;
            }
        }
        acc
    }
}

/// Pushes a completed subtree of `size` blocks onto the binary counter,
/// merging equal-size neighbours (older subtree on the left, preserving
/// the left-to-right pairwise order of [`combine_partials`]).
#[inline]
fn push_subtree(stack: &mut Vec<(u64, f64)>, mut size: u64, mut value: f64) {
    while let Some(&(top_size, top_value)) = stack.last() {
        if top_size != size {
            break;
        }
        stack.pop();
        // Older subtree on the left, as in `combine_partials` (the
        // operand order is the documentation; bitwise-equal either way).
        #[allow(clippy::assign_op_pattern)]
        {
            value = top_value + value;
        }
        size *= 2;
    }
    stack.push((size, value));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn neumaier_recovers_catastrophic_cancellation() {
        // Naive: 1.0 + 1e100 - 1e100 - 1.0 == 0 loses the 1.0 entirely.
        let mut acc = NeumaierSum::new();
        for v in [1.0, 1e100, -1e100, -1.0] {
            acc.add(v);
        }
        assert_eq!(acc.value(), 0.0);
        let mut acc = NeumaierSum::new();
        for v in [1.0, 1e100, 1.0, -1e100] {
            acc.add(v);
        }
        assert_eq!(acc.value(), 2.0);
    }

    #[test]
    fn compensated_sum_beats_naive_at_scale() {
        let n = 1_000_000usize;
        let values = vec![1.0 / n as f64; n];
        let compensated = pairwise_neumaier_sum(&values);
        assert!(
            (compensated - 1.0).abs() < 1e-14,
            "compensated error {:e}",
            (compensated - 1.0).abs()
        );
    }

    #[test]
    fn sum_is_independent_of_length_edge_cases() {
        assert_eq!(pairwise_neumaier_sum(&[]), 0.0);
        assert_eq!(pairwise_neumaier_sum(&[42.0]), 42.0);
        for n in [1, 2, 3, SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK + 1, 5 * SUM_BLOCK + 3] {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let expected = (n * (n - 1) / 2) as f64;
            assert_eq!(pairwise_neumaier_sum(&values), expected, "n = {n}");
        }
    }

    /// Adversarial summands: ±0, subnormals, O(1) values and O(1e16)
    /// values interleaved so `|s| ≥ |v|` flips between elements, and —
    /// when `poison` — the odd ±∞ and NaN.
    fn adversarial(len: usize, seed: u64, poison: bool) -> Vec<f64> {
        let mut state = seed;
        (0..len)
            .map(|e| {
                let u = splitmix(&mut state);
                let sign = if u < 0.5 { -1.0 } else { 1.0 };
                match (e % 7, (u * 1000.0) as u32) {
                    (_, 0) if poison => f64::NAN,
                    (_, 1) if poison => f64::INFINITY,
                    (_, 2) if poison => f64::NEG_INFINITY,
                    (0, _) => sign * 0.0,
                    (1, _) => sign * f64::from_bits(1 + (u * 1e6) as u64),
                    (2, _) => sign * f64::MIN_POSITIVE * u,
                    (3 | 5, _) => sign * 1e16 * (1.0 + u),
                    _ => sign * (1.0 + u),
                }
            })
            .collect()
    }

    /// The lockstep partials equal the scalar chain's for every length
    /// from 0 through five full blocks and one more. Rust leaves the sign
    /// and payload of a NaN result unspecified, so a NaN partial is
    /// matched by NaN-ness and every other partial bit for bit.
    #[test]
    fn lockstep_partials_equal_the_scalar_chain_at_every_length() {
        for len in 0..=5 * SUM_BLOCK + 1 {
            for poison in [false, true] {
                let values = adversarial(len, len as u64 ^ 0xAD, poison);
                let mut got = vec![0.0; len.div_ceil(SUM_BLOCK)];
                block_partials(&values, &mut got);
                let want: Vec<f64> = values.chunks(SUM_BLOCK).map(block_partial).collect();
                for (b, (g, w)) in got.iter().zip(&want).enumerate() {
                    let same = if w.is_nan() { g.is_nan() } else { g.to_bits() == w.to_bits() };
                    assert!(same, "len {len}, poison {poison}, block {b}: {g:e} vs {w:e}");
                }
            }
        }
    }

    /// The tentpole cursor claim: for every length across several block
    /// boundaries and every way of cutting the stream into contiguous
    /// pieces (including serializing the state at each cut), the cursor's
    /// value is bitwise the fixed-shape sum of the whole array.
    #[test]
    fn cursor_is_bitwise_equal_to_pairwise_sum_at_every_split() {
        let mut state = 3u64;
        for n in [0usize, 1, 2, 127, 128, 129, 255, 256, 257, 300, 1000, 1663, 4096] {
            let values: Vec<f64> = (0..n).map(|_| splitmix(&mut state) - 0.5).collect();
            let reference = pairwise_neumaier_sum(&values);
            // One shot.
            let mut cursor = SumCursor::new();
            cursor.extend(&values);
            assert_eq!(cursor.value().to_bits(), reference.to_bits(), "n = {n}, one shot");
            // Seeded random cut points, resuming from serialized state at
            // each cut — the shard-chain pattern.
            for trial in 0..8u64 {
                let mut cursor = SumCursor::new();
                let mut at = 0usize;
                let mut cut_state = trial.wrapping_mul(0x9e3779b97f4a7c15) ^ n as u64;
                while at < n {
                    let step = 1 + (splitmix(&mut cut_state) * 200.0) as usize;
                    let end = (at + step).min(n);
                    cursor.extend(&values[at..end]);
                    cursor = SumCursor::from_state(&cursor.state());
                    at = end;
                }
                assert_eq!(cursor.value().to_bits(), reference.to_bits(), "n = {n}, trial {trial}");
            }
        }
    }

    #[test]
    fn cursor_every_single_split_point_small_exhaustive() {
        let mut state = 17u64;
        let n = 3 * SUM_BLOCK + 5;
        let values: Vec<f64> = (0..n).map(|_| splitmix(&mut state) * 2.0 - 1.0).collect();
        let reference = pairwise_neumaier_sum(&values);
        for cut in 0..=n {
            let mut cursor = SumCursor::new();
            cursor.extend(&values[..cut]);
            cursor.extend(&values[cut..]);
            assert_eq!(cursor.value().to_bits(), reference.to_bits(), "cut = {cut}");
        }
    }

    #[test]
    fn cursor_state_is_logarithmic_and_value_is_non_destructive() {
        let values = vec![0.25f64; 200 * SUM_BLOCK];
        let mut cursor = SumCursor::new();
        cursor.extend(&values[..199 * SUM_BLOCK + 7]);
        assert!(
            cursor.stack_len() <= 9,
            "200 blocks must keep <= ceil(log2) + 1 subtrees, got {}",
            cursor.stack_len()
        );
        let once = cursor.value();
        cursor.extend(&values[199 * SUM_BLOCK + 7..]);
        assert_eq!(cursor.value().to_bits(), pairwise_neumaier_sum(&values).to_bits());
        assert!(once != cursor.value(), "value() must not finalize the cursor");
        assert_eq!(SumCursor::new().value(), 0.0, "empty cursor matches the empty sum");
    }

    #[test]
    fn running_sum_tracks_block_sum_closely() {
        // The incremental engine maintains Σx with a running NeumaierSum;
        // check it stays within a few ulps of the fixed-shape reduction.
        let mut state = 99u64;
        let values: Vec<f64> = (0..50_000).map(|_| splitmix(&mut state) * 1e-4).collect();
        let mut running = NeumaierSum::new();
        for &v in &values {
            running.add(v);
        }
        let fixed = pairwise_neumaier_sum(&values);
        assert!((running.value() - fixed).abs() < 1e-12 * fixed.abs().max(1.0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Arbitrary lengths cut at arbitrary points — the cursor must
        /// reproduce the fixed-shape sum bit for bit through every chain.
        #[test]
        fn cursor_matches_pairwise_sum_under_arbitrary_chaining(
            values in proptest::collection::vec(-1.0e3f64..1.0e3, 0..2000),
            cuts in proptest::collection::vec(0usize..2000, 0..12),
        ) {
            let reference = pairwise_neumaier_sum(&values);
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (values.len() + 1)).collect();
            bounds.push(0);
            bounds.push(values.len());
            bounds.sort_unstable();
            let mut cursor = SumCursor::new();
            for pair in bounds.windows(2) {
                cursor.extend(&values[pair[0]..pair[1]]);
                // Round-trip the state as the wire would.
                cursor = SumCursor::from_state(&cursor.state());
            }
            prop_assert_eq!(cursor.value().to_bits(), reference.to_bits());
        }
    }
}
