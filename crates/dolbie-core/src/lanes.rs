//! Four-wide `f64` lanes for the fused kernel and the compensated block
//! partials, behind one safe interface with two backends.
//!
//! Every arithmetic op is the IEEE 754 scalar op applied per lane, and
//! every comparison is the scalar comparison per lane, so a lane-wise
//! loop produces the same bits as the scalar loop over the same elements
//! in the same per-lane order. Calling `core::arch` intrinsics would need
//! `unsafe`, which this crate forbids; the stable backend instead gives
//! LLVM fixed four-wide straight-line code to vectorize.

/// Lane width (f64x4: one AVX2 register, two SSE2 registers).
pub const LANES: usize = 4;

#[cfg(feature = "portable-simd")]
mod backend {
    //! Nightly path: thin wrappers over `core::simd::f64x4`. `simd_min` /
    //! `simd_max` follow IEEE `minNum`/`maxNum` (NaN-ignoring), matching
    //! `f64::min`/`f64::max` — the property the branchless inverse needs.
    use core::simd::cmp::SimdPartialOrd;
    use core::simd::num::SimdFloat;
    use core::simd::Select;

    pub(crate) type V = core::simd::f64x4;
    pub(crate) type M = core::simd::Mask<i64, { super::LANES }>;

    #[inline(always)]
    pub(crate) fn load(s: &[f64]) -> V {
        V::from_slice(s)
    }
    #[inline(always)]
    pub(crate) fn from_array(a: [f64; super::LANES]) -> V {
        V::from_array(a)
    }
    #[inline(always)]
    pub(crate) fn store(v: V, out: &mut [f64]) {
        v.copy_to_slice(out);
    }
    #[inline(always)]
    pub(crate) fn splat(x: f64) -> V {
        V::splat(x)
    }
    #[inline(always)]
    pub(crate) fn add(a: V, b: V) -> V {
        a + b
    }
    #[inline(always)]
    pub(crate) fn sub(a: V, b: V) -> V {
        a - b
    }
    #[inline(always)]
    pub(crate) fn mul(a: V, b: V) -> V {
        a * b
    }
    #[inline(always)]
    pub(crate) fn div(a: V, b: V) -> V {
        a / b
    }
    #[inline(always)]
    pub(crate) fn min(a: V, b: V) -> V {
        a.simd_min(b)
    }
    #[inline(always)]
    pub(crate) fn max(a: V, b: V) -> V {
        a.simd_max(b)
    }
    #[inline(always)]
    pub(crate) fn abs(a: V) -> V {
        a.abs()
    }
    #[inline(always)]
    pub(crate) fn gt(a: V, b: V) -> M {
        a.simd_gt(b)
    }
    #[inline(always)]
    pub(crate) fn ge(a: V, b: V) -> M {
        a.simd_ge(b)
    }
    #[inline(always)]
    pub(crate) fn select(m: M, a: V, b: V) -> V {
        m.select(a, b)
    }
    #[inline(always)]
    pub(crate) fn to_array(v: V) -> [f64; super::LANES] {
        v.to_array()
    }
}

#[cfg(not(feature = "portable-simd"))]
mod backend {
    //! Stable fallback: a hand-rolled four-wide f64 "vector". Every op is
    //! the scalar `f64` op applied per lane — bitwise equality with the
    //! scalar path holds by definition — and the fixed four-wide shape
    //! gives LLVM straight-line code it auto-vectorizes on the SSE2
    //! baseline (compare-and-mask for `gt`/`ge` + `select`).
    use super::LANES;

    #[derive(Clone, Copy)]
    pub(crate) struct V([f64; LANES]);

    /// A per-lane comparison result: all ones where true, all zeros
    /// where false — the shape SSE2 compares produce, so `select` lowers
    /// to and/andnot/or without shuffles.
    #[derive(Clone, Copy)]
    pub(crate) struct M([u64; LANES]);

    #[inline(always)]
    fn zip(a: V, b: V, f: impl Fn(f64, f64) -> f64) -> V {
        V([f(a.0[0], b.0[0]), f(a.0[1], b.0[1]), f(a.0[2], b.0[2]), f(a.0[3], b.0[3])])
    }

    #[inline(always)]
    fn cmp(a: V, b: V, f: impl Fn(f64, f64) -> bool) -> M {
        let m = |x, y| if f(x, y) { u64::MAX } else { 0 };
        M([m(a.0[0], b.0[0]), m(a.0[1], b.0[1]), m(a.0[2], b.0[2]), m(a.0[3], b.0[3])])
    }

    #[inline(always)]
    pub(crate) fn load(s: &[f64]) -> V {
        V([s[0], s[1], s[2], s[3]])
    }
    #[inline(always)]
    pub(crate) fn from_array(a: [f64; LANES]) -> V {
        V(a)
    }
    #[inline(always)]
    pub(crate) fn store(v: V, out: &mut [f64]) {
        out[..LANES].copy_from_slice(&v.0);
    }
    #[inline(always)]
    pub(crate) fn splat(x: f64) -> V {
        V([x; LANES])
    }
    #[inline(always)]
    pub(crate) fn add(a: V, b: V) -> V {
        zip(a, b, |x, y| x + y)
    }
    #[inline(always)]
    pub(crate) fn sub(a: V, b: V) -> V {
        zip(a, b, |x, y| x - y)
    }
    #[inline(always)]
    pub(crate) fn mul(a: V, b: V) -> V {
        zip(a, b, |x, y| x * y)
    }
    #[inline(always)]
    pub(crate) fn div(a: V, b: V) -> V {
        zip(a, b, |x, y| x / y)
    }
    #[inline(always)]
    pub(crate) fn min(a: V, b: V) -> V {
        zip(a, b, f64::min)
    }
    #[inline(always)]
    pub(crate) fn max(a: V, b: V) -> V {
        zip(a, b, f64::max)
    }
    #[inline(always)]
    pub(crate) fn abs(a: V) -> V {
        V(a.0.map(f64::abs))
    }
    #[inline(always)]
    pub(crate) fn gt(a: V, b: V) -> M {
        cmp(a, b, |x, y| x > y)
    }
    #[inline(always)]
    pub(crate) fn ge(a: V, b: V) -> M {
        cmp(a, b, |x, y| x >= y)
    }
    #[inline(always)]
    pub(crate) fn select(m: M, a: V, b: V) -> V {
        let pick = |m: u64, x: f64, y: f64| f64::from_bits((x.to_bits() & m) | (y.to_bits() & !m));
        V([
            pick(m.0[0], a.0[0], b.0[0]),
            pick(m.0[1], a.0[1], b.0[1]),
            pick(m.0[2], a.0[2], b.0[2]),
            pick(m.0[3], a.0[3], b.0[3]),
        ])
    }
    #[inline(always)]
    pub(crate) fn to_array(v: V) -> [f64; LANES] {
        v.0
    }
}

pub(crate) use backend::*;

/// The lanes' running first maximum: per lane, the greatest value seen
/// and the index where it was first seen — a strict `>` per lane, so a
/// later equal value never displaces an earlier one.
#[derive(Clone, Copy)]
pub(crate) struct FirstMax {
    value: V,
    index: V,
}

impl FirstMax {
    /// No lane has beaten `-inf` yet.
    #[inline(always)]
    pub(crate) fn new() -> Self {
        Self { value: splat(f64::NEG_INFINITY), index: splat(0.0) }
    }

    /// Folds in `costs`, whose lane `j` is element `index[j]`. Indices
    /// ride in `f64` lanes, exact below 2⁵³.
    #[inline(always)]
    pub(crate) fn fold(&mut self, costs: V, index: V) {
        let better = gt(costs, self.value);
        self.value = select(better, costs, self.value);
        self.index = select(better, index, self.index);
    }

    /// Combines the lanes: the greatest value wins, equal values go to
    /// the lowest index, and lanes that never beat `-inf` do not compete.
    /// Comparisons round nothing, so this is exactly the winner of the
    /// sequential strict-`>` scan over the same elements: `None` where
    /// that scan keeps its `-inf` seed.
    #[inline(always)]
    pub(crate) fn winner(self) -> Option<(f64, usize)> {
        let (values, indices) = (to_array(self.value), to_array(self.index));
        let mut best: Option<(f64, usize)> = None;
        for (&v, &i) in values.iter().zip(&indices) {
            if v == f64::NEG_INFINITY {
                continue;
            }
            let i = i as usize;
            if best.is_none_or(|(bv, bi)| v > bv || (v == bv && i < bi)) {
                best = Some((v, i));
            }
        }
        best
    }
}

/// `[0, 1, …, LANES − 1]`: the lane offsets of an index vector.
#[inline(always)]
pub(crate) fn iota() -> V {
    from_array(std::array::from_fn(|j| j as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sequential strict-`>` scan from a `-inf` seed; `None` when
    /// nothing beats the seed.
    fn sequential(xs: &[f64]) -> Option<(f64, usize)> {
        let mut best = (f64::NEG_INFINITY, None);
        for (i, &c) in xs.iter().enumerate() {
            if c > best.0 {
                best = (c, Some(i));
            }
        }
        best.1.map(|i| (best.0, i))
    }

    fn lanewise(xs: &[f64]) -> Option<(f64, usize)> {
        assert!(xs.len().is_multiple_of(LANES));
        let mut acc = FirstMax::new();
        let mut index = iota();
        for group in xs.chunks_exact(LANES) {
            acc.fold(load(group), index);
            index = add(index, splat(LANES as f64));
        }
        acc.winner()
    }

    fn assert_same(xs: &[f64]) {
        let (want, got) = (sequential(xs), lanewise(xs));
        assert_eq!(
            want.map(|(v, i)| (v.to_bits(), i)),
            got.map(|(v, i)| (v.to_bits(), i)),
            "{xs:?}"
        );
    }

    /// The lane first-max equals the sequential scan on all-equal
    /// arrays, with the maximum in each lane position, and on `-inf`,
    /// NaN and ±0 ties.
    #[test]
    fn lane_first_max_equals_the_sequential_scan() {
        let specials =
            [0.0, -0.0, 1.0, -1.0, f64::NEG_INFINITY, f64::INFINITY, f64::NAN, f64::MIN_POSITIVE];
        for len in [LANES, 2 * LANES, 5 * LANES] {
            for &fill in &specials {
                assert_same(&vec![fill; len]);
                for &peak in &specials {
                    for at in 0..len {
                        let mut xs = vec![fill; len];
                        xs[at] = peak;
                        assert_same(&xs);
                        // A second equal peak in every later position.
                        for again in at + 1..len {
                            let mut ys = xs.clone();
                            ys[again] = peak;
                            assert_same(&ys);
                        }
                    }
                }
            }
        }
        // ±0 ties across lanes: the first zero wins, whatever its sign.
        assert_same(&[-1.0, -0.0, 0.0, -1.0, 0.0, -0.0, -0.0, 0.0]);
        assert_same(&[-1.0, -1.0, -1.0, 0.0, -0.0, -1.0, -1.0, -1.0]);
        // Exhaustive over a small alphabet at two groups.
        let alphabet = [f64::NEG_INFINITY, -0.0, 0.0, 1.0, f64::NAN];
        let mut xs = [0.0; 2 * LANES];
        let total = alphabet.len().pow(xs.len() as u32);
        for code in 0..total {
            let mut c = code;
            for x in xs.iter_mut() {
                *x = alphabet[c % alphabet.len()];
                c /= alphabet.len();
            }
            assert_same(&xs);
        }
    }

    #[test]
    fn iota_counts_the_lanes() {
        assert_eq!(to_array(iota()), std::array::from_fn(|j| j as f64));
    }
}
