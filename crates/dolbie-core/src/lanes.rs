//! Four-wide `f64` lanes for the fused kernel and the compensated block
//! partials: a hand-rolled `[f64; 4]` "vector" behind a small safe
//! interface.
//!
//! Every arithmetic op is the IEEE 754 scalar op applied per lane, and
//! every comparison is the scalar comparison per lane, so a lane-wise
//! loop produces the same bits as the scalar loop over the same elements
//! in the same per-lane order — by definition. The fixed four-wide shape
//! gives LLVM straight-line code it auto-vectorizes (compare-and-mask for
//! `gt`/`ge` + `select`). On x86-64 the repo's `.cargo/config.toml`
//! builds for the x86-64-v3 baseline, so a lane op is one 256-bit AVX2
//! instruction; a portable x86-64 build lowers it to two SSE2 ones, with
//! the same bits (the tests below compare every op with its scalar form
//! on IEEE edge values, and `scripts/tier1.sh` runs them under both
//! builds).
//!
//! There are no `core::arch` intrinsics, because they need `unsafe` and
//! this crate forbids it. There is no nightly `core::simd` backend
//! either: measured against these lanes, it showed no consistent gain
//! (these lanes were faster at N = 4 096, `core::simd` at N = 10⁶, each
//! by about 4% in the median).

/// Lane width (f64x4: one AVX2 register, two SSE2 registers).
pub const LANES: usize = 4;

#[derive(Clone, Copy)]
pub(crate) struct V([f64; LANES]);

/// A per-lane comparison result: all ones where true, all zeros where
/// false — the shape SSE2 and AVX2 compares produce, so `select` lowers
/// without shuffles: to one `vblendvpd` under AVX2, to and/andnot/or on
/// SSE2.
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
    use std::hint::black_box;

    /// IEEE 754 edge values: both zeros, both infinities, NaN of either
    /// sign, the smallest and largest subnormals, the smallest normal, ±1
    /// and the largest finite values.
    const EDGES: [f64; 14] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits((1 << 52) - 1),
        f64::MIN_POSITIVE,
        1.0,
        -1.0,
        f64::MAX,
        f64::MIN,
    ];

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
    /// arrays, with the maximum in each lane position, on `-inf`, NaN and
    /// ±0 ties, and on IEEE edge values.
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
        // Two groups of IEEE edge values, each edge pair in every lane
        // position.
        for (a, b) in edge_groups() {
            let xs: Vec<f64> = a.iter().chain(&b).map(|&x| black_box(x)).collect();
            assert_same(&xs);
        }
    }

    /// Lane groups over every ordered pair of [`EDGES`]: group `s` holds
    /// pairs `s..s + LANES` (cyclically), so each pair, `(+0, -0)` and
    /// `(-0, +0)` among them, sits in every lane position.
    fn edge_groups() -> Vec<([f64; LANES], [f64; LANES])> {
        let pairs: Vec<(f64, f64)> =
            EDGES.iter().flat_map(|&a| EDGES.iter().map(move |&b| (a, b))).collect();
        (0..pairs.len())
            .map(|s| {
                let at = |j: usize| pairs[(s + j) % pairs.len()];
                (std::array::from_fn(|j| at(j).0), std::array::from_fn(|j| at(j).1))
            })
            .collect()
    }

    /// Runs `lane` on each edge group and `scalar` on each of its lanes,
    /// and asserts the same bits. Every input passes through `black_box`,
    /// so nothing folds at compile time, where `max`/`min` of `±0` may
    /// pick another sign than the instructions do.
    fn assert_lanewise<T: PartialEq + std::fmt::Debug>(
        name: &str,
        lane: impl Fn(V, V) -> [T; LANES],
        scalar: impl Fn(f64, f64) -> T,
    ) {
        for (a, b) in edge_groups() {
            let got = lane(from_array(black_box(a)), from_array(black_box(b)));
            for (j, got) in got.iter().enumerate() {
                let want = scalar(black_box(a[j]), black_box(b[j]));
                assert_eq!(*got, want, "{name}({:?}, {:?}) in lane {j}", a[j], b[j]);
            }
        }
    }

    /// Every lane op equals its scalar op bit for bit on IEEE edge values
    /// (±0, ±inf, NaN, subnormals), whichever instructions the build's
    /// target CPU lowers them to: Rust leaves the sign of a zero result of
    /// `f64::max`/`f64::min` open, so a lowering could differ between the
    /// packed and the scalar form.
    #[test]
    fn lane_ops_equal_scalar_ops_on_edge_values() {
        let bits = |v: V| to_array(v).map(f64::to_bits);
        let mask = |m: M| m.0;
        let as_mask = |t: bool| if t { u64::MAX } else { 0 };
        assert_lanewise("add", |a, b| bits(add(a, b)), |x, y| (x + y).to_bits());
        assert_lanewise("sub", |a, b| bits(sub(a, b)), |x, y| (x - y).to_bits());
        assert_lanewise("mul", |a, b| bits(mul(a, b)), |x, y| (x * y).to_bits());
        assert_lanewise("div", |a, b| bits(div(a, b)), |x, y| (x / y).to_bits());
        assert_lanewise("min", |a, b| bits(min(a, b)), |x, y| x.min(y).to_bits());
        assert_lanewise("max", |a, b| bits(max(a, b)), |x, y| x.max(y).to_bits());
        assert_lanewise("abs", |a, _| bits(abs(a)), |x, _| x.abs().to_bits());
        assert_lanewise("gt", |a, b| mask(gt(a, b)), |x, y| as_mask(x > y));
        assert_lanewise("ge", |a, b| mask(ge(a, b)), |x, y| as_mask(x >= y));
        assert_lanewise(
            "select(gt)",
            |a, b| bits(select(gt(a, b), a, b)),
            |x, y| (if x > y { x } else { y }).to_bits(),
        );
        assert_lanewise(
            "select(ge)",
            |a, b| bits(select(ge(a, b), b, a)),
            |x, y| (if x >= y { y } else { x }).to_bits(),
        );
    }

    #[test]
    fn iota_counts_the_lanes() {
        assert_eq!(to_array(iota()), std::array::from_fn(|j| j as f64));
    }
}
