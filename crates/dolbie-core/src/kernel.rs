//! The fused, cache-blocked, SIMD round kernel.
//!
//! # Why a second round engine
//!
//! The split engine ([`Dolbie`](crate::Dolbie) +
//! [`Observation`](crate::Observation)) walks the round state in five or
//! six separate linear passes — copy the played allocation, evaluate the
//! costs through `Box<dyn CostFunction>` virtual calls, scan the
//! local-cost array for the straggler, invert each cost through another
//! virtual call (Pass A), reduce the gains, apply them (Pass B). At
//! N = 10^6 the round state no longer fits in cache, so every pass pays
//! full memory bandwidth, and the two virtual calls per worker per round
//! scatter-read boxed cost objects all over the heap. BENCH_large_n.json
//! shows the result: throughput *falls* from 9.5e7 worker-rounds/s at
//! N = 1e5 to 5.2e7 at N = 1e6.
//!
//! [`FusedDolbie`] removes both walls for cost families with closed-form
//! eq. (5) inverses:
//!
//! 1. **Parameter slabs** ([`CostSlab`]): the cost parameters live in flat
//!    structure-of-arrays columns, so evaluation and inversion are
//!    straight-line arithmetic on sequential streams — no pointer chasing,
//!    no virtual dispatch. A column every worker shares bit for bit (the
//!    paper's global batch size `B`; a fleet's common `comm`) is stored
//!    once and held in a register, and a shared power-of-two divisor is
//!    applied as a multiply by its exact reciprocal.
//! 2. **One pipelined sweep per round**: the slab is static, so round
//!    `t + 1`'s costs are the same functions evaluated at
//!    `x_{t+1} = x_t + g_t` (plus the O(1) pin). One sweep, blocked into
//!    groups of [`LANES`] × [`SUM_BLOCK`] workers that stay in L1,
//!    computes round `t`'s eq. (5) gains *branchlessly* into a
//!    group-sized scratch, reduces them into per-[`SUM_BLOCK`]
//!    compensated partials, writes `x + g` into a back buffer of shares,
//!    and folds round `t + 1`'s straggler first-max over those new
//!    shares. The round streams `x` and the slab's per-worker columns
//!    once and writes the back buffer once (latency slab: 24 B per worker
//!    nominal with `B` and `comm` shared, 32 B with write-allocate; 40 B
//!    and 48 B when every column is per-worker); neither
//!    the gains nor the local costs ever reach memory. The straggler is
//!    left out of the fold (its gain is exactly 0 and its cost masked to
//!    `-inf`): once [`RootEngine::pin`](crate::shard::RootEngine::pin)
//!    has fixed its share, its cost there is combined with the fold's
//!    winner by value, then by lowest index. The buffers swap and the
//!    rest of the tail — the Σx refresh and eq. (7) — is O(1), or
//!    O(N/128) amortized.
//!
//!    Three rounds leave that steady shape. Round 0, and the first round
//!    after [`apply_membership`](FusedDolbie::apply_membership), run a
//!    plain evaluation sweep first, since no previous sweep folded their
//!    costs. A guard-rescale round runs the sweep a second time with the
//!    factor applied to each gain before its partial and before `x + g`.
//!    A Σx-refresh round (every 256th) adds its one read pass over the
//!    shares.
//! 3. **SIMD lanes** ([`KernelVariant::Simd`]): the eval/inverse/gain
//!    arithmetic and the straggler first-max run four lanes at a time
//!    through a hand-rolled four-wide `[f64; 4]` that LLVM
//!    auto-vectorizes (the private `lanes` module says why there are no
//!    intrinsics). Each group runs two lane loops over L1: the
//!    gains, then `x + g`, the cost and the first-max; the slab streams
//!    are sliced to each group up front, so the inner loops index local
//!    slices.
//!
//! With one sweep the round barely waits on memory. On one pinned vCPU
//! of a 2-core Xeon virtual machine (stable lanes, SSE2 baseline), a Simd
//! round costs 2.7–2.9 ns per worker at N = 4 096 (in cache) and
//! 2.9–3.1 ns at N = 10⁶ (p10–p50 of ≈3 ms samples over 2 s runs). The
//! two-sweep kernel it replaced, which streamed `x`, the gains and the
//! slab twice (88 B per worker), cost 2.5–2.8 ns in cache but 3.7–4.0 ns
//! at N = 10⁶, measured alternately on the same host.
//!
//! Shared columns take a round further. In a slower stretch of the same
//! host, where the kernel reading `B` and `comm` as streams and dividing
//! by `B` cost 3.6–5.2 ns per worker at N = 4 096 and 5.2–6.6 ns at
//! N = 10⁶, the same fleet (`B = 256` and `comm` shared) with shared
//! columns cost 3.0–4.7 and 4.4–5.8 ns, faster in each of three
//! alternating 2 s runs. A fleet whose every column is per-worker runs
//! the same loops as before, at the same speed (p50 5.6–6.6 against
//! 6.4–6.7 ns at N = 10⁶).
//!
//! # The bitwise-determinism boundary
//!
//! The kernel produces trajectories **bitwise identical** to the
//! sequential [`Dolbie`](crate::Dolbie) in both variants and under every
//! membership mask (tested exhaustively in `tests/kernel_parity.rs`).
//! Determinism is preserved because every transformation stays on the
//! right side of a simple boundary:
//!
//! - *Lane-safe*: the eval, inverse and gain arithmetic is elementwise —
//!   each worker's values depend only on that worker's inputs, and IEEE
//!   754 `mul`/`div`/`sub`/`min`/`max` are identical per lane whether
//!   executed scalar or vector. Vectorizing these loops cannot change a
//!   single bit.
//! - *Order-sensitive, vectorized without reordering*: the straggler
//!   argmax breaks ties to the lowest index. Each lane keeps its own
//!   first maximum (strict `>`, index in an f64 lane), and the lanes
//!   combine by greatest value, then lowest index; the scalar tail
//!   continues in index order. Comparisons round nothing, so the winner
//!   is the sequential scan's. The compensated reductions keep the fixed
//!   [`SUM_BLOCK`]-block + pairwise-tree shape of
//!   [`pairwise_neumaier_sum`](crate::numeric::pairwise_neumaier_sum):
//!   the sweep produces the block partials inline, four blocks in lockstep
//!   with one Neumaier chain per lane, each chain in its block's own
//!   left-to-right order, so each partial is the scalar chain's bit for
//!   bit. The groups' first maxima combine in index order with a strict
//!   `>`.
//! - *Branchless inverse equivalence*: the slab inverse computes the same
//!   expression as the branchy
//!   [`max_share_within`](crate::cost::CostFunction::max_share_within) +
//!   [`max_acceptable_share`](crate::observation::max_acceptable_share)
//!   path for every parameter case, including the `None` (infeasible) and
//!   zero-slope cases, via IEEE semantics of `f64::min`/`f64::max` over
//!   `±inf`/NaN intermediates (unit-tested edge by edge below).
//! - *Masked rounds fold scalar*: after
//!   [`apply_membership`](FusedDolbie::apply_membership) the first-max
//!   runs the scalar member-only scan, group by group while the group is
//!   in L1; gains are still computed branchlessly (and lane-wise) because
//!   inactive entries are forced to exactly `0.0` before the block
//!   partials are taken.
//! - *Pipelining is invisible*: the back buffer receives exactly the
//!   split engine's Pass B (`x + g`, then the pin), so after every
//!   [`step`](FusedDolbie::step) the shares equal the split engine's bit
//!   for bit, and the next round's fold sees the same shares its
//!   evaluation would.

use crate::allocation::Allocation;
use crate::cost::{DynCost, LatencyCost, LinearCost};
use crate::dolbie::{DolbieConfig, DolbieStats};
use crate::engine::SoaEngine;
use crate::lanes::{self, FirstMax};
use crate::numeric::{block_partials, combine_partials, GROUP, SUM_BLOCK};
use crate::runner::EpisodeSummary;
use std::ops::Range;

pub use crate::lanes::LANES;

/// Which inner-loop code shape [`FusedDolbie`] runs. Every variant
/// produces the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// The fused one-sweep kernel with scalar eval/inverse/gain loops.
    Fused,
    /// The fused one-sweep kernel with explicit four-wide lanes in the
    /// eval/inverse/gain arithmetic and in the straggler first-max (see
    /// the module docs for why lane-wise reductions keep bitwise parity).
    Simd,
}

impl KernelVariant {
    /// Parses a CLI spelling (`"fused"`, `"simd"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fused" => Some(Self::Fused),
            "simd" => Some(Self::Simd),
            _ => None,
        }
    }

    /// The canonical lower-case name (the same spelling [`parse`](Self::parse)
    /// accepts and BENCH rows record).
    pub fn name(self) -> &'static str {
        match self {
            Self::Fused => "fused",
            Self::Simd => "simd",
        }
    }

    /// All variants, scalar first.
    pub fn all() -> [Self; 2] {
        [Self::Fused, Self::Simd]
    }
}

/// One parameter column of a [`CostSlab`]: one value for the whole fleet,
/// or one per worker.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Every worker's parameter has these bits.
    Shared(f64),
    /// Worker `i`'s parameter at index `i`.
    PerWorker(Vec<f64>),
}

impl Column {
    /// Lays out `param` over `fleet`: [`Shared`](Self::Shared) when every
    /// worker's value has the same bits (so `0.0` and `-0.0` differ), else
    /// [`PerWorker`](Self::PerWorker). The check stops at the first
    /// mismatch, and a shared column allocates nothing.
    fn of<T>(fleet: &[T], param: impl Fn(&T) -> f64) -> Self {
        match fleet.first().map(&param) {
            Some(v) if fleet.iter().all(|f| param(f).to_bits() == v.to_bits()) => Self::Shared(v),
            _ => Self::PerWorker(fleet.iter().map(param).collect()),
        }
    }

    fn fits(&self, workers: usize) -> bool {
        match self {
            Self::Shared(_) => true,
            Self::PerWorker(v) => v.len() == workers,
        }
    }

    fn all(&self, ok: impl Fn(f64) -> bool) -> bool {
        match self {
            Self::Shared(v) => ok(*v),
            Self::PerWorker(v) => v.iter().all(|&v| ok(v)),
        }
    }
}

/// `1/b` when `b` is a positive normal power of two, else `None`.
///
/// Such a `1/b` is exact (down to 2⁻¹⁰²³, a subnormal), so `y * (1/b)` and
/// `y / b` round the same real number and agree bit for bit for every `y`,
/// subnormal results, `±0`, `±inf` and NaN included. Subnormal `b` are
/// rejected: below 2⁻¹⁰²³, `1/b` overflows.
fn pow2_recip(b: f64) -> Option<f64> {
    const MANTISSA: u64 = (1 << 52) - 1;
    (b.is_normal() && b > 0.0 && b.to_bits() & MANTISSA == 0).then(|| 1.0 / b)
}

/// Runs `$body` with `$rows` bound to `$slab`'s rows, each column as its
/// own kind: a slice, a [`Splat`], or — for the eq. (5) target's divisor —
/// a [`Pow2`]. The match runs once per call and `$body` is expanded once
/// per combination of kinds, so inside it a shared column is a constant
/// and no element pays a branch.
macro_rules! with_rows {
    ($slab:expr, |$rows:ident| $body:expr) => {
        match $slab {
            CostSlab::Latency { batch, speed, comm, .. } => {
                with_column!(divisor batch, |batch| with_column!(speed, |speed| {
                    with_column!(comm, |comm| {
                        let $rows = LatencyRows { batch, speed, comm };
                        $body
                    })
                }))
            }
            CostSlab::Linear { slope, intercept, .. } => {
                with_column!(divisor slope, |slope| with_column!(intercept, |intercept| {
                    let $rows = LinearRows { slope, intercept };
                    $body
                }))
            }
        }
    };
}

/// Runs `$body` with `$c` bound to the column `$col` as a slice or a
/// [`Splat`]; a `divisor` column that is a shared normal power of two
/// binds as a [`Pow2`].
macro_rules! with_column {
    ($col:expr, |$c:ident| $body:expr) => {
        match $col {
            Column::Shared(v) => {
                let $c = Splat(*v);
                $body
            }
            Column::PerWorker(v) => {
                let $c = v.as_slice();
                $body
            }
        }
    };
    (divisor $col:expr, |$c:ident| $body:expr) => {
        match $col {
            Column::Shared(v) => match pow2_recip(*v) {
                Some(recip) => {
                    let $c = Pow2 { value: *v, recip };
                    $body
                }
                None => {
                    let $c = Splat(*v);
                    $body
                }
            },
            Column::PerWorker(v) => {
                let $c = v.as_slice();
                $body
            }
        }
    };
}

/// Flat structure-of-arrays cost parameters for a homogeneous fleet whose
/// eq. (5) inverse has a closed form.
///
/// The slab is what lets the kernel replace two virtual calls per worker
/// per round with straight-line arithmetic over sequential `f64` streams.
/// Only cost families with closed-form inverses qualify; heterogeneous or
/// bisection-based fleets stay on the split engine.
///
/// Each parameter is a [`Column`], laid out when the slab is built:
/// [`Shared`](Column::Shared) when every worker has the same bits — as the
/// paper's global batch size `B` does, and in practice a fleet's common
/// `comm` — and [`PerWorker`](Column::PerWorker) otherwise. A
/// shared column costs no memory traffic: the sweep holds it in a register
/// across the lanes. When the eq. (5) target's shared divisor (latency
/// `B`, linear `slope`) is a normal power of two, the sweep multiplies by
/// its exact reciprocal instead of dividing, which gives the same bits
/// (see `pow2_recip`) at a fraction of a division's cost.
#[derive(Debug, Clone)]
pub enum CostSlab {
    /// [`LatencyCost`] fleet: `f_i(x) = x·batch_i/speed_i + comm_i`.
    Latency {
        /// Number of workers `N`.
        workers: usize,
        /// Global batch size `B` (non-negative, finite).
        batch: Column,
        /// Processing speed `γ` (positive, finite).
        speed: Column,
        /// Communication time `f^C` (non-negative, finite).
        comm: Column,
    },
    /// [`LinearCost`] fleet: `f_i(x) = slope_i·x + intercept_i`.
    Linear {
        /// Number of workers `N`.
        workers: usize,
        /// Slope (non-negative, finite).
        slope: Column,
        /// Intercept (finite).
        intercept: Column,
    },
}

impl CostSlab {
    /// Builds a latency slab from concrete [`LatencyCost`]s (whose
    /// constructor has already validated the parameters).
    pub fn latency(fleet: &[LatencyCost]) -> Self {
        Self::Latency {
            workers: fleet.len(),
            batch: Column::of(fleet, LatencyCost::batch_size),
            speed: Column::of(fleet, LatencyCost::speed),
            comm: Column::of(fleet, LatencyCost::comm_time),
        }
    }

    /// Builds a linear slab from concrete [`LinearCost`]s.
    pub fn linear(fleet: &[LinearCost]) -> Self {
        Self::Linear {
            workers: fleet.len(),
            slope: Column::of(fleet, LinearCost::slope),
            intercept: Column::of(fleet, LinearCost::intercept),
        }
    }

    /// Attempts to lay a boxed fleet out as a slab, via the
    /// [`as_any`](crate::cost::CostFunction::as_any) downcast hook.
    /// Returns `None` for an empty fleet, a family without a slab layout,
    /// or a heterogeneous mix — callers fall back to the split engine.
    pub fn from_costs(costs: &[DynCost]) -> Option<Self> {
        let first = costs.first()?.as_any()?;
        if first.downcast_ref::<LatencyCost>().is_some() {
            let mut fleet = Vec::with_capacity(costs.len());
            for f in costs {
                fleet.push(*f.as_any()?.downcast_ref::<LatencyCost>()?);
            }
            return Some(Self::latency(&fleet));
        }
        if first.downcast_ref::<LinearCost>().is_some() {
            let mut fleet = Vec::with_capacity(costs.len());
            for f in costs {
                fleet.push(*f.as_any()?.downcast_ref::<LinearCost>()?);
            }
            return Some(Self::linear(&fleet));
        }
        None
    }

    /// Number of workers in the fleet.
    pub fn len(&self) -> usize {
        match self {
            Self::Latency { workers, .. } | Self::Linear { workers, .. } => *workers,
        }
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The family name (`"latency"` or `"linear"`).
    pub fn family(&self) -> &'static str {
        match self {
            Self::Latency { .. } => "latency",
            Self::Linear { .. } => "linear",
        }
    }

    /// Evaluates worker `i`'s cost at share `x` — bitwise identical to the
    /// corresponding [`CostFunction::eval`](crate::cost::CostFunction::eval)
    /// (same expression, same association order).
    pub fn eval(&self, i: usize, x: f64) -> f64 {
        with_rows!(self, |rows| rows.eval(i, x))
    }

    fn assert_consistent(&self) {
        match self {
            Self::Latency { workers, batch, speed, comm } => {
                assert!(batch.fits(*workers) && speed.fits(*workers) && comm.fits(*workers));
                assert!(
                    batch.all(|b| b.is_finite() && b >= 0.0)
                        && speed.all(|s| s.is_finite() && s > 0.0)
                        && comm.all(|c| c.is_finite() && c >= 0.0),
                    "latency slab parameters must satisfy the LatencyCost contract"
                );
            }
            Self::Linear { workers, slope, intercept } => {
                assert!(slope.fits(*workers) && intercept.fits(*workers));
                assert!(
                    slope.all(|s| s.is_finite() && s >= 0.0) && intercept.all(f64::is_finite),
                    "linear slab parameters must satisfy the LinearCost contract"
                );
            }
        }
    }
}

/// What one fused round reports: the straggler `s_t` and the global cost
/// `l_t = max_i f_{i,t}(x_{i,t})` of the *played* allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedRound {
    /// The straggler `s_t` (lowest index on ties).
    pub straggler: usize,
    /// The global cost `l_t`.
    pub global_cost: f64,
}

/// A first-max candidate `(cost, worker)`; `None` when no worker of the
/// stretch competed.
type Best = Option<(f64, usize)>;

/// Continues an in-index-order first-max scan with the candidate of a
/// later stretch: it wins only with a strictly greater cost, so ties stay
/// with the lower index — exactly the sequential scan.
fn later(best: Best, next: Best) -> Best {
    match next {
        Some((c, _)) if best.is_none_or(|(b, _)| c > b) => next,
        _ => best,
    }
}

/// Where a cost fold reads its shares, four lanes or one at a time, in
/// index order.
trait Shares {
    fn len(&self) -> usize;
    fn lane(&mut self, k: usize) -> lanes::V;
    fn one(&mut self, k: usize) -> f64;
}

/// The shares as they stand: the plain evaluation sweep.
struct Plain<'a>(&'a [f64]);

impl Shares for Plain<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }
    #[inline(always)]
    fn lane(&mut self, k: usize) -> lanes::V {
        lanes::load(&self.0[k..k + LANES])
    }
    #[inline(always)]
    fn one(&mut self, k: usize) -> f64 {
        self.0[k]
    }
}

/// The pipelined sweep's next shares `x + g`, written to the back buffer
/// as the fold reads them — the same `+=` the split engine's Pass B does.
struct Apply<'a> {
    x: &'a [f64],
    g: &'a [f64],
    out: &'a mut [f64],
}

impl<'a> Apply<'a> {
    fn new(x: &'a [f64], g: &'a [f64], out: &'a mut [f64]) -> Self {
        let len = out.len();
        Self { x: &x[..len], g: &g[..len], out }
    }
}

impl Shares for Apply<'_> {
    fn len(&self) -> usize {
        self.out.len()
    }
    #[inline(always)]
    fn lane(&mut self, k: usize) -> lanes::V {
        let r = k..k + LANES;
        let v = lanes::add(lanes::load(&self.x[r.clone()]), lanes::load(&self.g[r.clone()]));
        lanes::store(v, &mut self.out[r]);
        v
    }
    #[inline(always)]
    fn one(&mut self, k: usize) -> f64 {
        let v = self.x[k] + self.g[k];
        self.out[k] = v;
        v
    }
}

/// One cost family's per-worker arithmetic over a stretch of its slab:
/// the cost and the branchless eq. (5) target, scalar and four lanes at
/// a time, each the same expression in the same association order as the
/// family's [`CostFunction`](crate::cost::CostFunction). Index `k` counts
/// from the start of the stretch.
///
/// The branchless target `min(max(min(raw, 1), x), 1)` equals the branchy
/// `max_share_within` + `max_acceptable_share` path bit for bit in every
/// parameter case (see the module docs and the edge-case tests below),
/// because a `None` inverse surfaces as `raw = -inf` or `NaN` and
/// `f64::min`/`f64::max` ignore both in exactly the way the branches
/// would.
trait Rows: Copy {
    /// The stretch `r` of these rows.
    fn slice(self, r: Range<usize>) -> Self;
    fn eval(self, k: usize, x: f64) -> f64;
    fn eval_lane(self, k: usize, x: lanes::V) -> lanes::V;
    fn target(self, k: usize, level: f64, x: f64) -> f64;
    fn target_lane(self, k: usize, level: lanes::V, x: lanes::V) -> lanes::V;
}

/// One slab column as a sweep reads it, scalar and four lanes at a time.
/// Index `k` counts from the start of the stretch.
trait Col: Copy {
    /// The stretch `r` of this column.
    fn slice(self, r: Range<usize>) -> Self;
    fn at(self, k: usize) -> f64;
    fn lane(self, k: usize) -> lanes::V;
    /// `y / self[k]`.
    #[inline(always)]
    fn div(self, y: f64, k: usize) -> f64 {
        y / self.at(k)
    }
    /// `y / self[k..k + LANES]`, lane-wise.
    #[inline(always)]
    fn div_lane(self, y: lanes::V, k: usize) -> lanes::V {
        lanes::div(y, self.lane(k))
    }
}

/// A [`Column::PerWorker`] column: one stream.
impl Col for &[f64] {
    #[inline(always)]
    fn slice(self, r: Range<usize>) -> Self {
        &self[r]
    }
    #[inline(always)]
    fn at(self, k: usize) -> f64 {
        self[k]
    }
    #[inline(always)]
    fn lane(self, k: usize) -> lanes::V {
        lanes::load(&self[k..k + LANES])
    }
}

/// A [`Column::Shared`] column: one value, the same in every lane.
#[derive(Clone, Copy)]
struct Splat(f64);

impl Col for Splat {
    #[inline(always)]
    fn slice(self, _: Range<usize>) -> Self {
        self
    }
    #[inline(always)]
    fn at(self, _: usize) -> f64 {
        self.0
    }
    #[inline(always)]
    fn lane(self, _: usize) -> lanes::V {
        lanes::splat(self.0)
    }
}

/// A [`Column::Shared`] divisor that is a normal power of two: dividing by
/// it multiplies by its exact reciprocal, which gives the same bits (see
/// [`pow2_recip`]).
#[derive(Clone, Copy)]
struct Pow2 {
    value: f64,
    recip: f64,
}

impl Col for Pow2 {
    #[inline(always)]
    fn slice(self, _: Range<usize>) -> Self {
        self
    }
    #[inline(always)]
    fn at(self, _: usize) -> f64 {
        self.value
    }
    #[inline(always)]
    fn lane(self, _: usize) -> lanes::V {
        lanes::splat(self.value)
    }
    #[inline(always)]
    fn div(self, y: f64, _: usize) -> f64 {
        y * self.recip
    }
    #[inline(always)]
    fn div_lane(self, y: lanes::V, _: usize) -> lanes::V {
        lanes::mul(y, lanes::splat(self.recip))
    }
}

/// The rows of a [`CostSlab::Latency`] slab.
#[derive(Clone, Copy)]
struct LatencyRows<B, S, C> {
    batch: B,
    speed: S,
    comm: C,
}

impl<B: Col, S: Col, C: Col> Rows for LatencyRows<B, S, C> {
    #[inline(always)]
    fn slice(self, r: Range<usize>) -> Self {
        Self {
            batch: self.batch.slice(r.clone()),
            speed: self.speed.slice(r.clone()),
            comm: self.comm.slice(r),
        }
    }
    #[inline(always)]
    fn eval(self, k: usize, x: f64) -> f64 {
        x * self.batch.at(k) / self.speed.at(k) + self.comm.at(k)
    }
    #[inline(always)]
    fn eval_lane(self, k: usize, x: lanes::V) -> lanes::V {
        let load = lanes::div(lanes::mul(x, self.batch.lane(k)), self.speed.lane(k));
        lanes::add(load, self.comm.lane(k))
    }
    #[inline(always)]
    fn target(self, k: usize, level: f64, x: f64) -> f64 {
        let raw = self.batch.div((level - self.comm.at(k)) * self.speed.at(k), k);
        raw.min(1.0).max(x).min(1.0)
    }
    #[inline(always)]
    fn target_lane(self, k: usize, level: lanes::V, x: lanes::V) -> lanes::V {
        let one = lanes::splat(1.0);
        let headroom = lanes::mul(lanes::sub(level, self.comm.lane(k)), self.speed.lane(k));
        let raw = self.batch.div_lane(headroom, k);
        lanes::min(lanes::max(lanes::min(raw, one), x), one)
    }
}

/// The rows of a [`CostSlab::Linear`] slab.
#[derive(Clone, Copy)]
struct LinearRows<S, I> {
    slope: S,
    intercept: I,
}

impl<S: Col, I: Col> Rows for LinearRows<S, I> {
    #[inline(always)]
    fn slice(self, r: Range<usize>) -> Self {
        Self { slope: self.slope.slice(r.clone()), intercept: self.intercept.slice(r) }
    }
    #[inline(always)]
    fn eval(self, k: usize, x: f64) -> f64 {
        self.slope.at(k) * x + self.intercept.at(k)
    }
    #[inline(always)]
    fn eval_lane(self, k: usize, x: lanes::V) -> lanes::V {
        lanes::add(lanes::mul(self.slope.lane(k), x), self.intercept.lane(k))
    }
    #[inline(always)]
    fn target(self, k: usize, level: f64, x: f64) -> f64 {
        self.slope.div(level - self.intercept.at(k), k).min(1.0).max(x).min(1.0)
    }
    #[inline(always)]
    fn target_lane(self, k: usize, level: lanes::V, x: lanes::V) -> lanes::V {
        let one = lanes::splat(1.0);
        let raw = self.slope.div_lane(lanes::sub(level, self.intercept.lane(k)), k);
        lanes::min(lanes::max(lanes::min(raw, one), x), one)
    }
}

/// The eq. (5) gain `max(α·(target − x), 0)`, scalar and lane-wise.
#[inline(always)]
fn gain(rows: impl Rows, k: usize, level: f64, alpha: f64, x: f64) -> f64 {
    (alpha * (rows.target(k, level, x) - x)).max(0.0)
}

#[inline(always)]
fn gain_lane(rows: impl Rows, k: usize, level: lanes::V, alpha: lanes::V, x: lanes::V) -> lanes::V {
    let g = lanes::mul(alpha, lanes::sub(rows.target_lane(k, level, x), x));
    lanes::max(g, lanes::splat(0.0))
}

/// Scalar first-max over one stretch, in index order with a strict `>`
/// from a `-inf` seed — the sequential lowest-index-wins scan of
/// [`Observation`](crate::Observation). Reads every share (so an
/// [`Apply`] writes all of them) and evaluates every cost, but lets only
/// members (`active`) other than the stretch-local `skip` win; that is
/// the member-only scan of
/// [`Observation::from_costs_masked`](crate::Observation::from_costs_masked)
/// for the slab's finite costs.
#[inline(always)]
fn scalar_fold(
    rows: impl Rows,
    shares: &mut impl Shares,
    skip: Option<usize>,
    active: Option<&[bool]>,
) -> Best {
    let mut best = (f64::NEG_INFINITY, None);
    for k in 0..shares.len() {
        let c = rows.eval(k, shares.one(k));
        if c > best.0 && skip != Some(k) && active.is_none_or(|a| a[k]) {
            best = (c, Some(k));
        }
    }
    best.1.map(|k| (best.0, k))
}

/// As [`scalar_fold`] with every worker competing, four lanes at a time:
/// the eval arithmetic and the first-max. Each lane keeps its own first
/// maximum ([`FirstMax`]); the lanes' winner is the sequential scan's
/// winner over the vector part, and the scalar tail continues it in index
/// order with a strict `>` — every tail index follows the lanes', so ties
/// still go to the lowest index. The stretch-local `skip` competes with a
/// cost of `-inf`, which never beats the seed; only the four lanes that
/// hold it are patched, so every other step of the loop runs unmasked.
#[inline(always)]
fn lane_fold(rows: impl Rows, shares: &mut impl Shares, skip: Option<usize>) -> Best {
    let len = shares.len();
    let mut first = FirstMax::new();
    let mut index = lanes::iota();
    let step = lanes::splat(LANES as f64);
    let mut k = 0;
    while k + LANES <= len {
        let mut cost = rows.eval_lane(k, shares.lane(k));
        if let Some(s) = skip.filter(|s| (k..k + LANES).contains(s)) {
            let mut c = [0.0; LANES];
            lanes::store(cost, &mut c);
            c[s - k] = f64::NEG_INFINITY;
            cost = lanes::load(&c);
        }
        first.fold(cost, index);
        index = lanes::add(index, step);
        k += LANES;
    }
    let mut best = first.winner().map_or((f64::NEG_INFINITY, None), |(c, i)| (c, Some(i)));
    while k < len {
        let c = rows.eval(k, shares.one(k));
        if c > best.0 && skip != Some(k) {
            best = (c, Some(k));
        }
        k += 1;
    }
    best.1.map(|k| (best.0, k))
}

/// The round-`t` inputs of one pipelined sweep.
#[derive(Clone, Copy)]
struct Pipeline {
    /// The straggler `s_t`: gain exactly 0, and left out of the fold.
    straggler: usize,
    /// The global cost `l_t`, the eq. (5) level.
    level: f64,
    alpha: f64,
    /// The guard's rescale factor, on the second sweep of a rescale round.
    scale: Option<f64>,
}

/// Read-only context shared by the per-group sweep bodies.
#[derive(Clone, Copy)]
struct RoundCtx<'a> {
    slab: &'a CostSlab,
    /// `Some(mask)` when any worker is inactive (post-`apply_membership`).
    active: Option<&'a [bool]>,
    simd: bool,
}

impl RoundCtx<'_> {
    /// The plain evaluation sweep, sequential: the first maximum of the
    /// costs at `xs`, members only.
    fn evaluate(&self, xs: &[f64]) -> Best {
        with_rows!(self.slab, |rows| self.fold_costs(rows, &mut Plain(xs), None))
    }

    /// The first maximum of the costs of `rows` at `shares` (stretch-local
    /// indices), members only, the stretch-local `skip` left out. A
    /// masked stretch takes the scalar member-only scan.
    #[inline(always)]
    fn fold_costs(&self, rows: impl Rows, shares: &mut impl Shares, skip: Option<usize>) -> Best {
        if self.simd && self.active.is_none() {
            lane_fold(rows, shares, skip)
        } else {
            scalar_fold(rows, shares, skip, self.active)
        }
    }

    /// The pipelined sweep over every worker: see
    /// [`pipelined_in`](Self::pipelined_in).
    ///
    /// Kept out of line: inlined into `FusedDolbie::sweep`, an N = 10⁶
    /// Simd round ran ≈2% slower (perfbench `kernel_1m`, six alternating
    /// 30 s runs on one pinned vCPU of a 2-core Xeon VM).
    #[inline(never)]
    fn pipelined(
        &self,
        round: &Pipeline,
        xs: &[f64],
        back: &mut [f64],
        partials: &mut [f64],
    ) -> Best {
        with_rows!(self.slab, |rows| self.pipelined_in(rows, round, xs, back, partials))
    }

    /// The pipelined sweep, one [`GROUP`] of [`LANES`] blocks at a time so
    /// every step after the first reads the group from L1: round `t`'s
    /// gains into an L1 scratch (rescaled when `round.scale` is set),
    /// their compensated block partials into `partials`, the next shares
    /// `x + g` into `back`, and the first maximum of round `t + 1`'s costs
    /// over those shares, the straggler left out. `partials` holds one
    /// slot per [`SUM_BLOCK`] block.
    ///
    /// Each group runs two L1 loops: the gains (then the inactive and
    /// straggler entries zeroed and the rescale applied), and the fold
    /// over an [`Apply`] that writes `x + g` as it reads the next shares.
    fn pipelined_in(
        &self,
        rows: impl Rows,
        round: &Pipeline,
        xs: &[f64],
        back: &mut [f64],
        partials: &mut [f64],
    ) -> Best {
        let mut scratch = [0.0; GROUP];
        let mut best = None;
        for (k, (bc, pc)) in back.chunks_mut(GROUP).zip(partials.chunks_mut(LANES)).enumerate() {
            let r = k * GROUP..k * GROUP + bc.len();
            let (rows, xc, gc) = (rows.slice(r.clone()), &xs[r.clone()], &mut scratch[..bc.len()]);
            let active = self.active.map(|a| &a[r.clone()]);
            let skip = r.contains(&round.straggler).then(|| round.straggler - r.start);
            gains(rows, round, self.simd, xc, gc);
            if let Some(active) = active {
                gc.iter_mut().zip(active).filter(|(_, &m)| !m).for_each(|(g, _)| *g = 0.0);
            }
            if let Some(s) = skip {
                gc[s] = 0.0;
            }
            if let Some(scale) = round.scale {
                gc.iter_mut().for_each(|g| *g *= scale);
            }
            block_partials(gc, pc);
            let next = self.fold_costs(rows, &mut Apply::new(xc, gc, bc), skip);
            best = later(best, next.map(|(c, i)| (c, r.start + i)));
        }
        best
    }
}

/// Branchless eq. (5) gains of one stretch (shares `xs`) into `gc`, lane-
/// wise when `simd`.
#[inline(always)]
fn gains(rows: impl Rows, round: &Pipeline, simd: bool, xs: &[f64], gc: &mut [f64]) {
    let (level, alpha) = (round.level, round.alpha);
    let len = gc.len();
    let xs = &xs[..len];
    let mut k = 0;
    if simd {
        let (lv, av) = (lanes::splat(level), lanes::splat(alpha));
        while k + LANES <= len {
            let g = gain_lane(rows, k, lv, av, lanes::load(&xs[k..k + LANES]));
            lanes::store(g, &mut gc[k..k + LANES]);
            k += LANES;
        }
    }
    while k < len {
        gc[k] = gain(rows, k, level, alpha, xs[k]);
        k += 1;
    }
}

/// DOLBIE on the fused, cache-blocked, optionally SIMD round kernel.
///
/// The large-N engine. Drives the *same* structure-of-arrays engine state
/// as [`Dolbie`](crate::Dolbie), the reference oracle, but generates its
/// own observations from a [`CostSlab`] instead of consuming
/// [`Observation`](crate::Observation)s — that is what lets it fuse the
/// observation passes (cost eval, argmax) with the update passes. It
/// intentionally does not implement
/// [`LoadBalancer`](crate::LoadBalancer): the trait's play-then-observe
/// split is exactly the pass structure the kernel removes.
///
/// Trajectories (shares, stragglers, α schedule, guard activations,
/// episode aggregates) are bitwise identical to the split engine's.
///
/// # Examples
///
/// ```
/// use dolbie_core::cost::{DynCost, LatencyCost};
/// use dolbie_core::kernel::{FusedDolbie, KernelVariant};
/// use dolbie_core::{Dolbie, LoadBalancer, Observation};
///
/// let costs: Vec<DynCost> = (0..16)
///     .map(|i| Box::new(LatencyCost::new(256.0, 100.0 + i as f64, 0.05)) as DynCost)
///     .collect();
/// let mut fused = FusedDolbie::from_costs(&costs).expect("latency has a slab layout");
/// let mut split = Dolbie::new(16);
/// for t in 0..40 {
///     let round = fused.step();
///     let played = split.allocation().clone();
///     let obs = Observation::from_costs(t, &played, &costs);
///     assert_eq!(round.straggler, obs.straggler());
///     assert_eq!(round.global_cost.to_bits(), obs.global_cost().to_bits());
///     split.observe(&obs);
/// }
/// for i in 0..16 {
///     assert_eq!(
///         fused.allocation().share(i).to_bits(),
///         split.allocation().share(i).to_bits(),
///     );
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FusedDolbie {
    engine: SoaEngine,
    slab: CostSlab,
    variant: KernelVariant,
    /// The back buffer of shares the pipelined sweep writes `x + g` into;
    /// swapped with the engine's shares at the end of every round.
    back: Vec<f64>,
    /// The current round's `(global cost, straggler)`, folded by the
    /// previous round's sweep; `None` on round 0 and after
    /// [`apply_membership`](Self::apply_membership).
    next: Option<(f64, usize)>,
    /// Per-`SUM_BLOCK` gain partials, reused across rounds.
    partials: Vec<f64>,
}

impl FusedDolbie {
    /// Creates the kernel over `slab` with the uniform initial split and
    /// the default configuration, in the [`KernelVariant::Fused`] variant.
    ///
    /// # Panics
    ///
    /// Panics if the slab is empty or its parameters violate the cost
    /// family's contract.
    pub fn new(slab: CostSlab) -> Self {
        let n = slab.len();
        assert!(n > 0, "at least one worker is required");
        Self::with_config(slab, Allocation::uniform(n), DolbieConfig::new())
    }

    /// Creates the kernel from an arbitrary feasible initial partition and
    /// a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the slab is empty, inconsistent with the cost family's
    /// parameter contract, or sized differently from `initial`.
    pub fn with_config(slab: CostSlab, initial: Allocation, config: DolbieConfig) -> Self {
        slab.assert_consistent();
        assert!(!slab.is_empty(), "at least one worker is required");
        assert_eq!(slab.len(), initial.num_workers(), "one cost slab entry per worker");
        Self {
            back: vec![0.0; slab.len()],
            engine: SoaEngine::new(initial, config),
            slab,
            variant: KernelVariant::Fused,
            next: None,
            partials: Vec::new(),
        }
    }

    /// Convenience: lays a boxed fleet out as a slab
    /// ([`CostSlab::from_costs`]) and builds the kernel over it. `None`
    /// when the fleet has no slab layout — fall back to the split engine.
    pub fn from_costs(costs: &[DynCost]) -> Option<Self> {
        CostSlab::from_costs(costs).map(Self::new)
    }

    /// Selects the kernel variant ([`Fused`](KernelVariant::Fused) or
    /// [`Simd`](KernelVariant::Simd)). Either choice produces the same
    /// bits; it only selects the inner-loop code shape.
    pub fn with_variant(mut self, variant: KernelVariant) -> Self {
        self.variant = variant;
        self
    }

    /// The active kernel variant.
    pub fn variant(&self) -> KernelVariant {
        self.variant
    }

    /// The cost slab the kernel plays against.
    pub fn slab(&self) -> &CostSlab {
        &self.slab
    }

    /// Number of workers `N`.
    pub fn num_workers(&self) -> usize {
        self.slab.len()
    }

    /// The current allocation: after `t` steps, the split engine's after
    /// `t` rounds, bit for bit.
    pub fn allocation(&self) -> &Allocation {
        self.engine.allocation()
    }

    /// The current step size `α_t`.
    pub fn alpha(&self) -> f64 {
        self.engine.root.alpha()
    }

    /// The step sizes actually applied in each round.
    pub fn alphas_used(&self) -> &[f64] {
        self.engine.root.alphas_used()
    }

    /// Update counters (rounds, guard activations) — comparable directly
    /// against the split engine's.
    pub fn stats(&self) -> DolbieStats {
        self.engine.root.stats()
    }

    /// Crosses a membership epoch boundary, exactly as
    /// [`Dolbie::apply_membership`](crate::Dolbie::apply_membership). The
    /// costs the last sweep folded were at the old shares, so the next
    /// round runs a plain evaluation sweep.
    ///
    /// # Panics
    ///
    /// As [`Dolbie::apply_membership`](crate::Dolbie::apply_membership).
    pub fn apply_membership(&mut self, members: &[bool]) {
        self.next = None;
        self.engine.apply_membership(members);
    }

    /// Plays one DOLBIE round: takes the round's straggler from the
    /// previous round's sweep (or a plain evaluation sweep on round 0 and
    /// after a membership change), then one pipelined sweep computes the
    /// eq. (5) gains, writes the next shares and folds the next round's
    /// costs.
    ///
    /// The order-sensitive tail is the split engine's — guard, pin,
    /// refresh and tighten through the engine's
    /// [`RootEngine`](crate::shard::RootEngine). A guard rescale runs the
    /// sweep a second time with the rescaled gains.
    pub fn step(&mut self) -> FusedRound {
        let alpha = self.engine.root.begin_round();
        if self.num_workers() == 1 {
            // A single worker always holds the whole workload; mirror the
            // split engine's early return (no gains, no pin).
            let cost = self.slab.eval(0, self.engine.x.share(0));
            return FusedRound { straggler: 0, global_cost: cost };
        }

        let (level, s) = self.next.take().unwrap_or_else(|| {
            let xs = self.engine.x.as_slice();
            self.ctx().evaluate(xs).expect("at least one active member")
        });
        let mut round = Pipeline { straggler: s, level, alpha, scale: None };
        let (mut total_gain, mut fold) = self.sweep(&round);
        let straggler_share = self.engine.x.share(s);
        if let Some(scale) = self.engine.root.guard_scale(straggler_share, total_gain) {
            round.scale = Some(scale);
            (total_gain, fold) = self.sweep(&round);
        }
        let pinned = self.engine.root.pin(straggler_share, total_gain);
        self.engine.x.swap_shares(&mut self.back);
        self.engine.x.shares_mut()[s] = pinned;
        self.engine.refresh_total_if_due();
        self.engine.root.tighten(pinned);

        // The sweep left the straggler out of the fold; its next cost is
        // at the pinned share. Combined by value, then lowest index, the
        // pair is the sequential scan's winner.
        let pinned_cost = (self.slab.eval(s, pinned), s);
        self.next = Some(match fold {
            Some((c, i)) if c > pinned_cost.0 || (c == pinned_cost.0 && i < s) => (c, i),
            _ => pinned_cost,
        });
        FusedRound { straggler: s, global_cost: level }
    }

    /// Runs `rounds` steps and returns the episode aggregates, shaped
    /// like [`run_episode_with_static_costs`](crate::runner::run_episode_with_static_costs)
    /// so benchmarks can compare `total_cost` bit for bit.
    pub fn run(&mut self, rounds: usize) -> EpisodeSummary {
        let mut total_cost = 0.0;
        let mut final_global_cost = 0.0;
        for _ in 0..rounds {
            let round = self.step();
            total_cost += round.global_cost;
            final_global_cost = round.global_cost;
        }
        EpisodeSummary {
            algorithm: "DOLBIE".to_owned(),
            rounds,
            total_cost,
            final_global_cost,
            regret: None,
        }
    }

    fn ctx(&self) -> RoundCtx<'_> {
        RoundCtx {
            slab: &self.slab,
            active: self.engine.masked().then_some(self.engine.active.as_slice()),
            simd: self.variant == KernelVariant::Simd,
        }
    }

    /// One pipelined sweep over every worker (see [`RoundCtx::pipelined`]).
    /// The block partials land in `self.partials` with the exact shape of
    /// [`pairwise_neumaier_sum`](crate::numeric::pairwise_neumaier_sum)
    /// over the gains; returns their combined eq. (6) remainder and the
    /// next round's first maximum without the straggler.
    fn sweep(&mut self, round: &Pipeline) -> (f64, Best) {
        let n = self.num_workers();
        let mut partials = std::mem::take(&mut self.partials);
        let mut back = std::mem::take(&mut self.back);
        partials.clear();
        partials.resize(n.div_ceil(SUM_BLOCK), 0.0);
        let best = self.ctx().pipelined(round, self.engine.x.as_slice(), &mut back, &mut partials);
        // Combining the block partials with the fixed pairwise tree lands
        // on pairwise_neumaier_sum(gains) exactly.
        let total_gain = combine_partials(&mut partials);
        self.partials = partials;
        self.back = back;
        (total_gain, best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostFunction;
    use crate::engine::TOTAL_REFRESH_INTERVAL;
    use crate::observation::max_acceptable_share;
    use crate::{Dolbie, LoadBalancer, Observation};

    fn splitmix_bits(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn splitmix(state: &mut u64) -> f64 {
        (splitmix_bits(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn latency_fleet(n: usize, seed: u64) -> Vec<DynCost> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                let speed = 64.0 + 448.0 * splitmix(&mut state);
                Box::new(LatencyCost::new(256.0, speed, 0.05)) as DynCost
            })
            .collect()
    }

    #[test]
    fn variant_parse_round_trips() {
        for v in KernelVariant::all() {
            assert_eq!(KernelVariant::parse(v.name()), Some(v));
        }
        assert_eq!(KernelVariant::parse("warp"), None);
        // The split engine is not a mode of this kernel.
        assert_eq!(KernelVariant::parse("split"), None);
    }

    #[test]
    fn slab_downcast_accepts_homogeneous_closed_form_fleets() {
        let latency = latency_fleet(5, 3);
        let slab = CostSlab::from_costs(&latency).expect("latency fleet has a slab");
        assert_eq!(slab.len(), 5);
        assert_eq!(slab.family(), "latency");
        let linear: Vec<DynCost> =
            (0..4).map(|i| Box::new(LinearCost::new(i as f64, 0.1)) as DynCost).collect();
        let slab = CostSlab::from_costs(&linear).expect("linear fleet has a slab");
        assert_eq!(slab.family(), "linear");
        assert!(!slab.is_empty());
    }

    #[test]
    fn slab_downcast_rejects_mixed_and_unsupported_fleets() {
        assert!(CostSlab::from_costs(&[]).is_none(), "empty fleet");
        let mixed: Vec<DynCost> = vec![
            Box::new(LatencyCost::new(256.0, 100.0, 0.05)),
            Box::new(LinearCost::new(1.0, 0.0)),
        ];
        assert!(CostSlab::from_costs(&mixed).is_none(), "heterogeneous fleet");
        let no_closed_form: Vec<DynCost> =
            vec![Box::new(crate::cost::PowerCost::new(1.0, 2.0, 0.0))];
        assert!(CostSlab::from_costs(&no_closed_form).is_none(), "no as_any override");
        assert!(FusedDolbie::from_costs(&no_closed_form).is_none());
    }

    /// A column is shared exactly when every worker's value has the same
    /// bits: `0.0` next to `-0.0`, or two values one ulp apart, stay
    /// per-worker.
    #[test]
    fn column_detection_is_by_bits() {
        let comm_column = |comm: &[f64]| match CostSlab::latency(
            &comm.iter().map(|&c| LatencyCost::new(256.0, 100.0, c)).collect::<Vec<_>>(),
        ) {
            CostSlab::Latency { comm, .. } => comm,
            CostSlab::Linear { .. } => unreachable!("a latency fleet"),
        };
        let next_up = f64::from_bits(0.05f64.to_bits() + 1);
        assert_eq!(comm_column(&[0.05, 0.05, 0.05]), Column::Shared(0.05));
        assert_eq!(comm_column(&[0.0, -0.0, 0.0]), Column::PerWorker(vec![0.0, -0.0, 0.0]));
        assert_eq!(
            comm_column(&[0.05, 0.05, next_up]),
            Column::PerWorker(vec![0.05, 0.05, next_up])
        );
        assert!(matches!(comm_column(&[-0.0, 0.0]), Column::PerWorker(_)));
        assert!(matches!(comm_column(&[-0.0, -0.0]), Column::Shared(z) if z.is_sign_negative()));

        let slab = CostSlab::latency(&[LatencyCost::new(256.0, 100.0, 0.05)]);
        let CostSlab::Latency { workers, batch, speed, comm } = slab else { unreachable!() };
        assert_eq!(workers, 1);
        assert_eq!([batch, speed, comm], [256.0, 100.0, 0.05].map(Column::Shared));
        let linear = CostSlab::linear(&[LinearCost::new(1.0, 0.5), LinearCost::new(2.0, 0.5)]);
        let CostSlab::Linear { slope, intercept, .. } = linear else { unreachable!() };
        assert_eq!((slope, intercept), (Column::PerWorker(vec![1.0, 2.0]), Column::Shared(0.5)));
    }

    /// Multiplying by the reciprocal of a normal power of two `b` gives the
    /// bits of dividing by `b` for every `y`: results deep in the
    /// subnormal range (exact and rounded), `±0`, `±inf`, NaN and random
    /// bit patterns. Divisors that are not normal powers of two are
    /// rejected.
    #[test]
    fn reciprocal_rule_is_exact_for_normal_powers_of_two() {
        let mut state = 0x5EED;
        let mut random_bits = || splitmix_bits(&mut state);
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            1.0,
            0.05,
            -3.0,
        ];
        let mut checked = 0;
        for k in -1022..=1023 {
            let b = 2f64.powi(k);
            assert!(b.is_normal(), "2^{k}");
            let recip = pow2_recip(b).unwrap_or_else(|| panic!("2^{k} is a normal power of two"));
            // A subnormal times b is exact (so y / b is that subnormal);
            // one ulp more makes y / b round in the subnormal range.
            let subnormal = f64::from_bits(random_bits() & ((1 << 52) - 1));
            let near = [subnormal * b, f64::from_bits((subnormal * b).to_bits() + 1)];
            let random = (0..32).map(|_| f64::from_bits(random_bits()));
            for y in specials.into_iter().chain(near).chain(random) {
                let (y, recip) = (std::hint::black_box(y), std::hint::black_box(recip));
                assert_eq!((y * recip).to_bits(), (y / b).to_bits(), "y {y:e}, b 2^{k}");
                checked += 1;
            }
        }
        assert_eq!(checked, 2046 * (12 + 2 + 32));
        for b in [
            3.0,
            0.1,
            100.0,
            0.0,
            -0.0,
            -2.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::INFINITY,
            f64::NAN,
        ] {
            assert_eq!(pow2_recip(b), None, "{b:e}");
        }
    }

    #[test]
    fn slab_eval_matches_trait_eval_bitwise() {
        let costs = latency_fleet(37, 9);
        let slab = CostSlab::from_costs(&costs).unwrap();
        for (i, f) in costs.iter().enumerate() {
            for x in [0.0, 1.0 / 37.0, 0.5, 1.0] {
                assert_eq!(slab.eval(i, x).to_bits(), f.eval(x).to_bits(), "worker {i} at {x}");
            }
        }
    }

    /// The branchless inverse equals the branchy
    /// `max_share_within` + `max_acceptable_share` path bit for bit across
    /// every parameter edge: infeasible levels (`None`), zero batch/slope
    /// (`±inf`/`NaN` intermediates), exact-level boundaries, and targets
    /// past 1.
    #[test]
    fn branchless_target_matches_branchy_inverse_on_edges() {
        let latency_edges = [
            LatencyCost::new(256.0, 100.0, 0.5), // generic
            LatencyCost::new(256.0, 100.0, 2.0), // comm can exceed level
            LatencyCost::new(0.0, 100.0, 0.3),   // zero batch: ±inf / NaN raw
            LatencyCost::new(1e-3, 100.0, 0.0),  // target far past 1
        ];
        for f in latency_edges {
            for level in [0.0, 0.3, 0.5, 1.0, 2.0, 4.0] {
                for xi in [0.0, 0.01, 0.5, 1.0] {
                    let branchy = max_acceptable_share(&f, xi, level);
                    let raw = ((level - f.comm_time()) * f.speed() / f.batch_size()).min(1.0);
                    let branchless = raw.max(xi).min(1.0);
                    assert_eq!(
                        branchless.to_bits(),
                        branchy.to_bits(),
                        "latency {f:?} level {level} xi {xi}"
                    );
                }
            }
        }
        let linear_edges = [
            LinearCost::new(3.0, 2.0),  // generic
            LinearCost::new(1.0, 5.0),  // intercept can exceed level
            LinearCost::new(0.0, 2.0),  // zero slope: ±inf / NaN raw
            LinearCost::new(1e-3, 0.0), // target far past 1
        ];
        for f in linear_edges {
            for level in [0.0, 1.0, 2.0, 2.0000001, 5.0, 100.0] {
                for xi in [0.0, 0.01, 0.5, 1.0] {
                    let branchy = max_acceptable_share(&f, xi, level);
                    let raw = ((level - f.intercept()) / f.slope()).min(1.0);
                    let branchless = raw.max(xi).min(1.0);
                    assert_eq!(
                        branchless.to_bits(),
                        branchy.to_bits(),
                        "linear {f:?} level {level} xi {xi}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_worker_round_is_a_fixed_point() {
        let slab = CostSlab::linear(&[LinearCost::new(2.0, 0.0)]);
        let mut d = FusedDolbie::new(slab);
        for _ in 0..5 {
            let round = d.step();
            assert_eq!(round.straggler, 0);
            assert_eq!(round.global_cost, 2.0);
            assert_eq!(d.allocation().share(0), 1.0);
        }
        assert_eq!(d.stats().rounds, 5);
    }

    #[test]
    fn fused_episode_matches_split_engine_bitwise_past_refresh() {
        // Horizon past TOTAL_REFRESH_INTERVAL, so the refresh reads the
        // shares the pipelined sweeps wrote.
        let n = 64;
        let rounds = 2 * TOTAL_REFRESH_INTERVAL + 17;
        let costs = latency_fleet(n, 7);
        let mut split = Dolbie::new(n);
        let summary = crate::runner::run_episode_with_static_costs(&mut split, &costs, rounds);
        for variant in [KernelVariant::Fused, KernelVariant::Simd] {
            let mut fused = FusedDolbie::from_costs(&costs).unwrap().with_variant(variant);
            let got = fused.run(rounds);
            assert_eq!(got.total_cost.to_bits(), summary.total_cost.to_bits(), "{variant:?}");
            assert_eq!(
                got.final_global_cost.to_bits(),
                summary.final_global_cost.to_bits(),
                "{variant:?}"
            );
            assert_eq!(fused.alphas_used(), split.alphas_used(), "{variant:?}");
            assert_eq!(fused.stats(), split.stats(), "{variant:?}");
            for i in 0..n {
                assert_eq!(
                    fused.allocation().share(i).to_bits(),
                    split.allocation().share(i).to_bits(),
                    "{variant:?} worker {i}"
                );
            }
        }
    }

    #[test]
    fn guard_rescale_path_matches_split_engine() {
        // An aggressive alpha floor keeps α large after tightening, which
        // periodically trips the feasibility guard in both engines; the
        // trajectories (and guard counters) must still agree bitwise —
        // also through the rescaled second sweep. The kernel keeps its
        // gains in an L1 scratch and never allocates the engine's gain
        // slice.
        let n = 13;
        let rounds = 50;
        let costs = latency_fleet(n, 77);
        let config = DolbieConfig::new().with_alpha_floor(0.9);
        let mut split = Dolbie::with_config(Allocation::uniform(n), config);
        for t in 0..rounds {
            let played = split.allocation().clone();
            let obs = Observation::from_costs(t, &played, &costs);
            split.observe(&obs);
        }
        assert!(split.stats().guard_activations > 0, "floor never tripped the guard");
        for variant in KernelVariant::all() {
            let mut fused = FusedDolbie::with_config(
                CostSlab::from_costs(&costs).unwrap(),
                Allocation::uniform(n),
                config,
            )
            .with_variant(variant);
            fused.run(rounds);
            assert_eq!(fused.stats(), split.stats(), "{variant:?}");
            assert_eq!(fused.alphas_used(), split.alphas_used(), "{variant:?}");
            assert_eq!(fused.allocation().as_slice(), split.allocation().as_slice(), "{variant:?}");
            assert!(fused.engine.gains.is_empty(), "{variant:?}");
        }
    }

    #[test]
    fn allocation_between_steps_matches_split_engine() {
        // Past a Σx refresh, in both variants: every step leaves the
        // split engine's shares, whatever the next round has folded.
        let costs = latency_fleet(20, 4);
        for variant in KernelVariant::all() {
            let mut split = Dolbie::new(20);
            let mut fused = FusedDolbie::from_costs(&costs).unwrap().with_variant(variant);
            for t in 0..TOTAL_REFRESH_INTERVAL + 9 {
                let played = split.allocation().clone();
                let obs = Observation::from_costs(t, &played, &costs);
                split.observe(&obs);
                fused.step();
                assert_eq!(
                    fused.allocation().as_slice(),
                    split.allocation().as_slice(),
                    "{variant:?}, round {t}"
                );
            }
        }
    }

    #[test]
    fn membership_change_discards_the_folded_next_straggler() {
        // The worker that leaves is the one the last pipelined sweep
        // elected for the next round: the kernel must evaluate afresh
        // over the members, not replay the folded winner.
        let n = 41;
        let costs = latency_fleet(n, 29);
        for variant in KernelVariant::all() {
            let mut split = Dolbie::new(n);
            let mut fused = FusedDolbie::from_costs(&costs).unwrap().with_variant(variant);
            let mut members = vec![true; n];
            for t in 0..30 {
                if t == 12 {
                    let played = split.allocation().clone();
                    members[Observation::from_costs(t, &played, &costs).straggler()] = false;
                    split.apply_membership(&members);
                    fused.apply_membership(&members);
                }
                let played = split.allocation().clone();
                let obs = Observation::from_costs_masked(t, &played, &costs, &members, Vec::new());
                let round = fused.step();
                assert_eq!(round.straggler, obs.straggler(), "{variant:?}, round {t}");
                assert_eq!(round.global_cost.to_bits(), obs.global_cost().to_bits());
                split.observe(&obs);
                assert_eq!(fused.allocation().as_slice(), split.allocation().as_slice());
            }
        }
    }

    #[test]
    #[should_panic(expected = "one cost slab entry per worker")]
    fn mismatched_slab_and_allocation_panic() {
        let slab = CostSlab::linear(&[LinearCost::new(1.0, 0.0)]);
        let _ = FusedDolbie::with_config(slab, Allocation::uniform(2), DolbieConfig::new());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::cost::LatencyCost;
    use crate::numeric::pairwise_neumaier_sum;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Satellite acceptance property: the fused kernel's compensated
        /// Σx pin keeps |Σx − 1| < 1e-12 across 10^4 rounds — well past
        /// dozens of refresh intervals — for random heterogeneous fleets
        /// in both kernel variants.
        #[test]
        fn fused_sum_pin_holds_for_1e4_rounds(
            n in 2usize..96,
            seed in 0u64..u64::MAX,
            simd in proptest::bool::ANY,
        ) {
            let mut state = seed;
            let fleet: Vec<LatencyCost> = (0..n).map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let speed = 32.0 + (state >> 40) as f64 / 65536.0;
                LatencyCost::new(128.0, speed, 0.02)
            }).collect();
            let variant = if simd { KernelVariant::Simd } else { KernelVariant::Fused };
            let mut d = FusedDolbie::new(CostSlab::latency(&fleet)).with_variant(variant);
            let summary = d.run(10_000);
            prop_assert_eq!(summary.rounds, 10_000);
            let sum = pairwise_neumaier_sum(d.allocation().as_slice());
            prop_assert!((sum - 1.0).abs() < 1e-12, "|Σx − 1| = {:e}", (sum - 1.0).abs());
            prop_assert!(d.allocation().iter().all(|&v| v >= 0.0));
        }
    }
}
