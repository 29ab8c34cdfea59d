//! The fused, cache-blocked, SIMD round kernel.
//!
//! # Why a second round engine
//!
//! The split engine ([`ChunkedDolbie`](crate::ChunkedDolbie) +
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
//!    structure-of-arrays `Vec<f64>`s, so evaluation and inversion are
//!    straight-line arithmetic on sequential streams — no pointer chasing,
//!    no virtual dispatch.
//! 2. **Pass fusion with deferred application**: each round runs exactly
//!    two sweeps over the worker arrays. Sweep 1 applies the *previous*
//!    round's gains and straggler pin (deferred from the last call),
//!    evaluates the costs and folds the straggler argmax — one read-write
//!    pass over `x`, one read pass over the slab, and the local costs
//!    never touch memory at all. Sweep 2 computes the eq. (5) gains
//!    *branchlessly* and reduces them into per-[`SUM_BLOCK`] compensated
//!    partials while the block is still in L1. The remaining work — the
//!    eq. (6) remainder combine, the feasibility guard, the Σx = 1 pin,
//!    eq. (7) — is O(1) or O(N/128).
//! 3. **SIMD lanes** ([`KernelVariant::Simd`]): the eval/inverse/gain
//!    arithmetic and the straggler first-max run four lanes at a time,
//!    either through nightly `core::simd` (cargo feature `portable-simd`)
//!    or through a hand-rolled four-wide fallback on stable that LLVM
//!    auto-vectorizes. The slab streams are sliced to each chunk or block
//!    group up front, so the inner loops index local slices.
//!
//! The round is compute-bound, not memory-bound: before the
//! order-sensitive reductions ran across lanes, a Simd round cost the
//! same 6.0–6.3 ns per worker at N = 4 096 (in cache) as at N = 10⁶,
//! two thirds of it in sweep 2's serial Neumaier chains.
//!
//! # The bitwise-determinism boundary
//!
//! The kernel produces trajectories **bitwise identical** to the
//! sequential [`Dolbie`](crate::Dolbie) at every chunk size, thread count
//! and membership mask (tested exhaustively in `tests/kernel_parity.rs`).
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
//!   sweep 2 produces the block partials inline, four blocks in lockstep
//!   with one Neumaier chain per lane, each chain in its block's own
//!   left-to-right order, so each partial is the scalar chain's bit for
//!   bit. Chunk boundaries only decide which task computes a block,
//!   never the reduction shape.
//! - *Branchless inverse equivalence*: the slab inverse computes the same
//!   expression as the branchy
//!   [`max_share_within`](crate::cost::CostFunction::max_share_within) +
//!   [`max_acceptable_share`](crate::observation::max_acceptable_share)
//!   path for every parameter case, including the `None` (infeasible) and
//!   zero-slope cases, via IEEE semantics of `f64::min`/`f64::max` over
//!   `±inf`/NaN intermediates (unit-tested edge by edge below).
//! - *Masked rounds stay scalar in sweep 1*: after
//!   [`apply_membership`](FusedDolbie::apply_membership) the argmax runs
//!   the scalar member-only scan; gains are still computed branchlessly
//!   (and lane-wise) because inactive entries are forced to exactly `0.0`
//!   before the block partials are taken.
//!
//! Deferred application is invisible from outside:
//! [`allocation`](FusedDolbie::allocation),
//! [`apply_membership`](FusedDolbie::apply_membership) and the periodic
//! Σx refresh materialize the pending gains first, so every observable
//! share slice equals the split engine's bit for bit.

use crate::allocation::Allocation;
use crate::cost::{DynCost, LatencyCost, LinearCost};
use crate::dolbie::{DolbieConfig, DolbieStats};
use crate::engine::{apply_gains, SoaEngine};
use crate::lanes::{self, FirstMax};
use crate::numeric::{block_partials, combine_partials, GROUP, SUM_BLOCK};
use crate::parallel::parallel_for_each;
use crate::runner::EpisodeSummary;

pub use crate::lanes::LANES;

/// Which inner-loop code shape [`FusedDolbie`] runs. Every variant
/// produces the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// The fused two-sweep kernel with scalar eval/inverse/gain loops.
    Fused,
    /// The fused two-sweep kernel with explicit four-wide lanes in the
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

/// Flat structure-of-arrays cost parameters for a homogeneous fleet whose
/// eq. (5) inverse has a closed form.
///
/// The slab is what lets the kernel replace two virtual calls per worker
/// per round with straight-line arithmetic over sequential `f64` streams.
/// Only cost families with closed-form inverses qualify; heterogeneous or
/// bisection-based fleets stay on the split engine.
#[derive(Debug, Clone)]
pub enum CostSlab {
    /// [`LatencyCost`] fleet: `f_i(x) = x·batch_i/speed_i + comm_i`.
    Latency {
        /// Per-worker global batch size `B` (non-negative, finite).
        batch: Vec<f64>,
        /// Per-worker processing speed `γ` (positive, finite).
        speed: Vec<f64>,
        /// Per-worker communication time `f^C` (non-negative, finite).
        comm: Vec<f64>,
    },
    /// [`LinearCost`] fleet: `f_i(x) = slope_i·x + intercept_i`.
    Linear {
        /// Per-worker slope (non-negative, finite).
        slope: Vec<f64>,
        /// Per-worker intercept (finite).
        intercept: Vec<f64>,
    },
}

impl CostSlab {
    /// Builds a latency slab from concrete [`LatencyCost`]s (whose
    /// constructor has already validated the parameters).
    pub fn latency(fleet: &[LatencyCost]) -> Self {
        Self::Latency {
            batch: fleet.iter().map(LatencyCost::batch_size).collect(),
            speed: fleet.iter().map(LatencyCost::speed).collect(),
            comm: fleet.iter().map(LatencyCost::comm_time).collect(),
        }
    }

    /// Builds a linear slab from concrete [`LinearCost`]s.
    pub fn linear(fleet: &[LinearCost]) -> Self {
        Self::Linear {
            slope: fleet.iter().map(LinearCost::slope).collect(),
            intercept: fleet.iter().map(LinearCost::intercept).collect(),
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
            Self::Latency { batch, .. } => batch.len(),
            Self::Linear { slope, .. } => slope.len(),
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
    #[inline(always)]
    pub fn eval(&self, i: usize, x: f64) -> f64 {
        match self {
            Self::Latency { batch, speed, comm } => x * batch[i] / speed[i] + comm[i],
            Self::Linear { slope, intercept } => slope[i] * x + intercept[i],
        }
    }

    fn assert_consistent(&self) {
        let n = self.len();
        match self {
            Self::Latency { batch, speed, comm } => {
                assert!(speed.len() == n && comm.len() == n && batch.len() == n);
                assert!(
                    batch.iter().all(|b| b.is_finite() && *b >= 0.0)
                        && speed.iter().all(|s| s.is_finite() && *s > 0.0)
                        && comm.iter().all(|c| c.is_finite() && *c >= 0.0),
                    "latency slab parameters must satisfy the LatencyCost contract"
                );
            }
            Self::Linear { slope, intercept } => {
                assert!(slope.len() == n && intercept.len() == n);
                assert!(
                    slope.iter().all(|s| s.is_finite() && *s >= 0.0)
                        && intercept.iter().all(|i| i.is_finite()),
                    "linear slab parameters must satisfy the LinearCost contract"
                );
            }
        }
    }
}

/// The deferred tail of a round: the gains sitting in the engine's gain
/// slice and the pinned straggler share, not yet written into `x`.
#[derive(Debug, Clone, Copy)]
struct PendingRound {
    straggler: usize,
    pinned_share: f64,
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

/// First-max scan over one chunk, scalar, with the first element as the
/// incumbent via a `-inf` seed — exactly the sequential lowest-index-wins
/// scan of [`Observation`](crate::Observation). `eval(k, x)` is the cost
/// of the chunk's `k`-th worker at share `x`.
#[inline(always)]
fn scalar_eval_loop(
    apply: bool,
    base: usize,
    xc: &mut [f64],
    gc: &[f64],
    eval: impl Fn(usize, f64) -> f64,
) -> (f64, usize) {
    let gc = &gc[..xc.len()];
    let mut best = (f64::NEG_INFINITY, 0);
    for (k, (xv, g)) in xc.iter_mut().zip(gc).enumerate() {
        if apply {
            *xv += g;
        }
        let c = eval(k, *xv);
        if c > best.0 {
            best = (c, k);
        }
    }
    (best.0, base + best.1)
}

/// As [`scalar_eval_loop`], four lanes at a time: the eval arithmetic
/// and the first-max. Each lane keeps its own first maximum
/// ([`FirstMax`]); the lanes' winner is the sequential scan's winner over
/// the vector part, and the scalar tail continues it in index order with
/// a strict `>` — every tail index follows the lanes', so ties still go
/// to the lowest index.
#[inline(always)]
fn lane_eval_loop(
    apply: bool,
    base: usize,
    xc: &mut [f64],
    gc: &[f64],
    eval_lane: impl Fn(usize, lanes::V) -> lanes::V,
    eval: impl Fn(usize, f64) -> f64,
) -> (f64, usize) {
    let len = xc.len();
    let gc = &gc[..len];
    let mut first = FirstMax::new();
    let mut index = lanes::iota();
    let step = lanes::splat(LANES as f64);
    let mut k = 0;
    while k + LANES <= len {
        let mut xv = lanes::load(&xc[k..k + LANES]);
        if apply {
            xv = lanes::add(xv, lanes::load(&gc[k..k + LANES]));
            lanes::store(xv, &mut xc[k..k + LANES]);
        }
        first.fold(eval_lane(k, xv), index);
        index = lanes::add(index, step);
        k += LANES;
    }
    let mut best = first.winner().unwrap_or((f64::NEG_INFINITY, 0));
    while k < len {
        if apply {
            xc[k] += gc[k];
        }
        let c = eval(k, xc[k]);
        if c > best.0 {
            best = (c, k);
        }
        k += 1;
    }
    (best.0, base + best.1)
}

/// Member-only first-max scan (the masked fallback of sweep 1); mirrors
/// [`Observation::from_costs_masked`](crate::Observation::from_costs_masked)
/// including the `is_none_or` seeding. `active` is the chunk's slice of
/// the mask.
#[inline(always)]
fn masked_eval_loop(
    active: &[bool],
    apply: bool,
    base: usize,
    xc: &mut [f64],
    gc: &[f64],
    eval: impl Fn(usize, f64) -> f64,
) -> Option<(f64, usize)> {
    let gc = &gc[..xc.len()];
    let mut best: Option<(f64, usize)> = None;
    for (k, ((xv, g), &member)) in xc.iter_mut().zip(gc).zip(active).enumerate() {
        if apply {
            *xv += g;
        }
        if !member {
            continue;
        }
        let c = eval(k, *xv);
        if best.is_none_or(|(bc, _)| c > bc) {
            best = Some((c, base + k));
        }
    }
    best
}

/// Branchless eq. (5) gains for one stretch of workers, scalar. `xs` is
/// the stretch's shares and `target(k, x)` the `k`-th worker's eq. (5)
/// target.
#[inline(always)]
fn scalar_gain_loop(xs: &[f64], gb: &mut [f64], alpha: f64, target: impl Fn(usize, f64) -> f64) {
    let xs = &xs[..gb.len()];
    for (k, (g, &xi)) in gb.iter_mut().zip(xs).enumerate() {
        *g = (alpha * (target(k, xi) - xi)).max(0.0);
    }
}

/// Branchless eq. (5) gains for one stretch of workers, four lanes at a
/// time.
#[inline(always)]
fn lane_gain_loop(
    xs: &[f64],
    gb: &mut [f64],
    alpha: f64,
    target_lane: impl Fn(usize, lanes::V) -> lanes::V,
    target: impl Fn(usize, f64) -> f64,
) {
    let len = gb.len();
    let xs = &xs[..len];
    let av = lanes::splat(alpha);
    let zero = lanes::splat(0.0);
    let mut k = 0;
    while k + LANES <= len {
        let xv = lanes::load(&xs[k..k + LANES]);
        let gv = lanes::max(lanes::mul(av, lanes::sub(target_lane(k, xv), xv)), zero);
        lanes::store(gv, &mut gb[k..k + LANES]);
        k += LANES;
    }
    while k < len {
        let xi = xs[k];
        gb[k] = (alpha * (target(k, xi) - xi)).max(0.0);
        k += 1;
    }
}

/// Read-only context shared by the per-chunk sweep bodies.
#[derive(Clone, Copy)]
struct RoundCtx<'a> {
    slab: &'a CostSlab,
    /// `Some(mask)` when any worker is inactive (post-`apply_membership`).
    active: Option<&'a [bool]>,
    simd: bool,
}

impl RoundCtx<'_> {
    /// Sweep 1 body for one chunk (workers `base..base + xc.len()`):
    /// apply the deferred gains (when `apply`), evaluate the costs, fold
    /// the chunk-local first-max partial. Never stores the local costs.
    /// The slab streams are sliced to the chunk up front, so the inner
    /// loops index local slices whose bounds the compiler can hoist.
    fn eval_partial(
        &self,
        apply: bool,
        base: usize,
        xc: &mut [f64],
        gc: &[f64],
    ) -> Option<(f64, usize)> {
        let r = base..base + xc.len();
        let active = self.active.map(|a| &a[r.clone()]);
        match self.slab {
            CostSlab::Latency { batch, speed, comm } => {
                let (batch, speed, comm) = (&batch[r.clone()], &speed[r.clone()], &comm[r]);
                let eval = |k: usize, x: f64| x * batch[k] / speed[k] + comm[k];
                if let Some(active) = active {
                    masked_eval_loop(active, apply, base, xc, gc, eval)
                } else if self.simd {
                    let eval_lane = |k: usize, xv: lanes::V| {
                        lanes::add(
                            lanes::div(
                                lanes::mul(xv, lanes::load(&batch[k..k + LANES])),
                                lanes::load(&speed[k..k + LANES]),
                            ),
                            lanes::load(&comm[k..k + LANES]),
                        )
                    };
                    Some(lane_eval_loop(apply, base, xc, gc, eval_lane, eval))
                } else {
                    Some(scalar_eval_loop(apply, base, xc, gc, eval))
                }
            }
            CostSlab::Linear { slope, intercept } => {
                let (slope, intercept) = (&slope[r.clone()], &intercept[r]);
                let eval = |k: usize, x: f64| slope[k] * x + intercept[k];
                if let Some(active) = active {
                    masked_eval_loop(active, apply, base, xc, gc, eval)
                } else if self.simd {
                    let eval_lane = |k: usize, xv: lanes::V| {
                        lanes::add(
                            lanes::mul(lanes::load(&slope[k..k + LANES]), xv),
                            lanes::load(&intercept[k..k + LANES]),
                        )
                    };
                    Some(lane_eval_loop(apply, base, xc, gc, eval_lane, eval))
                } else {
                    Some(scalar_eval_loop(apply, base, xc, gc, eval))
                }
            }
        }
    }

    /// Sweep 2 over `gains`, the gain slots of workers `base..`: one
    /// [`GROUP`] of [`LANES`] blocks at a time, so the lockstep block
    /// partials read gains still in L1. `base` must be
    /// [`SUM_BLOCK`]-aligned and `partials` hold one slot per block.
    #[allow(clippy::too_many_arguments)]
    fn gain_sweep(
        &self,
        s: usize,
        level: f64,
        alpha: f64,
        xs: &[f64],
        base: usize,
        gains: &mut [f64],
        partials: &mut [f64],
    ) {
        for (k, (gc, pc)) in gains.chunks_mut(GROUP).zip(partials.chunks_mut(LANES)).enumerate() {
            self.gain_partials(s, level, alpha, xs, base + k * GROUP, gc, pc);
        }
    }

    /// Sweep 2 body for one group of blocks (workers
    /// `base..base + gc.len()`): branchless gains into `gc`, inactive
    /// entries and the straggler forced to exactly `0.0`, then the
    /// compensated block partials into `pc`.
    ///
    /// The branchless target `min(max(min(raw, 1), x), 1)` equals the
    /// branchy `max_share_within` + `max_acceptable_share` path bit for
    /// bit in every parameter case (see the module docs and the edge-case
    /// tests below), because a `None` inverse surfaces as `raw = -inf` or
    /// `NaN` and `f64::min`/`f64::max` ignore both in exactly the way the
    /// branches would.
    #[allow(clippy::too_many_arguments)]
    fn gain_partials(
        &self,
        s: usize,
        level: f64,
        alpha: f64,
        xs: &[f64],
        base: usize,
        gc: &mut [f64],
        pc: &mut [f64],
    ) {
        let r = base..base + gc.len();
        let xs = &xs[r.clone()];
        match self.slab {
            CostSlab::Latency { batch, speed, comm } => {
                let (batch, speed, comm) = (&batch[r.clone()], &speed[r.clone()], &comm[r.clone()]);
                let target = |k: usize, xi: f64| {
                    ((level - comm[k]) * speed[k] / batch[k]).min(1.0).max(xi).min(1.0)
                };
                if self.simd {
                    let lv = lanes::splat(level);
                    let one = lanes::splat(1.0);
                    let target_lane = |k: usize, xv: lanes::V| {
                        let raw = lanes::min(
                            lanes::div(
                                lanes::mul(
                                    lanes::sub(lv, lanes::load(&comm[k..k + LANES])),
                                    lanes::load(&speed[k..k + LANES]),
                                ),
                                lanes::load(&batch[k..k + LANES]),
                            ),
                            one,
                        );
                        lanes::min(lanes::max(raw, xv), one)
                    };
                    lane_gain_loop(xs, gc, alpha, target_lane, target);
                } else {
                    scalar_gain_loop(xs, gc, alpha, target);
                }
            }
            CostSlab::Linear { slope, intercept } => {
                let (slope, intercept) = (&slope[r.clone()], &intercept[r.clone()]);
                let target = |k: usize, xi: f64| {
                    ((level - intercept[k]) / slope[k]).min(1.0).max(xi).min(1.0)
                };
                if self.simd {
                    let lv = lanes::splat(level);
                    let one = lanes::splat(1.0);
                    let target_lane = |k: usize, xv: lanes::V| {
                        let raw = lanes::min(
                            lanes::div(
                                lanes::sub(lv, lanes::load(&intercept[k..k + LANES])),
                                lanes::load(&slope[k..k + LANES]),
                            ),
                            one,
                        );
                        lanes::min(lanes::max(raw, xv), one)
                    };
                    lane_gain_loop(xs, gc, alpha, target_lane, target);
                } else {
                    scalar_gain_loop(xs, gc, alpha, target);
                }
            }
        }
        if let Some(active) = self.active {
            for (g, &member) in gc.iter_mut().zip(&active[r.clone()]) {
                if !member {
                    *g = 0.0;
                }
            }
        }
        if r.contains(&s) {
            gc[s - base] = 0.0;
        }
        block_partials(gc, pc);
    }
}

/// DOLBIE on the fused, cache-blocked, optionally SIMD round kernel.
///
/// Drives the *same* structure-of-arrays engine state as
/// [`Dolbie`](crate::Dolbie) /
/// [`ChunkedDolbie`](crate::ChunkedDolbie), but generates its own
/// observations from a [`CostSlab`] instead of consuming
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
    /// `None`: plain sequential sweeps. `Some(c)`: sweep 1 in `c`-worker
    /// chunks and sweep 2 in `SUM_BLOCK`-aligned groups of ~`c` workers on
    /// the work-stealing harness.
    chunk_size: Option<usize>,
    pending: Option<PendingRound>,
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
            engine: SoaEngine::new(initial, config),
            slab,
            variant: KernelVariant::Fused,
            chunk_size: None,
            pending: None,
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

    /// Runs the sweeps in `chunk_size`-worker chunks on the work-stealing
    /// harness (clamped to at least 1). Any value produces the same
    /// trajectory; it only tunes scheduling granularity.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = Some(chunk_size.max(1));
        self
    }

    /// The active kernel variant.
    pub fn variant(&self) -> KernelVariant {
        self.variant
    }

    /// The configured chunk size (`None`: sequential sweeps).
    pub fn chunk_size(&self) -> Option<usize> {
        self.chunk_size
    }

    /// The cost slab the kernel plays against.
    pub fn slab(&self) -> &CostSlab {
        &self.slab
    }

    /// Number of workers `N`.
    pub fn num_workers(&self) -> usize {
        self.slab.len()
    }

    /// The current allocation. Materializes any deferred round tail
    /// first, so the returned shares always equal the split engine's
    /// after the same number of rounds.
    pub fn allocation(&mut self) -> &Allocation {
        self.materialize();
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
    /// [`Dolbie::apply_membership`](crate::Dolbie::apply_membership)
    /// (deferred state is materialized first, so the renormalization sees
    /// the same shares the split engine would).
    ///
    /// # Panics
    ///
    /// As [`Dolbie::apply_membership`](crate::Dolbie::apply_membership).
    pub fn apply_membership(&mut self, members: &[bool]) {
        self.materialize();
        self.engine.apply_membership(members);
    }

    /// Writes any deferred gains and straggler pin into the share slice.
    /// Idempotent; replays the split engine's Pass B op for op.
    fn materialize(&mut self) {
        let Some(p) = self.pending.take() else { return };
        let xs = self.engine.x.shares_mut();
        apply_gains(xs, &self.engine.gains, self.chunk_size);
        xs[p.straggler] = p.pinned_share;
    }

    /// Plays one DOLBIE round: applies the previous round's deferred
    /// tail, evaluates the (static) slab costs at the resulting shares,
    /// finds the straggler, computes the eq. (5)–(7) update and defers
    /// its application to the next call.
    ///
    /// The order-sensitive tail is the split engine's — guard, pin,
    /// refresh and tighten through the engine's
    /// [`RootEngine`](crate::shard::RootEngine) — except that the gain
    /// application and pin write wait for the next sweep 1.
    pub fn step(&mut self) -> FusedRound {
        let n = self.num_workers();
        let alpha = self.engine.root.begin_round();
        if n == 1 {
            // A single worker always holds the whole workload; mirror the
            // split engine's early return (no gains, no pin).
            let cost = self.slab.eval(0, self.engine.x.share(0));
            return FusedRound { straggler: 0, global_cost: cost };
        }

        let (level, s) = self.sweep_eval();
        self.sweep_gains(s, level, alpha);
        // The eq. (6) remainder: combining the sweep-2 block partials with
        // the fixed pairwise tree lands on pairwise_neumaier_sum(gains)
        // exactly.
        let total_gain = combine_partials(&mut self.partials);
        let pinned = self.engine.guard_and_pin(s, total_gain, self.chunk_size);
        self.pending = Some(PendingRound { straggler: s, pinned_share: pinned });
        // The refresh needs the materialized shares; this is the one round
        // shape where the deferral collapses back to an extra pass.
        if self.engine.root.needs_total_refresh() {
            self.materialize();
            self.engine.refresh_total_if_due(self.chunk_size);
        }
        self.engine.root.tighten(pinned);
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
        self.materialize();
        EpisodeSummary {
            algorithm: "DOLBIE".to_owned(),
            rounds,
            total_cost,
            final_global_cost,
            regret: None,
        }
    }

    /// Sweep 1: deferred application + cost eval + straggler argmax in one
    /// read-write pass over `x`. Returns `(global_cost, straggler)`.
    fn sweep_eval(&mut self) -> (f64, usize) {
        let n = self.num_workers();
        let apply = if let Some(p) = self.pending.take() {
            // The deferred pin; the straggler's gain is exactly 0, so the
            // unconditional `+= g` below leaves it at the pinned value.
            self.engine.x.shares_mut()[p.straggler] = p.pinned_share;
            true
        } else {
            false
        };
        let engine = &mut self.engine;
        let ctx = RoundCtx {
            slab: &self.slab,
            active: engine.masked().then_some(engine.active.as_slice()),
            simd: self.variant == KernelVariant::Simd,
        };
        let xs = engine.x.shares_mut();
        let best = match self.chunk_size {
            None => ctx.eval_partial(apply, 0, xs, &engine.gains),
            Some(c) => {
                /// One sweep-1 task: (chunk base index, share chunk, gain
                /// chunk, slot for the chunk-local argmax partial).
                type EvalTask<'a> = (usize, &'a mut [f64], &'a [f64], &'a mut Option<(f64, usize)>);
                let chunks = n.div_ceil(c);
                let mut partials: Vec<Option<(f64, usize)>> = vec![None; chunks];
                {
                    let payloads: Vec<EvalTask<'_>> = xs
                        .chunks_mut(c)
                        .zip(engine.gains.chunks(c))
                        .zip(partials.iter_mut())
                        .enumerate()
                        .map(|(k, ((xc, gc), slot))| (k * c, xc, gc, slot))
                        .collect();
                    parallel_for_each(payloads, |(base, xc, gc, slot)| {
                        *slot = ctx.eval_partial(apply, base, xc, gc);
                    });
                }
                // In-order combine with a strict `>`: the sequential
                // lowest-index-wins scan, exactly as the split engine's
                // chunked observation.
                let mut best: Option<(f64, usize)> = None;
                for p in partials.into_iter().flatten() {
                    if best.is_none_or(|(bc, _)| p.0 > bc) {
                        best = Some(p);
                    }
                }
                best
            }
        };
        let (level, s) = best.expect("at least one active member is required");
        (level, s)
    }

    /// Sweep 2: branchless gains + inline per-[`SUM_BLOCK`] compensated
    /// partials, blocked so each gain value is reduced while still in L1.
    /// The partials land in `self.partials` with the exact shape of
    /// [`pairwise_neumaier_sum`](crate::numeric::pairwise_neumaier_sum)
    /// over the gain slice.
    fn sweep_gains(&mut self, s: usize, level: f64, alpha: f64) {
        let n = self.num_workers();
        let engine = &mut self.engine;
        let ctx = RoundCtx {
            slab: &self.slab,
            active: engine.masked().then_some(engine.active.as_slice()),
            simd: self.variant == KernelVariant::Simd,
        };
        let xs = engine.x.as_slice();
        self.partials.clear();
        self.partials.resize(n.div_ceil(SUM_BLOCK), 0.0);
        match self.chunk_size {
            None => ctx.gain_sweep(s, level, alpha, xs, 0, &mut engine.gains, &mut self.partials),
            Some(c) => {
                // Group whole SUM_BLOCKs into ~chunk_size tasks: the block
                // grid (hence the reduction shape) is independent of the
                // chunk knob, which only sets scheduling granularity.
                let blocks_per_task = c.div_ceil(SUM_BLOCK).max(1);
                let task_elems = blocks_per_task * SUM_BLOCK;
                let payloads: Vec<(usize, &mut [f64], &mut [f64])> = engine
                    .gains
                    .chunks_mut(task_elems)
                    .zip(self.partials.chunks_mut(blocks_per_task))
                    .enumerate()
                    .map(|(k, (gc, pc))| (k * task_elems, gc, pc))
                    .collect();
                parallel_for_each(payloads, |(base, gc, pc)| {
                    ctx.gain_sweep(s, level, alpha, xs, base, gc, pc);
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostFunction;
    use crate::engine::TOTAL_REFRESH_INTERVAL;
    use crate::observation::max_acceptable_share;
    use crate::{Dolbie, LoadBalancer, Observation};

    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
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
        // Horizon past TOTAL_REFRESH_INTERVAL so the deferred state is
        // forced through the refresh-materialize path too.
        let n = 64;
        let rounds = 2 * TOTAL_REFRESH_INTERVAL + 17;
        let costs = latency_fleet(n, 7);
        let mut split = Dolbie::new(n);
        let summary =
            crate::runner::run_episode_with_static_costs(&mut split, &costs, rounds, None);
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
        // trajectories (and guard counters) must still agree bitwise.
        let n = 13;
        let rounds = 50;
        let costs = latency_fleet(n, 77);
        let config = DolbieConfig::new().with_alpha_floor(0.9);
        let mut split = Dolbie::with_config(Allocation::uniform(n), config);
        let mut fused = FusedDolbie::with_config(
            CostSlab::from_costs(&costs).unwrap(),
            Allocation::uniform(n),
            config,
        );
        for t in 0..rounds {
            let played = split.allocation().clone();
            let obs = Observation::from_costs(t, &played, &costs);
            split.observe(&obs);
            fused.step();
        }
        assert!(split.stats().guard_activations > 0, "floor never tripped the guard");
        assert_eq!(fused.stats(), split.stats());
        for i in 0..n {
            assert_eq!(
                fused.allocation().share(i).to_bits(),
                split.allocation().share(i).to_bits(),
                "worker {i}"
            );
        }
    }

    #[test]
    fn allocation_read_materializes_deferred_state() {
        let costs = latency_fleet(20, 4);
        let mut split = Dolbie::new(20);
        let mut fused = FusedDolbie::from_costs(&costs).unwrap();
        for t in 0..7 {
            let played = split.allocation().clone();
            let obs = Observation::from_costs(t, &played, &costs);
            split.observe(&obs);
            fused.step();
            // Mid-episode reads must already agree: the deferral is an
            // internal scheduling detail, not an observable lag.
            assert_eq!(fused.allocation().as_slice(), split.allocation().as_slice(), "round {t}");
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
