//! The structure-of-arrays DOLBIE round engine.
//!
//! One implementation of the per-round update (eqs. (5)–(7)) drives both
//! public balancers: [`Dolbie`](crate::Dolbie) wraps it with sequential
//! passes, [`ChunkedDolbie`] with fixed-size worker chunks executed on the
//! work-stealing harness. The round state lives in flat `f64` slices
//! (`shares` inside the [`Allocation`], a reused `gains` scratch), so a
//! round is a handful of linear passes instead of an
//! allocate-validate-renormalize cycle — the property that makes
//! N = 10^6 workers tractable.
//!
//! # Determinism across chunk sizes and thread counts
//!
//! The chunked engine is *bitwise* identical to the sequential one, at any
//! chunk size and any thread count, by construction:
//!
//! - Per-worker quantities (cost evaluations, eq. (5) inverses, gains,
//!   share increments) are pure functions of the worker's own state, so it
//!   cannot matter which thread computes them or where chunk boundaries
//!   fall.
//! - The straggler argmax combines chunk-local `(cost, lowest index)`
//!   partials in chunk order with a strict `>`, which reproduces the
//!   sequential first-maximum scan exactly (comparison is exact, no
//!   rounding is involved).
//! - Every order-sensitive floating-point reduction — the eq. (6)
//!   remainder `Σ_i gain_i` and the Σx = 1 bookkeeping — goes through the
//!   fixed-shape compensated sum in [`numeric`](crate::numeric), whose
//!   association order depends only on the array length, never on the
//!   chunking.
//! - The order-sensitive scalar tail (guard, pin, Σx refresh, eq. (7))
//!   is [`RootEngine`]'s, the same code the sharded tiers drive: the flat
//!   engine is the M = 1 root.
//!
//! # The Σx = 1 pin, incrementally
//!
//! Algorithm 1 line 14 pins the sum through the straggler's coordinate,
//! `x_s = 1 − Σ_{i≠s} x_i`. Re-deriving `Σ_{i≠s} x_i` by summation every
//! round is O(N); [`RootEngine`] instead maintains a running
//! Neumaier-compensated total `T ≈ Σ_i x_i` and computes the pin as
//! `(T − x_s) + Σ_i gain_i` in O(1). The compensated running total drifts
//! by at most ~1 ulp per round, so every [`TOTAL_REFRESH_INTERVAL`] rounds
//! it is re-derived from the shares with the fixed-shape sum — a
//! deterministic, amortized-O(N/256) correction that keeps |Σx − 1| below
//! 1e-12 even after 10^4 rounds at N = 10^5 (property-tested below).

use crate::allocation::Allocation;
use crate::balancer::LoadBalancer;
use crate::dolbie::{DolbieConfig, DolbieStats};
use crate::numeric::{pairwise_neumaier_sum, pairwise_neumaier_sum_parallel};
use crate::observation::{max_acceptable_share, Observation};
use crate::parallel::parallel_for_each;
use crate::shard::RootEngine;

/// Rounds between full re-derivations of the running compensated total
/// `T ≈ Σ_i x_i` from the share slice. Both engines refresh on the same
/// round indices with the same fixed-shape sum, so the schedule does not
/// break bitwise equivalence.
pub const TOTAL_REFRESH_INTERVAL: usize = 256;

/// Default worker-chunk size for [`ChunkedDolbie`]: large enough that a
/// chunk amortizes its scheduling overhead, small enough to give the
/// work-stealing harness slack to balance heterogeneous inverse costs.
pub const DEFAULT_CHUNK_SIZE: usize = 4096;

/// The fixed-shape compensated sum of `values`: sequential for
/// `chunk: None`, on the work-stealing harness otherwise — bitwise equal
/// either way.
pub(crate) fn sum_fixed(values: &[f64], chunk: Option<usize>) -> f64 {
    match chunk {
        None => pairwise_neumaier_sum(values),
        Some(_) => pairwise_neumaier_sum_parallel(values),
    }
}

/// `gains *= scale`, the guard's rescale, in `chunk`-worker tasks when
/// chunked.
pub(crate) fn scale_gains(gains: &mut [f64], scale: f64, chunk: Option<usize>) {
    match chunk {
        None => gains.iter_mut().for_each(|g| *g *= scale),
        Some(c) => parallel_for_each(gains.chunks_mut(c).collect(), |gc: &mut [f64]| {
            gc.iter_mut().for_each(|g| *g *= scale)
        }),
    }
}

/// `xs += gains`, the eq. (5) application (Pass B), in `chunk`-worker
/// tasks when chunked.
pub(crate) fn apply_gains(xs: &mut [f64], gains: &[f64], chunk: Option<usize>) {
    match chunk {
        None => xs.iter_mut().zip(gains).for_each(|(x, g)| *x += *g),
        Some(c) => {
            let payloads: Vec<(&mut [f64], &[f64])> =
                xs.chunks_mut(c).zip(gains.chunks(c)).collect();
            parallel_for_each(payloads, |(xc, gc)| {
                xc.iter_mut().zip(gc).for_each(|(x, g)| *x += *g)
            });
        }
    }
}

/// The shared structure-of-arrays round state: the per-worker slices,
/// plus the M = 1 [`RootEngine`] that owns every order-sensitive scalar
/// (step size, running Σx total, counters, member count).
///
/// Fields are `pub(crate)` so the fused kernel
/// ([`kernel`](crate::kernel)) can drive the *same* state through its
/// merged sweeps — one set of invariants, two schedules.
#[derive(Debug, Clone)]
pub(crate) struct SoaEngine {
    pub(crate) x: Allocation,
    /// Per-worker eq. (5) gains, reused across rounds (`gains[s] = 0`).
    pub(crate) gains: Vec<f64>,
    /// The round tail: guard, pin, Σx refresh, eq. (7) tighten.
    pub(crate) root: RootEngine,
    pub(crate) share_caps: Option<Vec<f64>>,
    /// Active-membership mask: inactive workers hold share exactly 0 and
    /// take no eq. (5) gain. All-true until `apply_membership` is called.
    pub(crate) active: Vec<bool>,
}

impl SoaEngine {
    pub(crate) fn new(initial: Allocation, config: DolbieConfig) -> Self {
        let n = initial.num_workers();
        Self {
            root: RootEngine::new(&initial, config),
            x: initial,
            gains: vec![0.0; n],
            share_caps: None,
            active: vec![true; n],
        }
    }

    /// Installs per-worker share caps; panics exactly as
    /// [`Dolbie::with_share_caps`](crate::Dolbie::with_share_caps)
    /// documents.
    pub(crate) fn set_share_caps(&mut self, caps: Vec<f64>) {
        assert_eq!(caps.len(), self.x.num_workers(), "one cap per worker");
        assert!(caps.iter().all(|&c| (0.0..=1.0).contains(&c)), "caps must lie in [0, 1]");
        assert!(caps.iter().sum::<f64>() >= 1.0 - 1e-9, "caps must cover the workload");
        for (i, (&cap, &share)) in caps.iter().zip(self.x.iter()).enumerate() {
            assert!(share <= cap + 1e-9, "initial share of worker {i} exceeds its cap");
        }
        self.share_caps = Some(caps);
    }

    /// Crosses a membership epoch boundary: [`RootEngine::apply_membership`]
    /// re-normalizes the shares onto the simplex of `members` (departing
    /// mass redistributed proportionally, joiners at exactly 0), re-seeds
    /// the running Σx total and shrinks `α` to the re-derived cap; the
    /// engine records the new mask. Pure and deterministic — sequential
    /// and chunked engines transition bitwise-identically.
    ///
    /// # Panics
    ///
    /// Panics if `members.len()` differs from the worker count, no worker
    /// remains a member, or share caps are installed (per-worker caps
    /// describe a fixed fleet; combining them with churn is unsupported).
    pub(crate) fn apply_membership(&mut self, members: &[bool]) {
        assert_eq!(members.len(), self.x.num_workers(), "one membership flag per worker");
        assert!(
            self.share_caps.is_none(),
            "membership changes are not supported together with share caps"
        );
        self.root.apply_membership(self.x.shares_mut(), members);
        self.active.clear();
        self.active.extend_from_slice(members);
    }

    pub(crate) fn allocation(&self) -> &Allocation {
        &self.x
    }

    /// Whether any worker is outside the membership.
    pub(crate) fn masked(&self) -> bool {
        self.root.active_count() < self.x.num_workers()
    }

    /// One DOLBIE round. `chunk_size: None` runs the passes as plain
    /// sequential loops; `Some(c)` runs them in `c`-worker chunks on the
    /// work-stealing harness. Both paths produce bitwise-identical state
    /// (see the module docs).
    pub(crate) fn observe_round(
        &mut self,
        observation: &Observation<'_>,
        chunk_size: Option<usize>,
    ) {
        let n = observation.num_workers();
        assert_eq!(n, self.x.num_workers(), "observation covers a different worker set");
        let alpha = self.root.begin_round();
        if n == 1 {
            return;
        }

        let s = observation.straggler();
        let global_cost = observation.global_cost();
        let cost_fns = observation.cost_fns();
        let chunk = chunk_size.map(|c| c.max(1));

        // Pass A — eq. (5): each non-straggler's risk-averse gain toward
        // its maximum acceptable workload. Pure per worker.
        {
            let xs = self.x.as_slice();
            let caps = self.share_caps.as_deref();
            let active = self.active.as_slice();
            let fill = |base: usize, out: &mut [f64]| {
                for (off, g) in out.iter_mut().enumerate() {
                    let i = base + off;
                    if i == s || !active[i] {
                        *g = 0.0;
                        continue;
                    }
                    let xi = xs[i];
                    let mut target = max_acceptable_share(&cost_fns[i], xi, global_cost);
                    if let Some(caps) = caps {
                        target = target.min(caps[i]).max(xi);
                    }
                    let gain = alpha * (target - xi);
                    debug_assert!(gain >= -1e-12, "x'_{{i,t}} >= x_{{i,t}} must hold (Lemma 1 ii)");
                    *g = gain.max(0.0);
                }
            };
            match chunk {
                None => fill(0, &mut self.gains),
                Some(c) => {
                    let payloads: Vec<(usize, &mut [f64])> =
                        self.gains.chunks_mut(c).enumerate().map(|(k, ch)| (k * c, ch)).collect();
                    parallel_for_each(payloads, |(base, ch)| fill(base, ch));
                }
            }
        }

        let total_gain = sum_fixed(&self.gains, chunk);
        let pinned = self.guard_and_pin(s, total_gain, chunk);
        // Pass B — apply the gains and the pinned straggler share. Pure
        // per worker (`gains[s] = 0`, then the straggler is overwritten).
        let xs = self.x.shares_mut();
        apply_gains(xs, &self.gains, chunk);
        xs[s] = pinned;
        self.refresh_total_if_due(chunk);
        self.root.tighten(pinned);
    }

    /// The eq. (6) remainder through [`RootEngine`]: the feasibility
    /// guard (rescaling `self.gains` and re-deriving the remainder when
    /// it fires) and the O(1) Σx = 1 pin. `self.gains` must hold the
    /// round's gains with `gains[s] = 0` and `total_gain` their
    /// fixed-shape sum. Returns the straggler's pinned share.
    pub(crate) fn guard_and_pin(
        &mut self,
        s: usize,
        mut total_gain: f64,
        chunk: Option<usize>,
    ) -> f64 {
        let straggler_share = self.x.share(s);
        if let Some(scale) = self.root.guard_scale(straggler_share, total_gain) {
            scale_gains(&mut self.gains, scale, chunk);
            total_gain = sum_fixed(&self.gains, chunk);
        }
        self.root.pin(straggler_share, total_gain)
    }

    /// On a refresh round, re-derives the running Σx total from the
    /// (materialized) share slice.
    pub(crate) fn refresh_total_if_due(&mut self, chunk: Option<usize>) {
        if self.root.needs_total_refresh() {
            self.root.refresh_total(sum_fixed(self.x.as_slice(), chunk));
        }
    }
}

/// DOLBIE with chunked intra-round parallelism for large worker counts.
///
/// Behaviourally identical to [`Dolbie`](crate::Dolbie) — same trajectory,
/// bit for bit, at any chunk size and any
/// [`set_threads`](crate::parallel::set_threads) setting — but each round's
/// linear passes (eq. (5) inverses, gain application) run in fixed-size
/// worker chunks on the work-stealing harness, and the reductions use the
/// parallel fixed-shape compensated sum. Pair it with
/// [`Observation::from_costs_chunked`] to also parallelize the cost
/// evaluation and the straggler argmax.
///
/// # Examples
///
/// ```
/// use dolbie_core::{ChunkedDolbie, Dolbie, LoadBalancer, Observation};
/// use dolbie_core::cost::{DynCost, LinearCost};
///
/// let costs: Vec<DynCost> = (0..64)
///     .map(|i| Box::new(LinearCost::new(1.0 + (i % 5) as f64, 0.0)) as DynCost)
///     .collect();
/// let mut sequential = Dolbie::new(64);
/// let mut chunked = ChunkedDolbie::new(64).with_chunk_size(7);
/// for t in 0..50 {
///     let played = sequential.allocation().clone();
///     let obs = Observation::from_costs(t, &played, &costs);
///     sequential.observe(&obs);
///     let played = chunked.allocation().clone();
///     let obs = Observation::from_costs_chunked(t, &played, &costs, Vec::new(), 7);
///     chunked.observe(&obs);
/// }
/// for i in 0..64 {
///     assert_eq!(
///         sequential.allocation().share(i).to_bits(),
///         chunked.allocation().share(i).to_bits(),
///     );
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ChunkedDolbie {
    engine: SoaEngine,
    chunk_size: usize,
}

impl ChunkedDolbie {
    /// Creates the chunked engine over `n` workers with the uniform
    /// initial split, the default configuration and
    /// [`DEFAULT_CHUNK_SIZE`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        Self::with_config(Allocation::uniform(n), DolbieConfig::new())
    }

    /// Creates the chunked engine from an arbitrary feasible initial
    /// partition and a configuration.
    pub fn with_config(initial: Allocation, config: DolbieConfig) -> Self {
        Self { engine: SoaEngine::new(initial, config), chunk_size: DEFAULT_CHUNK_SIZE }
    }

    /// Sets the worker-chunk size (clamped to at least 1). Any value
    /// produces the same trajectory; it only tunes scheduling granularity.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Adds per-worker share caps, exactly as
    /// [`Dolbie::with_share_caps`](crate::Dolbie::with_share_caps).
    ///
    /// # Panics
    ///
    /// As [`Dolbie::with_share_caps`](crate::Dolbie::with_share_caps).
    pub fn with_share_caps(mut self, caps: Vec<f64>) -> Self {
        self.engine.set_share_caps(caps);
        self
    }

    /// The configured worker-chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// The current step size `α_t`.
    pub fn alpha(&self) -> f64 {
        self.engine.root.alpha()
    }

    /// Crosses a membership epoch boundary, exactly as
    /// [`Dolbie::apply_membership`](crate::Dolbie::apply_membership) —
    /// the chunked engine transitions bitwise-identically to the
    /// sequential one.
    ///
    /// # Panics
    ///
    /// As [`Dolbie::apply_membership`](crate::Dolbie::apply_membership).
    pub fn apply_membership(&mut self, members: &[bool]) {
        self.engine.apply_membership(members);
    }

    /// The step sizes actually applied in each observed round.
    pub fn alphas_used(&self) -> &[f64] {
        self.engine.root.alphas_used()
    }

    /// Update counters.
    pub fn stats(&self) -> DolbieStats {
        self.engine.root.stats()
    }
}

impl LoadBalancer for ChunkedDolbie {
    fn name(&self) -> &str {
        "DOLBIE"
    }

    fn allocation(&self) -> &Allocation {
        self.engine.allocation()
    }

    fn observe(&mut self, observation: &Observation<'_>) {
        let chunk = self.chunk_size;
        self.engine.observe_round(observation, Some(chunk));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{DynCost, LatencyCost, LinearCost};
    use crate::parallel::set_threads;

    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Heterogeneous-latency fleet: speeds from a seeded hash.
    fn latency_fleet(n: usize, seed: u64) -> Vec<DynCost> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                let speed = 64.0 + 448.0 * splitmix(&mut state);
                Box::new(LatencyCost::new(256.0, speed, 0.05)) as DynCost
            })
            .collect()
    }

    /// Tie-heavy fleet: only 3 distinct slopes across n workers, so the
    /// straggler argmax faces massive ties every round and must resolve
    /// them to the lowest index.
    fn tie_heavy_fleet(n: usize) -> Vec<DynCost> {
        (0..n)
            .map(|i| {
                let slope = [3.0, 3.0, 1.0][i % 3];
                Box::new(LinearCost::new(slope, 0.1)) as DynCost
            })
            .collect()
    }

    struct Trajectory {
        share_bits: Vec<Vec<u64>>,
        stragglers: Vec<usize>,
        alpha_bits: Vec<u64>,
    }

    fn run_sequential(costs: &[DynCost], rounds: usize) -> Trajectory {
        let mut d = Dolbie::new(costs.len());
        let mut t =
            Trajectory { share_bits: Vec::new(), stragglers: Vec::new(), alpha_bits: Vec::new() };
        for round in 0..rounds {
            let played = d.allocation().clone();
            let obs = Observation::from_costs(round, &played, costs);
            t.stragglers.push(obs.straggler());
            d.observe(&obs);
            t.share_bits.push(d.allocation().iter().map(|v| v.to_bits()).collect());
        }
        t.alpha_bits = d.alphas_used().iter().map(|a| a.to_bits()).collect();
        t
    }

    fn run_chunked(costs: &[DynCost], rounds: usize, chunk: usize) -> Trajectory {
        let mut d = ChunkedDolbie::new(costs.len()).with_chunk_size(chunk);
        let mut t =
            Trajectory { share_bits: Vec::new(), stragglers: Vec::new(), alpha_bits: Vec::new() };
        let mut scratch = Vec::new();
        for round in 0..rounds {
            let played = d.allocation().clone();
            let obs = Observation::from_costs_chunked(round, &played, costs, scratch, chunk);
            t.stragglers.push(obs.straggler());
            d.observe(&obs);
            t.share_bits.push(d.allocation().iter().map(|v| v.to_bits()).collect());
            scratch = obs.into_local_costs();
        }
        t.alpha_bits = d.alphas_used().iter().map(|a| a.to_bits()).collect();
        t
    }

    use crate::Dolbie;

    /// The tentpole determinism claim: shares, straggler ids and the α
    /// schedule are byte-identical between the chunked SoA engine and the
    /// sequential `Dolbie` across chunk sizes {1, 7, 64, N} and threads
    /// {1, 4}, including tie-heavy cost streams.
    #[test]
    fn chunked_engine_is_bitwise_identical_to_sequential() {
        let n = 97; // Prime: every chunk size leaves a ragged tail.
        let rounds = 60;
        for costs in [latency_fleet(n, 11), tie_heavy_fleet(n)] {
            let reference = run_sequential(&costs, rounds);
            for chunk in [1usize, 7, 64, n] {
                for threads in [1usize, 4] {
                    set_threads(threads);
                    let got = run_chunked(&costs, rounds, chunk);
                    set_threads(0);
                    assert_eq!(
                        got.stragglers, reference.stragglers,
                        "straggler ids diverged (chunk {chunk}, threads {threads})"
                    );
                    assert_eq!(
                        got.alpha_bits, reference.alpha_bits,
                        "alpha schedule diverged (chunk {chunk}, threads {threads})"
                    );
                    assert_eq!(
                        got.share_bits, reference.share_bits,
                        "shares diverged (chunk {chunk}, threads {threads})"
                    );
                }
            }
        }
    }

    #[test]
    fn chunked_engine_respects_share_caps_bitwise() {
        let n = 31;
        let rounds = 40;
        let costs = latency_fleet(n, 5);
        let caps: Vec<f64> = (0..n).map(|i| if i % 4 == 0 { 0.08 } else { 1.0 }).collect();
        let mut sequential = Dolbie::new(n).with_share_caps(caps.clone());
        let mut chunked = ChunkedDolbie::new(n).with_chunk_size(7).with_share_caps(caps);
        for round in 0..rounds {
            let played = sequential.allocation().clone();
            let obs = Observation::from_costs(round, &played, &costs);
            sequential.observe(&obs);
            let played = chunked.allocation().clone();
            let obs = Observation::from_costs_chunked(round, &played, &costs, Vec::new(), 7);
            chunked.observe(&obs);
        }
        for i in 0..n {
            assert_eq!(
                sequential.allocation().share(i).to_bits(),
                chunked.allocation().share(i).to_bits(),
                "worker {i}"
            );
        }
        assert_eq!(sequential.stats(), chunked.stats());
    }

    /// Membership epochs preserve the chunked/sequential bitwise
    /// equivalence: a leave (worker 3), a crash-style leave (worker 0)
    /// and a rejoin (worker 3) produce identical shares and α schedules
    /// at every chunk size and thread count, with the Σx = 1 pin intact.
    #[test]
    fn chunked_engine_matches_sequential_bitwise_through_churn() {
        let n = 41;
        let rounds = 90;
        let costs = latency_fleet(n, 29);
        let boundary = |t: usize| -> Option<Vec<bool>> {
            match t {
                20 => Some((0..n).map(|i| i != 3).collect()),
                35 => Some((0..n).map(|i| i != 3 && i != 0).collect()),
                60 => Some((0..n).map(|i| i != 0).collect()),
                _ => None,
            }
        };
        let mut members = vec![true; n];
        let mut sequential = Dolbie::new(n);
        let mut reference =
            Trajectory { share_bits: Vec::new(), stragglers: Vec::new(), alpha_bits: Vec::new() };
        for t in 0..rounds {
            if let Some(m) = boundary(t) {
                members = m;
                sequential.apply_membership(&members);
            }
            let played = sequential.allocation().clone();
            let obs = Observation::from_costs_masked(t, &played, &costs, &members, Vec::new());
            reference.stragglers.push(obs.straggler());
            sequential.observe(&obs);
            reference
                .share_bits
                .push(sequential.allocation().iter().map(|v| v.to_bits()).collect());
        }
        reference.alpha_bits = sequential.alphas_used().iter().map(|a| a.to_bits()).collect();
        let sum = pairwise_neumaier_sum(sequential.allocation().as_slice());
        assert!((sum - 1.0).abs() < 1e-12, "|Σx − 1| = {:e}", (sum - 1.0).abs());
        // Worker 3 rejoined at round 60 and must have grown from zero.
        assert!(sequential.allocation().share(3) > 0.0, "rejoined worker never regained work");
        assert_eq!(sequential.allocation().share(0), 0.0, "departed worker holds share");

        for chunk in [1usize, 7, n] {
            for threads in [1usize, 4] {
                set_threads(threads);
                let mut members = vec![true; n];
                let mut d = ChunkedDolbie::new(n).with_chunk_size(chunk);
                let mut got = Trajectory {
                    share_bits: Vec::new(),
                    stragglers: Vec::new(),
                    alpha_bits: Vec::new(),
                };
                for t in 0..rounds {
                    if let Some(m) = boundary(t) {
                        members = m;
                        d.apply_membership(&members);
                    }
                    let played = d.allocation().clone();
                    let obs =
                        Observation::from_costs_masked(t, &played, &costs, &members, Vec::new());
                    got.stragglers.push(obs.straggler());
                    d.observe(&obs);
                    got.share_bits.push(d.allocation().iter().map(|v| v.to_bits()).collect());
                }
                got.alpha_bits = d.alphas_used().iter().map(|a| a.to_bits()).collect();
                set_threads(0);
                assert_eq!(got.stragglers, reference.stragglers, "chunk {chunk}, {threads} thr");
                assert_eq!(got.alpha_bits, reference.alpha_bits, "chunk {chunk}, {threads} thr");
                assert_eq!(got.share_bits, reference.share_bits, "chunk {chunk}, {threads} thr");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not supported together with share caps")]
    fn membership_with_share_caps_is_rejected() {
        let mut d = ChunkedDolbie::new(4).with_share_caps(vec![1.0; 4]);
        d.apply_membership(&[true, true, true, false]);
    }

    #[test]
    fn incremental_pin_keeps_the_sum_exact_in_debug_sizes() {
        // Scaled-down version of the release property below: well past
        // several TOTAL_REFRESH_INTERVALs so both the incremental path and
        // the refresh path are exercised.
        let n = 1000;
        let costs = latency_fleet(n, 23);
        let mut d = Dolbie::new(n);
        let mut scratch = Vec::new();
        for round in 0..(4 * TOTAL_REFRESH_INTERVAL + 17) {
            let played = d.allocation().clone();
            let obs = Observation::from_costs_in(round, &played, &costs, scratch);
            d.observe(&obs);
            scratch = obs.into_local_costs();
        }
        let sum = pairwise_neumaier_sum(d.allocation().as_slice());
        assert!((sum - 1.0).abs() < 1e-12, "|Σx − 1| = {:e}", (sum - 1.0).abs());
        assert!(d.allocation().iter().all(|&v| v >= 0.0));
    }

    /// The satellite acceptance property at full scale: |Σx − 1| < 1e-12
    /// after 10^4 rounds at N = 10^5. Ignored by default (release-only
    /// runtime); `scripts/tier1.sh` runs it with `--release -- --ignored`.
    #[test]
    #[ignore = "release-scale: run via scripts/tier1.sh"]
    fn sum_stays_pinned_after_1e4_rounds_at_1e5_workers() {
        let n = 100_000;
        let rounds = 10_000;
        let costs = latency_fleet(n, 42);
        let mut d = ChunkedDolbie::new(n);
        let summary = crate::runner::run_episode_with_static_costs(
            &mut d,
            &costs,
            rounds,
            Some(DEFAULT_CHUNK_SIZE),
        );
        assert_eq!(summary.rounds, rounds);
        let sum = pairwise_neumaier_sum(d.allocation().as_slice());
        assert!((sum - 1.0).abs() < 1e-12, "|Σx − 1| = {:e}", (sum - 1.0).abs());
        assert!(d.allocation().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn chunk_size_accessors_and_clamping() {
        let d = ChunkedDolbie::new(8);
        assert_eq!(d.chunk_size(), DEFAULT_CHUNK_SIZE);
        assert_eq!(d.name(), "DOLBIE");
        let d = d.with_chunk_size(0);
        assert_eq!(d.chunk_size(), 1, "chunk size clamps to at least 1");
    }

    #[test]
    fn single_worker_round_is_a_fixed_point() {
        let mut d = ChunkedDolbie::new(1);
        let costs: Vec<DynCost> = vec![Box::new(LinearCost::new(2.0, 0.0))];
        for round in 0..5 {
            let played = d.allocation().clone();
            let obs = Observation::from_costs_chunked(round, &played, &costs, Vec::new(), 1);
            d.observe(&obs);
            assert_eq!(d.allocation().share(0), 1.0);
        }
        assert_eq!(d.stats().rounds, 5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::cost::{DynCost, LatencyCost};
    use crate::Dolbie;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The incremental Σx = 1 pin holds across random heterogeneous
        /// fleets and horizons spanning several refresh intervals.
        #[test]
        fn sum_pin_property(
            n in 2usize..400,
            rounds in 1usize..600,
            seed in 0u64..u64::MAX,
        ) {
            let mut state = seed;
            let costs: Vec<DynCost> = (0..n).map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let speed = 32.0 + (state >> 40) as f64 / 65536.0;
                Box::new(LatencyCost::new(128.0, speed, 0.02)) as DynCost
            }).collect();
            let mut d = Dolbie::new(n);
            let mut scratch = Vec::new();
            for round in 0..rounds {
                let played = d.allocation().clone();
                let obs = crate::Observation::from_costs_in(round, &played, &costs, scratch);
                d.observe(&obs);
                scratch = obs.into_local_costs();
            }
            let sum = crate::numeric::pairwise_neumaier_sum(d.allocation().as_slice());
            prop_assert!((sum - 1.0).abs() < 1e-12, "|Σx − 1| = {:e}", (sum - 1.0).abs());
            prop_assert!(d.allocation().iter().all(|&v| v >= 0.0));
        }
    }
}
