//! The two-level (sharded) control plane: shard-local DOLBIE steps under
//! a root coordinator that works over *shard aggregates*.
//!
//! One master fanning in N workers is the scalability wall of every
//! runtime in this repo — at the million-worker north star the
//! coordinator's per-round work and connection count both scale with N.
//! This module decomposes the round so that a **root** coordinator only
//! ever touches M shard-level quantities, while each of the M
//! **shard-masters** runs the per-worker work (cost observation, eq. (5)
//! gains, share application) over its contiguous slice of N/M workers:
//!
//! ```text
//!                    root (O(M) work / round)
//!          ┌───────────┼───────────┐
//!      shard 0      shard 1  …  shard M−1     (per-round straggler +
//!      workers      workers     workers        eq. (5) over N/M each)
//!      [0, n₀)      [n₀, n₁)    [n_{M−1}, N)
//! ```
//!
//! Per round the dataflow is:
//!
//! 1. each shard reports its **straggler candidate** `(max cost, lowest
//!    global index, share)` — combined in shard order with a strict `>`
//!    these reproduce the flat ascending argmax *exactly* (comparison is
//!    exact; no rounding is involved);
//! 2. the root broadcasts `(s_t, l_t, α_t)`; each shard computes its
//!    workers' eq. (5) gains (pure per worker, hence bitwise);
//! 3. the eq. (6) remainder `Σ gains` is computed by **chaining a
//!    [`SumCursor`] through the shards in index order** — the root hands
//!    the O(log N) cursor state to shard 0, shard 0 folds its contiguous
//!    gains slice and hands it back, and so on — reproducing the
//!    fixed-shape compensated sum of the flat engine bit for bit;
//! 4. the root runs the engine's order-sensitive tail (feasibility guard,
//!    Σx = 1 pin, eq. (7) tightening) on those scalars via
//!    [`RootEngine`], and broadcasts the commit.
//!
//! Because every global floating-point reduction goes through either the
//! exact argmax or the chained cursor, the sharded trajectory is
//! **bitwise identical** to the flat sequential [`Dolbie`](crate::Dolbie)
//! at every N and M — there is no 1e-12 concession anywhere in the shard
//! tier. Membership epochs are the one O(N)-at-the-root event: shards
//! ship their share slices up, the root replays the flat
//! [`renormalize_onto_members`] (so departing mass — including a shard
//! losing *all* its workers — drains into the survivors exactly as the
//! flat engine would), and ships the slices back. Epochs are rare;
//! rounds are the steady state.
//!
//! [`ShardedDolbie`] executes this dataflow in-process as the reference
//! implementation and parity oracle; `dolbie-simnet` replays it as a
//! message-passing simulation and `dolbie-net` as real TCP processes.

use crate::allocation::Allocation;
use crate::cost::DynCost;
use crate::dolbie::{DolbieConfig, DolbieStats};
use crate::engine::TOTAL_REFRESH_INTERVAL;
use crate::membership::{membership_alpha_cap, renormalize_onto_members};
use crate::numeric::{pairwise_neumaier_sum, NeumaierSum, SumCursor};
use crate::observation::max_acceptable_share;
use crate::step_size::StepSize;

/// A contiguous partition of workers `0..n` into `m` shards.
///
/// Shard `k` owns the half-open range [`range(k)`](Self::range); ranges
/// are ascending and cover `0..n` exactly, so chaining any per-worker
/// array through the shards in index order visits it in flat order — the
/// property the cursor chain and the exact argmax both rely on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLayout {
    /// `m + 1` ascending range bounds; `starts[0] = 0`, `starts[m] = n`.
    starts: Vec<usize>,
}

impl ShardLayout {
    /// Splits `n` workers into `m` near-even contiguous shards (the first
    /// `n % m` shards get one extra worker).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `m > n`.
    pub fn even(n: usize, m: usize) -> Self {
        assert!(m >= 1, "at least one shard");
        assert!(m <= n, "more shards ({m}) than workers ({n})");
        let base = n / m;
        let extra = n % m;
        let mut starts = Vec::with_capacity(m + 1);
        let mut at = 0;
        starts.push(0);
        for k in 0..m {
            at += base + usize::from(k < extra);
            starts.push(at);
        }
        Self { starts }
    }

    /// Number of shards `M`.
    pub fn num_shards(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total worker count `N`.
    pub fn num_workers(&self) -> usize {
        *self.starts.last().expect("layout has at least one bound")
    }

    /// The half-open worker range owned by shard `k`.
    pub fn range(&self, k: usize) -> std::ops::Range<usize> {
        self.starts[k]..self.starts[k + 1]
    }

    /// The shard owning worker `i`.
    pub fn shard_of(&self, i: usize) -> usize {
        debug_assert!(i < self.num_workers());
        // partition_point returns the count of bounds <= i among starts[1..].
        self.starts[1..].partition_point(|&b| b <= i)
    }
}

/// One shard's straggler candidate: its worst active worker this round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardCandidate {
    /// The candidate's local cost (the shard-local max).
    pub cost: f64,
    /// The candidate's *global* worker index.
    pub worker: usize,
    /// The candidate's current share — shipped up so the root learns
    /// `x_{s,t}` in the same message that elects the straggler.
    pub share: f64,
}

/// Combines per-shard candidates in shard order with a strict `>`.
///
/// Ranges are ascending and each candidate is its shard's lowest-index
/// first-maximum, so this reproduces the flat sequential ascending argmax
/// (lowest global index on ties) exactly. `None` candidates (shards with
/// no active member) are skipped; the result is `None` only if every
/// shard is empty.
pub fn combine_candidates<I>(candidates: I) -> Option<ShardCandidate>
where
    I: IntoIterator<Item = Option<ShardCandidate>>,
{
    let mut best: Option<ShardCandidate> = None;
    for candidate in candidates.into_iter().flatten() {
        match best {
            None => best = Some(candidate),
            Some(b) if candidate.cost > b.cost => best = Some(candidate),
            Some(_) => {}
        }
    }
    best
}

/// The shard-local straggler scan: lowest-index first-maximum over the
/// active members of `range`, with each worker's cost evaluated at its
/// current share (exactly the flat observation's per-worker evaluation).
pub fn shard_candidate(
    range: std::ops::Range<usize>,
    shares: &[f64],
    active: &[bool],
    costs: &[DynCost],
) -> Option<ShardCandidate> {
    let mut best: Option<ShardCandidate> = None;
    for i in range {
        if !active[i] {
            continue;
        }
        let cost = costs[i].eval(shares[i]);
        match best {
            None => best = Some(ShardCandidate { cost, worker: i, share: shares[i] }),
            Some(b) if cost > b.cost => {
                best = Some(ShardCandidate { cost, worker: i, share: shares[i] })
            }
            Some(_) => {}
        }
    }
    best
}

/// The order-sensitive tail of a DOLBIE round — the one implementation
/// of it: the feasibility guard, the Σx = 1 pin, the periodic Σx refresh
/// and the eq. (7) tighten, plus the round counter, the α record and the
/// membership bookkeeping that schedule them.
///
/// Every engine drives it: the flat [`Dolbie`](crate::Dolbie),
/// [`ChunkedDolbie`](crate::ChunkedDolbie) and
/// [`FusedDolbie`](crate::kernel::FusedDolbie) hold one as their M = 1
/// root, [`ShardedDolbie`] drives it over shard aggregates, and the
/// `dolbie-net` root drives it over the backbone. One implementation is
/// what makes their trajectories agree bit for bit.
///
/// The root holds O(1) state (step size, running Σx total, counters); it
/// never sees a per-worker array. Callers drive one round as:
///
/// 1. [`begin_round`](Self::begin_round) → `α_t` to broadcast;
/// 2. sum the gains (across shards: chain the gains cursor), then
///    [`guard_scale`](Self::guard_scale); on `Some(scale)` rescale the
///    gains and re-sum;
/// 3. [`pin`](Self::pin) → the straggler's new share to commit;
/// 4. after the gains and the pin are applied: if
///    [`needs_total_refresh`](Self::needs_total_refresh), sum the
///    *shares* and call [`refresh_total`](Self::refresh_total);
/// 5. [`tighten`](Self::tighten).
///
/// Skipping or reordering a step forfeits bitwise parity with the other
/// callers.
#[derive(Debug, Clone)]
pub struct RootEngine {
    alpha: StepSize,
    alpha_floor: f64,
    alphas_used: Vec<f64>,
    stats: DolbieStats,
    active_count: usize,
    num_workers: usize,
    /// Running compensated total `T ≈ Σ_i x_i` behind the O(1) pin —
    /// the same bookkeeping the flat engine keeps.
    total: NeumaierSum,
}

impl RootEngine {
    /// A root over `initial` shares with `config`: the resolved `α_1`
    /// and the running total seeded from the fixed-shape share sum.
    pub fn new(initial: &Allocation, config: DolbieConfig) -> Self {
        Self {
            alpha: StepSize::new(config.resolve_initial_alpha(initial)),
            alpha_floor: config.alpha_floor,
            alphas_used: Vec::new(),
            stats: DolbieStats::default(),
            active_count: initial.num_workers(),
            num_workers: initial.num_workers(),
            total: NeumaierSum::from_value(pairwise_neumaier_sum(initial.as_slice())),
        }
    }

    /// The current step size `α_t` (floor applied).
    pub fn alpha(&self) -> f64 {
        self.alpha.value().max(self.alpha_floor)
    }

    /// Bumps the round counter and records the step size the round is
    /// played with; returns that `α_t`.
    pub fn begin_round(&mut self) -> f64 {
        self.stats.rounds += 1;
        let alpha = self.alpha();
        self.alphas_used.push(alpha);
        alpha
    }

    /// Unwinds [`begin_round`](Self::begin_round) for a round attempt
    /// abandoned before [`pin`](Self::pin) — a crash mid-round restarts
    /// the round under a new membership epoch, and the aborted attempt
    /// must leave no trace in the round counter (which drives the
    /// Σx-refresh schedule), the recorded α schedule, or the guard
    /// statistics. Pass `guard_fired = true` iff the aborted attempt had
    /// already taken `Some(scale)` from [`guard_scale`](Self::guard_scale).
    ///
    /// `begin_round → abort_round` is a bitwise no-op: the replayed round
    /// observes the same α and the same refresh schedule as if the
    /// attempt had never started.
    pub fn abort_round(&mut self, guard_fired: bool) {
        debug_assert!(self.stats.rounds > 0, "no round in progress to abort");
        self.stats.rounds -= 1;
        self.alphas_used.pop();
        if guard_fired {
            debug_assert!(self.stats.guard_activations > 0);
            self.stats.guard_activations -= 1;
        }
    }

    /// The floating-point feasibility guard on the chained remainder:
    /// returns `Some(scale)` iff the shards must rescale their gains (and
    /// the caller must re-chain the cursor before [`pin`](Self::pin)).
    pub fn guard_scale(&mut self, straggler_share: f64, total_gain: f64) -> Option<f64> {
        if total_gain > straggler_share && total_gain > 0.0 {
            self.stats.guard_activations += 1;
            Some(straggler_share / total_gain)
        } else {
            None
        }
    }

    /// The O(1) Σx = 1 pin: `x_s ← 1 − ((T − x_s) + Σ gains)`, all
    /// compensated, updating the running total exactly as the flat engine
    /// does. Returns the straggler's pinned new share.
    pub fn pin(&mut self, straggler_share: f64, total_gain: f64) -> f64 {
        let mut running = self.total;
        running.add(-straggler_share);
        running.add(total_gain);
        let new_straggler_share = (1.0 - running.value()).max(0.0);
        debug_assert!(new_straggler_share.is_finite(), "pin produced a non-finite share");
        running.add(new_straggler_share);
        self.total = running;
        new_straggler_share
    }

    /// Whether this round is a Σx-refresh round (every
    /// [`TOTAL_REFRESH_INTERVAL`] rounds, same schedule as the flat
    /// engine) — if so, chain a cursor over the share slices and call
    /// [`refresh_total`](Self::refresh_total).
    pub fn needs_total_refresh(&self) -> bool {
        self.stats.rounds.is_multiple_of(TOTAL_REFRESH_INTERVAL)
    }

    /// Re-seeds the running total from the chained fixed-shape share sum.
    pub fn refresh_total(&mut self, share_sum: f64) {
        self.total = NeumaierSum::from_value(share_sum);
    }

    /// Eq. (7): tightens `α` with the straggler's pinned share against
    /// the active member count.
    pub fn tighten(&mut self, new_straggler_share: f64) {
        self.alpha.tighten(self.active_count, new_straggler_share);
    }

    /// Crosses a membership epoch boundary over the full share vector —
    /// the one O(N) root event: proportional re-normalization onto the
    /// survivors (an emptied shard's mass drains into its siblings),
    /// re-seeded total, `α` shrunk to the cap re-derived against the new
    /// member count.
    ///
    /// # Panics
    ///
    /// As `renormalize_onto_members`: length mismatch or no survivor.
    pub fn apply_membership(&mut self, shares: &mut [f64], members: &[bool]) {
        assert_eq!(shares.len(), self.num_workers, "one share per worker");
        renormalize_onto_members(shares, members);
        self.active_count = members.iter().filter(|&&m| m).count();
        self.total = NeumaierSum::from_value(pairwise_neumaier_sum(shares));
        self.alpha.shrink_to(membership_alpha_cap(shares, members));
    }

    /// Rounds observed and guard activations.
    pub fn stats(&self) -> DolbieStats {
        self.stats
    }

    /// The step sizes actually applied each round.
    pub fn alphas_used(&self) -> &[f64] {
        &self.alphas_used
    }

    /// Active member count (the eq. (7) `M`).
    pub fn active_count(&self) -> usize {
        self.active_count
    }

    /// Total fleet size `N`.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }
}

/// What a sharded round commits — the scalars the root broadcasts to
/// close the round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedRound {
    /// The elected global straggler.
    pub straggler: usize,
    /// The round's global cost `l_t` (the straggler's local cost).
    pub global_cost: f64,
    /// The straggler's pinned new share.
    pub straggler_share: f64,
    /// `Some(scale)` iff the feasibility guard rescaled the gains.
    pub rescale: Option<f64>,
}

/// The in-process reference implementation of the two-level control
/// plane — the parity oracle `dolbie-simnet` and `dolbie-net` verify
/// against, and itself verified bitwise against the flat sequential
/// [`Dolbie`](crate::Dolbie) below.
///
/// Per-worker state lives in per-shard contiguous slices (exactly what a
/// shard-master process owns); the root side goes through [`RootEngine`]
/// and only ever sees shard aggregates and chained cursor states.
///
/// # Examples
///
/// ```
/// use dolbie_core::cost::{DynCost, LinearCost};
/// use dolbie_core::shard::ShardedDolbie;
/// use dolbie_core::{Dolbie, LoadBalancer, Observation};
///
/// let costs: Vec<DynCost> = (0..16)
///     .map(|i| Box::new(LinearCost::new(1.0 + (i % 5) as f64, 0.0)) as DynCost)
///     .collect();
/// let mut flat = Dolbie::new(16);
/// let mut sharded = ShardedDolbie::new(16, 4);
/// for round in 0..50 {
///     let played = flat.allocation().clone();
///     let obs = Observation::from_costs(round, &played, &costs);
///     flat.observe(&obs);
///     sharded.observe_costs(&costs);
/// }
/// for i in 0..16 {
///     assert_eq!(flat.allocation().share(i).to_bits(), sharded.shares()[i].to_bits());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ShardedDolbie {
    layout: ShardLayout,
    root: RootEngine,
    x: Vec<f64>,
    gains: Vec<f64>,
    active: Vec<bool>,
}

impl ShardedDolbie {
    /// `n` workers in `m` shards, uniform initial split, default config.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `m == 0`, or `m > n`.
    pub fn new(n: usize, m: usize) -> Self {
        Self::with_config(Allocation::uniform(n), m, DolbieConfig::new())
    }

    /// From an arbitrary feasible initial partition and configuration.
    pub fn with_config(initial: Allocation, m: usize, config: DolbieConfig) -> Self {
        let n = initial.num_workers();
        Self {
            layout: ShardLayout::even(n, m),
            root: RootEngine::new(&initial, config),
            x: initial.into_inner(),
            gains: vec![0.0; n],
            active: vec![true; n],
        }
    }

    /// The shard layout in force.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// The current full share vector (concatenated shard slices).
    pub fn shares(&self) -> &[f64] {
        &self.x
    }

    /// The current step size `α_t`.
    pub fn alpha(&self) -> f64 {
        self.root.alpha()
    }

    /// The step sizes actually applied each round.
    pub fn alphas_used(&self) -> &[f64] {
        self.root.alphas_used()
    }

    /// Update counters (shared semantics with [`Dolbie::stats`](crate::Dolbie::stats)).
    pub fn stats(&self) -> DolbieStats {
        self.root.stats()
    }

    /// One sharded round against per-worker cost functions, executing the
    /// module-level dataflow. Bitwise identical to
    /// `Dolbie::observe(&Observation::from_costs_masked(..))` on the same
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if `costs.len() != N` or no active member remains.
    pub fn observe_costs(&mut self, costs: &[DynCost]) -> ShardedRound {
        let n = self.x.len();
        assert_eq!(costs.len(), n, "one cost function per worker");
        let m = self.layout.num_shards();

        // (1) shard-local straggler candidates, combined in shard order.
        let elected = combine_candidates(
            (0..m).map(|k| shard_candidate(self.layout.range(k), &self.x, &self.active, costs)),
        )
        .expect("at least one active member");
        let (s, global_cost) = (elected.worker, elected.cost);

        let alpha = self.root.begin_round();
        if n == 1 {
            return ShardedRound {
                straggler: s,
                global_cost,
                straggler_share: self.x[0],
                rescale: None,
            };
        }

        // (2) shard-local eq. (5) gains — pure per worker.
        for k in 0..m {
            for i in self.layout.range(k) {
                self.gains[i] = if i == s || !self.active[i] {
                    0.0
                } else {
                    let xi = self.x[i];
                    let target = max_acceptable_share(&*costs[i], xi, global_cost);
                    (alpha * (target - xi)).max(0.0)
                };
            }
        }

        // (3) the eq. (6) remainder via the shard-chained cursor.
        let mut total_gain = self.chain_cursor(|this, k| &this.gains[this.layout.range(k)]);

        // (4) the root's order-sensitive tail.
        let straggler_share = elected.share;
        let rescale = self.root.guard_scale(straggler_share, total_gain);
        if let Some(scale) = rescale {
            for k in 0..m {
                for i in self.layout.range(k) {
                    self.gains[i] *= scale;
                }
            }
            total_gain = self.chain_cursor(|this, k| &this.gains[this.layout.range(k)]);
        }
        let new_straggler_share = self.root.pin(straggler_share, total_gain);

        // Commit: shards apply gains; the straggler's shard pins.
        for k in 0..m {
            for i in self.layout.range(k) {
                self.x[i] += self.gains[i];
            }
        }
        self.x[s] = new_straggler_share;

        if self.root.needs_total_refresh() {
            let sum = self.chain_cursor(|this, k| &this.x[this.layout.range(k)]);
            self.root.refresh_total(sum);
        }
        self.root.tighten(new_straggler_share);

        ShardedRound { straggler: s, global_cost, straggler_share: new_straggler_share, rescale }
    }

    /// Chains a [`SumCursor`] through the shards in index order,
    /// round-tripping the serialized state at each hop exactly as the
    /// wire protocol does.
    fn chain_cursor<'a, F>(&'a self, slice_of: F) -> f64
    where
        F: Fn(&'a Self, usize) -> &'a [f64],
    {
        let mut cursor = SumCursor::new();
        for k in 0..self.layout.num_shards() {
            let mut local = SumCursor::from_state(&cursor.state());
            local.extend(slice_of(self, k));
            cursor = SumCursor::from_state(&local.state());
        }
        cursor.value()
    }

    /// Crosses a membership epoch boundary: gathers the shard slices,
    /// replays the flat re-normalization at the root (an emptied shard's
    /// mass drains proportionally into its siblings), and scatters the
    /// slices back. Mirrors [`Dolbie::apply_membership`](crate::Dolbie::apply_membership)
    /// bitwise.
    ///
    /// # Panics
    ///
    /// Panics if `members.len() != N` or no worker remains a member.
    pub fn apply_membership(&mut self, members: &[bool]) {
        assert_eq!(members.len(), self.x.len(), "one membership flag per worker");
        self.root.apply_membership(&mut self.x, members);
        self.active.clear();
        self.active.extend_from_slice(members);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{DynCost, LatencyCost, LinearCost};
    use crate::observation::Observation;
    use crate::{Dolbie, LoadBalancer};

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

    /// Only 3 distinct slopes, so the straggler argmax faces constant
    /// ties and must keep resolving them to the lowest global index
    /// across shard boundaries.
    fn tie_heavy_fleet(n: usize) -> Vec<DynCost> {
        (0..n)
            .map(|i| {
                let slope = [3.0, 3.0, 1.0][i % 3];
                Box::new(LinearCost::new(slope, 0.1)) as DynCost
            })
            .collect()
    }

    #[test]
    fn layout_partitions_exactly_and_locates_workers() {
        for (n, m) in [(16, 1), (16, 4), (17, 4), (97, 7), (5, 5), (4096, 16)] {
            let layout = ShardLayout::even(n, m);
            assert_eq!(layout.num_shards(), m);
            assert_eq!(layout.num_workers(), n);
            let mut seen = 0;
            for k in 0..m {
                let r = layout.range(k);
                assert_eq!(r.start, seen, "ranges must be ascending and contiguous");
                seen = r.end;
                for i in r {
                    assert_eq!(layout.shard_of(i), k, "worker {i} (n={n}, m={m})");
                }
            }
            assert_eq!(seen, n);
            // Near-even: sizes differ by at most one.
            let sizes: Vec<usize> = (0..m).map(|k| layout.range(k).len()).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "sizes {sizes:?}");
        }
    }

    #[test]
    #[should_panic(expected = "more shards")]
    fn layout_rejects_more_shards_than_workers() {
        let _ = ShardLayout::even(3, 4);
    }

    #[test]
    fn candidate_combine_resolves_ties_to_lowest_global_index() {
        let mk = |cost, worker| Some(ShardCandidate { cost, worker, share: 0.1 });
        let best = combine_candidates([mk(2.0, 3), None, mk(2.0, 9), mk(1.0, 12)]);
        assert_eq!(best.unwrap().worker, 3, "strict > keeps the first maximum");
        assert_eq!(combine_candidates([None, None]), None);
    }

    /// The tentpole parity claim at the core layer: shares, stragglers,
    /// the α schedule and the stats are bitwise identical between the
    /// sharded dataflow and the flat sequential engine for every tested
    /// (N, M), through several Σx-refresh intervals, including tie-heavy
    /// streams whose argmax crosses shard boundaries.
    #[test]
    fn sharded_is_bitwise_identical_to_flat_sequential() {
        let rounds = 600; // crosses two TOTAL_REFRESH_INTERVALs
        for n in [16usize, 64, 97] {
            for fleet in [latency_fleet(n, 11), tie_heavy_fleet(n)] {
                let mut flat = Dolbie::new(n);
                let mut flat_stragglers = Vec::new();
                let mut flat_bits: Vec<Vec<u64>> = Vec::new();
                for t in 0..rounds {
                    let played = flat.allocation().clone();
                    let obs = Observation::from_costs(t, &played, &fleet);
                    flat_stragglers.push(obs.straggler());
                    flat.observe(&obs);
                    flat_bits.push(flat.allocation().iter().map(|v| v.to_bits()).collect());
                }
                for m in [1usize, 2, 3, 4, 7] {
                    let mut sharded = ShardedDolbie::new(n, m);
                    for t in 0..rounds {
                        let round = sharded.observe_costs(&fleet);
                        assert_eq!(
                            round.straggler, flat_stragglers[t],
                            "straggler diverged (n={n}, m={m}, t={t})"
                        );
                        let bits: Vec<u64> = sharded.shares().iter().map(|v| v.to_bits()).collect();
                        assert_eq!(bits, flat_bits[t], "shares diverged (n={n}, m={m}, t={t})");
                    }
                    assert_eq!(sharded.alphas_used(), flat.alphas_used(), "n={n}, m={m}");
                    assert_eq!(sharded.stats(), flat.stats(), "n={n}, m={m}");
                }
            }
        }
    }

    /// Membership epochs — including a shard losing all of its workers —
    /// preserve the bitwise parity with the flat engine.
    #[test]
    fn sharded_matches_flat_bitwise_through_churn_and_empty_shard() {
        let n = 24;
        let rounds = 80;
        let fleet = latency_fleet(n, 29);
        // m = 4 shards of 6; the boundary at t = 30 empties shard 1
        // entirely (workers 6..12), t = 55 brings two of them back.
        let boundary = |t: usize| -> Option<Vec<bool>> {
            match t {
                12 => Some((0..n).map(|i| i != 3).collect()),
                30 => Some((0..n).map(|i| i != 3 && !(6..12).contains(&i)).collect()),
                55 => Some((0..n).map(|i| i != 3 && !(8..12).contains(&i)).collect()),
                _ => None,
            }
        };

        let mut flat = Dolbie::new(n);
        let mut members = vec![true; n];
        let mut flat_bits: Vec<Vec<u64>> = Vec::new();
        for t in 0..rounds {
            if let Some(m) = boundary(t) {
                members = m;
                flat.apply_membership(&members);
            }
            let played = flat.allocation().clone();
            let obs = Observation::from_costs_masked(t, &played, &fleet, &members, Vec::new());
            flat.observe(&obs);
            flat_bits.push(flat.allocation().iter().map(|v| v.to_bits()).collect());
        }

        for m in [1usize, 2, 4] {
            let mut sharded = ShardedDolbie::new(n, m);
            let mut members = vec![true; n];
            for (t, flat_round) in flat_bits.iter().enumerate() {
                if let Some(mm) = boundary(t) {
                    members = mm;
                    sharded.apply_membership(&members);
                }
                sharded.observe_costs(&fleet);
                let bits: Vec<u64> = sharded.shares().iter().map(|v| v.to_bits()).collect();
                assert_eq!(&bits, flat_round, "m={m}, t={t}");
            }
            assert_eq!(sharded.alphas_used(), flat.alphas_used(), "m={m}");
            // Workers still out after the final boundary hold exactly zero.
            for i in 8..12 {
                assert_eq!(sharded.shares()[i], 0.0, "stranded share on {i}");
            }
        }
    }

    /// `begin_round → abort_round` leaves the root engine bitwise
    /// indistinguishable from one that never started the attempt — the
    /// property the net tier's crash→epoch round restart rests on.
    #[test]
    fn abort_round_unwinds_begin_round_bitwise() {
        let n = 12;
        let fleet = latency_fleet(n, 7);
        let mut clean = ShardedDolbie::new(n, 3);
        let mut aborted = ShardedDolbie::new(n, 3);
        for t in 0..300 {
            // The aborted twin opens (and sometimes guards) an attempt it
            // then abandons before every real round.
            let alpha = aborted.root.begin_round();
            let guard_fired = t % 5 == 0 && {
                // Force the guard arithmetic with a synthetic overshoot.
                aborted.root.guard_scale(0.25, 0.5 + alpha).is_some()
            };
            aborted.root.abort_round(guard_fired);

            clean.observe_costs(&fleet);
            aborted.observe_costs(&fleet);
            for i in 0..n {
                assert_eq!(
                    clean.shares()[i].to_bits(),
                    aborted.shares()[i].to_bits(),
                    "t={t}, i={i}"
                );
            }
        }
        assert_eq!(clean.alphas_used(), aborted.alphas_used());
        assert_eq!(clean.stats(), aborted.stats());
    }

    /// The guard-rescale path (forced by an aggressive α floor) stays
    /// bitwise through the double cursor chain.
    #[test]
    fn sharded_guard_rescale_stays_bitwise() {
        let n = 18;
        let cfg = DolbieConfig::new().with_initial_alpha(0.9).with_alpha_floor(0.9);
        let mut flat = Dolbie::with_config(Allocation::uniform(n), cfg);
        let mut sharded = ShardedDolbie::with_config(Allocation::uniform(n), 3, cfg);
        for t in 0..100 {
            let slow = t % n;
            let fleet: Vec<DynCost> = (0..n)
                .map(|i| {
                    let slope = if i == slow { 20.0 } else { 1.0 };
                    Box::new(LinearCost::new(slope, 0.0)) as DynCost
                })
                .collect();
            let played = flat.allocation().clone();
            let obs = Observation::from_costs(t, &played, &fleet);
            flat.observe(&obs);
            sharded.observe_costs(&fleet);
            for i in 0..n {
                assert_eq!(
                    flat.allocation().share(i).to_bits(),
                    sharded.shares()[i].to_bits(),
                    "t={t}, i={i}"
                );
            }
        }
        assert!(sharded.stats().guard_activations > 0, "the floor must trip the guard");
        assert_eq!(flat.stats(), sharded.stats());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::cost::{DynCost, LatencyCost};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The satellite acceptance property: cross-shard share
        /// redistribution conserves |Σx − 1| < 1e-12 across shard counts
        /// M ∈ {1, 2, 3, 7} and membership epochs — including a shard
        /// losing all of its workers, whose mass must drain into the
        /// sibling shards.
        #[test]
        fn redistribution_conserves_the_simplex_across_shard_counts(
            n in 8usize..40,
            m_pick in 0usize..4,
            seed in 0u64..u64::MAX,
            epochs in proptest::collection::vec((1usize..60, 0usize..40), 0..4),
            drain_pick in 0usize..14,
            rounds in 20usize..70,
        ) {
            let m = [1usize, 2, 3, 7][m_pick].min(n);
            let mut state = seed;
            let fleet: Vec<DynCost> = (0..n).map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let speed = 32.0 + (state >> 40) as f64 / 65536.0;
                Box::new(LatencyCost::new(128.0, speed, 0.02)) as DynCost
            }).collect();

            let mut sharded = ShardedDolbie::new(n, m);
            let mut members = vec![true; n];
            // Schedule: worker-level leaves plus (optionally) one epoch
            // that drains a whole shard into its siblings.
            let mut boundaries: Vec<(usize, Vec<bool>)> = Vec::new();
            for &(t, w) in &epochs {
                let mut next = members.clone();
                next[w % n] = false;
                if next.iter().any(|&x| x) {
                    members = next.clone();
                    boundaries.push((t, next));
                }
            }
            if drain_pick < 7 {
                let k = drain_pick % m;
                let range = sharded.layout().range(k);
                let mut next = members.clone();
                for i in range {
                    next[i] = false;
                }
                if next.iter().any(|&x| x) {
                    boundaries.push((rounds / 2, next));
                }
            }
            boundaries.sort_by_key(|(t, _)| *t);

            let mut current = vec![true; n];
            for t in 0..rounds {
                for (bt, mm) in &boundaries {
                    if *bt == t {
                        current = mm.clone();
                        sharded.apply_membership(&current);
                        let sum = pairwise_neumaier_sum(sharded.shares());
                        prop_assert!(
                            (sum - 1.0).abs() < 1e-12,
                            "epoch at t={t}: |Σx − 1| = {:e}", (sum - 1.0).abs()
                        );
                    }
                }
                sharded.observe_costs(&fleet);
                let sum = pairwise_neumaier_sum(sharded.shares());
                prop_assert!(
                    (sum - 1.0).abs() < 1e-12,
                    "round {t}: |Σx − 1| = {:e}", (sum - 1.0).abs()
                );
                prop_assert!(sharded.shares().iter().all(|&v| v >= 0.0));
                for (i, &is_member) in current.iter().enumerate() {
                    if !is_member {
                        prop_assert_eq!(sharded.shares()[i], 0.0, "stranded share on {}", i);
                    }
                }
            }
        }
    }
}
