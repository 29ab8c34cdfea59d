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
//!    [`SumCursor`](crate::numeric::SumCursor) through the shards in
//!    index order** — the root hands the O(log N) cursor state to shard
//!    0, shard 0 folds its contiguous gains slice and hands it back, and
//!    so on — reproducing the fixed-shape compensated sum of the flat
//!    engine bit for bit;
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
//! This module holds the pieces of that dataflow: the [`ShardLayout`],
//! the candidate election ([`combine_candidates`]) and the root's
//! [`RootEngine`]. `dolbie-net` runs them as real TCP processes, and its
//! parity tests pin the result bitwise against [`Dolbie`](crate::Dolbie),
//! the reference oracle.

use crate::allocation::Allocation;
use crate::dolbie::{DolbieConfig, DolbieStats};
use crate::engine::TOTAL_REFRESH_INTERVAL;
use crate::membership::{membership_alpha_cap, renormalize_onto_members};
use crate::numeric::{pairwise_neumaier_sum, NeumaierSum};
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

/// The order-sensitive tail of a DOLBIE round — the one implementation
/// of it: the feasibility guard, the Σx = 1 pin, the periodic Σx refresh
/// and the eq. (7) tighten, plus the round counter, the α record and the
/// membership bookkeeping that schedule them.
///
/// Every engine drives it: the flat [`Dolbie`](crate::Dolbie) and
/// [`FusedDolbie`](crate::kernel::FusedDolbie) hold one as their M = 1
/// root, and the `dolbie-net` root drives it over shard aggregates on the
/// backbone. One implementation is what makes their trajectories agree
/// bit for bit.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
