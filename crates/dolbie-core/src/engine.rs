//! The structure-of-arrays DOLBIE round engine.
//!
//! One implementation of the per-round update (eqs. (5)–(7)) behind both
//! round engines: [`Dolbie`](crate::Dolbie) runs it as sequential passes
//! over an [`Observation`], and [`FusedDolbie`](crate::kernel::FusedDolbie)
//! drives the same state through its fused sweeps. The round state lives
//! in flat `f64` slices (`shares` inside the [`Allocation`], a reused
//! `gains` scratch), so a round is a handful of linear passes instead of
//! an allocate-validate-renormalize cycle — the property that makes
//! N = 10^6 workers tractable.
//!
//! # Why both engines produce the same bits
//!
//! - Per-worker quantities (gains, share increments) are pure functions of
//!   the worker's own state, so it cannot matter in which pass or lane
//!   they are computed.
//! - Every order-sensitive floating-point reduction — the eq. (6)
//!   remainder `Σ_i gain_i` and the Σx = 1 bookkeeping — goes through the
//!   fixed-shape compensated sum in [`numeric`](crate::numeric), whose
//!   association order depends only on the array length.
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
use crate::dolbie::DolbieConfig;
use crate::numeric::pairwise_neumaier_sum;
use crate::observation::{max_acceptable_share, Observation};
use crate::shard::RootEngine;

/// Rounds between full re-derivations of the running compensated total
/// `T ≈ Σ_i x_i` from the share slice. Every engine refreshes on the same
/// round indices with the same fixed-shape sum, so the schedule does not
/// break bitwise equivalence.
pub const TOTAL_REFRESH_INTERVAL: usize = 256;

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
    /// Sized by the first [`observe_round`](Self::observe_round), their
    /// only user: the fused kernel keeps each group's gains in an L1
    /// scratch and never allocates them.
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
            gains: Vec::new(),
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
    /// engine records the new mask. Pure and deterministic — every engine
    /// transitions bitwise-identically.
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

    /// One DOLBIE round over a revealed [`Observation`], as plain
    /// sequential passes.
    pub(crate) fn observe_round(&mut self, observation: &Observation<'_>) {
        let n = observation.num_workers();
        assert_eq!(n, self.x.num_workers(), "observation covers a different worker set");
        let alpha = self.root.begin_round();
        if n == 1 {
            return;
        }

        let s = observation.straggler();
        let global_cost = observation.global_cost();
        let cost_fns = observation.cost_fns();
        self.gains.resize(n, 0.0);

        // Pass A — eq. (5): each non-straggler's risk-averse gain toward
        // its maximum acceptable workload. Pure per worker.
        let xs = self.x.as_slice();
        let caps = self.share_caps.as_deref();
        for (i, g) in self.gains.iter_mut().enumerate() {
            if i == s || !self.active[i] {
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

        let total_gain = pairwise_neumaier_sum(&self.gains);
        let pinned = self.guard_and_pin(s, total_gain);
        // Pass B — apply the gains and the pinned straggler share. Pure
        // per worker (`gains[s] = 0`, then the straggler is overwritten).
        let xs = self.x.shares_mut();
        xs.iter_mut().zip(&self.gains).for_each(|(x, g)| *x += *g);
        xs[s] = pinned;
        self.refresh_total_if_due();
        self.root.tighten(pinned);
    }

    /// The eq. (6) remainder through [`RootEngine`]: the feasibility
    /// guard (rescaling `self.gains` and re-deriving the remainder when
    /// it fires) and the O(1) Σx = 1 pin. `self.gains` must hold the
    /// round's gains with `gains[s] = 0` and `total_gain` their
    /// fixed-shape sum. Returns the straggler's pinned share.
    fn guard_and_pin(&mut self, s: usize, mut total_gain: f64) -> f64 {
        let straggler_share = self.x.share(s);
        if let Some(scale) = self.root.guard_scale(straggler_share, total_gain) {
            self.gains.iter_mut().for_each(|g| *g *= scale);
            total_gain = pairwise_neumaier_sum(&self.gains);
        }
        self.root.pin(straggler_share, total_gain)
    }

    /// On a refresh round, re-derives the running Σx total from the
    /// share slice, after the round's gains and pin are written.
    pub(crate) fn refresh_total_if_due(&mut self) {
        if self.root.needs_total_refresh() {
            self.root.refresh_total(pairwise_neumaier_sum(self.x.as_slice()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{DynCost, LatencyCost};
    use crate::{Dolbie, LoadBalancer};

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

    /// The acceptance property at full scale: |Σx − 1| < 1e-12 after
    /// 10^4 rounds at N = 10^5. Ignored by default (release-only
    /// runtime); `scripts/tier1.sh` runs it with `--release -- --ignored`.
    #[test]
    #[ignore = "release-scale: run via scripts/tier1.sh"]
    fn sum_stays_pinned_after_1e4_rounds_at_1e5_workers() {
        let n = 100_000;
        let rounds = 10_000;
        let costs = latency_fleet(n, 42);
        let mut d = Dolbie::new(n);
        let summary = crate::runner::run_episode_with_static_costs(&mut d, &costs, rounds);
        assert_eq!(summary.rounds, rounds);
        let sum = pairwise_neumaier_sum(d.allocation().as_slice());
        assert!((sum - 1.0).abs() < 1e-12, "|Σx − 1| = {:e}", (sum - 1.0).abs());
        assert!(d.allocation().iter().all(|&v| v >= 0.0));
    }
}

#[cfg(test)]
mod proptests {
    use crate::cost::{DynCost, LatencyCost};
    use crate::{Dolbie, LoadBalancer};
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
