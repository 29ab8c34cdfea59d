//! What a round reveals to the algorithms.
//!
//! In the online protocol (Section III-C), the decision `x_t` is played
//! first; only then are the local costs `l_{i,t} = f_{i,t}(x_{i,t})` and the
//! cost functions `f_{i,t}(·)` revealed. [`Observation`] packages exactly
//! that revealed information for one round, along with derived quantities —
//! the global cost `l_t` and the straggler `s_t` — that every algorithm in
//! the paper needs.

use crate::allocation::Allocation;
use crate::cost::{CostFunction, DynCost};

/// The maximum acceptable workload `x'` of eq. (4) for a single worker:
/// the largest share at which `cost_fn` stays within `global_cost`,
/// truncated to 1 and floored at `current_share` (Lemma 1(ii) guarantees
/// `x' >= x` in exact arithmetic; the floor enforces it against rounding).
///
/// This is the *worker-local* computation of Algorithms 1–2 (each worker
/// computes its own `x'` from its own revealed cost function and the shared
/// global cost). [`Observation::max_acceptable_share`] and the protocol
/// workers in `dolbie-simnet` both call it, which keeps the sequential
/// engine and the message-passing implementations in lockstep.
pub fn max_acceptable_share(
    cost_fn: &dyn CostFunction,
    current_share: f64,
    global_cost: f64,
) -> f64 {
    match cost_fn.max_share_within(global_cost) {
        Some(x) => x.max(current_share).min(1.0),
        None => current_share,
    }
}

/// The information revealed at the end of round `t`: the played allocation,
/// each worker's realized cost, and the (now-known) cost functions.
///
/// # Examples
///
/// ```
/// use dolbie_core::{Allocation, Observation};
/// use dolbie_core::cost::{DynCost, LinearCost};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Allocation::uniform(2);
/// let costs: Vec<DynCost> = vec![
///     Box::new(LinearCost::new(4.0, 0.0)),
///     Box::new(LinearCost::new(1.0, 0.0)),
/// ];
/// let obs = Observation::from_costs(1, &x, &costs);
/// assert_eq!(obs.straggler(), 0);
/// assert_eq!(obs.global_cost(), 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Observation<'a> {
    round: usize,
    shares: &'a Allocation,
    local_costs: Vec<f64>,
    cost_fns: &'a [DynCost],
    straggler: usize,
    global_cost: f64,
}

impl<'a> Observation<'a> {
    /// Builds the observation by evaluating each worker's revealed cost
    /// function at its played share.
    ///
    /// Ties for the straggler are broken toward the lowest worker index,
    /// matching line 11 of Algorithm 1 ("select the worker that ranks
    /// higher in the worker list").
    ///
    /// # Panics
    ///
    /// Panics if `cost_fns.len() != shares.num_workers()` or if the worker
    /// set is empty.
    pub fn from_costs(round: usize, shares: &'a Allocation, cost_fns: &'a [DynCost]) -> Self {
        Self::from_costs_in(round, shares, cost_fns, Vec::new())
    }

    /// As [`from_costs`](Self::from_costs), but storing the local costs in
    /// `scratch` (cleared first) so hot loops can recycle one buffer across
    /// rounds; recover it afterwards with
    /// [`into_local_costs`](Self::into_local_costs).
    ///
    /// # Panics
    ///
    /// As [`from_costs`](Self::from_costs).
    pub fn from_costs_in(
        round: usize,
        shares: &'a Allocation,
        cost_fns: &'a [DynCost],
        mut scratch: Vec<f64>,
    ) -> Self {
        assert_eq!(
            cost_fns.len(),
            shares.num_workers(),
            "one cost function per worker is required"
        );
        assert!(!cost_fns.is_empty(), "at least one worker is required");
        scratch.clear();
        scratch.extend(cost_fns.iter().enumerate().map(|(i, f)| f.eval(shares.share(i))));
        let local_costs = scratch;
        let mut straggler = 0;
        for (i, &c) in local_costs.iter().enumerate() {
            if c > local_costs[straggler] {
                straggler = i;
            }
        }
        let global_cost = local_costs[straggler];
        Self { round, shares, local_costs, cost_fns, straggler, global_cost }
    }

    /// As [`from_costs_in`](Self::from_costs_in), but over an elastic
    /// membership: non-members get a local cost of exactly `0.0` without
    /// evaluating their cost function, and the straggler argmax runs over
    /// members only (lowest member index on ties). Pair it with
    /// [`apply_membership`](crate::Dolbie::apply_membership).
    ///
    /// A member holding share 0 (a fresh joiner) is still a straggler
    /// candidate — its cost is evaluated at 0, typically the fixed
    /// overhead term — which is exactly how the eq. (5)/(6) update pulls
    /// work onto it.
    ///
    /// # Panics
    ///
    /// As [`from_costs`](Self::from_costs); additionally panics if
    /// `members.len() != cost_fns.len()` or no worker is a member.
    pub fn from_costs_masked(
        round: usize,
        shares: &'a Allocation,
        cost_fns: &'a [DynCost],
        members: &[bool],
        mut scratch: Vec<f64>,
    ) -> Self {
        assert_eq!(
            cost_fns.len(),
            shares.num_workers(),
            "one cost function per worker is required"
        );
        assert_eq!(members.len(), cost_fns.len(), "one membership flag per worker");
        assert!(!cost_fns.is_empty(), "at least one worker is required");
        scratch.clear();
        scratch.extend(cost_fns.iter().enumerate().map(|(i, f)| {
            if members[i] {
                f.eval(shares.share(i))
            } else {
                0.0
            }
        }));
        let local_costs = scratch;
        let mut straggler = None;
        for (i, &c) in local_costs.iter().enumerate() {
            if members[i] && straggler.is_none_or(|s: usize| c > local_costs[s]) {
                straggler = Some(i);
            }
        }
        let straggler = straggler.expect("at least one member is required");
        let global_cost = local_costs[straggler];
        Self { round, shares, local_costs, cost_fns, straggler, global_cost }
    }

    /// Consumes the observation, handing back the local-cost storage — either
    /// to move it into a record without copying or to recycle the buffer for
    /// the next round's [`from_costs_in`](Self::from_costs_in).
    pub fn into_local_costs(self) -> Vec<f64> {
        self.local_costs
    }

    /// The round index `t` this observation belongs to.
    pub fn round(&self) -> usize {
        self.round
    }

    /// The allocation `x_t` that was actually played.
    pub fn shares(&self) -> &Allocation {
        self.shares
    }

    /// Number of workers `N`.
    pub fn num_workers(&self) -> usize {
        self.local_costs.len()
    }

    /// The local costs `l_{i,t} = f_{i,t}(x_{i,t})`.
    pub fn local_costs(&self) -> &[f64] {
        &self.local_costs
    }

    /// The revealed cost functions `f_{i,t}(·)`.
    pub fn cost_fns(&self) -> &'a [DynCost] {
        self.cost_fns
    }

    /// The global cost `l_t = max_i l_{i,t}`.
    pub fn global_cost(&self) -> f64 {
        self.global_cost
    }

    /// The straggler `s_t = argmax_i l_{i,t}` (lowest index on ties).
    pub fn straggler(&self) -> usize {
        self.straggler
    }

    /// The maximum acceptable workload `x'_{i,t}` of eq. (4) for worker `i`:
    /// the largest share that would have kept worker `i`'s cost at or below
    /// the global cost, truncated to 1.
    ///
    /// For the straggler this is its current share (it "does not need to
    /// acquire additional workload"). For non-stragglers the value is at
    /// least the current share; if the revealed inverse misbehaves
    /// numerically the current share is returned as the safe fallback.
    pub fn max_acceptable_share(&self, i: usize) -> f64 {
        let current = self.shares.share(i);
        if i == self.straggler {
            return current;
        }
        max_acceptable_share(&self.cost_fns[i], current, self.global_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{LinearCost, PiecewiseLinearCost};

    fn costs(slopes: &[f64]) -> Vec<DynCost> {
        slopes.iter().map(|&s| Box::new(LinearCost::new(s, 0.0)) as DynCost).collect()
    }

    #[test]
    fn straggler_is_argmax() {
        let x = Allocation::uniform(3);
        let fns = costs(&[1.0, 5.0, 2.0]);
        let obs = Observation::from_costs(0, &x, &fns);
        assert_eq!(obs.straggler(), 1);
        assert!((obs.global_cost() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(obs.num_workers(), 3);
        assert_eq!(obs.round(), 0);
    }

    #[test]
    fn tie_breaks_to_lowest_index() {
        let x = Allocation::uniform(3);
        let fns = costs(&[2.0, 2.0, 1.0]);
        let obs = Observation::from_costs(0, &x, &fns);
        assert_eq!(obs.straggler(), 0);
    }

    #[test]
    fn local_costs_are_evaluations() {
        let x = Allocation::new(vec![0.25, 0.75]).unwrap();
        let fns = costs(&[4.0, 2.0]);
        let obs = Observation::from_costs(3, &x, &fns);
        assert_eq!(obs.local_costs(), &[1.0, 1.5]);
        assert_eq!(obs.shares().share(1), 0.75);
        assert_eq!(obs.cost_fns().len(), 2);
    }

    #[test]
    fn max_acceptable_share_matches_eq4() {
        let x = Allocation::new(vec![0.25, 0.75]).unwrap();
        let fns = costs(&[4.0, 2.0]);
        let obs = Observation::from_costs(0, &x, &fns);
        // l_t = 1.5 (worker 1 straggles at slope 2 * 0.75).
        assert_eq!(obs.straggler(), 1);
        // Worker 0: max{x : 4x <= 1.5} = 0.375.
        assert!((obs.max_acceptable_share(0) - 0.375).abs() < 1e-12);
        // Straggler keeps its own share.
        assert_eq!(obs.max_acceptable_share(1), 0.75);
    }

    #[test]
    fn max_acceptable_share_never_below_current() {
        // A plateaued function where the inverse could equal the current
        // share exactly; the result must not dip below the played share.
        let f = PiecewiseLinearCost::new(vec![(0.0, 1.0), (1.0, 1.0 + 1e-15)]).unwrap();
        let fns: Vec<DynCost> = vec![Box::new(f), Box::new(LinearCost::new(3.0, 0.0))];
        let x = Allocation::new(vec![0.5, 0.5]).unwrap();
        let obs = Observation::from_costs(0, &x, &fns);
        assert_eq!(obs.straggler(), 1);
        assert!(obs.max_acceptable_share(0) >= 0.5);
    }

    #[test]
    fn max_acceptable_share_is_truncated_to_one() {
        let fns = costs(&[0.1, 10.0]);
        let x = Allocation::uniform(2);
        let obs = Observation::from_costs(0, &x, &fns);
        assert_eq!(obs.max_acceptable_share(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "one cost function per worker")]
    fn mismatched_lengths_panic() {
        let x = Allocation::uniform(2);
        let fns = costs(&[1.0]);
        let _ = Observation::from_costs(0, &x, &fns);
    }
}
