//! Dynamic-regret accounting and the Theorem 1 upper bound.
//!
//! Section V measures DOLBIE by the dynamic regret
//! `Reg^d_T = Σ_t f_t(x_t) − Σ_t f_t(x*_t)` against the sequence of
//! instantaneous minimizers, with the path length
//! `P_T = Σ_{t=2}^T ||x*_{t-1} − x*_t||₂` as the regularity measure, and
//! proves
//!
//! `Reg^d_T <= sqrt( T L² ( 1/α_T + P_T/α_T + Σ_t ((N−1)/2 + N α_t)/2 ) )`.
//!
//! [`RegretTracker`] accumulates the measured quantities round by round;
//! [`theorem1_bound`] evaluates the right-hand side so experiments can
//! check the bound empirically (experiment `T1` in DESIGN.md).

use crate::allocation::Allocation;

/// Accumulates measured dynamic regret and path length over an episode.
///
/// # Examples
///
/// ```
/// use dolbie_core::regret::RegretTracker;
/// use dolbie_core::Allocation;
///
/// let mut tracker = RegretTracker::new();
/// tracker.record(1.0, 0.8, &Allocation::uniform(2));
/// tracker.record(0.9, 0.8, &Allocation::uniform(2));
/// assert!((tracker.dynamic_regret() - 0.3).abs() < 1e-12);
/// assert_eq!(tracker.path_length(), 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RegretTracker {
    cumulative_cost: f64,
    cumulative_opt: f64,
    path_length: f64,
    prev_optimum: Option<Allocation>,
    rounds: usize,
}

impl RegretTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one round: the algorithm's global cost `f_t(x_t)`, the
    /// optimal global cost `f_t(x*_t)`, and the minimizer `x*_t` (used for
    /// the path length).
    pub fn record(&mut self, algorithm_cost: f64, optimal_cost: f64, optimum: &Allocation) {
        self.cumulative_cost += algorithm_cost;
        self.cumulative_opt += optimal_cost;
        if let Some(prev) = &self.prev_optimum {
            self.path_length += prev.l2_distance(optimum);
        }
        self.prev_optimum = Some(optimum.clone());
        self.rounds += 1;
    }

    /// Rounds recorded so far (`T`).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// `Σ_t f_t(x_t)`.
    pub fn cumulative_cost(&self) -> f64 {
        self.cumulative_cost
    }

    /// The measured dynamic regret `Reg^d_T`.
    pub fn dynamic_regret(&self) -> f64 {
        self.cumulative_cost - self.cumulative_opt
    }

    /// The measured path length `P_T` of the minimizer sequence.
    pub fn path_length(&self) -> f64 {
        self.path_length
    }
}

/// Evaluates the Theorem 1 upper bound
/// `sqrt( T L² ( 1/α_T + P_T/α_T + Σ_t ((N−1)/2 + N α_t)/2 ) )`.
///
/// `alphas` is the sequence of step sizes the algorithm actually used
/// (available from [`Dolbie::alphas_used`]); its last element is `α_T`.
/// Returns `f64::INFINITY` when `α_T = 0` or no rounds were played, which
/// is the correct degenerate reading of the bound.
///
/// [`Dolbie::alphas_used`]: crate::Dolbie::alphas_used
pub fn theorem1_bound(num_workers: usize, lipschitz: f64, path_length: f64, alphas: &[f64]) -> f64 {
    let t = alphas.len();
    if t == 0 {
        return f64::INFINITY;
    }
    let alpha_t = alphas[t - 1];
    if alpha_t <= 0.0 {
        return f64::INFINITY;
    }
    let n = num_workers as f64;
    let series: f64 = alphas.iter().map(|a| ((n - 1.0) / 2.0 + n * a) / 2.0).sum();
    let inner = 1.0 / alpha_t + path_length / alpha_t + series;
    (t as f64 * lipschitz * lipschitz * inner).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_accumulates() {
        let mut tr = RegretTracker::new();
        let a = Allocation::new(vec![1.0, 0.0]).unwrap();
        let b = Allocation::new(vec![0.0, 1.0]).unwrap();
        tr.record(2.0, 1.0, &a);
        tr.record(3.0, 1.5, &b);
        tr.record(2.5, 1.5, &b);
        assert_eq!(tr.rounds(), 3);
        assert!((tr.cumulative_cost() - 7.5).abs() < 1e-12);
        assert!((tr.dynamic_regret() - 3.5).abs() < 1e-12);
        // Path: a->b then b->b.
        assert!((tr.path_length() - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_tracker_is_zero() {
        let tr = RegretTracker::new();
        assert_eq!(tr.dynamic_regret(), 0.0);
        assert_eq!(tr.path_length(), 0.0);
        assert_eq!(tr.rounds(), 0);
    }

    #[test]
    fn bound_matches_hand_computation() {
        // T = 2, N = 3, L = 2, P_T = 0.5, alphas = [0.5, 0.25].
        let alphas = [0.5, 0.25];
        let series = (1.0 + 3.0 * 0.5) / 2.0 + (1.0 + 3.0 * 0.25) / 2.0;
        let inner = 1.0 / 0.25 + 0.5 / 0.25 + series;
        let expected = (2.0f64 * 4.0 * inner).sqrt();
        let got = theorem1_bound(3, 2.0, 0.5, &alphas);
        assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }

    #[test]
    fn bound_degenerate_cases() {
        assert_eq!(theorem1_bound(3, 1.0, 0.0, &[]), f64::INFINITY);
        assert_eq!(theorem1_bound(3, 1.0, 0.0, &[0.5, 0.0]), f64::INFINITY);
    }

    #[test]
    fn bound_grows_with_path_length_and_horizon() {
        let alphas = vec![0.1; 50];
        let small = theorem1_bound(5, 1.0, 0.0, &alphas);
        let large = theorem1_bound(5, 1.0, 10.0, &alphas);
        assert!(large > small);
        let longer: Vec<f64> = vec![0.1; 200];
        assert!(theorem1_bound(5, 1.0, 0.0, &longer) > small);
    }

    #[test]
    fn bound_scales_linearly_with_lipschitz() {
        let alphas = vec![0.2; 10];
        let one = theorem1_bound(4, 1.0, 1.0, &alphas);
        let three = theorem1_bound(4, 3.0, 1.0, &alphas);
        assert!((three / one - 3.0).abs() < 1e-9);
    }
}
