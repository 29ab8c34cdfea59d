//! Online environments that reveal cost functions round by round.
//!
//! The online protocol is adversarial: the environment may pick `f_{i,t}`
//! arbitrarily, and reveals it only after the round's decision is played.
//! [`Environment`] abstracts the source of cost functions so the same
//! experiment harness drives synthetic adversaries (this module), the
//! distributed-learning simulator (`dolbie-mlsim`), and the edge-offloading
//! scenario (`dolbie-edge`).
//!
//! The environments provided here are deterministic, which keeps the core
//! crate dependency-free; the randomized system models live in the
//! substrate crates.

use crate::cost::{DynCost, LinearCost};
use std::sync::Arc;

/// A source of per-round cost functions.
pub trait Environment {
    /// Number of workers `N` this environment models.
    fn num_workers(&self) -> usize;

    /// Produces the round-`t` cost functions `f_{i,t}`, one per worker.
    ///
    /// Called exactly once per round, *after* the algorithms committed to
    /// their round-`t` allocation. Implementations may mutate internal
    /// state (drift, fluctuation processes).
    fn reveal(&mut self, round: usize) -> Vec<DynCost>;

    /// [`reveal`](Self::reveal) into a shared slice, for a caller that
    /// hands the round's cost functions to several holders (a simulator
    /// world and its forks). The simulators in `dolbie-simnet` reveal
    /// every round they open through it.
    ///
    /// An override must return what `reveal(round)` would return at the
    /// same call — the same cost functions, in worker order, evaluating
    /// bit for bit alike — and leave the environment as `reveal(round)`
    /// would. It may hand out a slice it revealed before instead of
    /// revealing again, which is what overriding is for. The default
    /// reveals and copies the functions into a new slice.
    fn reveal_shared(&mut self, round: usize) -> Arc<[DynCost]> {
        self.reveal(round).into()
    }
}

impl<T: Environment + ?Sized> Environment for Box<T> {
    fn num_workers(&self) -> usize {
        (**self).num_workers()
    }

    fn reveal(&mut self, round: usize) -> Vec<DynCost> {
        (**self).reveal(round)
    }

    fn reveal_shared(&mut self, round: usize) -> Arc<[DynCost]> {
        (**self).reveal_shared(round)
    }
}

/// An environment with time-invariant linear costs — the simplest sanity
/// setting, where the instantaneous minimizer is static and any sensible
/// online algorithm should converge.
#[derive(Debug, Clone)]
pub struct StaticLinearEnvironment {
    slopes: Vec<f64>,
    intercepts: Vec<f64>,
}

impl StaticLinearEnvironment {
    /// Creates the environment with `f_i(x) = slopes[i]·x + intercepts[i]`
    /// in every round.
    ///
    /// # Panics
    ///
    /// Panics if the vectors are empty or of different lengths.
    pub fn new(slopes: Vec<f64>, intercepts: Vec<f64>) -> Self {
        assert!(!slopes.is_empty(), "at least one worker required");
        assert_eq!(slopes.len(), intercepts.len(), "one intercept per slope");
        Self { slopes, intercepts }
    }

    /// Equal intercepts of zero.
    pub fn from_slopes(slopes: Vec<f64>) -> Self {
        let n = slopes.len();
        Self::new(slopes, vec![0.0; n])
    }
}

impl Environment for StaticLinearEnvironment {
    fn num_workers(&self) -> usize {
        self.slopes.len()
    }

    fn reveal(&mut self, _round: usize) -> Vec<DynCost> {
        self.slopes
            .iter()
            .zip(&self.intercepts)
            .map(|(&a, &b)| Box::new(LinearCost::new(a, b)) as DynCost)
            .collect()
    }
}

/// A deterministic non-stationary adversary: the "slow" worker rotates
/// every `period` rounds, forcing a non-trivial path length `P_T` and
/// penalizing algorithms that over-commit to past observations.
#[derive(Debug, Clone)]
pub struct RotatingStragglerEnvironment {
    num_workers: usize,
    period: usize,
    slow_slope: f64,
    fast_slope: f64,
}

impl RotatingStragglerEnvironment {
    /// Creates the environment: in rounds `[k·period, (k+1)·period)` worker
    /// `k mod N` has slope `slow_slope`, everyone else `fast_slope`.
    ///
    /// # Panics
    ///
    /// Panics if `num_workers == 0`, `period == 0`, or the slopes are not
    /// positive with `slow_slope >= fast_slope`.
    pub fn new(num_workers: usize, period: usize, slow_slope: f64, fast_slope: f64) -> Self {
        assert!(num_workers > 0, "at least one worker required");
        assert!(period > 0, "period must be positive");
        assert!(fast_slope > 0.0 && slow_slope >= fast_slope, "need slow >= fast > 0");
        Self { num_workers, period, slow_slope, fast_slope }
    }

    /// The worker that is slow in `round`.
    pub fn slow_worker(&self, round: usize) -> usize {
        (round / self.period) % self.num_workers
    }
}

impl Environment for RotatingStragglerEnvironment {
    fn num_workers(&self) -> usize {
        self.num_workers
    }

    fn reveal(&mut self, round: usize) -> Vec<DynCost> {
        let slow = self.slow_worker(round);
        (0..self.num_workers)
            .map(|i| {
                let slope = if i == slow { self.slow_slope } else { self.fast_slope };
                Box::new(LinearCost::new(slope, 0.0)) as DynCost
            })
            .collect()
    }
}

/// A piecewise-stationary adversary: the system jumps between fixed
/// "regimes" (slope vectors) at configured shift rounds — the abrupt-change
/// counterpart to [`RotatingStragglerEnvironment`]'s periodic churn.
/// Abrupt shifts are the worst case for window-based policies (ABS's `P`,
/// LB-BSP's `D`) and a stress test for DOLBIE's diminishing step size.
#[derive(Debug, Clone)]
pub struct PiecewiseStationaryEnvironment {
    regimes: Vec<Vec<f64>>,
    shift_every: usize,
}

impl PiecewiseStationaryEnvironment {
    /// Creates the environment: regime `k` (cycling) is active during
    /// rounds `[k·shift_every, (k+1)·shift_every)`.
    ///
    /// # Panics
    ///
    /// Panics if no regimes are given, regimes have mismatched lengths, a
    /// slope is not positive, or `shift_every == 0`.
    pub fn new(regimes: Vec<Vec<f64>>, shift_every: usize) -> Self {
        assert!(!regimes.is_empty(), "at least one regime required");
        assert!(shift_every > 0, "shift period must be positive");
        let n = regimes[0].len();
        assert!(n > 0, "regimes must cover at least one worker");
        for (k, r) in regimes.iter().enumerate() {
            assert_eq!(r.len(), n, "regime {k} has a different worker count");
            assert!(r.iter().all(|&a| a > 0.0 && a.is_finite()), "regime {k} has bad slopes");
        }
        Self { regimes, shift_every }
    }

    /// The regime index active in `round`.
    pub fn regime(&self, round: usize) -> usize {
        (round / self.shift_every) % self.regimes.len()
    }
}

impl Environment for PiecewiseStationaryEnvironment {
    fn num_workers(&self) -> usize {
        self.regimes[0].len()
    }

    fn reveal(&mut self, round: usize) -> Vec<DynCost> {
        self.regimes[self.regime(round)]
            .iter()
            .map(|&a| Box::new(LinearCost::new(a, 0.0)) as DynCost)
            .collect()
    }
}

/// A smoothly drifting adversary: each worker's slope follows its own
/// sinusoid, `a_i(t) = base_i · (1 + amplitude · sin(2π t / period + φ_i))`
/// with phases spread around the circle — continuous, deterministic
/// non-stationarity with tunable path length.
#[derive(Debug, Clone)]
pub struct SinusoidalDriftEnvironment {
    base_slopes: Vec<f64>,
    amplitude: f64,
    period: f64,
}

impl SinusoidalDriftEnvironment {
    /// Creates the environment.
    ///
    /// # Panics
    ///
    /// Panics if `base_slopes` is empty or non-positive, `amplitude` is
    /// outside `[0, 1)` (slopes must stay positive), or `period <= 0`.
    pub fn new(base_slopes: Vec<f64>, amplitude: f64, period: f64) -> Self {
        assert!(!base_slopes.is_empty(), "at least one worker required");
        assert!(
            base_slopes.iter().all(|&a| a > 0.0 && a.is_finite()),
            "base slopes must be positive"
        );
        assert!((0.0..1.0).contains(&amplitude), "amplitude must be in [0, 1)");
        assert!(period > 0.0 && period.is_finite(), "period must be positive");
        Self { base_slopes, amplitude, period }
    }

    /// The slope of worker `i` in `round`.
    pub fn slope(&self, i: usize, round: usize) -> f64 {
        let n = self.base_slopes.len() as f64;
        let phase = 2.0 * std::f64::consts::PI * i as f64 / n;
        let angle = 2.0 * std::f64::consts::PI * round as f64 / self.period + phase;
        self.base_slopes[i] * (1.0 + self.amplitude * angle.sin())
    }
}

impl Environment for SinusoidalDriftEnvironment {
    fn num_workers(&self) -> usize {
        self.base_slopes.len()
    }

    fn reveal(&mut self, round: usize) -> Vec<DynCost> {
        (0..self.base_slopes.len())
            .map(|i| Box::new(LinearCost::new(self.slope(i, round), 0.0)) as DynCost)
            .collect()
    }
}

/// An environment defined by a closure — the escape hatch for bespoke
/// adversaries in tests and experiments. Cloning it clones the closure,
/// so a pure generator yields an independent copy of the cost stream.
#[derive(Clone)]
pub struct FnEnvironment<F> {
    num_workers: usize,
    generator: F,
}

impl<F> FnEnvironment<F>
where
    F: FnMut(usize) -> Vec<DynCost>,
{
    /// Creates an environment that calls `generator(round)` each round.
    /// The generator must return exactly `num_workers` cost functions.
    pub fn new(num_workers: usize, generator: F) -> Self {
        Self { num_workers, generator }
    }
}

impl<F> std::fmt::Debug for FnEnvironment<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnEnvironment").field("num_workers", &self.num_workers).finish()
    }
}

impl<F> Environment for FnEnvironment<F>
where
    F: FnMut(usize) -> Vec<DynCost>,
{
    fn num_workers(&self) -> usize {
        self.num_workers
    }

    fn reveal(&mut self, round: usize) -> Vec<DynCost> {
        let costs = (self.generator)(round);
        assert_eq!(costs.len(), self.num_workers, "generator must cover every worker");
        costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostFunction;

    #[test]
    fn static_environment_is_constant() {
        let mut env = StaticLinearEnvironment::from_slopes(vec![1.0, 2.0]);
        assert_eq!(env.num_workers(), 2);
        let a = env.reveal(0);
        let b = env.reveal(7);
        assert_eq!(a[1].eval(0.5), b[1].eval(0.5));
        assert_eq!(a[1].eval(0.5), 1.0);
    }

    /// The provided `reveal_shared` is `reveal`, boxed environments
    /// included.
    #[test]
    fn reveal_shared_defaults_to_reveal() {
        let mut env = RotatingStragglerEnvironment::new(3, 2, 5.0, 1.0);
        let mut boxed: Box<dyn Environment> = Box::new(env.clone());
        for round in 0..6 {
            let plain = env.reveal(round);
            for shared in [env.reveal_shared(round), boxed.reveal_shared(round)] {
                assert_eq!(shared.len(), plain.len());
                for (a, b) in shared.iter().zip(&plain) {
                    assert_eq!(a.eval(0.4).to_bits(), b.eval(0.4).to_bits(), "round {round}");
                }
            }
        }
    }

    #[test]
    fn static_environment_with_intercepts() {
        let mut env = StaticLinearEnvironment::new(vec![1.0], vec![0.5]);
        assert_eq!(env.reveal(0)[0].eval(0.0), 0.5);
    }

    #[test]
    fn rotating_straggler_rotates() {
        let mut env = RotatingStragglerEnvironment::new(3, 10, 5.0, 1.0);
        assert_eq!(env.slow_worker(0), 0);
        assert_eq!(env.slow_worker(9), 0);
        assert_eq!(env.slow_worker(10), 1);
        assert_eq!(env.slow_worker(29), 2);
        assert_eq!(env.slow_worker(30), 0);
        let costs = env.reveal(10);
        assert_eq!(costs[1].eval(1.0), 5.0);
        assert_eq!(costs[0].eval(1.0), 1.0);
    }

    #[test]
    fn piecewise_stationary_shifts_regimes() {
        let mut env = PiecewiseStationaryEnvironment::new(vec![vec![5.0, 1.0], vec![1.0, 5.0]], 10);
        assert_eq!(env.num_workers(), 2);
        assert_eq!(env.regime(0), 0);
        assert_eq!(env.regime(9), 0);
        assert_eq!(env.regime(10), 1);
        assert_eq!(env.regime(20), 0, "regimes cycle");
        assert_eq!(env.reveal(0)[0].eval(1.0), 5.0);
        assert_eq!(env.reveal(10)[0].eval(1.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "different worker count")]
    fn piecewise_stationary_rejects_ragged_regimes() {
        let _ = PiecewiseStationaryEnvironment::new(vec![vec![1.0], vec![1.0, 2.0]], 5);
    }

    #[test]
    fn sinusoidal_drift_is_smooth_and_positive() {
        let mut env = SinusoidalDriftEnvironment::new(vec![2.0, 4.0, 1.0], 0.5, 40.0);
        assert_eq!(env.num_workers(), 3);
        let mut max_jump: f64 = 0.0;
        let mut prev: Vec<f64> = env.reveal(0).iter().map(|f| f.eval(1.0)).collect();
        for t in 1..120 {
            let cur: Vec<f64> = env.reveal(t).iter().map(|f| f.eval(1.0)).collect();
            for (a, b) in prev.iter().zip(&cur) {
                assert!(*b > 0.0, "slopes stay positive");
                max_jump = max_jump.max((a - b).abs());
            }
            prev = cur;
        }
        // Smooth drift: per-round jumps are bounded by amplitude * 2π/period.
        assert!(max_jump < 2.0 * 0.5 * 4.0 * std::f64::consts::PI / 40.0 + 1e-9);
        // Phases differ: workers don't move in lockstep.
        assert_ne!(env.slope(0, 5), env.slope(1, 5));
    }

    #[test]
    fn fn_environment_delegates() {
        let mut env = FnEnvironment::new(2, |round| {
            vec![
                Box::new(LinearCost::new(1.0 + round as f64, 0.0)) as DynCost,
                Box::new(LinearCost::new(1.0, 0.0)) as DynCost,
            ]
        });
        assert_eq!(env.num_workers(), 2);
        assert_eq!(env.reveal(3)[0].eval(1.0), 4.0);
        assert!(format!("{env:?}").contains("FnEnvironment"));
    }

    #[test]
    fn boxed_environment_is_an_environment() {
        let mut env: Box<dyn Environment> =
            Box::new(StaticLinearEnvironment::from_slopes(vec![2.0]));
        assert_eq!(env.num_workers(), 1);
        assert_eq!(env.reveal(0).len(), 1);
    }

    #[test]
    #[should_panic(expected = "cover every worker")]
    fn fn_environment_validates_arity() {
        let mut env = FnEnvironment::new(3, |_| vec![]);
        let _ = env.reveal(0);
    }
}
