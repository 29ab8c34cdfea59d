//! The online episode driver: play, reveal, observe, repeat.
//!
//! [`run_episode`] executes the protocol of problem (1) for `T` rounds,
//! recording everything the experiments need: the played allocations, the
//! realized local and global costs, the straggler sequence, and (optionally)
//! the clairvoyant optimum of every round for regret computation.

use crate::allocation::Allocation;
use crate::balancer::LoadBalancer;
use crate::cost::{round_lipschitz, DynCost};
use crate::environment::Environment;
use crate::observation::Observation;
use crate::oracle::{instantaneous_minimizer_cached, InstantOptimum, OracleCache};
use crate::regret::RegretTracker;

/// Options for [`run_episode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpisodeOptions {
    /// Number of rounds `T` to play.
    pub rounds: usize,
    /// Whether to solve the per-round offline problem to record the
    /// instantaneous optimum (needed for regret, costs one oracle solve per
    /// round).
    pub track_optimum: bool,
}

impl EpisodeOptions {
    /// `rounds` rounds without optimum tracking.
    pub fn new(rounds: usize) -> Self {
        Self { rounds, track_optimum: false }
    }

    /// Enables per-round optimum tracking.
    pub fn with_optimum(mut self) -> Self {
        self.track_optimum = true;
        self
    }
}

/// Everything recorded about a single round.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// Round index `t` (0-based).
    pub round: usize,
    /// The allocation `x_t` that was played.
    pub allocation: Allocation,
    /// Local costs `l_{i,t}`.
    pub local_costs: Vec<f64>,
    /// Global cost `l_t = max_i l_{i,t}`.
    pub global_cost: f64,
    /// The straggler `s_t`.
    pub straggler: usize,
    /// The clairvoyant optimum for this round's costs, if tracked.
    pub optimum: Option<InstantOptimum>,
    /// The round's estimated Lipschitz constant (max derivative bound), if
    /// the optimum was tracked (used for the Theorem 1 bound).
    pub lipschitz: Option<f64>,
}

/// The full trace of an episode.
#[derive(Debug, Clone)]
pub struct EpisodeTrace {
    /// The balancer's display name.
    pub algorithm: String,
    /// One record per round.
    pub records: Vec<RoundRecord>,
}

impl EpisodeTrace {
    /// Total accumulated global cost `Σ_t f_t(x_t)` — the objective of
    /// problem (1).
    pub fn total_cost(&self) -> f64 {
        self.records.iter().map(|r| r.global_cost).sum()
    }

    /// The sequence of global costs, one per round.
    pub fn global_costs(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.global_cost).collect()
    }

    /// The measured dynamic regret and path length, if the optimum was
    /// tracked; `None` otherwise.
    pub fn regret(&self) -> Option<RegretTracker> {
        let mut tracker = RegretTracker::new();
        for r in &self.records {
            let opt = r.optimum.as_ref()?;
            tracker.record(r.global_cost, opt.level, &opt.allocation);
        }
        Some(tracker)
    }

    /// Largest per-round Lipschitz estimate across the episode, if tracked.
    pub fn max_lipschitz(&self) -> Option<f64> {
        self.records.iter().map(|r| r.lipschitz).try_fold(0.0f64, |acc, l| Some(acc.max(l?)))
    }

    /// Per-worker idle (waiting) time in each round: `l_t − l_{i,t}`, the
    /// time worker `i` spends at the synchronization barrier (Fig. 11's
    /// "waiting" component).
    pub fn waiting_times(&self) -> Vec<Vec<f64>> {
        self.records
            .iter()
            .map(|r| r.local_costs.iter().map(|&c| r.global_cost - c).collect())
            .collect()
    }
}

/// Runs a study of independent replications: for each seed, `make` builds
/// a fresh `(balancer, environment)` pair and one episode is run. Returns
/// one trace per seed — the raw material for the mean ± CI reporting used
/// throughout the paper's figures.
///
/// # Panics
///
/// As [`run_episode`], for any replication.
///
/// # Examples
///
/// ```
/// use dolbie_core::environment::StaticLinearEnvironment;
/// use dolbie_core::{run_replications, Dolbie, EpisodeOptions};
///
/// let traces = run_replications(0..3, EpisodeOptions::new(10), |seed| {
///     let slopes = vec![1.0 + seed as f64, 1.0];
///     (Dolbie::new(2), StaticLinearEnvironment::from_slopes(slopes))
/// });
/// assert_eq!(traces.len(), 3);
/// ```
pub fn run_replications<B, E>(
    seeds: impl IntoIterator<Item = u64>,
    options: EpisodeOptions,
    mut make: impl FnMut(u64) -> (B, E),
) -> Vec<EpisodeTrace>
where
    B: LoadBalancer,
    E: Environment,
{
    seeds
        .into_iter()
        .map(|seed| {
            let (mut balancer, mut env) = make(seed);
            run_episode(&mut balancer, &mut env, options)
        })
        .collect()
}

/// Runs `balancer` against `env` for the configured number of rounds.
///
/// # Panics
///
/// Panics if the balancer and environment disagree on the worker count.
pub fn run_episode(
    balancer: &mut dyn LoadBalancer,
    env: &mut dyn Environment,
    options: EpisodeOptions,
) -> EpisodeTrace {
    assert_eq!(
        balancer.allocation().num_workers(),
        env.num_workers(),
        "balancer and environment must agree on the worker count"
    );
    let mut records = Vec::with_capacity(options.rounds);
    // The oracle warm-starts each round's solve from the previous level.
    let mut oracle_cache = OracleCache::new();
    for round in 0..options.rounds {
        let played = balancer.allocation().clone();
        let costs = env.reveal(round);
        let observation = Observation::from_costs(round, &played, &costs);
        let (optimum, lipschitz) = if options.track_optimum {
            let opt = instantaneous_minimizer_cached(&costs, &mut oracle_cache)
                .expect("environment produced unusable cost functions");
            (Some(opt), Some(round_lipschitz(&costs)))
        } else {
            (None, None)
        };
        balancer.observe(&observation);
        let global_cost = observation.global_cost();
        let straggler = observation.straggler();
        // The played allocation and the local-cost buffer move straight
        // into the record — no per-round copies.
        let local_costs = observation.into_local_costs();
        records.push(RoundRecord {
            round,
            allocation: played,
            local_costs,
            global_cost,
            straggler,
            optimum,
            lipschitz,
        });
    }
    EpisodeTrace { algorithm: balancer.name().to_owned(), records }
}

/// Aggregate-only result of [`run_episode_streaming`].
#[derive(Debug, Clone)]
pub struct EpisodeSummary {
    /// The balancer's display name.
    pub algorithm: String,
    /// Number of rounds played.
    pub rounds: usize,
    /// Total accumulated global cost `Σ_t f_t(x_t)`.
    pub total_cost: f64,
    /// The last round's global cost (`0.0` for an empty episode).
    pub final_global_cost: f64,
    /// The measured regret, if `options.track_optimum` was set.
    pub regret: Option<RegretTracker>,
}

/// As [`run_episode`], but without materializing per-round records: one
/// allocation buffer and one local-cost buffer are reused across all
/// rounds, and (with `track_optimum`) the oracle is warm-started from the
/// previous round's level. This is the allocation-free hot path for
/// throughput-bound callers that only need episode aggregates.
///
/// # Panics
///
/// As [`run_episode`].
pub fn run_episode_streaming(
    balancer: &mut dyn LoadBalancer,
    env: &mut dyn Environment,
    options: EpisodeOptions,
) -> EpisodeSummary {
    assert_eq!(
        balancer.allocation().num_workers(),
        env.num_workers(),
        "balancer and environment must agree on the worker count"
    );
    let mut oracle_cache = OracleCache::new();
    let mut tracker = options.track_optimum.then(RegretTracker::new);
    let mut played = balancer.allocation().clone();
    let mut scratch: Vec<f64> = Vec::with_capacity(played.num_workers());
    let mut total_cost = 0.0;
    let mut final_global_cost = 0.0;
    for round in 0..options.rounds {
        played.copy_from(balancer.allocation());
        let costs = env.reveal(round);
        let observation = Observation::from_costs_in(round, &played, &costs, scratch);
        total_cost += observation.global_cost();
        final_global_cost = observation.global_cost();
        if let Some(tracker) = tracker.as_mut() {
            let opt = instantaneous_minimizer_cached(&costs, &mut oracle_cache)
                .expect("environment produced unusable cost functions");
            tracker.record(observation.global_cost(), opt.level, &opt.allocation);
        }
        balancer.observe(&observation);
        scratch = observation.into_local_costs();
    }
    EpisodeSummary {
        algorithm: balancer.name().to_owned(),
        rounds: options.rounds,
        total_cost,
        final_global_cost,
        regret: tracker,
    }
}

/// As [`run_episode_streaming`], but for a *static* cost profile passed as
/// a plain slice: no [`Environment`] boxing, no per-round cost-function
/// allocations — at N = 10^6 workers the `Environment::reveal` contract
/// (a fresh `Vec<DynCost>` per round) would alone cost a billion
/// allocations over 10^3 rounds. This is the large-N throughput driver
/// used by the `large_n` bench suite.
///
/// # Panics
///
/// Panics if the balancer and the cost slice disagree on the worker count.
pub fn run_episode_with_static_costs(
    balancer: &mut dyn LoadBalancer,
    cost_fns: &[DynCost],
    rounds: usize,
) -> EpisodeSummary {
    assert_eq!(
        balancer.allocation().num_workers(),
        cost_fns.len(),
        "balancer and cost profile must agree on the worker count"
    );
    let mut played = balancer.allocation().clone();
    let mut scratch: Vec<f64> = Vec::with_capacity(cost_fns.len());
    let mut total_cost = 0.0;
    let mut final_global_cost = 0.0;
    for round in 0..rounds {
        played.copy_from(balancer.allocation());
        let observation = Observation::from_costs_in(round, &played, cost_fns, scratch);
        total_cost += observation.global_cost();
        final_global_cost = observation.global_cost();
        balancer.observe(&observation);
        scratch = observation.into_local_costs();
    }
    EpisodeSummary {
        algorithm: balancer.name().to_owned(),
        rounds,
        total_cost,
        final_global_cost,
        regret: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dolbie::Dolbie;
    use crate::environment::{RotatingStragglerEnvironment, StaticLinearEnvironment};
    use crate::regret::theorem1_bound;

    #[test]
    fn trace_records_every_round() {
        let mut d = Dolbie::new(3);
        let mut env = StaticLinearEnvironment::from_slopes(vec![3.0, 1.0, 2.0]);
        let trace = run_episode(&mut d, &mut env, EpisodeOptions::new(25));
        assert_eq!(trace.records.len(), 25);
        assert_eq!(trace.algorithm, "DOLBIE");
        assert_eq!(trace.global_costs().len(), 25);
        assert!(trace.total_cost() > 0.0);
        assert!(trace.regret().is_none(), "optimum was not tracked");
        assert!(trace.max_lipschitz().is_none());
        // First round plays the uniform split.
        assert_eq!(trace.records[0].allocation, Allocation::uniform(3));
        assert_eq!(trace.records[0].straggler, 0);
    }

    #[test]
    fn regret_is_tracked_and_bounded() {
        let mut d = Dolbie::new(4);
        let mut env = StaticLinearEnvironment::from_slopes(vec![4.0, 1.0, 2.0, 1.0]);
        let trace = run_episode(&mut d, &mut env, EpisodeOptions::new(60).with_optimum());
        let tracker = trace.regret().expect("optimum tracked");
        assert_eq!(tracker.rounds(), 60);
        assert!(tracker.dynamic_regret() >= -1e-9, "cannot beat the clairvoyant optimum");
        // Static environment => zero path length.
        assert!(tracker.path_length() < 1e-6);
        // Theorem 1 holds on this instance.
        let bound = theorem1_bound(
            4,
            trace.max_lipschitz().unwrap(),
            tracker.path_length(),
            d.alphas_used(),
        );
        assert!(
            tracker.dynamic_regret() <= bound,
            "measured regret {} exceeds Theorem 1 bound {}",
            tracker.dynamic_regret(),
            bound
        );
    }

    #[test]
    fn rotating_environment_has_positive_path_length() {
        let mut d = Dolbie::new(3);
        let mut env = RotatingStragglerEnvironment::new(3, 5, 6.0, 1.0);
        let trace = run_episode(&mut d, &mut env, EpisodeOptions::new(30).with_optimum());
        let tracker = trace.regret().unwrap();
        assert!(tracker.path_length() > 0.1);
    }

    #[test]
    fn waiting_times_decompose() {
        let mut d = Dolbie::new(2);
        let mut env = StaticLinearEnvironment::from_slopes(vec![3.0, 1.0]);
        let trace = run_episode(&mut d, &mut env, EpisodeOptions::new(5));
        let waits = trace.waiting_times();
        assert_eq!(waits.len(), 5);
        for (r, w) in trace.records.iter().zip(&waits) {
            // The straggler never waits; everyone else waits non-negatively.
            assert_eq!(w[r.straggler], 0.0);
            assert!(w.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn streaming_matches_recorded_episode() {
        let slopes = vec![3.0, 1.0, 2.0];
        let mut d1 = Dolbie::new(3);
        let mut env1 = StaticLinearEnvironment::from_slopes(slopes.clone());
        let trace = run_episode(&mut d1, &mut env1, EpisodeOptions::new(40).with_optimum());
        let mut d2 = Dolbie::new(3);
        let mut env2 = StaticLinearEnvironment::from_slopes(slopes);
        let summary =
            run_episode_streaming(&mut d2, &mut env2, EpisodeOptions::new(40).with_optimum());
        assert_eq!(summary.algorithm, trace.algorithm);
        assert_eq!(summary.rounds, 40);
        assert_eq!(summary.total_cost, trace.total_cost());
        assert_eq!(summary.final_global_cost, trace.records[39].global_cost);
        let streamed = summary.regret.expect("optimum tracked");
        let recorded = trace.regret().expect("optimum tracked");
        assert_eq!(streamed.dynamic_regret(), recorded.dynamic_regret());
        assert_eq!(streamed.path_length(), recorded.path_length());
    }

    #[test]
    fn streaming_empty_episode_is_well_defined() {
        let mut d = Dolbie::new(2);
        let mut env = StaticLinearEnvironment::from_slopes(vec![1.0, 2.0]);
        let summary = run_episode_streaming(&mut d, &mut env, EpisodeOptions::new(0));
        assert_eq!(summary.rounds, 0);
        assert_eq!(summary.total_cost, 0.0);
        assert_eq!(summary.final_global_cost, 0.0);
        assert!(summary.regret.is_none());
    }

    #[test]
    fn replications_are_independent() {
        let traces = run_replications(0..4, EpisodeOptions::new(20), |seed| {
            let slopes = vec![2.0 + seed as f64, 1.0, 1.5];
            (Dolbie::new(3), StaticLinearEnvironment::from_slopes(slopes))
        });
        assert_eq!(traces.len(), 4);
        // Different seeds produce different environments, hence costs.
        assert_ne!(traces[0].total_cost(), traces[3].total_cost());
        // Same seed twice is deterministic.
        let again = run_replications([3u64, 3], EpisodeOptions::new(20), |seed| {
            let slopes = vec![2.0 + seed as f64, 1.0, 1.5];
            (Dolbie::new(3), StaticLinearEnvironment::from_slopes(slopes))
        });
        assert_eq!(again[0].total_cost(), again[1].total_cost());
    }

    #[test]
    #[should_panic(expected = "agree on the worker count")]
    fn mismatched_worker_counts_panic() {
        let mut d = Dolbie::new(2);
        let mut env = StaticLinearEnvironment::from_slopes(vec![1.0, 2.0, 3.0]);
        let _ = run_episode(&mut d, &mut env, EpisodeOptions::new(1));
    }

    #[test]
    fn static_cost_driver_matches_streaming_episode() {
        use crate::cost::LinearCost;
        let slopes = [3.0, 1.0, 2.0];
        let costs: Vec<DynCost> =
            slopes.iter().map(|&s| Box::new(LinearCost::new(s, 0.0)) as DynCost).collect();
        let mut d1 = Dolbie::new(3);
        let mut env = StaticLinearEnvironment::from_slopes(slopes.to_vec());
        let streamed = run_episode_streaming(&mut d1, &mut env, EpisodeOptions::new(40));
        let mut d2 = Dolbie::new(3);
        let via_slice = run_episode_with_static_costs(&mut d2, &costs, 40);
        assert_eq!(via_slice.total_cost, streamed.total_cost);
        assert_eq!(via_slice.final_global_cost, streamed.final_global_cost);
        assert_eq!(via_slice.rounds, 40);
    }

    #[test]
    #[should_panic(expected = "agree on the worker count")]
    fn static_cost_driver_rejects_mismatched_counts() {
        use crate::cost::LinearCost;
        let costs: Vec<DynCost> = vec![Box::new(LinearCost::new(1.0, 0.0))];
        let mut d = Dolbie::new(2);
        let _ = run_episode_with_static_costs(&mut d, &costs, 1);
    }
}
