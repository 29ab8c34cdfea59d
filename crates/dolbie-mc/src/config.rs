//! Model-checker configurations: which simulator, which fault envelope,
//! which environment.
//!
//! A configuration value also owns the rounds of its environment it has
//! revealed: the chaos-mix environment is a pure function of
//! `(env_seed, n, round)`, so every simulator world a configuration
//! starts, and every fork of one, plays the same cost functions, revealed
//! once by the first [`replay()`](crate::replay()) or exploration and
//! shared from then on. The rounds are keyed by the `env_seed`, `n` and
//! `rounds` they were revealed for, and revealed again when a caller
//! changes one of those fields, so a run stays a pure function of
//! (configuration, prefix).

use dolbie_core::cost::{DynCost, LatencyCost, LinearCost};
use dolbie_core::environment::FnEnvironment;
use dolbie_core::fingerprint::mix64;
use dolbie_core::Environment;
use dolbie_simnet::{FaultPlan, MembershipSchedule, RetryPolicy};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// The protocol architecture a configuration explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Algorithm 1 over the master-worker simulator.
    MasterWorker,
    /// Algorithm 2 over the fully-distributed simulator.
    FullyDistributed,
    /// The leaderless token-ring extension architecture.
    Ring,
}

impl Arch {
    /// The tag the corresponding simulator stamps on its traces.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Arch::MasterWorker => "master-worker",
            Arch::FullyDistributed => "fully-distributed",
            Arch::Ring => "ring",
        }
    }

    /// All three explorable architectures, in canonical order.
    #[must_use]
    pub fn all() -> [Arch; 3] {
        [Arch::MasterWorker, Arch::FullyDistributed, Arch::Ring]
    }
}

fn hash(seed: u64, salt: u64) -> u64 {
    mix64(seed ^ mix64(salt))
}

/// The chaos-mix environment: per-(round, worker) cost functions drawn
/// from a pure hash of `seed` — half latency-shaped, half linear. This is
/// *the* definition; the chaos sweep's `env_for` delegates here so the
/// model checker's cross-validation replays run against byte-identical
/// cost streams. The generator captures only `seed` and `n`, so the
/// environment is `Clone` and a forked simulator world carries its own
/// copy.
pub fn chaos_mix_env(
    seed: u64,
    n: usize,
) -> FnEnvironment<impl FnMut(usize) -> Vec<DynCost> + Clone + Send + Sync + 'static> {
    FnEnvironment::new(n, move |round| (0..n).map(|i| chaos_mix_cost(seed, round, i)).collect())
}

/// Worker `i`'s cost function in round `round` of [`chaos_mix_env`].
fn chaos_mix_cost(seed: u64, round: usize, i: usize) -> DynCost {
    let h = hash(seed, ((round as u64) << 8) | i as u64);
    if h & 1 == 0 {
        let speed = 50.0 + (h % 2000) as f64;
        let comm = ((h >> 13) % 100) as f64 / 1000.0;
        Box::new(LatencyCost::new(256.0, speed, comm))
    } else {
        let slope = 0.1 + (h % 500) as f64 / 100.0;
        Box::new(LinearCost::new(slope, ((h >> 9) % 5) as f64 * 0.02))
    }
}

/// [`chaos_mix_env`]`(seed, n)` with its rounds `0..rounds` revealed
/// once: [`reveal_shared`](Environment::reveal_shared) hands out a clone
/// of the round's `Arc` instead of revealing it again, and cloning the
/// environment (a simulator world's fork) copies one `Arc`.
#[derive(Debug, Clone)]
pub(crate) struct Revealed {
    seed: u64,
    n: usize,
    rounds: Arc<[Arc<[DynCost]>]>,
}

impl Revealed {
    fn new(seed: u64, n: usize, rounds: usize) -> Self {
        let round = |t| (0..n).map(|i| chaos_mix_cost(seed, t, i)).collect();
        Self { seed, n, rounds: (0..rounds).map(round).collect() }
    }

    /// Whether these are the rounds `config` plays.
    fn fits(&self, config: &McConfig) -> bool {
        (self.seed, self.n, self.rounds.len()) == (config.env_seed, config.n, config.rounds)
    }
}

impl Environment for Revealed {
    fn num_workers(&self) -> usize {
        self.n
    }

    fn reveal(&mut self, round: usize) -> Vec<DynCost> {
        (0..self.n).map(|i| chaos_mix_cost(self.seed, round, i)).collect()
    }

    fn reveal_shared(&mut self, round: usize) -> Arc<[DynCost]> {
        match self.rounds.get(round) {
            Some(fns) => Arc::clone(fns),
            None => self.reveal(round).into(),
        }
    }
}

/// The cell a configuration keeps its [`Revealed`] rounds in. A clone of
/// the configuration gets a cell of its own, starting from the same
/// rounds.
#[derive(Default)]
struct RevealCache(Mutex<Option<Revealed>>);

impl Clone for RevealCache {
    fn clone(&self) -> Self {
        Self(Mutex::new(self.0.lock().unwrap_or_else(PoisonError::into_inner).clone()))
    }
}

impl fmt::Debug for RevealCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RevealCache").finish_non_exhaustive()
    }
}

/// One model-checking configuration: an architecture, a fleet, a horizon,
/// and the nondeterminism envelope (which fault coins exist for the
/// scheduler to flip).
///
/// The wire envelope is bounded by the retry policy: every physical
/// attempt of every message contributes at most three binary decision
/// points (data drop, duplication, ack drop), so a small `max_attempts`
/// keeps exploration tractable. [`McConfig::new`] defaults to two
/// attempts — one droppable attempt plus the forced final one — which is
/// the smallest envelope in which loss is still observable.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Which simulator to explore.
    pub arch: Arch,
    /// Fleet size.
    pub n: usize,
    /// Horizon in rounds.
    pub rounds: usize,
    /// Seed for [`chaos_mix_env`].
    pub env_seed: u64,
    /// Fault envelope: crash windows open crash decision points, nonzero
    /// drop/duplicate probabilities open wire decision points.
    pub plan: FaultPlan,
    /// Membership envelope: each scheduled event opens a hold-back
    /// decision point at its round boundary.
    pub schedule: MembershipSchedule,
    /// Test-only bug injection: disable the `straggler_pin_with_guard`
    /// overshoot guard (re-breaking the PR 4 simplex bug) so the checker
    /// pipeline has a real violation to find, shrink, and reproduce.
    pub sabotage_overshoot_guard: bool,
    /// Hard cap on executed runs; exploration reports `complete = false`
    /// when it trips instead of running away.
    pub max_runs: usize,
    /// The environment's rounds as this value last revealed them.
    revealed: RevealCache,
}

impl McConfig {
    /// A lossless, crash-free, churn-free configuration: the only
    /// nondeterminism is delivery order. Tighten or widen the envelope
    /// with the builder methods.
    #[must_use]
    pub fn new(arch: Arch, n: usize, rounds: usize) -> Self {
        let mut plan = FaultPlan::none();
        plan.retry = RetryPolicy::new(0.05, 2.0, 2);
        Self {
            arch,
            n,
            rounds,
            env_seed: 0xD01B_00AA,
            plan,
            schedule: MembershipSchedule::none(),
            sabotage_overshoot_guard: false,
            max_runs: 1 << 20,
            revealed: RevealCache::default(),
        }
    }

    /// The configured chaos-mix environment, its rounds revealed once per
    /// configuration value: the rounds kept from an earlier call while
    /// `env_seed`, `n` and `rounds` are still the ones they were revealed
    /// for, and revealed anew (and kept) otherwise.
    pub(crate) fn environment(&self) -> Revealed {
        let mut cell = self.revealed.0.lock().unwrap_or_else(PoisonError::into_inner);
        match &*cell {
            Some(revealed) if revealed.fits(self) => revealed.clone(),
            _ => cell.insert(Revealed::new(self.env_seed, self.n, self.rounds)).clone(),
        }
    }

    /// Replaces the environment seed.
    #[must_use]
    pub fn with_env_seed(mut self, seed: u64) -> Self {
        self.env_seed = seed;
        self
    }

    /// Replaces the fault envelope. The plan's retry policy bounds the
    /// wire decision points per message; keep `max_attempts` small.
    #[must_use]
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Replaces the membership envelope.
    #[must_use]
    pub fn with_schedule(mut self, schedule: MembershipSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Arms the test-only overshoot-guard sabotage.
    #[must_use]
    pub fn with_sabotage(mut self) -> Self {
        self.sabotage_overshoot_guard = true;
        self
    }

    /// Replaces the run cap.
    #[must_use]
    pub fn with_max_runs(mut self, max_runs: usize) -> Self {
        self.max_runs = max_runs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dolbie_core::Environment;

    #[test]
    fn chaos_mix_env_is_deterministic_and_mixed() {
        let mut env = chaos_mix_env(7, 8);
        let costs = env.reveal(3);
        assert_eq!(costs.len(), 8);
        let mut again = chaos_mix_env(7, 8);
        let twice = again.reveal(3);
        for (a, b) in costs.iter().zip(&twice) {
            assert_eq!(a.eval(0.3).to_bits(), b.eval(0.3).to_bits());
        }
    }

    #[test]
    fn default_config_is_lossless_with_a_two_attempt_envelope() {
        let c = McConfig::new(Arch::Ring, 4, 3);
        assert!(c.plan.is_lossless());
        assert_eq!(c.plan.retry.max_attempts, 2);
        assert!(!c.sabotage_overshoot_guard);
    }
}
