//! # dolbie-core
//!
//! From-scratch reproduction of **DOLBIE** — *Distributed Online Load
//! Balancing with rIsk-averse assistancE* — from J. Wang and B. Liang,
//! "Distributed Online Min-Max Load Balancing with Risk-Averse Assistance",
//! IEEE ICDCS 2023.
//!
//! The problem: split a unit of workload across `N` heterogeneous workers
//! each round so as to minimize the accumulated **pointwise maximum** of
//! the workers' local costs,
//!
//! ```text
//! min_{x_1..x_T}  Σ_t max_i f_{i,t}(x_{i,t})
//! s.t.            Σ_i x_{i,t} = 1,   x_{i,t} >= 0,
//! ```
//!
//! where the increasing, arbitrarily time-varying cost functions `f_{i,t}`
//! are revealed only *after* each decision. DOLBIE solves it online without
//! gradients or projections: every non-straggling worker learns to offer a
//! *risk-averse* amount of assistance to the current straggler — a step
//! `α_t` toward the largest share it could have absorbed without becoming a
//! worse straggler itself.
//!
//! ## Quick start
//!
//! ```
//! use dolbie_core::{
//!     run_episode, Dolbie, EpisodeOptions,
//!     environment::StaticLinearEnvironment,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Three workers; worker 0 is 4x slower than worker 1.
//! let mut env = StaticLinearEnvironment::from_slopes(vec![4.0, 1.0, 2.0]);
//! let mut dolbie = Dolbie::new(3);
//! let trace = run_episode(&mut dolbie, &mut env, EpisodeOptions::new(100).with_optimum());
//! let regret = trace.regret().unwrap();
//! assert!(regret.dynamic_regret() >= 0.0);
//! println!("total cost {:.3}, regret {:.3}", trace.total_cost(), regret.dynamic_regret());
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! - [`allocation`] — the simplex decision variable (constraints (2)–(3)).
//! - [`cost`] — the cost-function library and the monotone-inverse
//!   interface behind eq. (4).
//! - [`solver`] — bisection search (the paper's suggested implementation of
//!   the inverse).
//! - [`observation`] — what a round reveals: local costs, global cost,
//!   straggler.
//! - [`balancer`] — the [`LoadBalancer`] trait shared with every baseline.
//! - [`dolbie`] — the DOLBIE update (Algorithms 1–2 decision logic),
//!   with optional per-worker capacity caps.
//! - [`engine`] — the shared structure-of-arrays round engine and the
//!   chunked large-N balancer [`ChunkedDolbie`].
//! - [`kernel`] — the fused, cache-blocked, SIMD round kernel
//!   ([`FusedDolbie`]) for cost families with closed-form inverses.
//! - [`membership`] — simplex-safe re-normalization for elastic worker
//!   membership (epoch boundaries: leaves, joins, rejoins).
//! - [`numeric`] — fixed-shape compensated (Neumaier/pairwise) summation
//!   and the streaming [`SumCursor`] that reproduces it across splits.
//! - [`parallel`] — the deterministic work-stealing fan-out harness.
//! - [`shard`] — the two-level (sharded) control plane: shard-local
//!   DOLBIE steps under a root coordinator over shard aggregates.
//! - [`bandit`] — a bandit-feedback extension (value-only observations).
//! - [`delayed`] — a delayed-feedback extension (observations apply `d`
//!   rounds late).
//! - [`step_size`] — the risk-averse step-size schedule of eq. (7).
//! - [`oracle`] — the per-round clairvoyant optimum (`OPT`).
//! - [`regret`] — dynamic regret, path length, and the Theorem 1 bound.
//! - [`environment`] — deterministic synthetic adversaries.
//! - [`runner`] — the episode driver used by tests and experiments.
//!
//! The message-passing realizations of the two architectures live in the
//! `dolbie-simnet` crate; the evaluation substrates (distributed ML, edge
//! offloading) live in `dolbie-mlsim` and `dolbie-edge`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(feature = "portable-simd", feature(portable_simd))]

pub mod allocation;
pub mod balancer;
pub mod bandit;
pub mod cost;
pub mod delayed;
pub mod dolbie;
pub mod engine;
pub mod environment;
pub mod error;
pub mod fingerprint;
pub mod kernel;
mod lanes;
pub mod membership;
pub mod numeric;
pub mod observation;
pub mod oracle;
pub mod parallel;
pub mod regret;
pub mod runner;
pub mod shard;
pub mod solver;
pub mod step_size;

pub use allocation::Allocation;
pub use balancer::LoadBalancer;
pub use bandit::BanditDolbie;
pub use delayed::DelayedDolbie;
pub use dolbie::{Dolbie, DolbieConfig, InitialAlpha};
pub use engine::ChunkedDolbie;
pub use environment::Environment;
pub use error::{AllocationError, OracleError, SolverError};
pub use kernel::{CostSlab, FusedDolbie, FusedRound, KernelVariant};
pub use membership::{membership_alpha_cap, renormalize_onto_members};
pub use numeric::{
    pairwise_neumaier_sum, pairwise_neumaier_sum_parallel, CursorState, NeumaierSum, SumCursor,
};
pub use observation::Observation;
pub use oracle::{
    instantaneous_minimizer, instantaneous_minimizer_cached, instantaneous_minimizer_capped,
    InstantOptimum, OracleCache,
};
pub use regret::{theorem1_bound, RegretTracker};
pub use runner::{
    run_episode, run_episode_streaming, run_episode_with_static_costs, run_replications,
    EpisodeOptions, EpisodeSummary, EpisodeTrace, RoundRecord,
};
pub use shard::{RootEngine, ShardLayout, ShardedDolbie, ShardedRound};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Allocation>();
        assert_send_sync::<crate::Dolbie>();
        assert_send_sync::<crate::RegretTracker>();
        assert_send_sync::<crate::InstantOptimum>();
        assert_send_sync::<crate::cost::DynCost>();
    }
}
