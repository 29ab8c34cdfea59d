//! # dolbie
//!
//! Umbrella crate for the DOLBIE reproduction (Wang & Liang, "Distributed
//! Online Min-Max Load Balancing with Risk-Averse Assistance", ICDCS 2023).
//!
//! It re-exports every workspace crate under one roof so examples,
//! integration tests, and downstream users can depend on a single package:
//!
//! - [`core`] — the DOLBIE algorithm, cost functions, oracle, regret.
//! - [`baselines`] — EQU, OGD, ABS, LB-BSP, OPT comparison algorithms.
//! - [`simnet`] — the message-passing protocols on a deterministic
//!   discrete-event simulator: master-worker, fully-distributed, token
//!   ring and the two-level shard tier; plus a threaded runtime of
//!   master-worker.
//! - [`net`] — the real TCP runtime: versioned wire protocol, socket-level
//!   fault handling, master/worker node roles with bitwise trajectory
//!   parity.
//! - [`mlsim`] — the distributed-ML evaluation substrate (heterogeneous
//!   hardware model + from-scratch neural-network trainer).
//! - [`edge`] — the edge-computing task-offloading scenario.
//! - [`metrics`] — statistics, confidence intervals, experiment recording.
//!
//! See the repository README for a guided tour and `examples/` for runnable
//! entry points.

#![forbid(unsafe_code)]

pub use dolbie_baselines as baselines;
pub use dolbie_core as core;
pub use dolbie_edge as edge;
pub use dolbie_metrics as metrics;
pub use dolbie_mlsim as mlsim;
pub use dolbie_net as net;
pub use dolbie_simnet as simnet;

pub use dolbie_core::{
    run_episode, Allocation, Dolbie, DolbieConfig, Environment, EpisodeOptions, EpisodeTrace,
    LoadBalancer, Observation,
};
