//! One module per reproduced figure/claim. See DESIGN.md §5 for the
//! experiment index mapping each to the paper.

pub mod ablation;
pub mod accuracy;
pub mod bandit;
pub mod chaos;
pub mod chaos_net;
pub mod churn;
pub mod comms;
pub mod edge_exp;
pub mod faults;
pub mod large_n;
pub mod latency;
pub mod mc;
pub mod per_worker;
pub mod regret;
pub mod tcp;
pub mod utilization;
