//! # dolbie-mc
//!
//! An exhaustive interleaving model checker for the DOLBIE protocol
//! simulators (`dolbie-simnet`).
//!
//! The chaos sweeps *sample* the fault space; this crate *enumerates*
//! it. Every source of nondeterminism in the simulators — event dequeue
//! order, each wire-fault coin inside the retry envelope, each crash
//! window, each membership boundary — is routed through
//! [`dolbie_simnet::Scheduler`], and the checker drives that trait with
//! decision prefixes. The public [`replay()`] runs a prefix from a fresh
//! simulator world — stateless CHESS-style replay, so a run is a pure
//! function of (configuration, prefix). Every world of a configuration
//! plays the same cost functions: the chaos-mix environment is a pure
//! function of (seed, fleet, round), so a [`McConfig`] value reveals each
//! round once and its worlds and their forks share it, kept under the
//! fields that determine it and revealed anew when a caller changes one.
//! The explorer starts each
//! child prefix from a clone of the simulator world its parent saved
//! near the branch point, so a run pays for its new decisions, not for
//! re-simulating the shared prefix. Visited-state pruning over
//! canonical state fingerprints (allocation + α + protocol-phase state +
//! the in-flight message multiset + membership/crash masks, times
//! excluded) cuts the run tree where paths reconverge — delivery
//! reorderings collapse at round barriers, in-envelope drops and
//! duplicates are delay-only — which is what keeps N=3–5 fleets over
//! 3–6 rounds tractable ([`explore()`]). State is fingerprinted on
//! demand and only for the explorer: its replays hash only the delivery
//! choices it reads, from the prefix boundary to the first already-known
//! state ([`DecisionRecord::fp`]); the public [`replay()`], and with it
//! [`shrink()`] and every reproducer, hashes nothing.
//!
//! Every reachable run is checked against the shared chaos invariants
//! ([`dolbie_simnet::invariants`]) plus no-deadlock (the simulators'
//! deadlock asserts are caught and reported), plus a per-architecture
//! *confluence* rule: paths with identical crash/membership outcomes
//! must produce bitwise-identical trajectories. A violation is shrunk to
//! a minimal decision prefix ([`shrink()`]) and emitted as a
//! copy-pasteable `#[test]` ([`reproducer()`]).
//!
//! Honest caveat: this verifies the *configured* fleet, horizon, and
//! fault envelope exhaustively — it is bounded model checking, not a
//! proof about all N or unbounded rounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod explore;
pub mod replay;
pub mod shrink;

pub use config::{chaos_mix_env, Arch, McConfig};
pub use explore::{explore, Exploration, ExploreStats, Strategy, Violation};
pub use replay::{membership_masks, replay, DecisionRecord, ReplayScheduler, RunOutcome};
pub use shrink::{decision_count, reproducer, shrink};
