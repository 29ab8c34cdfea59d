//! # dolbie-simnet
//!
//! The distributed substrate of the DOLBIE reproduction: the paper's two
//! architectures (§IV-B) realized as actual message-passing protocols.
//!
//! - [`MasterWorkerSim`] — Algorithm 1 on a deterministic discrete-event
//!   simulator ([`event::EventQueue`]) with pluggable network latency
//!   ([`latency::LatencyModel`]). `3N` messages per round, `Θ(N)` bytes.
//! - [`FullyDistributedSim`] — Algorithm 2: all-to-all cost/step-size
//!   broadcast, decisions sent only to the straggler. `N(N−1) + (N−1)`
//!   messages per round, `Θ(N²)` bytes, no single point of failure.
//! - [`RingSim`] — an extension architecture: a leaderless token ring
//!   with `2N + 1` messages per round — `2N` when the ring head is itself
//!   the straggler, since no assignment hop is needed — but `O(N)`
//!   protocol depth, trading latency for both low message volume and no
//!   coordinator.
//! - [`Sim`] and [`World`] — the skeleton those three share: one
//!   builder, one `Clone` world and one round driver (prelude, scheduled
//!   dequeue, close), over a [`Protocol`] each architecture implements
//!   with only its round state and message handlers. The three names
//!   above are aliases of `Sim<P, E, L>`.
//! - [`ShardedSim`] — the two-level shard tier (extension): M
//!   shard-masters coordinate N/M workers each and a root coordinator
//!   runs the same min-max step over shard aggregates, cutting the
//!   coordinator's fan-in from Θ(N) to O(M) messages per round while
//!   staying bitwise identical to [`MasterWorkerSim`]. It shares the
//!   builder and the round prelude and keeps its own run loop.
//! - [`threaded`] — Algorithm 1 (master-worker only) executed across
//!   real OS threads over crossbeam channels, verifying that the protocol
//!   is deterministic under true concurrency.
//! - [`faults::FaultPlan`] — a deterministic, seeded fault-injection plan
//!   (crash windows, per-link drop/duplication probabilities, cost
//!   timeouts) accepted by all four protocol simulators; lossy links are
//!   survived with ack/retry-with-backoff and membership collapse
//!   degrades gracefully (shares freeze, the run continues).
//! - [`membership::MembershipSchedule`] — elastic membership (extension):
//!   a deterministic, seeded schedule of worker leave/join epochs honored
//!   by all four protocol simulators. Departing shares are redistributed
//!   proportionally onto the survivors, joiners enter at share zero and
//!   are grown by the ordinary eq. (5)/(6) updates, and the eq. (7) step
//!   size cap is re-derived against the active member count (never
//!   loosened).
//! - [`latency::DegradedNode`] — latency-side fault injection (slow
//!   links/NICs), used to demonstrate that DOLBIE's *decisions* are
//!   delay-invariant even when the wall clock is not.
//! - [`sched::Scheduler`] — controlled nondeterminism: every event
//!   dequeue, wire-fault coin, crash window, and membership boundary in
//!   the sims is routed through one trait so the `dolbie-mc` model
//!   checker can enumerate interleavings instead of sampling them; the
//!   default [`FifoScheduler`] reproduces the uncontrolled sims bitwise.
//!   Each of the three event-driven sims also runs as a `Clone`
//!   [`World`] ([`MasterWorkerWorld`], [`FullyDistributedWorld`],
//!   [`RingWorld`]) stepped one event at a time, so the checker can fork
//!   a run instead of re-simulating its prefix.
//! - [`invariants`] — the five chaos invariants (simplex feasibility, α
//!   monotonicity, no stranded share, architecture agreement,
//!   termination), defined once and consumed by the chaos sweeps and the
//!   model checker alike.
//!
//! All three implementations are tested to produce trajectories identical
//! to the sequential engine in `dolbie-core`, which is what licenses the
//! evaluation crates to use the cheap sequential form.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod event;
pub mod faults;
pub mod fully_distributed;
pub mod invariants;
pub mod latency;
pub mod master_worker;
pub mod membership;
pub mod message;
pub mod ring;
pub mod sched;
pub mod sharded;
mod sim;
pub mod threaded;
pub mod trace;

pub use faults::{Crash, FaultPlan, LinkStats, RetryPolicy};
pub use fully_distributed::{FullyDistributedSim, FullyDistributedWorld};
pub use latency::{DegradedNode, FixedLatency, JitteredLatency, LatencyModel, PerLinkLatency};
pub use master_worker::{MasterWorkerSim, MasterWorkerWorld};
pub use membership::{
    EpochChange, LeaveKind, MembershipChange, MembershipEvent, MembershipSchedule,
    DEFAULT_DETECTION_TIMEOUT,
};
pub use message::{Message, NodeId, Payload};
pub use ring::{RingSim, RingWorld};
pub use sched::{DecisionPoint, FifoScheduler, Scheduler};
pub use sharded::{RootTierRound, ShardedRun, ShardedSim};
pub use sim::{Architecture, Protocol, Sim, World};
pub use trace::{ProtocolRound, ProtocolTrace};
