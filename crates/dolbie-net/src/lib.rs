//! # dolbie-net
//!
//! A real TCP runtime for DOLBIE's Algorithm 1 (master-worker): versioned
//! length-prefixed wire protocol, blocking `std::net` transport with
//! deadlines and seeded reconnect, deterministic socket-level fault
//! replay, and crash-detected worker loss mapped onto membership epochs.
//!
//! There is one coordinator: a root over `M` shard-masters, each
//! driving its contiguous range of workers ([`shard`]). The flat
//! master-worker deployment of the paper is the degenerate `M = 1` tree.
//!
//! The headline property is **bitwise trajectory parity**: over a
//! lossless link — loopback threads or separate OS processes — the
//! distributed run's allocation sequence is bit-for-bit the sequential
//! [`Dolbie`](dolbie_core::Dolbie) engine's, because
//!
//! 1. every scalar crosses the wire as its exact IEEE-754 bits
//!    ([`wire`]),
//! 2. the workers apply the engine's exact update arithmetic
//!    ([`worker`]), and
//! 3. the root replays the engine's order-sensitive round tail through
//!    [`RootEngine`](dolbie_core::shard::RootEngine), fed shard
//!    aggregates whose reductions are bitwise the engine's ([`shard`]).
//!
//! Under a lossy link ([`transport::Link`] replaying a
//! [`FaultPlan`](dolbie_simnet::faults::FaultPlan) at the socket layer),
//! loss only delays frames, so the trajectory is unchanged and the
//! chaos-sweep invariants hold over real I/O.
//!
//! ## Module map
//!
//! - [`wire`] — frames, magic/version handshake, strict decode.
//! - [`mod@env`] — wire-encodable seeded environments.
//! - [`transport`] — framed connections, deadlines, the lossy envelope,
//!   seeded reconnect backoff.
//! - [`worker`] — the worker node role: a sans-I/O machine and its one
//!   socket loop.
//! - [`shard`] — the coordinator: a root running the min-max step over
//!   `O(M)` shard aggregates, `M` shard-masters each coordinating `N/M`
//!   workers, [`run_single_shard`](shard::run_single_shard), the flat
//!   master as the `M = 1` tree in one process, and
//!   [`run_sharded_loopback`](shard::run_sharded_loopback), the whole
//!   tree with its workers over 127.0.0.1.
//! - `fleet` / `handshake` (crate-internal) — a shard-master's worker
//!   set over sockets: the blocking staircase collect, which also drives
//!   the lossy envelopes' retransmission clocks, and the
//!   `Hello → Welcome` admission rules.
//!
//! The `dolbie_node` binary exposes every role on the command line:
//! `dolbie_node master --listen 127.0.0.1:4100 --workers 4` (the
//! `M = 1` tree in one process) in one terminal, `dolbie_node worker
//! --connect 127.0.0.1:4100` in the others — or, sharded, `dolbie_node
//! root --listen 127.0.0.1:4200 --shards 4 --workers 64` with four
//! `dolbie_node shard` processes between the root and the workers.
//!
//! ## Quick start
//!
//! ```
//! use dolbie_net::env::{EnvKind, WireEnvSpec};
//! use dolbie_net::shard::{run_sharded_loopback, ShardedConfig};
//!
//! let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 7 };
//! let run = run_sharded_loopback(&ShardedConfig::new(3, 1, 10, env)).unwrap();
//! assert_eq!(run.root.rounds.len(), 10);
//! let total: f64 = run.allocations().last().unwrap().iter().sum();
//! assert!((total - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub(crate) mod fleet;
pub(crate) mod handshake;
pub mod shard;
pub mod transport;
pub mod wire;
pub mod worker;

use transport::TransportError;

/// A runtime failure of either node role.
#[derive(Debug)]
pub enum NetError {
    /// The socket layer failed (I/O, malformed bytes, raw protocol
    /// violations).
    Transport(TransportError),
    /// The peer spoke well-formed frames out of protocol order.
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Transport(e) => write!(f, "transport: {e}"),
            Self::Protocol(what) => write!(f, "protocol: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<TransportError> for NetError {
    fn from(e: TransportError) -> Self {
        Self::Transport(e)
    }
}

/// `value`, if it lies in `[0, 1]` (NaN does not); otherwise the
/// protocol error naming `what`.
pub(crate) fn unit_interval(what: &str, value: f64) -> Result<f64, NetError> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(NetError::Protocol(format!("{what} {value} is outside [0, 1]")))
    }
}
