//! The DOLBIE wire protocol: length-prefixed binary frames with a
//! version/magic handshake.
//!
//! Every §IV-B message of Algorithm 1 has an explicit frame — `LocalCost`,
//! `Coordination {global_cost, alpha, is_straggler}`, `Decision`,
//! `Assignment`, `Shutdown` — plus the frames the real runtime needs
//! around them: the `Hello`/`Welcome` handshake, a `RoundStart` barrier,
//! the rare `Adjust` rescale (the engine's simplex guard), and `Epoch`
//! membership announcements.
//!
//! The sharded control plane ([`crate::shard`]) adds a backbone dialect
//! between the root and its shard-masters: the `ShardHello`/`ShardWelcome`
//! handshake, the per-round `ShardAggregate`/`ShardCoord` scalars, the
//! chained `ShardCursor` carrying the O(log N) compensated-sum state of
//! [`SumCursor`](dolbie_core::numeric::SumCursor), and the
//! `ShardRescale`/`ShardCommit` tail. Every per-round backbone frame is
//! O(1) or O(log N) — never O(N/M) — which is what keeps the root's
//! per-round work O(M).
//!
//! ## Frame layout
//!
//! ```text
//! +----------------+------+-------------------------------+
//! | length: u32 LE | kind | fields, little-endian         |
//! +----------------+------+-------------------------------+
//! ```
//!
//! The length counts the body (kind byte included, prefix excluded) and
//! must not exceed [`MAX_FRAME_BYTES`]. Decoding is strict: truncated
//! bodies, trailing bytes, unknown kinds, out-of-range discriminants,
//! oversized lengths, and a bad magic/version in the handshake are all
//! distinct [`WireError`]s, never a partial parse. `f64` fields travel as
//! their IEEE-754 bit patterns, so shares and costs cross the wire
//! bitwise-exactly — the foundation of the trajectory-parity claim.

use crate::env::WireEnvSpec;

/// Protocol magic carried by both handshake frames.
pub const MAGIC: u32 = 0xD01B_1E55;

/// Protocol version carried by both handshake frames. Version 3 drops
/// the `Data`/`Ack` envelope (kinds 10 and 11 are unknown) and ships the
/// hold pacing in `Welcome`.
pub const VERSION: u16 = 3;

/// Hard cap on a frame body; larger length prefixes are rejected before
/// any allocation.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// A decode failure. Every variant names the precise violation so fuzzed
/// or hostile bytes produce diagnosable rejections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the frame did.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// The claimed body length.
        len: usize,
    },
    /// The kind byte names no known frame.
    UnknownKind(u8),
    /// A handshake frame carried the wrong magic.
    BadMagic {
        /// The magic actually received.
        got: u32,
    },
    /// A handshake frame carried an unsupported protocol version.
    BadVersion {
        /// The version actually received.
        got: u16,
    },
    /// The body was longer than its frame kind prescribes.
    TrailingBytes,
    /// A field held an out-of-range value (named in the payload).
    BadValue(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "truncated frame"),
            Self::Oversized { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap")
            }
            Self::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            Self::BadMagic { got } => write!(f, "bad protocol magic {got:#010x}"),
            Self::BadVersion { got } => {
                write!(f, "unsupported protocol version {got} (this node speaks {VERSION})")
            }
            Self::TrailingBytes => write!(f, "trailing bytes after frame body"),
            Self::BadValue(what) => write!(f, "out-of-range field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Which chained reduction a [`Frame::ShardCursor`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorPhase {
    /// The eq. (6) gains chain — runs (once, or twice after a rescale)
    /// before the round's commit.
    Gains,
    /// The periodic Σx-refresh chain over the committed shares — runs
    /// after the commit on refresh rounds only.
    Shares,
}

impl CursorPhase {
    fn code(self) -> u8 {
        match self {
            Self::Gains => 0,
            Self::Shares => 1,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Self::Gains),
            1 => Some(Self::Shares),
            _ => None,
        }
    }
}

/// One protocol frame.
///
/// # Examples
///
/// ```
/// use dolbie_net::wire::Frame;
///
/// let frame = Frame::Coordination {
///     round: 7,
///     global_cost: 3.25,
///     alpha: 0.5,
///     is_straggler: false,
/// };
/// let bytes = frame.encode();
/// let (back, used) = Frame::decode(&bytes).unwrap();
/// assert_eq!(back, frame);
/// assert_eq!(used, bytes.len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker → master: first frame on a fresh connection.
    Hello {
        /// Protocol version the worker speaks.
        version: u16,
    },
    /// Master → worker: handshake acceptance and run parameters.
    Welcome {
        /// The worker's assigned identity (its accept-order index).
        worker_id: u32,
        /// Fleet size `N`.
        num_workers: u32,
        /// Horizon `T`.
        rounds: u64,
        /// The seeded environment both sides derive costs from.
        env: WireEnvSpec,
        /// The worker's authoritative initial share.
        initial_share: f64,
        /// Probability that the worker holds a reply for a dropped
        /// attempt (0 disables holds; see [`crate::transport::hold`]).
        drop_probability: f64,
        /// Always 0: TCP never duplicates a frame, and a worker refuses
        /// any other value.
        duplicate_probability: f64,
        /// Seed of the hold decisions.
        fault_seed: u64,
        /// The shard-master's `frame_timeout` T in microseconds; the
        /// worker's read deadline derives from it.
        frame_timeout_us: u64,
        /// Hold pacing: the first dropped attempt's timeout in seconds.
        retry_ack_timeout: f64,
        /// Hold pacing: the timeout's multiplier per dropped attempt.
        retry_backoff: f64,
        /// Hold pacing: the attempt budget; the last attempt is forced.
        retry_max_attempts: u32,
    },
    /// Master → worker: the per-round barrier. Carries the membership
    /// epoch so post-churn rounds are unambiguous on the wire.
    RoundStart {
        /// Current membership epoch.
        epoch: u32,
        /// Round index `t`.
        round: u64,
    },
    /// Worker → master: line 4 of Algorithm 1, `l_{i,t} = f_{i,t}(x_{i,t})`.
    LocalCost {
        /// The worker's current membership epoch (stale-frame filter).
        epoch: u32,
        /// Round index `t`.
        round: u64,
        /// The observed local cost.
        cost: f64,
    },
    /// Master → worker: line 12 of Algorithm 1.
    Coordination {
        /// Round index `t`.
        round: u64,
        /// Global cost `l_t = max_i l_{i,t}`.
        global_cost: f64,
        /// Step size `α_t`.
        alpha: f64,
        /// Whether the recipient is this round's straggler.
        is_straggler: bool,
    },
    /// Worker → master: line 7 of Algorithm 1 (non-stragglers only).
    Decision {
        /// The worker's current membership epoch (stale-frame filter).
        epoch: u32,
        /// Round index `t`.
        round: u64,
        /// The tentative next share `x_{i,t+1}`.
        share: f64,
        /// The eq. (5) gain `α_t (x'_{i,t} − x_{i,t})` the master feeds
        /// its mirrored engine.
        gain: f64,
    },
    /// Master → straggler: line 15 of Algorithm 1, the pinned share.
    Assignment {
        /// Round index `t`.
        round: u64,
        /// The straggler's next share.
        share: f64,
    },
    /// Master → non-stragglers: the engine's simplex guard fired; replay
    /// `x_{i,t+1} = x_{i,t} + gain · scale`.
    Adjust {
        /// Round index `t`.
        round: u64,
        /// The guard's rescale factor.
        scale: f64,
    },
    /// Master → survivors: a membership epoch boundary after a crash.
    /// The carried share is authoritative and overrides any tentative
    /// in-round state.
    Epoch {
        /// The new epoch number.
        epoch: u32,
        /// The round that will be (re)started next.
        round: u64,
        /// The recipient's post-renormalization share.
        share: f64,
        /// The member mask over original worker ids.
        members: Vec<bool>,
    },
    /// Master → worker: orderly end of the run.
    Shutdown,
    /// Shard-master → root: first frame on a fresh backbone connection,
    /// declaring which shard this is. Carries the magic/version like
    /// [`Frame::Hello`].
    ShardHello {
        /// The shard's self-declared index `k ∈ [0, M)`.
        shard: u32,
        /// The shard count `M` this shard-master was launched with; the
        /// root rejects a mismatch.
        num_shards: u32,
    },
    /// Root → shard-master: backbone handshake acceptance and run
    /// parameters — the shard-tier analogue of [`Frame::Welcome`], plus
    /// the worker slice this shard owns and the worker links' hold plan,
    /// which the shard-master relays in every `Welcome`.
    ShardWelcome {
        /// Echo of the accepted shard index.
        shard: u32,
        /// Shard count `M`.
        num_shards: u32,
        /// Global fleet size `N` (workers across all shards).
        num_workers: u32,
        /// Horizon `T`.
        rounds: u64,
        /// First global worker id of this shard's slice (inclusive).
        range_start: u32,
        /// One past the last global worker id of this shard's slice.
        range_end: u32,
        /// The seeded environment forwarded to the workers.
        env: WireEnvSpec,
        /// Worker-link drop probability (0 disables holds).
        drop_probability: f64,
        /// Seed of the worker-link hold decisions.
        fault_seed: u64,
        /// Hold pacing: the first dropped attempt's timeout in seconds.
        retry_ack_timeout: f64,
        /// Hold pacing: the timeout's multiplier per dropped attempt.
        retry_backoff: f64,
        /// Hold pacing: the attempt budget; the last attempt is forced.
        retry_max_attempts: u32,
    },
    /// Shard-master → root: the shard's straggler candidate — its slice's
    /// worst local cost, that worker's *global* index, and its current
    /// share (so the root learns `x_{s,t}` in the electing message).
    ShardAggregate {
        /// Round index `t`.
        round: u64,
        /// The shard-local maximum cost.
        max_cost: f64,
        /// Global index of the worker attaining the shard maximum.
        straggler: u64,
        /// That worker's current share.
        share: f64,
    },
    /// Root → shard-master: the agreed round scalars every shard replays
    /// to its workers (the backbone analogue of [`Frame::Coordination`]).
    ShardCoord {
        /// Round index `t`.
        round: u64,
        /// Global cost `l_t = max_i l_{i,t}`.
        global_cost: f64,
        /// Step size `α_t`.
        alpha: f64,
        /// The elected global straggler `s_t`.
        straggler: u64,
    },
    /// The chained compensated-sum cursor, root → shard `k` → root →
    /// shard `k+1` → … — the serialized O(log N) state of
    /// [`SumCursor`](dolbie_core::numeric::SumCursor). Folding each
    /// shard's contiguous slice through the travelling cursor reproduces
    /// the flat engine's fixed-shape pairwise-Neumaier sum bit for bit.
    ShardCursor {
        /// Round index `t`.
        round: u64,
        /// Which reduction this chain computes.
        phase: CursorPhase,
        /// Raw running sum of the in-progress block.
        partial_sum: f64,
        /// Raw compensation term of the in-progress block.
        partial_compensation: f64,
        /// Elements absorbed into the in-progress block.
        partial_len: u32,
        /// The subtree stack, bottom first: `(blocks, value)` pairs.
        stack: Vec<(u64, f64)>,
    },
    /// Root → shard-masters: the feasibility guard fired; rescale the
    /// gains (and have the non-straggler workers replay
    /// [`Frame::Adjust`]), then expect the gains chain to run again.
    ShardRescale {
        /// Round index `t`.
        round: u64,
        /// The guard's rescale factor.
        scale: f64,
    },
    /// Root → shard-masters: the round's commit — apply the gains, pin
    /// the straggler, and (on refresh rounds) expect a
    /// [`CursorPhase::Shares`] chain.
    ShardCommit {
        /// Round index `t`.
        round: u64,
        /// The elected global straggler `s_t`.
        straggler: u64,
        /// The straggler's pinned new share.
        straggler_share: f64,
        /// Whether a Σx-refresh chain follows this commit.
        refresh: bool,
    },
    /// Shard-master → root: one or more of this shard's worker sockets
    /// died. Sent in place of whatever backbone frame the shard would
    /// have sent next; the root answers with a [`Frame::ShardEpoch`]
    /// membership transition.
    ShardDead {
        /// The round the shard was working when the deaths surfaced.
        round: u64,
        /// Global ids of the newly dead workers, ascending.
        workers: Vec<u64>,
    },
    /// Root → shard-masters: a membership epoch transition is starting.
    /// Each live shard abandons any in-flight round attempt, replies with
    /// its pre-renormalization share slice ([`Frame::ShardSlice`]), and
    /// then receives the renormalized slice back before the round in
    /// `round` (re)starts under the new epoch.
    ShardEpoch {
        /// The new epoch number.
        epoch: u32,
        /// The round that will be (re)started after the transition.
        round: u64,
        /// The post-transition member mask over global worker ids.
        members: Vec<bool>,
    },
    /// A contiguous chunk of the full share vector, used in both
    /// directions of an epoch transition: shard → root gathers the
    /// pre-renormalization slice, root → shard scatters the renormalized
    /// one. Chunked so a slice of any N respects [`MAX_FRAME_BYTES`];
    /// receivers drop chunks whose epoch is not the transition in
    /// progress (stale-epoch filtering on the backbone).
    ShardSlice {
        /// The epoch transition this chunk belongs to.
        epoch: u32,
        /// Global worker id of the first share in `shares`.
        start: u32,
        /// The shares, bitwise-exact.
        shares: Vec<f64>,
    },
}

const KIND_HELLO: u8 = 0;
const KIND_WELCOME: u8 = 1;
const KIND_ROUND_START: u8 = 2;
const KIND_LOCAL_COST: u8 = 3;
const KIND_COORDINATION: u8 = 4;
const KIND_DECISION: u8 = 5;
const KIND_ASSIGNMENT: u8 = 6;
const KIND_ADJUST: u8 = 7;
const KIND_EPOCH: u8 = 8;
const KIND_SHUTDOWN: u8 = 9;
// Kinds 10 and 11 were the `Data`/`Ack` envelope of wire version 2.
const KIND_SHARD_HELLO: u8 = 12;
const KIND_SHARD_WELCOME: u8 = 13;
const KIND_SHARD_AGGREGATE: u8 = 14;
const KIND_SHARD_COORD: u8 = 15;
const KIND_SHARD_CURSOR: u8 = 16;
const KIND_SHARD_RESCALE: u8 = 17;
const KIND_SHARD_COMMIT: u8 = 18;
const KIND_SHARD_DEAD: u8 = 19;
const KIND_SHARD_EPOCH: u8 = 20;
const KIND_SHARD_SLICE: u8 = 21;

/// How many shares fit in one [`Frame::ShardSlice`] chunk without
/// approaching [`MAX_FRAME_BYTES`] (8 bytes each plus a small header).
pub const SHARD_SLICE_CHUNK: usize = 4096;

impl Frame {
    /// Encodes the frame as length prefix + body.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(32);
        self.encode_body(&mut body);
        assert!(body.len() <= MAX_FRAME_BYTES, "encoder produced an oversized frame");
        let mut out = Vec::with_capacity(4 + body.len());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decodes one frame from the front of `buf`, returning it and the
    /// number of bytes consumed (prefix included).
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), WireError> {
        if buf.len() < 4 {
            return Err(WireError::Truncated);
        }
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::Oversized { len });
        }
        let Some(body) = buf.get(4..4 + len) else {
            return Err(WireError::Truncated);
        };
        Ok((Self::decode_body(body)?, 4 + len))
    }

    /// Decodes a frame body (the bytes after the length prefix).
    fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
        let mut r = Reader { body, at: 0 };
        let frame = decode_inner(&mut r)?;
        if r.at != body.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(frame)
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Self::Hello { version } => {
                out.push(KIND_HELLO);
                out.extend_from_slice(&MAGIC.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
            }
            Self::Welcome {
                worker_id,
                num_workers,
                rounds,
                env,
                initial_share,
                drop_probability,
                duplicate_probability,
                fault_seed,
                frame_timeout_us,
                retry_ack_timeout,
                retry_backoff,
                retry_max_attempts,
            } => {
                out.push(KIND_WELCOME);
                out.extend_from_slice(&MAGIC.to_le_bytes());
                out.extend_from_slice(&VERSION.to_le_bytes());
                out.extend_from_slice(&worker_id.to_le_bytes());
                out.extend_from_slice(&num_workers.to_le_bytes());
                out.extend_from_slice(&rounds.to_le_bytes());
                out.push(env.kind_code());
                out.extend_from_slice(&env.seed.to_le_bytes());
                out.extend_from_slice(&initial_share.to_bits().to_le_bytes());
                out.extend_from_slice(&drop_probability.to_bits().to_le_bytes());
                out.extend_from_slice(&duplicate_probability.to_bits().to_le_bytes());
                out.extend_from_slice(&fault_seed.to_le_bytes());
                out.extend_from_slice(&frame_timeout_us.to_le_bytes());
                out.extend_from_slice(&retry_ack_timeout.to_bits().to_le_bytes());
                out.extend_from_slice(&retry_backoff.to_bits().to_le_bytes());
                out.extend_from_slice(&retry_max_attempts.to_le_bytes());
            }
            Self::RoundStart { epoch, round } => {
                out.push(KIND_ROUND_START);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&round.to_le_bytes());
            }
            Self::LocalCost { epoch, round, cost } => {
                out.push(KIND_LOCAL_COST);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&cost.to_bits().to_le_bytes());
            }
            Self::Coordination { round, global_cost, alpha, is_straggler } => {
                out.push(KIND_COORDINATION);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&global_cost.to_bits().to_le_bytes());
                out.extend_from_slice(&alpha.to_bits().to_le_bytes());
                out.push(u8::from(*is_straggler));
            }
            Self::Decision { epoch, round, share, gain } => {
                out.push(KIND_DECISION);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&share.to_bits().to_le_bytes());
                out.extend_from_slice(&gain.to_bits().to_le_bytes());
            }
            Self::Assignment { round, share } => {
                out.push(KIND_ASSIGNMENT);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&share.to_bits().to_le_bytes());
            }
            Self::Adjust { round, scale } => {
                out.push(KIND_ADJUST);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&scale.to_bits().to_le_bytes());
            }
            Self::Epoch { epoch, round, share, members } => {
                out.push(KIND_EPOCH);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&share.to_bits().to_le_bytes());
                out.extend_from_slice(&(members.len() as u32).to_le_bytes());
                out.extend(members.iter().map(|&m| u8::from(m)));
            }
            Self::Shutdown => out.push(KIND_SHUTDOWN),
            Self::ShardHello { shard, num_shards } => {
                out.push(KIND_SHARD_HELLO);
                out.extend_from_slice(&MAGIC.to_le_bytes());
                out.extend_from_slice(&VERSION.to_le_bytes());
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&num_shards.to_le_bytes());
            }
            Self::ShardWelcome {
                shard,
                num_shards,
                num_workers,
                rounds,
                range_start,
                range_end,
                env,
                drop_probability,
                fault_seed,
                retry_ack_timeout,
                retry_backoff,
                retry_max_attempts,
            } => {
                out.push(KIND_SHARD_WELCOME);
                out.extend_from_slice(&MAGIC.to_le_bytes());
                out.extend_from_slice(&VERSION.to_le_bytes());
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&num_shards.to_le_bytes());
                out.extend_from_slice(&num_workers.to_le_bytes());
                out.extend_from_slice(&rounds.to_le_bytes());
                out.extend_from_slice(&range_start.to_le_bytes());
                out.extend_from_slice(&range_end.to_le_bytes());
                out.push(env.kind_code());
                out.extend_from_slice(&env.seed.to_le_bytes());
                out.extend_from_slice(&drop_probability.to_bits().to_le_bytes());
                out.extend_from_slice(&fault_seed.to_le_bytes());
                out.extend_from_slice(&retry_ack_timeout.to_bits().to_le_bytes());
                out.extend_from_slice(&retry_backoff.to_bits().to_le_bytes());
                out.extend_from_slice(&retry_max_attempts.to_le_bytes());
            }
            Self::ShardAggregate { round, max_cost, straggler, share } => {
                out.push(KIND_SHARD_AGGREGATE);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&max_cost.to_bits().to_le_bytes());
                out.extend_from_slice(&straggler.to_le_bytes());
                out.extend_from_slice(&share.to_bits().to_le_bytes());
            }
            Self::ShardCoord { round, global_cost, alpha, straggler } => {
                out.push(KIND_SHARD_COORD);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&global_cost.to_bits().to_le_bytes());
                out.extend_from_slice(&alpha.to_bits().to_le_bytes());
                out.extend_from_slice(&straggler.to_le_bytes());
            }
            Self::ShardCursor {
                round,
                phase,
                partial_sum,
                partial_compensation,
                partial_len,
                stack,
            } => {
                out.push(KIND_SHARD_CURSOR);
                out.extend_from_slice(&round.to_le_bytes());
                out.push(phase.code());
                out.extend_from_slice(&partial_sum.to_bits().to_le_bytes());
                out.extend_from_slice(&partial_compensation.to_bits().to_le_bytes());
                out.extend_from_slice(&partial_len.to_le_bytes());
                out.extend_from_slice(&(stack.len() as u32).to_le_bytes());
                for &(blocks, value) in stack {
                    out.extend_from_slice(&blocks.to_le_bytes());
                    out.extend_from_slice(&value.to_bits().to_le_bytes());
                }
            }
            Self::ShardRescale { round, scale } => {
                out.push(KIND_SHARD_RESCALE);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&scale.to_bits().to_le_bytes());
            }
            Self::ShardCommit { round, straggler, straggler_share, refresh } => {
                out.push(KIND_SHARD_COMMIT);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&straggler.to_le_bytes());
                out.extend_from_slice(&straggler_share.to_bits().to_le_bytes());
                out.push(u8::from(*refresh));
            }
            Self::ShardDead { round, workers } => {
                out.push(KIND_SHARD_DEAD);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&(workers.len() as u32).to_le_bytes());
                for &w in workers {
                    out.extend_from_slice(&w.to_le_bytes());
                }
            }
            Self::ShardEpoch { epoch, round, members } => {
                out.push(KIND_SHARD_EPOCH);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&(members.len() as u32).to_le_bytes());
                out.extend(members.iter().map(|&m| u8::from(m)));
            }
            Self::ShardSlice { epoch, start, shares } => {
                out.push(KIND_SHARD_SLICE);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&start.to_le_bytes());
                out.extend_from_slice(&(shares.len() as u32).to_le_bytes());
                for &x in shares {
                    out.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
        }
    }
}

struct Reader<'a> {
    body: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn take<const K: usize>(&mut self) -> Result<[u8; K], WireError> {
        let Some(slice) = self.body.get(self.at..self.at + K) else {
            return Err(WireError::Truncated);
        };
        self.at += K;
        Ok(slice.try_into().expect("slice length checked"))
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn boolean(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadValue(what)),
        }
    }
}

fn decode_inner(r: &mut Reader<'_>) -> Result<Frame, WireError> {
    match r.u8()? {
        KIND_HELLO => {
            let magic = r.u32()?;
            if magic != MAGIC {
                return Err(WireError::BadMagic { got: magic });
            }
            let version = r.u16()?;
            if version != VERSION {
                return Err(WireError::BadVersion { got: version });
            }
            Ok(Frame::Hello { version })
        }
        KIND_WELCOME => {
            let magic = r.u32()?;
            if magic != MAGIC {
                return Err(WireError::BadMagic { got: magic });
            }
            let version = r.u16()?;
            if version != VERSION {
                return Err(WireError::BadVersion { got: version });
            }
            Ok(Frame::Welcome {
                worker_id: r.u32()?,
                num_workers: r.u32()?,
                rounds: r.u64()?,
                env: {
                    let kind = r.u8()?;
                    let seed = r.u64()?;
                    WireEnvSpec::from_code(kind, seed)
                        .ok_or(WireError::BadValue("environment kind"))?
                },
                initial_share: r.f64()?,
                drop_probability: r.f64()?,
                duplicate_probability: r.f64()?,
                fault_seed: r.u64()?,
                frame_timeout_us: r.u64()?,
                retry_ack_timeout: r.f64()?,
                retry_backoff: r.f64()?,
                retry_max_attempts: r.u32()?,
            })
        }
        KIND_ROUND_START => Ok(Frame::RoundStart { epoch: r.u32()?, round: r.u64()? }),
        KIND_LOCAL_COST => {
            Ok(Frame::LocalCost { epoch: r.u32()?, round: r.u64()?, cost: r.f64()? })
        }
        KIND_COORDINATION => Ok(Frame::Coordination {
            round: r.u64()?,
            global_cost: r.f64()?,
            alpha: r.f64()?,
            is_straggler: r.boolean("is_straggler flag")?,
        }),
        KIND_DECISION => Ok(Frame::Decision {
            epoch: r.u32()?,
            round: r.u64()?,
            share: r.f64()?,
            gain: r.f64()?,
        }),
        KIND_ASSIGNMENT => Ok(Frame::Assignment { round: r.u64()?, share: r.f64()? }),
        KIND_ADJUST => Ok(Frame::Adjust { round: r.u64()?, scale: r.f64()? }),
        KIND_EPOCH => {
            let epoch = r.u32()?;
            let round = r.u64()?;
            let share = r.f64()?;
            let count = r.u32()? as usize;
            // A member byte each; anything claiming more members than the
            // remaining body could hold is lying about its length.
            if count > r.body.len() - r.at {
                return Err(WireError::Truncated);
            }
            let mut members = Vec::with_capacity(count);
            for _ in 0..count {
                members.push(r.boolean("member flag")?);
            }
            Ok(Frame::Epoch { epoch, round, share, members })
        }
        KIND_SHUTDOWN => Ok(Frame::Shutdown),
        KIND_SHARD_HELLO => {
            let magic = r.u32()?;
            if magic != MAGIC {
                return Err(WireError::BadMagic { got: magic });
            }
            let version = r.u16()?;
            if version != VERSION {
                return Err(WireError::BadVersion { got: version });
            }
            Ok(Frame::ShardHello { shard: r.u32()?, num_shards: r.u32()? })
        }
        KIND_SHARD_WELCOME => {
            let magic = r.u32()?;
            if magic != MAGIC {
                return Err(WireError::BadMagic { got: magic });
            }
            let version = r.u16()?;
            if version != VERSION {
                return Err(WireError::BadVersion { got: version });
            }
            Ok(Frame::ShardWelcome {
                shard: r.u32()?,
                num_shards: r.u32()?,
                num_workers: r.u32()?,
                rounds: r.u64()?,
                range_start: r.u32()?,
                range_end: r.u32()?,
                env: {
                    let kind = r.u8()?;
                    let seed = r.u64()?;
                    WireEnvSpec::from_code(kind, seed)
                        .ok_or(WireError::BadValue("environment kind"))?
                },
                drop_probability: r.f64()?,
                fault_seed: r.u64()?,
                retry_ack_timeout: r.f64()?,
                retry_backoff: r.f64()?,
                retry_max_attempts: r.u32()?,
            })
        }
        KIND_SHARD_AGGREGATE => Ok(Frame::ShardAggregate {
            round: r.u64()?,
            max_cost: r.f64()?,
            straggler: r.u64()?,
            share: r.f64()?,
        }),
        KIND_SHARD_COORD => Ok(Frame::ShardCoord {
            round: r.u64()?,
            global_cost: r.f64()?,
            alpha: r.f64()?,
            straggler: r.u64()?,
        }),
        KIND_SHARD_CURSOR => {
            let round = r.u64()?;
            let phase =
                CursorPhase::from_code(r.u8()?).ok_or(WireError::BadValue("cursor phase"))?;
            let partial_sum = r.f64()?;
            let partial_compensation = r.f64()?;
            let partial_len = r.u32()?;
            let count = r.u32()? as usize;
            // 16 bytes per stack entry; a count the remaining body cannot
            // hold is lying about its length.
            if count > (r.body.len() - r.at) / 16 {
                return Err(WireError::Truncated);
            }
            let mut stack = Vec::with_capacity(count);
            for _ in 0..count {
                let blocks = r.u64()?;
                let value = r.f64()?;
                stack.push((blocks, value));
            }
            Ok(Frame::ShardCursor {
                round,
                phase,
                partial_sum,
                partial_compensation,
                partial_len,
                stack,
            })
        }
        KIND_SHARD_RESCALE => Ok(Frame::ShardRescale { round: r.u64()?, scale: r.f64()? }),
        KIND_SHARD_COMMIT => Ok(Frame::ShardCommit {
            round: r.u64()?,
            straggler: r.u64()?,
            straggler_share: r.f64()?,
            refresh: r.boolean("refresh flag")?,
        }),
        KIND_SHARD_DEAD => {
            let round = r.u64()?;
            let count = r.u32()? as usize;
            // 8 bytes per worker id; a count the remaining body cannot
            // hold is lying about its length.
            if count > (r.body.len() - r.at) / 8 {
                return Err(WireError::Truncated);
            }
            let mut workers = Vec::with_capacity(count);
            for _ in 0..count {
                workers.push(r.u64()?);
            }
            Ok(Frame::ShardDead { round, workers })
        }
        KIND_SHARD_EPOCH => {
            let epoch = r.u32()?;
            let round = r.u64()?;
            let count = r.u32()? as usize;
            // A member byte each; anything claiming more members than the
            // remaining body could hold is lying about its length.
            if count > r.body.len() - r.at {
                return Err(WireError::Truncated);
            }
            let mut members = Vec::with_capacity(count);
            for _ in 0..count {
                members.push(r.boolean("member flag")?);
            }
            Ok(Frame::ShardEpoch { epoch, round, members })
        }
        KIND_SHARD_SLICE => {
            let epoch = r.u32()?;
            let start = r.u32()?;
            let count = r.u32()? as usize;
            // 8 bytes per share; a count the remaining body cannot hold
            // is lying about its length.
            if count > (r.body.len() - r.at) / 8 {
                return Err(WireError::Truncated);
            }
            let mut shares = Vec::with_capacity(count);
            for _ in 0..count {
                shares.push(r.f64()?);
            }
            Ok(Frame::ShardSlice { epoch, start, shares })
        }
        other => Err(WireError::UnknownKind(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_fields_round_trip_bitwise() {
        for value in [0.1 + 0.2, f64::MIN_POSITIVE, 1.0 / 3.0, -0.0, f64::INFINITY] {
            let frame = Frame::Assignment { round: 3, share: value };
            let (back, _) = Frame::decode(&frame.encode()).unwrap();
            let Frame::Assignment { share, .. } = back else { panic!("kind changed") };
            assert_eq!(share.to_bits(), value.to_bits());
        }
    }

    #[test]
    fn shard_frames_round_trip_bitwise() {
        let frames = vec![
            Frame::ShardHello { shard: 3, num_shards: 16 },
            Frame::ShardWelcome {
                shard: 3,
                num_shards: 16,
                num_workers: 4096,
                rounds: 500,
                range_start: 768,
                range_end: 1024,
                env: crate::env::WireEnvSpec { kind: crate::env::EnvKind::ChaosMix, seed: 9 },
                drop_probability: 0.12,
                fault_seed: 21,
                retry_ack_timeout: 0.01,
                retry_backoff: 1.5,
                retry_max_attempts: 6,
            },
            Frame::ShardAggregate {
                round: 7,
                max_cost: 0.1 + 0.2,
                straggler: 801,
                share: 1.0 / 3.0,
            },
            Frame::ShardCoord { round: 7, global_cost: 0.1 + 0.2, alpha: 0.5, straggler: 801 },
            Frame::ShardCursor {
                round: 7,
                phase: CursorPhase::Gains,
                partial_sum: 0.1 + 0.2,
                partial_compensation: -1.1e-17,
                partial_len: 13,
                stack: vec![(4, 1.0 / 3.0), (1, f64::MIN_POSITIVE)],
            },
            Frame::ShardCursor {
                round: 8,
                phase: CursorPhase::Shares,
                partial_sum: 0.0,
                partial_compensation: 0.0,
                partial_len: 0,
                stack: Vec::new(),
            },
            Frame::ShardRescale { round: 7, scale: 0.75 },
            Frame::ShardCommit { round: 7, straggler: 801, straggler_share: 0.25, refresh: true },
            Frame::ShardDead { round: 7, workers: vec![801, 805] },
            Frame::ShardDead { round: 0, workers: Vec::new() },
            Frame::ShardEpoch { epoch: 2, round: 8, members: vec![true, false, true] },
            Frame::ShardSlice {
                epoch: 2,
                start: 768,
                shares: vec![0.1 + 0.2, 0.0, f64::MIN_POSITIVE, 1.0 / 3.0],
            },
        ];
        for frame in frames {
            let bytes = frame.encode();
            let (back, used) = Frame::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            // PartialEq on f64 is not bitwise; compare the re-encoding.
            assert_eq!(back.encode(), bytes, "{frame:?}");
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn shard_handshake_frames_check_magic_and_version() {
        let hello = Frame::ShardHello { shard: 0, num_shards: 2 };
        let mut bytes = hello.encode();
        bytes[5] ^= 0xFF; // corrupt the magic (after 4-byte prefix + kind)
        assert!(matches!(Frame::decode(&bytes), Err(WireError::BadMagic { .. })));
    }

    #[test]
    fn cursor_stack_count_cannot_exceed_body() {
        let frame = Frame::ShardCursor {
            round: 1,
            phase: CursorPhase::Gains,
            partial_sum: 0.5,
            partial_compensation: 0.0,
            partial_len: 3,
            stack: vec![(2, 0.25)],
        };
        let mut bytes = frame.encode();
        // Corrupt the stack count (offset: 4 prefix + 1 kind + 8 round +
        // 1 phase + 8 sum + 8 compensation + 4 len).
        bytes[34..38].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Frame::decode(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn unknown_cursor_phase_is_rejected() {
        let frame = Frame::ShardCursor {
            round: 1,
            phase: CursorPhase::Shares,
            partial_sum: 0.0,
            partial_compensation: 0.0,
            partial_len: 0,
            stack: Vec::new(),
        };
        let mut bytes = frame.encode();
        bytes[13] = 7; // the phase byte (4 prefix + 1 kind + 8 round)
        assert_eq!(Frame::decode(&bytes), Err(WireError::BadValue("cursor phase")));
    }

    #[test]
    fn shard_dead_worker_count_cannot_exceed_body() {
        let frame = Frame::ShardDead { round: 9, workers: vec![3, 4] };
        let mut bytes = frame.encode();
        // Corrupt the worker count (offset: 4 prefix + 1 kind + 8 round).
        bytes[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Frame::decode(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn shard_epoch_member_count_cannot_exceed_body() {
        let frame = Frame::ShardEpoch { epoch: 1, round: 5, members: vec![true, false] };
        let mut bytes = frame.encode();
        // Corrupt the member count (offset: 4 prefix + 1 kind + 4 epoch +
        // 8 round) to claim far more members than follow.
        bytes[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Frame::decode(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn shard_epoch_member_flags_must_be_boolean() {
        let frame = Frame::ShardEpoch { epoch: 1, round: 5, members: vec![true, false] };
        let mut bytes = frame.encode();
        bytes[21] = 7; // the first member byte, right after the count
        assert_eq!(Frame::decode(&bytes), Err(WireError::BadValue("member flag")));
    }

    #[test]
    fn shard_slice_share_count_cannot_exceed_body() {
        let frame = Frame::ShardSlice { epoch: 1, start: 16, shares: vec![0.25, 0.5] };
        let mut bytes = frame.encode();
        // Corrupt the share count (offset: 4 prefix + 1 kind + 4 epoch +
        // 4 start).
        bytes[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Frame::decode(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn shard_slice_chunk_respects_the_frame_cap() {
        let frame = Frame::ShardSlice {
            epoch: 1,
            start: 0,
            shares: vec![1.0 / SHARD_SLICE_CHUNK as f64; SHARD_SLICE_CHUNK],
        };
        let bytes = frame.encode();
        assert!(bytes.len() <= 4 + MAX_FRAME_BYTES);
        let (back, used) = Frame::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, frame);
    }

    #[test]
    fn epoch_member_count_cannot_exceed_body() {
        let frame = Frame::Epoch { epoch: 1, round: 5, share: 0.25, members: vec![true, false] };
        let mut bytes = frame.encode();
        // Corrupt the member count (offset: 4 prefix + 1 kind + 4 epoch +
        // 8 round + 8 share) to claim far more members than follow.
        bytes[25..29].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Frame::decode(&bytes), Err(WireError::Truncated));
    }
}
