//! The TCP coordinator: `M` shard-masters each run DOLBIE's per-round
//! coordination over `N/M` workers, and a root coordinator runs the
//! *same* min-max step over shard-level aggregates — `O(M)` fan-in at the
//! root while staying bitwise identical to the sequential engine. The
//! paper's flat master-worker deployment is the `M = 1` tree: one
//! shard-master over the whole fleet (`dolbie_node master`).
//!
//! ## Roles
//!
//! - **Root** ([`run_root`]): blocking links to `M` shard-masters. Per
//!   round it sees `O(M)` frames and touches `O(1)` engine state
//!   ([`RootEngine`]): elect the global straggler from `M` candidates,
//!   broadcast the coordination scalars, chain the fixed-shape gains
//!   cursor through the shards, run the guard/pin tail, and commit. It
//!   never sees a per-worker array outside an epoch transition.
//! - **Shard-master** ([`run_shard_master`]): a real TCP master over
//!   its contiguous worker range — concurrent admission, coalesced
//!   broadcasts, and the blocking staircase collect — plus one blocking
//!   upstream link to the root. Workers speak the worker protocol of
//!   Algorithm 1 and cannot tell how many shards the tree has.
//!
//! ## Per-round backbone dialect (root ↔ shard-master)
//!
//! `ShardAggregate` up (local max, candidate, share) → `ShardCoord` down
//! (global cost, `α_t`, straggler) → the `Gains` [`ShardCursor`] chained
//! through the shards in index order → optional `ShardRescale` +
//! re-chain → `ShardCommit` (pinned share, refresh flag) → on refresh
//! rounds a `Shares` cursor chain. Every backbone frame is `O(1)` or
//! `O(log N)` (the cursor stack), so the root's per-round work is `O(M)`
//! frames and `O(M log N)` bytes.
//!
//! ## Determinism
//!
//! The trajectory is **bitwise** identical to the flat sequential
//! engine: workers apply the engine's exact eq. (5) arithmetic
//! (unchanged), candidate election composes associatively under the
//! ascending strict-`>` argmax because shard ranges are ascending, the
//! chained [`SumCursor`] reproduces the engine's fixed-shape pairwise
//! compensated sum bit-for-bit regardless of where the chain is cut, and
//! [`RootEngine`] replays the flat engine's order-sensitive tail
//! operation for operation. No `1e-12` concession is needed; the parity
//! tests assert `to_bits()` equality round by round.
//!
//! ## Crash handling
//!
//! Both failure classes the simnet tier models are survived by the real
//! tree (DESIGN.md §12):
//!
//! - **Worker crash → membership epoch.** A shard-master that discovers
//!   dead worker sockets in a collect reports them upstream as
//!   `ShardDead` instead of failing; the root replies with a
//!   `ShardEpoch` announcement, gathers every surviving shard's
//!   committed share slice (`ShardSlice` chunks), replays the engine's
//!   exact renormalization ([`RootEngine::apply_membership`]), and
//!   scatters the authoritative slices back. A death discovered before
//!   the round's commit restarts the round under the new epoch; a death
//!   discovered after the commit stands and the epoch takes effect at
//!   `t + 1`. Frames of an abandoned attempt are filtered by their
//!   stale epoch/round tags at every tier (shard-masters skip the root's
//!   stale round frames while awaiting an epoch; workers' stale
//!   `LocalCost`/`Decision` frames are filtered by the fleet's
//!   epoch-tagged collect).
//! - **Shard-master crash → one mass epoch, or a structured error.**
//!   Once round 0 has committed, every backbone interaction carries a
//!   deadline nested around the worker tier's `frame_timeout` (see
//!   [`root_deadline`]), so a dead or wedged shard-master is detected
//!   within a bounded window instead of hanging the tree, and a live
//!   shard-master busy discovering stalled workers is never mistaken for
//!   a dead one. Round 0 absorbs worker admission, which has no
//!   deadline; until it commits only a closed backbone socket counts as
//!   death. The root classifies I/O
//!   failures (EOF, reset, expired deadline) as a crash,
//!   buries the whole shard range as one mass membership epoch, and
//!   redistributes the departing share over the survivors — unless the
//!   [`ShardedConfig::min_live_shards`] quorum policy says the degraded
//!   tree is no longer worth running, in which case the root shuts the
//!   survivors down and returns a structured [`NetError`] naming the
//!   dead shards. Never a hang, never a panic. A shard-master that
//!   reports something no honest one could — a non-finite cost, a
//!   candidate outside its range or not a member, a share outside
//!   `[0, 1]`, or a cursor with non-finite fields or a full in-progress
//!   block — is buried the same way.
//!
//! The bitwise boundary survives both: an aborted attempt unwinds the
//! root engine ([`RootEngine::abort_round`]) so it leaves no trace in
//! the α record or the refresh schedule, and the renormalization is
//! applied only once the gather is complete — a transition that fails
//! mid-gather restarts with a fresh epoch number and an untouched
//! engine. Loss on the worker links and on the backbone
//! ([`ShardedConfig::with_fault_plan`],
//! [`ShardedConfig::with_backbone_fault_plan`]) is delay: a fault plan's
//! drops become seeded holds on the workers' and shard-masters' replies
//! ([`crate::transport`]), which leave the trajectory bitwise unchanged.
//!
//! [`ShardCursor`]: crate::wire::Frame::ShardCursor
//! [`SumCursor`]: dolbie_core::numeric::SumCursor
//! [`RootEngine`]: dolbie_core::shard::RootEngine
//! [`RootEngine::apply_membership`]: dolbie_core::shard::RootEngine::apply_membership
//! [`RootEngine::abort_round`]: dolbie_core::shard::RootEngine::abort_round

use crate::env::WireEnvSpec;
use crate::fleet::{Fleet, FleetFail, IdleWait, Phase};
use crate::handshake::{admit_concurrent, shipped_plan, welcome_frame};
use crate::transport::{
    connect_schedule, connect_with_backoff, FrameConn, TransportError, WireStats,
    DEFAULT_FRAME_TIMEOUT,
};
use crate::wire::{CursorPhase, Frame, SHARD_SLICE_CHUNK};
use crate::worker::{drive_worker, WorkerReport};
use crate::{unit_interval, NetError};
use dolbie_core::cost::DynCost;
use dolbie_core::numeric::{CursorState, SumCursor, SUM_BLOCK};
use dolbie_core::shard::{combine_candidates, RootEngine, ShardCandidate, ShardLayout};
use dolbie_core::{Allocation, Dolbie, DolbieConfig, LoadBalancer, Observation};
use dolbie_simnet::faults::FaultPlan;
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Worker threads carry tiny state; shard-master threads own a fleet of
/// connections but keep it on the heap — both run on small fixed stacks
/// so a 4096-worker loopback tree fits comfortably.
const WORKER_STACK_BYTES: usize = 256 * 1024;
const SHARD_STACK_BYTES: usize = 1024 * 1024;

/// The root's node code on the backbone, in the hold decisions. Worker
/// links key their holds on `worker_id + 1` and `0`; the backbone uses a
/// disjoint code space so a seeded plan shared by both tiers never
/// replays the same drop schedule on both.
pub const BACKBONE_ROOT_CODE: u64 = 0xB0B0_0000_0000_FFFF;

/// Shard-master `k`'s node code on the backbone, in the hold decisions.
pub fn backbone_shard_code(k: usize) -> u64 {
    0xB0B0_0000_0000_0000 + k as u64 + 1
}

/// A scheduled shard-master kill for crash tests: the shard-master
/// returns (dropping its root link and its whole worker fleet) either
/// right after sending its round-`after_round` aggregate (`mid_round`,
/// a pre-commit death) or right after committing round `after_round`
/// (a post-commit death).
#[derive(Debug, Clone, Copy)]
pub struct ShardKill {
    /// Which shard-master dies.
    pub shard: usize,
    /// The round the kill is keyed on.
    pub after_round: usize,
    /// `true`: die mid-round (after the aggregate, before the commit).
    pub mid_round: bool,
}

/// Configuration of a sharded run, shared by the root and (through
/// `ShardWelcome`) every shard-master.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Total fleet size `N`.
    pub num_workers: usize,
    /// Shard count `M` (`1 ≤ M ≤ N`).
    pub num_shards: usize,
    /// Horizon `T`.
    pub rounds: usize,
    /// The seeded environment, shipped to shard-masters in
    /// `ShardWelcome` and on to workers in `Welcome`.
    pub env: WireEnvSpec,
    /// Engine configuration (step-size schedule), used by the root.
    pub dolbie: DolbieConfig,
    /// Worker-link fault plan; its drop probability, seed and retry
    /// pacing are shipped through the shard-masters to the workers, which
    /// hold their replies by it. Its duplicate probability must be 0.
    pub fault: FaultPlan,
    /// Backbone fault plan, by which each shard-master holds its frames
    /// to the root ([`ShardMasterOptions::backbone_fault`]); the root
    /// holds nothing. Its duplicate probability must be 0.
    pub backbone_fault: FaultPlan,
    /// Quorum policy: when fewer than this many shard-masters survive a
    /// transition, the root shuts the remainder down and returns a
    /// structured error instead of degrading further. `1` (the default)
    /// degrades as long as any shard survives.
    pub min_live_shards: usize,
    /// Scheduled worker kills `(worker, die_after_round)`: the worker's
    /// socket loop returns right after sending that round's `LocalCost`.
    /// `worker` is the global id the victim is admitted under: shards
    /// assign ids in Hello-completion order, so each loopback worker
    /// looks its faults up by the id its `Welcome` carries, whichever
    /// thread that is.
    pub worker_kills: Vec<(usize, usize)>,
    /// Scheduled worker stalls `(worker, stall_after_round, hold)`: after
    /// sending that round's `LocalCost` the worker's socket loop holds
    /// the socket open and silent for `hold`, then returns. Several
    /// entries stall several workers at once; `worker` is a global id, as
    /// in [`Self::worker_kills`].
    pub worker_stalls: Vec<(usize, usize, Duration)>,
    /// Scheduled shard-master kills.
    pub shard_kills: Vec<ShardKill>,
    /// Per-frame read deadline on every worker link; the backbone
    /// deadlines are derived from it ([`root_deadline`],
    /// [`shard_deadline`]).
    pub frame_timeout: Duration,
}

/// The root's deadline on a shard-master reply: `3 · frame_timeout`.
///
/// Between two backbone frames a live shard-master may spend one
/// `frame_timeout` draining the previous commit to a worker that stopped
/// reading, then one more discovering the workers that stalled in the
/// next collect (the staircase finds a whole bank of stalls within one
/// `frame_timeout`), before it reports. The third is margin, so the root
/// never buries a shard that is merely busy burying workers. It is also the detection window for a wedged shard-master.
pub fn root_deadline(frame_timeout: Duration) -> Duration {
    frame_timeout * 3
}

/// A shard-master's deadline on the root: `6 · frame_timeout`.
///
/// The root answers a shard only after hearing from its siblings: it may
/// wait up to `2 · frame_timeout` on live siblings that are burying
/// stalled workers and then a full [`root_deadline`] on a wedged one
/// before it announces the epoch that buries it. Twice the root's
/// deadline covers those `5 · frame_timeout` with one to spare, so
/// siblings of a stalled shard never mistake the root for dead.
pub fn shard_deadline(frame_timeout: Duration) -> Duration {
    frame_timeout * 6
}

/// A worker's deadline on its shard-master, once its first `RoundStart`
/// has arrived: `12 · frame_timeout`, twice [`shard_deadline`].
///
/// Between two frames to a healthy worker a live shard-master may spend
/// one `frame_timeout` draining a commit to a worker that stopped
/// reading and one more discovering the workers that stalled in a
/// collect, then wait a full [`shard_deadline`] for the root's answer
/// and, when that answer opens an epoch transition, up to one
/// [`root_deadline`] more for the scatter while the root gathers its
/// siblings' slices. That is `11 · frame_timeout`; the twelfth is
/// margin, so a worker never gives up on a shard-master that is still
/// waiting out its own deadlines. A shard-master that gives up instead
/// exits and closes the socket, which the worker sees at once.
///
/// `T` reaches the worker in `Welcome`. Before its first `RoundStart`
/// the worker waits without a deadline, as the backbone does during
/// admission: its shard-master may still be admitting the rest of its
/// range. A dead peer still shows as a closed socket at once.
pub fn worker_deadline(frame_timeout: Duration) -> Duration {
    frame_timeout.saturating_mul(12)
}

/// The backbone wait while round 0 is open, on both ends: unbounded in
/// practice. A shard-master sends its first frame only after admitting
/// its whole worker range, and admission has no deadline — workers may
/// dial in whenever they are started — so until round 0 commits a silent
/// backbone peer is still admitting (or waiting on a sibling that is),
/// not wedged. A peer that dies still shows as a closed socket at once.
pub(crate) const ADMISSION_WAIT: Duration = Duration::from_secs(100 * 365 * 24 * 3600);

impl ShardedConfig {
    /// A lossless sharded run: `n` workers in `m` shards for `rounds`
    /// rounds.
    pub fn new(n: usize, m: usize, rounds: usize, env: WireEnvSpec) -> Self {
        Self {
            num_workers: n,
            num_shards: m,
            rounds,
            env,
            dolbie: DolbieConfig::new(),
            fault: FaultPlan::none(),
            backbone_fault: FaultPlan::none(),
            min_live_shards: 1,
            worker_kills: Vec::new(),
            worker_stalls: Vec::new(),
            shard_kills: Vec::new(),
            frame_timeout: DEFAULT_FRAME_TIMEOUT,
        }
    }

    /// Holds every worker's replies by `plan`.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Holds every shard-master's frames to the root by `plan`.
    pub fn with_backbone_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.backbone_fault = plan;
        self
    }

    /// Sets the shard quorum below which the root terminates with a
    /// structured error instead of degrading.
    pub fn with_min_live_shards(mut self, quorum: usize) -> Self {
        self.min_live_shards = quorum;
        self
    }

    /// Schedules worker `global_id` to vanish right after reporting its
    /// round-`round` local cost.
    pub fn with_worker_kill(mut self, global_id: usize, round: usize) -> Self {
        self.worker_kills.push((global_id, round));
        self
    }

    /// Schedules a shard-master kill.
    pub fn with_shard_kill(mut self, kill: ShardKill) -> Self {
        self.shard_kills.push(kill);
        self
    }

    /// Panics on a degenerate configuration: zero rounds, fewer than two
    /// workers, a shard count outside `1..=N`, a quorum above `M`, or a
    /// fault plan that duplicates frames, which TCP never does.
    fn check(&self) {
        let (n, m) = (self.num_workers, self.num_shards);
        assert!(n >= 2, "at least two workers required");
        assert!(m >= 1 && m <= n, "shard count must be in 1..=N");
        assert!(self.rounds > 0, "at least one round required");
        assert!(self.min_live_shards <= m, "quorum cannot exceed the shard count");
        assert!(
            self.fault.duplicate_probability == 0.0
                && self.backbone_fault.duplicate_probability == 0.0,
            "TCP never duplicates a frame: a net-tier fault plan's duplicate probability must be 0"
        );
    }
}

/// One committed round as the root saw it: scalars only — the root-tier
/// analogue of a `ProtocolRound` without any per-worker array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RootRound {
    /// Round index `t`.
    pub round: usize,
    /// The elected global straggler.
    pub straggler: usize,
    /// The round's global cost `l_t`.
    pub global_cost: f64,
    /// The step size the round was played with.
    pub alpha: f64,
    /// Whether the simplex guard rescaled the gains.
    pub rescaled: bool,
    /// Whether this was a Σx-refresh round (extra cursor chain).
    pub refreshed: bool,
    /// Logical backbone frames the root sent + received this round —
    /// the `O(M)` headline quantity.
    pub messages: usize,
    /// Backbone bytes (sent + received) this round.
    pub bytes: usize,
    /// Seconds since the backbone admission completed, taken at this
    /// round's commit. Differences between consecutive rounds give
    /// steady-state per-round latency; round 0 additionally absorbs the
    /// shard-masters' worker admission, so latency accounting starts at
    /// round 1.
    pub elapsed: f64,
}

/// One membership epoch the root applied: the schedule entry a
/// sequential twin needs to replay the run bitwise.
#[derive(Debug, Clone, PartialEq)]
pub struct RootEpoch {
    /// The epoch number announced on the backbone.
    pub epoch: u32,
    /// The round the epoch took effect before (that round was played —
    /// or replayed — under the new membership).
    pub round: usize,
    /// The full membership mask after the transition.
    pub members: Vec<bool>,
}

/// Totals and per-round trajectory of one completed root run.
#[derive(Debug)]
pub struct RootReport {
    /// Per-round scalar records (aborted attempts leave no record).
    pub rounds: Vec<RootRound>,
    /// The shard layout the run was partitioned under.
    pub layout: ShardLayout,
    /// Every membership epoch applied, in order — the membership
    /// schedule a sequential twin replays for bitwise parity.
    pub epochs: Vec<RootEpoch>,
    /// The final membership mask.
    pub members: Vec<bool>,
    /// Shards whose backbone link died and whose whole range was buried
    /// as a mass epoch, in burial order.
    pub dead_shards: Vec<usize>,
    /// Run-total backbone wire counters (dead links included).
    pub wire: WireStats,
    /// Wall-clock seconds from the end of admission to shutdown.
    pub wall_clock: f64,
}

fn cursor_frame(round: usize, phase: CursorPhase, state: &CursorState) -> Frame {
    Frame::ShardCursor {
        round: round as u64,
        phase,
        partial_sum: state.partial_sum,
        partial_compensation: state.partial_compensation,
        partial_len: state.partial_len,
        stack: state.stack.clone(),
    }
}

fn cursor_state(
    partial_sum: f64,
    partial_compensation: f64,
    partial_len: u32,
    stack: Vec<(u64, f64)>,
) -> CursorState {
    CursorState { stack, partial_sum, partial_compensation, partial_len }
}

/// Whether a cursor state is one the fixed-shape sum can produce after
/// absorbing `len` elements: finite fields, `len % SUM_BLOCK` elements in
/// the in-progress block, and one subtree per set bit of the
/// `len / SUM_BLOCK` completed blocks, largest first — the binary counter
/// [`SumCursor`] keeps. The root's chain hands shard `k` a cursor that
/// has absorbed the `range(k).start` values before its range and takes
/// it back at `range(k).end`. A shard-master that returns anything else
/// is buried like a dead one; a root that sends anything else stops the
/// shard-master (an unchecked stack could overflow a subtree size).
fn cursor_is_sound(state: &CursorState, len: usize) -> bool {
    let blocks = (len / SUM_BLOCK) as u64;
    let sizes = (0..u64::BITS).rev().map(|b| 1u64 << b).filter(|size| blocks & size != 0);
    state.partial_sum.is_finite()
        && state.partial_compensation.is_finite()
        && state.partial_len as usize == len % SUM_BLOCK
        && state.stack.iter().map(|&(size, _)| size).eq(sizes)
        && state.stack.iter().all(|&(_, value)| value.is_finite())
}

/// `state`, if [`cursor_is_sound`] after `len` values; otherwise the
/// protocol error that stops the shard-master.
fn sound_cursor(state: CursorState, len: usize) -> Result<CursorState, NetError> {
    if cursor_is_sound(&state, len) {
        Ok(state)
    } else {
        Err(NetError::Protocol(format!("root sent an impossible cursor after {len} values")))
    }
}

/// How a backbone interaction failed: a dead link (I/O error, reset, or
/// an expired deadline — the bounded crash-detection window) versus an
/// unrecoverable protocol violation.
enum LinkFail {
    Dead,
    Fatal(NetError),
}

fn classify(e: TransportError) -> LinkFail {
    match e {
        TransportError::Io(_) => LinkFail::Dead,
        other => LinkFail::Fatal(NetError::Transport(other)),
    }
}

/// Deaths discovered during one attempt or transition, not yet turned
/// into a membership epoch.
#[derive(Debug, Default)]
struct Pending {
    workers: Vec<usize>,
    shards: Vec<usize>,
}

impl Pending {
    fn is_empty(&self) -> bool {
        self.workers.is_empty() && self.shards.is_empty()
    }

    fn shard(k: usize) -> Self {
        Self { workers: Vec::new(), shards: vec![k] }
    }

    fn dead_workers(ws: &[u64]) -> Self {
        Self { workers: ws.iter().map(|&w| w as usize).collect(), shards: Vec::new() }
    }
}

/// How one round attempt at the root ended.
enum Attempt {
    /// The round committed; `post` holds post-commit shard deaths that
    /// take effect as an epoch at `t + 1`.
    Committed { record: RootRound, post: Pending },
    /// The round was abandoned before its commit point; the engine was
    /// unwound and the round restarts after the transition.
    Aborted(Pending),
}

/// The gains/shares cursor chain either completed or broke on the first
/// failure (a dead link or an upstream `ShardDead` report).
enum ChainOutcome {
    Sum(f64),
    Broken(Pending),
}

/// The root tier's live state: engine, backbone links, and membership.
struct Root<'a> {
    cfg: &'a ShardedConfig,
    layout: ShardLayout,
    engine: RootEngine,
    /// Backbone links by shard id; `None` marks a buried shard-master.
    links: Vec<Option<FrameConn>>,
    /// Wire counters absorbed from buried links, so run totals stay
    /// monotone across burials.
    retired: WireStats,
    members: Vec<bool>,
    epoch: u32,
    epochs: Vec<RootEpoch>,
    dead_shards: Vec<usize>,
    records: Vec<RootRound>,
    /// Zero scratch for folding a dead shard's fixed-shape cursor hop.
    zeros: Vec<f64>,
    started: Instant,
}

impl Root<'_> {
    fn totals(&self) -> WireStats {
        let mut total = self.retired;
        for link in self.links.iter().flatten() {
            total.absorb(&link.stats());
        }
        total
    }

    fn populated(&self, k: usize) -> bool {
        self.layout.range(k).any(|i| self.members[i])
    }

    /// Whether shard `k`'s straggler candidate is one an honest
    /// shard-master could report: a finite cost (the `CostFunction`
    /// contract promises finite costs, not non-negative ones), a worker
    /// inside the shard's range that is a current member, and a share in
    /// `[0, 1]`. A shard-master that reports anything else is buried like
    /// a dead one.
    fn candidate_is_sound(&self, k: usize, candidate: &ShardCandidate) -> bool {
        candidate.cost.is_finite()
            && self.layout.range(k).contains(&candidate.worker)
            && self.members[candidate.worker]
            && (0.0..=1.0).contains(&candidate.share)
    }

    /// The deadline on a shard reply: [`ADMISSION_WAIT`] until round 0
    /// commits, [`root_deadline`] after.
    fn deadline(&self) -> Duration {
        if self.records.is_empty() {
            ADMISSION_WAIT
        } else {
            root_deadline(self.cfg.frame_timeout)
        }
    }

    /// Drops shard `k`'s backbone link, absorbing its wire counters.
    /// Idempotent; membership flips happen in [`Root::transition`].
    fn bury_link(&mut self, k: usize) {
        if let Some(link) = self.links[k].take() {
            self.retired.absorb(&link.stats());
            self.dead_shards.push(k);
        }
    }

    /// Chains one fixed-shape cursor through every shard in index
    /// order, folding a buried shard's slice as zeros locally — bitwise
    /// the engine's pairwise compensated reduction over the
    /// concatenated slices, regardless of where links have died.
    fn chain(
        &mut self,
        t: usize,
        phase: CursorPhase,
        logical: &mut usize,
    ) -> Result<ChainOutcome, NetError> {
        let timeout = self.deadline();
        let Self { links, layout, zeros, .. } = self;
        let mut state = SumCursor::new().state();
        for (k, slot) in links.iter_mut().enumerate() {
            let Some(link) = slot.as_mut() else {
                let mut local = SumCursor::from_state(&state);
                local.extend(&zeros[..layout.range(k).len()]);
                state = local.state();
                continue;
            };
            if let Err(e) = link.send(&cursor_frame(t, phase, &state)) {
                return match classify(e) {
                    LinkFail::Dead => Ok(ChainOutcome::Broken(Pending::shard(k))),
                    LinkFail::Fatal(err) => Err(err),
                };
            }
            *logical += 1;
            match link.recv(timeout) {
                Ok(Frame::ShardCursor {
                    round,
                    phase: p,
                    partial_sum,
                    partial_compensation,
                    partial_len,
                    stack,
                }) if round == t as u64 && p == phase => {
                    state = cursor_state(partial_sum, partial_compensation, partial_len, stack);
                    if !cursor_is_sound(&state, layout.range(k).end) {
                        return Ok(ChainOutcome::Broken(Pending::shard(k)));
                    }
                    *logical += 1;
                }
                Ok(Frame::ShardDead { workers, .. }) => {
                    return Ok(ChainOutcome::Broken(Pending::dead_workers(&workers)))
                }
                Ok(_) => {
                    return Err(NetError::Protocol(format!(
                        "shard {k} broke the round-{t} cursor chain"
                    )))
                }
                Err(e) => {
                    return match classify(e) {
                        LinkFail::Dead => Ok(ChainOutcome::Broken(Pending::shard(k))),
                        LinkFail::Fatal(err) => Err(err),
                    }
                }
            }
        }
        Ok(ChainOutcome::Sum(SumCursor::from_state(&state).value()))
    }

    /// Runs one round attempt to its commit — or to the failure that
    /// abandoned it. Everything before [`RootEngine::pin`] is
    /// abortable; `pin` mutates the running total irreversibly, so
    /// failures past it are post-commit and take effect at `t + 1`.
    fn attempt(&mut self, t: usize) -> Result<Attempt, NetError> {
        let m = self.cfg.num_shards;
        let timeout = self.deadline();
        let before = self.totals();
        let mut logical = 0usize;

        // (1) Candidate election over the populated shards' aggregates.
        // Received in *descending* shard order — shard 0's workers are
        // scheduled first, so aggregates land in roughly ascending order
        // and the first blocking recv parks once, on the latest shard.
        // The election itself stays in ascending shard order (the
        // `candidates` vector is indexed, not ordered by arrival).
        let mut candidates: Vec<Option<ShardCandidate>> = (0..m).map(|_| None).collect();
        for k in (0..m).rev() {
            if !self.populated(k) {
                continue;
            }
            let Some(link) = self.links[k].as_mut() else {
                return Err(NetError::Protocol(format!(
                    "shard {k} is populated but its backbone link is gone"
                )));
            };
            match link.recv(timeout) {
                Ok(Frame::ShardAggregate { round, max_cost, straggler, share })
                    if round == t as u64 =>
                {
                    let candidate =
                        ShardCandidate { cost: max_cost, worker: straggler as usize, share };
                    if !self.candidate_is_sound(k, &candidate) {
                        return Ok(Attempt::Aborted(Pending::shard(k)));
                    }
                    candidates[k] = Some(candidate);
                    logical += 1;
                }
                Ok(Frame::ShardDead { round, workers }) if round == t as u64 => {
                    return Ok(Attempt::Aborted(Pending::dead_workers(&workers)));
                }
                Ok(_) => {
                    return Err(NetError::Protocol(format!(
                        "shard {k} sent an unexpected frame during round-{t} aggregation"
                    )))
                }
                Err(e) => {
                    return match classify(e) {
                        LinkFail::Dead => Ok(Attempt::Aborted(Pending::shard(k))),
                        LinkFail::Fatal(err) => Err(err),
                    }
                }
            }
        }
        let Some(elected) = combine_candidates(candidates) else {
            return Err(NetError::Protocol(format!(
                "round {t}: no populated shard produced a straggler candidate; live members \
                 exist but every aggregate was missing"
            )));
        };

        // (2) Coordination scalars down to every live shard.
        let alpha = self.engine.begin_round();
        let coord = Frame::ShardCoord {
            round: t as u64,
            global_cost: elected.cost,
            alpha,
            straggler: elected.worker as u64,
        };
        for k in 0..m {
            let Some(link) = self.links[k].as_mut() else { continue };
            if let Err(e) = link.send(&coord) {
                return match classify(e) {
                    LinkFail::Dead => {
                        self.engine.abort_round(false);
                        Ok(Attempt::Aborted(Pending::shard(k)))
                    }
                    LinkFail::Fatal(err) => Err(err),
                };
            }
            logical += 1;
        }

        // (3) The eq. (6) remainder via the shard-chained gains cursor.
        let mut total_gain = match self.chain(t, CursorPhase::Gains, &mut logical)? {
            ChainOutcome::Sum(sum) => sum,
            ChainOutcome::Broken(pending) => {
                self.engine.abort_round(false);
                return Ok(Attempt::Aborted(pending));
            }
        };

        // (4) The root's order-sensitive tail: guard, pin, commit,
        // refresh, tighten — RootEngine's documented statement order.
        let straggler_share = elected.share;
        let rescale = self.engine.guard_scale(straggler_share, total_gain);
        if let Some(scale) = rescale {
            let frame = Frame::ShardRescale { round: t as u64, scale };
            for k in 0..m {
                let Some(link) = self.links[k].as_mut() else { continue };
                if let Err(e) = link.send(&frame) {
                    return match classify(e) {
                        LinkFail::Dead => {
                            self.engine.abort_round(true);
                            Ok(Attempt::Aborted(Pending::shard(k)))
                        }
                        LinkFail::Fatal(err) => Err(err),
                    };
                }
                logical += 1;
            }
            total_gain = match self.chain(t, CursorPhase::Gains, &mut logical)? {
                ChainOutcome::Sum(sum) => sum,
                ChainOutcome::Broken(pending) => {
                    self.engine.abort_round(true);
                    return Ok(Attempt::Aborted(pending));
                }
            };
        }
        let new_straggler_share = self.engine.pin(straggler_share, total_gain);
        let refresh = self.engine.needs_total_refresh();

        // ---- commit point: no aborts past here ----
        let mut post = Pending::default();
        let commit = Frame::ShardCommit {
            round: t as u64,
            straggler: elected.worker as u64,
            straggler_share: new_straggler_share,
            refresh,
        };
        for k in 0..m {
            let Some(link) = self.links[k].as_mut() else { continue };
            match link.send(&commit) {
                Ok(()) => logical += 1,
                Err(e) => match classify(e) {
                    LinkFail::Dead => {
                        self.bury_link(k);
                        post.shards.push(k);
                    }
                    LinkFail::Fatal(err) => return Err(err),
                },
            }
        }
        if refresh && post.is_empty() {
            match self.chain(t, CursorPhase::Shares, &mut logical)? {
                ChainOutcome::Sum(sum) => self.engine.refresh_total(sum),
                ChainOutcome::Broken(pending) => {
                    if !pending.workers.is_empty() {
                        return Err(NetError::Protocol(format!(
                            "a shard reported worker deaths inside the round-{t} refresh chain"
                        )));
                    }
                    for &k in &pending.shards {
                        self.bury_link(k);
                    }
                    post.shards.extend(pending.shards);
                    // The refresh is skipped: the imminent mass epoch's
                    // `apply_membership` reseeds the running total, and
                    // nothing reads it in between, so the trajectory is
                    // unaffected. Shards still parked on the refresh
                    // hop are released by the epoch announcement.
                }
            }
        }
        // refresh && !post.is_empty(): same skip, chain never starts.
        self.engine.tighten(new_straggler_share);

        let after = self.totals();
        let record = RootRound {
            round: t,
            straggler: elected.worker,
            global_cost: elected.cost,
            alpha,
            rescaled: rescale.is_some(),
            refreshed: refresh,
            messages: logical,
            bytes: ((after.bytes_sent - before.bytes_sent)
                + (after.bytes_received - before.bytes_received)) as usize,
            elapsed: self.started.elapsed().as_secs_f64(),
        };
        Ok(Attempt::Committed { record, post })
    }

    /// Turns pending deaths into membership epochs until none remain.
    /// Per iteration: flip members, enforce the survivor and quorum
    /// policies, announce `ShardEpoch`, gather every live shard's
    /// committed slice, apply the engine's renormalization, scatter the
    /// authoritative slices back. A failure before the renormalization
    /// restarts the transition with a fresh epoch number and an
    /// untouched engine (the bitwise boundary); a failure after it is
    /// deferred to a follow-up epoch.
    fn transition(&mut self, next_round: usize, mut pending: Pending) -> Result<(), NetError> {
        let n = self.layout.num_workers();
        let timeout = self.deadline();
        'transitions: while !pending.is_empty() {
            for &w in &pending.workers {
                if w >= n {
                    return Err(NetError::Protocol(format!(
                        "a shard reported an out-of-range dead worker {w}"
                    )));
                }
                self.members[w] = false;
            }
            pending.workers.clear();
            for k in std::mem::take(&mut pending.shards) {
                let range = self.layout.range(k);
                self.bury_link(k);
                for i in range {
                    self.members[i] = false;
                }
            }
            if !self.members.iter().any(|&alive| alive) {
                return Err(NetError::Protocol(
                    "every worker has died; the run cannot continue".into(),
                ));
            }
            let live_links = self.links.iter().flatten().count();
            if live_links < self.cfg.min_live_shards {
                for link in self.links.iter_mut().flatten() {
                    let _ = link.send(&Frame::Shutdown);
                }
                return Err(NetError::Protocol(format!(
                    "shard quorum lost before round {next_round}: {live_links} live \
                     shard-master(s) remain (dead shards, in burial order: {:?}), below \
                     min_live_shards = {}",
                    self.dead_shards, self.cfg.min_live_shards
                )));
            }
            self.epoch += 1;

            // Announce. A link that dies here restarts the transition
            // with the shard added to the burial set; survivors that
            // already saw this epoch number simply adopt the next one.
            let announce = Frame::ShardEpoch {
                epoch: self.epoch,
                round: next_round as u64,
                members: self.members.clone(),
            };
            for k in 0..self.cfg.num_shards {
                let Some(link) = self.links[k].as_mut() else { continue };
                if let Err(e) = link.send(&announce) {
                    match classify(e) {
                        LinkFail::Dead => {
                            pending.shards.push(k);
                            continue 'transitions;
                        }
                        LinkFail::Fatal(err) => return Err(err),
                    }
                }
            }

            // Gather every live shard's committed slice. Stale frames
            // of abandoned attempts and epochs are filtered here; a
            // crossing `ShardDead` is skipped too — its reporter
            // re-reports under the new epoch after resuming.
            let mut full = vec![0.0f64; n];
            for k in 0..self.cfg.num_shards {
                if self.links[k].is_none() {
                    continue;
                }
                let range = self.layout.range(k);
                let mut covered = vec![false; range.len()];
                let mut got = 0usize;
                while got < range.len() {
                    let link = self.links[k].as_mut().expect("live link checked above");
                    match link.recv(timeout) {
                        Ok(Frame::ShardSlice { epoch, start, shares }) if epoch == self.epoch => {
                            let start = start as usize;
                            if start < range.start || start + shares.len() > range.end {
                                return Err(NetError::Protocol(format!(
                                    "shard {k} gathered a slice outside its range"
                                )));
                            }
                            for (j, &s) in shares.iter().enumerate() {
                                let idx = start + j;
                                full[idx] = s;
                                if !covered[idx - range.start] {
                                    covered[idx - range.start] = true;
                                    got += 1;
                                }
                            }
                        }
                        Ok(Frame::ShardSlice { .. })
                        | Ok(Frame::ShardAggregate { .. })
                        | Ok(Frame::ShardDead { .. }) => {} // stale or crossing
                        Ok(_) => {
                            return Err(NetError::Protocol(format!(
                                "shard {k} sent an unexpected frame during the epoch-{} gather",
                                self.epoch
                            )))
                        }
                        Err(e) => match classify(e) {
                            LinkFail::Dead => {
                                pending.shards.push(k);
                                continue 'transitions;
                            }
                            LinkFail::Fatal(err) => return Err(err),
                        },
                    }
                }
            }

            // The epoch becomes real: the engine's exact renormalization
            // over the stitched full vector, then the schedule record.
            self.engine.apply_membership(&mut full, &self.members);
            self.epochs.push(RootEpoch {
                epoch: self.epoch,
                round: next_round,
                members: self.members.clone(),
            });

            // Scatter the authoritative slices. The epoch is already
            // recorded, so a death here is deferred to a follow-up
            // epoch instead of a restart.
            for k in 0..self.cfg.num_shards {
                if self.links[k].is_none() {
                    continue;
                }
                let range = self.layout.range(k);
                let mut off = range.start;
                while off < range.end {
                    let end = (off + SHARD_SLICE_CHUNK).min(range.end);
                    let frame = Frame::ShardSlice {
                        epoch: self.epoch,
                        start: off as u32,
                        shares: full[off..end].to_vec(),
                    };
                    let link = self.links[k].as_mut().expect("live link checked above");
                    if let Err(e) = link.send(&frame) {
                        match classify(e) {
                            LinkFail::Dead => {
                                pending.shards.push(k);
                                break;
                            }
                            LinkFail::Fatal(err) => return Err(err),
                        }
                    }
                    off = end;
                }
            }
        }
        Ok(())
    }

    fn run(mut self) -> Result<RootReport, NetError> {
        let mut t = 0usize;
        while t < self.cfg.rounds {
            match self.attempt(t)? {
                Attempt::Committed { record, post } => {
                    self.records.push(record);
                    t += 1;
                    if !post.is_empty() {
                        self.transition(t, post)?;
                    }
                }
                Attempt::Aborted(pending) => self.transition(t, pending)?,
            }
        }

        // Orderly shutdown of the backbone; shard-masters relay it on
        // to their workers.
        for link in self.links.iter_mut().flatten() {
            let _ = link.send(&Frame::Shutdown);
        }
        let wire = self.totals();
        Ok(RootReport {
            rounds: self.records,
            layout: self.layout,
            epochs: self.epochs,
            members: self.members,
            dead_shards: self.dead_shards,
            wire,
            wall_clock: self.started.elapsed().as_secs_f64(),
        })
    }
}

/// Accepts the backbone handshakes within a bounded admission window,
/// pacing empty polls of the listener with [`IdleWait`] as worker
/// admission does. Expiry is a structured error naming the shards that
/// never completed the handshake — admission cannot hang and cannot
/// panic.
fn admit_backbone(
    listener: &TcpListener,
    cfg: &ShardedConfig,
    layout: &ShardLayout,
) -> Result<Vec<Option<FrameConn>>, NetError> {
    let (n, m) = (cfg.num_workers, cfg.num_shards);
    let window = cfg.frame_timeout.max(Duration::from_millis(500)) * 4;
    let deadline = Instant::now() + window;
    listener.set_nonblocking(true).map_err(TransportError::from)?;
    let mut slots: Vec<Option<FrameConn>> = (0..m).map(|_| None).collect();
    let mut admitted = 0usize;
    let mut idle = IdleWait::new();
    while admitted < m {
        if Instant::now() >= deadline {
            let _ = listener.set_nonblocking(false);
            let missing: Vec<usize> =
                slots.iter().enumerate().filter(|(_, s)| s.is_none()).map(|(k, _)| k).collect();
            return Err(NetError::Protocol(format!(
                "backbone admission timed out after {window:?}: shards {missing:?} never \
                 completed the ShardHello/ShardWelcome handshake"
            )));
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                idle.pace(false);
                continue;
            }
            Err(e) => return Err(TransportError::from(e).into()),
        };
        idle.pace(true);
        if stream.set_nonblocking(false).is_err() {
            continue;
        }
        let Ok(mut conn) = FrameConn::new(stream) else { continue };
        let shard = match conn.recv(cfg.frame_timeout) {
            Ok(Frame::ShardHello { shard, num_shards })
                if num_shards as usize == m
                    && (shard as usize) < m
                    && slots[shard as usize].is_none() =>
            {
                shard as usize
            }
            Ok(_) | Err(_) => continue, // rejected
        };
        let range = layout.range(shard);
        let welcome = Frame::ShardWelcome {
            shard: shard as u32,
            num_shards: m as u32,
            num_workers: n as u32,
            rounds: cfg.rounds as u64,
            range_start: range.start as u32,
            range_end: range.end as u32,
            env: cfg.env,
            drop_probability: cfg.fault.drop_probability,
            fault_seed: cfg.fault.seed,
            retry_ack_timeout: cfg.fault.retry.ack_timeout,
            retry_backoff: cfg.fault.retry.backoff,
            retry_max_attempts: cfg.fault.retry.max_attempts as u32,
        };
        if conn.send(&welcome).is_err() {
            continue; // died between hello and welcome: rejected
        }
        slots[shard] = Some(conn);
        admitted += 1;
    }
    let _ = listener.set_nonblocking(false);
    Ok(slots)
}

/// Accepts `cfg.num_shards` shard-master connections on `listener`, runs
/// the root tier of the two-level control plane to the horizon — riding
/// out worker and shard-master crashes as membership epochs — and shuts
/// the backbone down.
///
/// Shard identity is self-declared in `ShardHello` (shard-masters are
/// configured peers, not anonymous workers); a connection declaring a
/// mismatched shard count, an out-of-range or duplicate shard id, or
/// anything other than a well-formed `ShardHello` is rejected while the
/// listener keeps accepting, up to a bounded admission window.
///
/// # Panics
///
/// Panics if the configuration is degenerate: zero rounds, fewer than
/// two workers, a shard count outside `1..=N`, a quorum above `M`, or a
/// fault plan with a non-zero duplicate probability. Runtime failures — including peers that crash, stall, or violate the
/// protocol — are structured [`NetError`]s, never panics.
pub fn run_root(listener: &TcpListener, cfg: &ShardedConfig) -> Result<RootReport, NetError> {
    cfg.check();
    let (n, m) = (cfg.num_workers, cfg.num_shards);
    let layout = ShardLayout::even(n, m);
    let engine = RootEngine::new(&Allocation::uniform(n), cfg.dolbie);
    let links = admit_backbone(listener, cfg, &layout)?;
    let max_range = (0..m).map(|k| layout.range(k).len()).max().unwrap_or(0);
    let root = Root {
        cfg,
        layout,
        engine,
        links,
        retired: WireStats::default(),
        members: vec![true; n],
        epoch: 0,
        epochs: Vec::new(),
        dead_shards: Vec::new(),
        records: Vec::with_capacity(cfg.rounds),
        zeros: vec![0.0; max_range],
        started: Instant::now(),
    };
    root.run()
}

/// Options of one shard-master run (everything else arrives in
/// `ShardWelcome`).
#[derive(Debug, Clone)]
pub struct ShardMasterOptions {
    /// This shard's id `k ∈ 0..M`.
    pub shard: usize,
    /// Shard count `M`, cross-checked against the root's.
    pub num_shards: usize,
    /// Per-frame read deadline on every worker link; the root link's
    /// deadline derives from it ([`shard_deadline`]).
    pub frame_timeout: Duration,
    /// The plan this shard-master's frames to the root are held by;
    /// only its drop probability, seed and retry pacing are read.
    pub backbone_fault: FaultPlan,
    /// Crash injection: return (dropping the root link and the whole
    /// worker fleet) keyed on this round; see [`ShardKill`].
    pub die_after_round: Option<usize>,
    /// `true` dies mid-round (after the aggregate, a pre-commit death);
    /// `false` dies after the round's commit and drain.
    pub die_mid_round: bool,
}

/// One round's slice-local record at a shard-master: the played shares
/// and observed costs of this shard's worker range. Concatenating the
/// slices of all `M` shards in shard order reconstructs the flat
/// per-round allocation and cost vectors — that is what the parity
/// harness stitches and compares bitwise. Buried local slots hold the
/// exact `0.0` the engine's renormalization wrote.
#[derive(Debug, Clone)]
pub struct ShardRoundSlice {
    /// Round index `t`.
    pub round: usize,
    /// The slice of shares the round was played with (pre-update).
    pub shares: Vec<f64>,
    /// The slice of observed local costs (`0.0` for buried slots).
    pub costs: Vec<f64>,
    /// Logical worker-link frames the shard-master sent + received this
    /// round (four per live worker, plus `Adjust`s on a rescale).
    pub messages: usize,
}

/// Totals and per-round slices of one completed shard-master run.
#[derive(Debug)]
pub struct ShardRunReport {
    /// This shard's id.
    pub shard: usize,
    /// The global worker range this shard owned.
    pub range: Range<usize>,
    /// Per-round slice records (one per committed round, in order).
    pub rounds: Vec<ShardRoundSlice>,
    /// The final share slice after the last commit.
    pub final_shares: Vec<f64>,
    /// Membership epochs this shard-master served.
    pub epochs_seen: u32,
    /// Run-total wire counters over the worker links (buried links
    /// included).
    pub wire: WireStats,
    /// Run-total wire counters on the root link.
    pub root_wire: WireStats,
    /// Wall-clock seconds from the end of worker admission to the end of
    /// the run.
    pub wall_clock: f64,
}

/// A `ShardEpoch` announcement as received, before it is served.
struct EpochRecord {
    epoch: u32,
    round: u64,
    members: Vec<bool>,
}

/// What a completed transition (or a shutdown crossing one) tells the
/// round loop to do next.
enum Flow {
    /// Resume the round loop at this round under the new epoch.
    Resume { round: usize },
    /// The root closed the run; shut the fleet down and report.
    Terminate,
}

/// A round-loop frame from the root, with epoch transitions and
/// shutdowns already handled.
enum Tail {
    Frame(Frame),
    Flow(Flow),
}

/// A collect's outcome for the round loop: `Some(dead)` when members
/// must be buried, an error when the run cannot go on.
fn buried(result: Result<(), FleetFail>) -> Result<Option<Vec<usize>>, NetError> {
    match result {
        Ok(()) => Ok(None),
        Err(FleetFail::Dead(dead)) => Ok(Some(dead)),
        Err(FleetFail::Fatal(e)) => Err(e),
    }
}

/// The shard-master's live state below the round loop.
struct ShardCtx {
    shard: usize,
    range: Range<usize>,
    n_total: usize,
    root: FrameConn,
    fleet: Fleet,
    /// The deadline on every root recv: [`ADMISSION_WAIT`] until the
    /// first commit arrives, [`shard_deadline`] from then on.
    timeout: Duration,
    epoch: u32,
    epochs_seen: u32,
    /// Liveness by local slot; flips only when an epoch mask buries.
    local_members: Vec<bool>,
    /// The mirrored committed share slice.
    x: Vec<f64>,
    /// Wire counters absorbed from buried worker links.
    retired: WireStats,
    /// When worker admission ended.
    admitted: Instant,
}

impl ShardCtx {
    fn live(&self) -> Vec<usize> {
        (0..self.range.len()).filter(|&i| self.local_members[i]).collect()
    }

    /// Collects round `t`'s `LocalCost` frames from `await_set`;
    /// `Some(dead)` names the members to bury.
    fn collect_costs(
        &mut self,
        t: usize,
        await_set: &[usize],
        out: &mut [f64],
        logical: &mut usize,
    ) -> Result<Option<Vec<usize>>, NetError> {
        buried(self.fleet.collect_blocking(t, self.epoch, Phase::Cost, await_set, out, logical))
    }

    /// Collects round `t`'s `Decision` gains from `await_set`, each
    /// bounded by its sender's eq. (5) ceiling under `alpha` at the
    /// mirrored committed share: a worker claiming more is buried like a
    /// crashed one.
    fn collect_gains(
        &mut self,
        t: usize,
        alpha: f64,
        await_set: &[usize],
        out: &mut [f64],
        logical: &mut usize,
    ) -> Result<Option<Vec<usize>>, NetError> {
        let phase = Phase::Decision { alpha, shares: &self.x };
        buried(self.fleet.collect_blocking(t, self.epoch, phase, await_set, out, logical))
    }

    /// Receives one round-loop frame from the root, transparently
    /// serving any epoch transition (and absorbing a shutdown) so the
    /// round loop only ever sees in-round frames or a [`Flow`].
    fn recv_round_frame(&mut self) -> Result<Tail, NetError> {
        match self.root.recv(self.timeout)? {
            Frame::ShardEpoch { epoch, round, members } => {
                let flow = self.serve_transition(EpochRecord { epoch, round, members })?;
                Ok(Tail::Flow(flow))
            }
            Frame::Shutdown => Ok(Tail::Flow(Flow::Terminate)),
            frame => Ok(Tail::Frame(frame)),
        }
    }

    /// Serves one epoch transition: stream the committed slice up
    /// (gather), await the authoritative slices back (scatter), bury the
    /// locally-dead, and hand the survivors their `Epoch` frames. A
    /// higher epoch announcement arriving mid-scatter means the root
    /// restarted the transition — re-serve under the new number.
    fn serve_transition(&mut self, mut er: EpochRecord) -> Result<Flow, NetError> {
        let count = self.range.len();
        'serve: loop {
            if er.members.len() != self.n_total {
                return Err(NetError::Protocol(format!(
                    "epoch {} mask names {} workers, fleet has {}",
                    er.epoch,
                    er.members.len(),
                    self.n_total
                )));
            }
            // Gather: our committed slice, chunked under the frame cap.
            let mut off = 0usize;
            while off < count {
                let end = (off + SHARD_SLICE_CHUNK).min(count);
                self.root.send(&Frame::ShardSlice {
                    epoch: er.epoch,
                    start: (self.range.start + off) as u32,
                    shares: self.x[off..end].to_vec(),
                })?;
                off = end;
            }
            // Scatter: adopt the renormalized authoritative slice.
            let mut covered = vec![false; count];
            let mut got = 0usize;
            while got < count {
                match self.root.recv(self.timeout)? {
                    Frame::ShardSlice { epoch, start, shares } if epoch == er.epoch => {
                        let start = start as usize;
                        if start < self.range.start || start + shares.len() > self.range.end {
                            return Err(NetError::Protocol(
                                "scattered slice lands outside this shard's range".into(),
                            ));
                        }
                        for (j, &s) in shares.iter().enumerate() {
                            let local = start - self.range.start + j;
                            // Checked here, not by the worker it is relayed
                            // to: an impossible share is the root's fault.
                            self.x[local] = unit_interval("scattered share", s)?;
                            if !covered[local] {
                                covered[local] = true;
                                got += 1;
                            }
                        }
                    }
                    Frame::ShardSlice { .. } => {} // stale epoch
                    Frame::ShardEpoch { epoch, round, members } if epoch > er.epoch => {
                        er = EpochRecord { epoch, round, members };
                        continue 'serve;
                    }
                    Frame::Shutdown => return Ok(Flow::Terminate),
                    _ => {
                        return Err(NetError::Protocol(format!(
                            "root sent an unexpected frame during the epoch-{} transition",
                            er.epoch
                        )))
                    }
                }
            }
            // Adopt: bury what the mask buried, announce to survivors.
            // Local deaths *not* named in the mask (a crossing report
            // the root has not processed yet) stay members and are
            // re-reported under the new epoch by the caller.
            for i in 0..count {
                let alive = er.members[self.range.start + i];
                if self.local_members[i] && !alive {
                    if let Some(conn) = self.fleet.links[i].take() {
                        self.retired.absorb(&conn.codec.stats());
                    }
                    self.local_members[i] = false;
                } else if self.local_members[i] {
                    let frame = Frame::Epoch {
                        epoch: er.epoch,
                        round: er.round,
                        share: self.x[i],
                        members: er.members.clone(),
                    };
                    self.fleet.queue_to(i, &frame);
                }
            }
            self.epoch = er.epoch;
            self.epochs_seen += 1;
            return Ok(Flow::Resume { round: er.round as usize });
        }
    }

    /// Reports locally-discovered worker deaths upstream and parks
    /// until the root answers with an epoch (or closes the run). Stale
    /// frames of the abandoned round — the root may have sent them
    /// before it learned of the death — are skipped. On resume, deaths
    /// the new mask did not cover (a crossing with an unrelated epoch)
    /// stay pending and are re-reported under the new round tag.
    fn report_and_transition(
        &mut self,
        t: usize,
        pending: &mut Vec<usize>,
    ) -> Result<Flow, NetError> {
        self.fleet.clear_awaiting();
        let workers: Vec<u64> = pending.iter().map(|&i| (self.range.start + i) as u64).collect();
        self.root.send(&Frame::ShardDead { round: t as u64, workers })?;
        loop {
            match self.root.recv(self.timeout)? {
                Frame::ShardEpoch { epoch, round, members } => {
                    let flow = self.serve_transition(EpochRecord { epoch, round, members })?;
                    if let Flow::Resume { .. } = flow {
                        pending.retain(|&i| self.local_members[i]);
                    }
                    return Ok(flow);
                }
                Frame::Shutdown => return Ok(Flow::Terminate),
                Frame::ShardCoord { .. }
                | Frame::ShardCursor { .. }
                | Frame::ShardRescale { .. }
                | Frame::ShardCommit { .. } => continue, // stale round frames
                _ => {
                    return Err(NetError::Protocol(
                        "root sent an unexpected frame while a death report was pending".into(),
                    ))
                }
            }
        }
    }

    fn into_report(self, rounds: Vec<ShardRoundSlice>) -> ShardRunReport {
        let mut wire = self.fleet.wire_snapshot();
        wire.absorb(&self.retired);
        ShardRunReport {
            shard: self.shard,
            range: self.range,
            rounds,
            final_shares: self.x,
            epochs_seen: self.epochs_seen,
            wire,
            root_wire: self.root.stats(),
            wall_clock: self.admitted.elapsed().as_secs_f64(),
        }
    }
}

/// Runs one shard-master: handshakes upstream on `root` (ShardHello →
/// ShardWelcome), admits its worker range on `listener` through the
/// shared evented admission, then relays rounds between the root
/// backbone and its worker fleet until `Shutdown` — mapping worker
/// deaths onto membership epochs through the backbone instead of
/// failing.
///
/// Workers are admitted with their *global* ids (`range.start +
/// admission slot`), so their cost derivation and hold decisions are
/// identical under every shard count over the same `N` — a
/// worker cannot tell how many shards the tree has.
pub fn run_shard_master(
    root: TcpStream,
    listener: &TcpListener,
    opts: &ShardMasterOptions,
) -> Result<ShardRunReport, NetError> {
    let mut conn = FrameConn::new(root).map_err(TransportError::from)?;
    conn.send(&Frame::ShardHello { shard: opts.shard as u32, num_shards: opts.num_shards as u32 })?;
    let welcome = conn.recv(shard_deadline(opts.frame_timeout))?;
    let Frame::ShardWelcome {
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
    } = welcome
    else {
        return Err(NetError::Protocol("expected ShardWelcome after ShardHello".into()));
    };
    if shard as usize != opts.shard || num_shards as usize != opts.num_shards {
        return Err(NetError::Protocol("root and shard disagree on the layout".into()));
    }
    // `run_root` asserts N ≥ 2, and `ShardLayout::even(N, M)` cuts
    // `0..N` into contiguous ranges.
    if num_workers < 2 || range_start > range_end || range_end > num_workers {
        return Err(NetError::Protocol(format!(
            "ShardWelcome range {range_start}..{range_end} of {num_workers} workers is impossible"
        )));
    }
    let range = range_start as usize..range_end as usize;
    let count = range.len();
    let n_total = num_workers as usize;
    let fault = shipped_plan(
        fault_seed,
        drop_probability,
        retry_ack_timeout,
        retry_backoff,
        retry_max_attempts,
    )?;

    // Worker admission: concurrent handshakes, parameterized with this
    // shard's global id window, abandoned if the root goes away first.
    let initial = Allocation::uniform(n_total);
    listener.set_nonblocking(true).map_err(TransportError::from)?;
    let admitted = admit_concurrent(
        listener,
        count,
        opts.frame_timeout,
        |slot| {
            let global = range_start as usize + slot;
            welcome_frame(
                global as u32,
                num_workers,
                rounds,
                env,
                initial.share(global),
                &fault,
                opts.frame_timeout,
            )
        },
        || conn.peer_closed(),
    );
    let _ = listener.set_nonblocking(false);
    let admission_end = Instant::now();
    // Every frame to the root from here on answers one from it, and is
    // held by the backbone plan.
    conn.hold_sends(&opts.backbone_fault, backbone_shard_code(opts.shard), BACKBONE_ROOT_CODE);
    // The sockets flip to blocking mode once, here, and stay there: every
    // collect is the staircase.
    let fleet = Fleet::new(admitted?, opts.frame_timeout)?;

    let mut ctx = ShardCtx {
        shard: opts.shard,
        range: range.clone(),
        n_total,
        root: conn,
        fleet,
        timeout: ADMISSION_WAIT,
        epoch: 0,
        epochs_seen: 0,
        local_members: vec![true; count],
        x: range.clone().map(|i| initial.share(i)).collect(),
        retired: WireStats::default(),
        admitted: admission_end,
    };
    let mut gains = vec![0.0f64; count];
    let mut records: Vec<ShardRoundSlice> = Vec::with_capacity(rounds as usize);
    let mut pending_dead: Vec<usize> = Vec::new();
    let mut terminated = false;
    let mut t = 0usize;

    'run: while t < rounds as usize {
        // Deaths discovered last iteration go upstream before anything
        // else; the root answers with the epoch that resumes us.
        if !pending_dead.is_empty() {
            match ctx.report_and_transition(t, &mut pending_dead)? {
                Flow::Resume { round } => {
                    t = round;
                    continue 'run;
                }
                Flow::Terminate => {
                    terminated = true;
                    break 'run;
                }
            }
        }

        let live = ctx.live();
        let played = ctx.x.clone();
        let mut local_costs = vec![0.0f64; count];
        let mut logical = 0usize;

        if !live.is_empty() {
            // Round barrier + cost collection over the live slots. The
            // epoch tag filters stale frames of abandoned attempts.
            let start = Frame::RoundStart { epoch: ctx.epoch, round: t as u64 };
            ctx.fleet.broadcast(&start, &live);
            logical += live.len();
            if let Some(dead) = ctx.collect_costs(t, &live, &mut local_costs, &mut logical)? {
                pending_dead = dead;
                continue 'run;
            }

            // The shard-local candidate: lowest-index first-maximum,
            // strict `>` over the live slots — the associative piece of
            // the flat argmax (buried slots simply do not compete).
            let mut best: Option<usize> = None;
            for &i in &live {
                let better = match best {
                    None => true,
                    Some(b) => local_costs[i] > local_costs[b],
                };
                if better {
                    best = Some(i);
                }
            }
            let best = best.expect("live set is non-empty");
            ctx.root.send(&Frame::ShardAggregate {
                round: t as u64,
                max_cost: local_costs[best],
                straggler: (range.start + best) as u64,
                share: ctx.x[best],
            })?;
        }
        if opts.die_mid_round && opts.die_after_round == Some(t) {
            // Injected crash: vanish mid-round without a goodbye,
            // dropping the root link and the whole worker fleet.
            return Ok(ctx.into_report(records));
        }

        // Coordination scalars from the root (or a transition another
        // shard triggered while we were reporting our aggregate).
        let (global_cost, alpha, straggler) = match ctx.recv_round_frame()? {
            Tail::Flow(Flow::Resume { round }) => {
                pending_dead.clear();
                t = round;
                continue 'run;
            }
            Tail::Flow(Flow::Terminate) => {
                terminated = true;
                break 'run;
            }
            Tail::Frame(Frame::ShardCoord { round, global_cost, alpha, straggler })
                if round == t as u64 =>
            {
                // The elected candidate's cost, which the root checks
                // finite; `StepSize` keeps α in [0, 1]; the candidate
                // is a worker of some shard's range.
                if !global_cost.is_finite() || straggler >= n_total as u64 {
                    return Err(NetError::Protocol(format!(
                        "ShardCoord names straggler {straggler} at global cost {global_cost}"
                    )));
                }
                (global_cost, unit_interval("ShardCoord α", alpha)?, straggler as usize)
            }
            Tail::Frame(_) => {
                return Err(NetError::Protocol(format!(
                    "root sent an unexpected frame during round-{t} coordination"
                )))
            }
        };
        let local_straggler = range.contains(&straggler).then(|| straggler - range.start);
        let others: Vec<usize> =
            live.iter().copied().filter(|&i| Some(i) != local_straggler).collect();

        // Fan the scalars out; collect the non-stragglers' gains. The
        // local straggler's gain stays 0.0, exactly the reference's
        // fixed-shape slot — as do the buried slots'.
        let shared =
            Frame::Coordination { round: t as u64, global_cost, alpha, is_straggler: false };
        ctx.fleet.broadcast(&shared, &others);
        if let Some(ls) = local_straggler {
            let pin =
                Frame::Coordination { round: t as u64, global_cost, alpha, is_straggler: true };
            ctx.fleet.queue_to(ls, &pin);
        }
        logical += others.len() + usize::from(local_straggler.is_some());
        gains.fill(0.0);
        if let Some(dead) = ctx.collect_gains(t, alpha, &others, &mut gains, &mut logical)? {
            pending_dead = dead;
            continue 'run;
        }

        // Serve the root's tail: cursor hops, the rare rescale, then the
        // commit. TCP ordering on the root link guarantees a rescale is
        // seen before the re-chained cursor and the commit before any
        // refresh cursor; an epoch announcement interleaving here means
        // the round was abandoned (or, post-commit, that the next round
        // opens under a new epoch).
        let refresh = loop {
            match ctx.recv_round_frame()? {
                Tail::Flow(Flow::Resume { round }) => {
                    pending_dead.clear();
                    t = round;
                    continue 'run;
                }
                Tail::Flow(Flow::Terminate) => {
                    terminated = true;
                    break 'run;
                }
                Tail::Frame(Frame::ShardCursor {
                    round,
                    phase: CursorPhase::Gains,
                    partial_sum,
                    partial_compensation,
                    partial_len,
                    stack,
                }) if round == t as u64 => {
                    let state = cursor_state(partial_sum, partial_compensation, partial_len, stack);
                    let mut local = SumCursor::from_state(&sound_cursor(state, range.start)?);
                    local.extend(&gains);
                    ctx.root.send(&cursor_frame(t, CursorPhase::Gains, &local.state()))?;
                }
                Tail::Frame(Frame::ShardRescale { round, scale }) if round == t as u64 => {
                    // `RootEngine::guard_scale` only shrinks gains: it
                    // sends x_s / Σ gains only when Σ gains > x_s.
                    let scale = unit_interval("ShardRescale scale", scale)?;
                    for g in gains.iter_mut() {
                        *g *= scale;
                    }
                    let adjust = Frame::Adjust { round: t as u64, scale };
                    ctx.fleet.broadcast(&adjust, &others);
                    logical += others.len();
                }
                Tail::Frame(Frame::ShardCommit {
                    round,
                    straggler: s,
                    straggler_share,
                    refresh,
                }) if round == t as u64 && s as usize == straggler => {
                    // Commit: apply the gains, pin the straggler. The
                    // record is pushed here — a transition interrupting
                    // the refresh hop must not lose the committed round.
                    // Every live sibling has reported by now, so the
                    // root's silence counts from here on.
                    ctx.timeout = shard_deadline(opts.frame_timeout);
                    // `RootEngine::pin`: 1 − the others' mass, clamped
                    // at 0.
                    let straggler_share =
                        unit_interval("ShardCommit straggler share", straggler_share)?;
                    for (xi, gi) in ctx.x.iter_mut().zip(&gains) {
                        *xi += gi;
                    }
                    if let Some(ls) = local_straggler {
                        ctx.x[ls] = straggler_share;
                        let assignment =
                            Frame::Assignment { round: t as u64, share: straggler_share };
                        ctx.fleet.queue_to(ls, &assignment);
                        logical += 1;
                    }
                    records.push(ShardRoundSlice {
                        round: t,
                        shares: played.clone(),
                        costs: local_costs.clone(),
                        messages: logical,
                    });
                    break refresh;
                }
                Tail::Frame(_) => {
                    return Err(NetError::Protocol(format!(
                        "root sent an unexpected frame during round-{t} commit"
                    )))
                }
            }
        };
        if refresh {
            match ctx.recv_round_frame()? {
                Tail::Flow(Flow::Resume { round }) => {
                    pending_dead.clear();
                    t = round;
                    continue 'run;
                }
                Tail::Flow(Flow::Terminate) => {
                    terminated = true;
                    break 'run;
                }
                Tail::Frame(Frame::ShardCursor {
                    round,
                    phase: CursorPhase::Shares,
                    partial_sum,
                    partial_compensation,
                    partial_len,
                    stack,
                }) if round == t as u64 => {
                    let state = cursor_state(partial_sum, partial_compensation, partial_len, stack);
                    let mut local = SumCursor::from_state(&sound_cursor(state, range.start)?);
                    local.extend(&ctx.x);
                    ctx.root.send(&cursor_frame(t, CursorPhase::Shares, &local.state()))?;
                }
                Tail::Frame(_) => {
                    return Err(NetError::Protocol(format!(
                        "root sent an unexpected frame during round-{t} refresh"
                    )))
                }
            }
        }

        // Deliver the commit to the workers before the next barrier. A
        // death discovered here is post-commit: the round stands and
        // the report goes up at the top of the next iteration.
        let dead = ctx.fleet.drain();
        if !dead.is_empty() {
            pending_dead = dead;
        }
        t += 1;
        if !opts.die_mid_round && opts.die_after_round == Some(t - 1) {
            // Injected crash after the commit: the root discovers it at
            // the next round's aggregation.
            return Ok(ctx.into_report(records));
        }
    }

    if !terminated {
        // The root closes the run — but a post-horizon mass epoch (a
        // shard that died during the final commit) may arrive first.
        loop {
            match ctx.root.recv(ctx.timeout)? {
                Frame::Shutdown => break,
                Frame::ShardEpoch { epoch, round, members } => {
                    match ctx.serve_transition(EpochRecord { epoch, round, members })? {
                        Flow::Resume { .. } => continue,
                        Flow::Terminate => break,
                    }
                }
                _ => return Err(NetError::Protocol("expected Shutdown after the horizon".into())),
            }
        }
    }
    ctx.fleet.shutdown(opts.frame_timeout);
    Ok(ctx.into_report(records))
}

/// The paper's flat master–worker deployment: the `M = 1` tree in one
/// process. The root runs on the calling thread and its single
/// shard-master on a scoped thread, joined by a backbone socket on
/// 127.0.0.1; workers dial `listener`. Admission has no deadline, so
/// workers may be started long after this call. The root's error takes
/// priority over the shard-master's, which is usually its echo; a root
/// that fails closes the backbone, which ends the shard-master's
/// admission too, so the call returns even if the fleet never arrives.
///
/// # Panics
///
/// Panics if `cfg.num_shards != 1`, or on the degenerate configurations
/// [`run_root`] rejects.
pub fn run_single_shard(
    listener: &TcpListener,
    cfg: &ShardedConfig,
) -> Result<(RootReport, ShardRunReport), NetError> {
    assert_eq!(cfg.num_shards, 1, "the single-shard tree has exactly one shard");
    cfg.check();
    let backbone = TcpListener::bind("127.0.0.1:0").map_err(TransportError::from)?;
    let addr = backbone.local_addr().map_err(TransportError::from)?;
    let opts = ShardMasterOptions {
        shard: 0,
        num_shards: 1,
        frame_timeout: cfg.frame_timeout,
        backbone_fault: cfg.backbone_fault.clone(),
        die_after_round: None,
        die_mid_round: false,
    };
    std::thread::scope(|scope| {
        let shard = scope.spawn(|| {
            let stream = TcpStream::connect(addr).map_err(TransportError::from)?;
            run_shard_master(stream, listener, &opts)
        });
        let root = run_root(&backbone, cfg);
        let shard = shard
            .join()
            .unwrap_or_else(|_| Err(NetError::Protocol("shard-master thread panicked".into())));
        Ok((root?, shard?))
    })
}

/// The root's report plus every shard-master's and worker's outcome.
#[derive(Debug)]
pub struct ShardedLoopbackRun {
    /// The root-tier report (scalar trajectory, O(M) wire accounting,
    /// membership schedule).
    pub root: RootReport,
    /// Per-shard reports, in shard order. An injected shard kill still
    /// yields a (partial) report; its missing rounds stitch as the
    /// zeros the engine's renormalization wrote for the buried range.
    pub shards: Vec<ShardRunReport>,
    /// Per-thread worker outcomes, in global worker order. Workers of a
    /// killed shard-master report transport errors — their coordinator
    /// vanished under them.
    pub workers: Vec<Result<WorkerReport, NetError>>,
}

impl ShardedLoopbackRun {
    /// The run's flat per-round allocations; see [`stitch_allocations`].
    pub fn allocations(&self) -> Vec<Vec<f64>> {
        stitch_allocations(&self.root, &self.shards)
    }
}

/// Stitches shard slices (in shard order) back into flat per-round
/// allocations: element `t` is the full `N`-vector the fleet played in
/// round `t`, and one extra final entry holds the post-horizon shares —
/// the same shape the parity harnesses compare bitwise against the
/// sequential engine. Rounds a killed shard never committed, and its
/// post-burial final shares, are the exact `0.0` the engine's
/// renormalization assigns a buried range.
pub fn stitch_allocations(root: &RootReport, shards: &[ShardRunReport]) -> Vec<Vec<f64>> {
    let rounds = root.rounds.len();
    let mut out = Vec::with_capacity(rounds + 1);
    for t in 0..rounds {
        let mut flat = Vec::new();
        for shard in shards {
            match shard.rounds.get(t).filter(|r| r.round == t) {
                Some(r) => flat.extend_from_slice(&r.shares),
                None => flat.extend(std::iter::repeat_n(0.0, shard.range.len())),
            }
        }
        out.push(flat);
    }
    let mut last = Vec::new();
    for shard in shards {
        for (j, i) in shard.range.clone().enumerate() {
            let alive = root.members.get(i).copied().unwrap_or(false);
            last.push(if alive { shard.final_shares.get(j).copied().unwrap_or(0.0) } else { 0.0 });
        }
    }
    out.push(last);
    out
}

/// The sequential twin of a run of `cfg`: the flat engine (with
/// `cfg.dolbie`) over `cfg.env`'s costs for `cfg.rounds` rounds,
/// replaying the recorded membership schedule — in the shape of
/// [`stitch_allocations`], so the two compare bitwise.
///
/// This is the contract the root's epoch records promise: before
/// observing round `t`, apply every `epochs` entry with `round == t` (in
/// order); observe through `Observation::from_costs_masked` under the
/// current mask; entries at `round == T` (a death during the final
/// commit) apply after the last observation. With no epochs it is the
/// plain sequential run.
pub fn twin_allocations(cfg: &ShardedConfig, epochs: &[RootEpoch]) -> Vec<Vec<f64>> {
    let (n, rounds) = (cfg.num_workers, cfg.rounds);
    let mut twin = Dolbie::with_config(Allocation::uniform(n), cfg.dolbie);
    let mut members = vec![true; n];
    let mut out = Vec::with_capacity(rounds + 1);
    for t in 0..=rounds {
        for e in epochs.iter().filter(|e| e.round == t) {
            members.copy_from_slice(&e.members);
            twin.apply_membership(&members);
        }
        let shares = twin.allocation().clone();
        out.push((0..n).map(|i| shares.share(i)).collect());
        if t < rounds {
            let cost_fns: Vec<DynCost> = (0..n).map(|i| cfg.env.cost_for(t, i)).collect();
            let obs = Observation::from_costs_masked(t, &shares, &cost_fns, &members, Vec::new());
            twin.observe(&obs);
        }
    }
    out
}

/// Runs root + `M` shard-masters + `N` workers over loopback TCP — the
/// root on the calling thread, everything else on small-stack OS
/// threads — and reaps the whole tree before returning. Nothing is
/// simulated: three process roles, two protocol tiers, every byte
/// through the kernel's loopback interface. Worker threads run on small
/// fixed stacks and connect under the N-scaled [`connect_schedule`], so
/// fleets of thousands neither exhaust memory nor trample the OS listen
/// backlog. Scheduled faults from [`ShardedConfig::worker_kills`],
/// [`ShardedConfig::worker_stalls`], and [`ShardedConfig::shard_kills`]
/// are injected here; the root's structured error (quorum loss, total
/// fleet death) takes priority over the secondary transport errors it
/// causes downstream.
pub fn run_sharded_loopback(cfg: &ShardedConfig) -> Result<ShardedLoopbackRun, NetError> {
    cfg.check();
    let (n, m) = (cfg.num_workers, cfg.num_shards);
    let layout = ShardLayout::even(n, m);
    let root_listener = TcpListener::bind("127.0.0.1:0").map_err(TransportError::from)?;
    let root_addr = root_listener.local_addr().map_err(TransportError::from)?;

    // Bind every shard's worker listener up front so worker threads can
    // start their staggered connects immediately.
    let mut shard_listeners = Vec::with_capacity(m);
    let mut shard_addrs = Vec::with_capacity(m);
    for _ in 0..m {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(TransportError::from)?;
        shard_addrs.push(listener.local_addr().map_err(TransportError::from)?);
        shard_listeners.push(listener);
    }

    let mut shard_handles = Vec::with_capacity(m);
    for (k, listener) in shard_listeners.into_iter().enumerate() {
        let kill = cfg.shard_kills.iter().find(|sk| sk.shard == k);
        let opts = ShardMasterOptions {
            shard: k,
            num_shards: m,
            frame_timeout: cfg.frame_timeout,
            backbone_fault: cfg.backbone_fault.clone(),
            die_after_round: kill.map(|sk| sk.after_round),
            die_mid_round: kill.is_some_and(|sk| sk.mid_round),
        };
        let (attempts, base, stagger) = connect_schedule(m, k);
        let handle = std::thread::Builder::new()
            .name(format!("dolbie-shard-{k}"))
            .stack_size(SHARD_STACK_BYTES)
            .spawn(move || -> Result<ShardRunReport, NetError> {
                if !stagger.is_zero() {
                    std::thread::sleep(stagger);
                }
                let stream = connect_with_backoff(root_addr, attempts, base, k as u64)
                    .map_err(TransportError::from)?;
                run_shard_master(stream, &listener, &opts)
            })
            .map_err(TransportError::from)?;
        shard_handles.push(handle);
    }

    let mut worker_handles = Vec::with_capacity(n);
    for i in 0..n {
        let k = layout.shard_of(i);
        let local = i - layout.range(k).start;
        let addr = shard_addrs[k];
        let (attempts, base, stagger) = connect_schedule(layout.range(k).len(), local);
        let (kills, stalls) = (cfg.worker_kills.clone(), cfg.worker_stalls.clone());
        // A worker's first scheduled stall, else its first kill (a zero
        // hold), if it falls in this round.
        let leave = move |id: usize, round: usize| {
            let stall = stalls.iter().find(|s| s.0 == id).filter(|s| s.1 == round).map(|s| s.2);
            let kill = kills.iter().find(|k| k.0 == id).filter(|k| k.1 == round);
            stall.or(kill.map(|_| Duration::ZERO))
        };
        let handle = std::thread::Builder::new()
            .name(format!("dolbie-worker-{i}"))
            .stack_size(WORKER_STACK_BYTES)
            .spawn(move || -> Result<WorkerReport, NetError> {
                if !stagger.is_zero() {
                    std::thread::sleep(stagger);
                }
                let stream = connect_with_backoff(addr, attempts, base, i as u64)
                    .map_err(TransportError::from)?;
                drive_worker(stream, leave)
            })
            .map_err(TransportError::from)?;
        worker_handles.push(handle);
    }

    let root_result = run_root(&root_listener, cfg);
    let mut shard_results = Vec::with_capacity(m);
    for handle in shard_handles {
        shard_results.push(
            handle
                .join()
                .unwrap_or_else(|_| Err(NetError::Protocol("shard thread panicked".into()))),
        );
    }
    let workers: Vec<Result<WorkerReport, NetError>> = worker_handles
        .into_iter()
        .map(|h| {
            h.join().unwrap_or_else(|_| Err(NetError::Protocol("worker thread panicked".into())))
        })
        .collect();
    // The root's structured error is the primary diagnosis; shard-side
    // transport errors are its echoes and must not mask it.
    let root = root_result?;
    let mut shards = Vec::with_capacity(m);
    for result in shard_results {
        shards.push(result?);
    }
    shards.sort_by_key(|s| s.shard);
    Ok(ShardedLoopbackRun { root, shards, workers })
}
