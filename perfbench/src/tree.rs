//! The sharded TCP tree workloads: `run_root` plus `M` shard-masters on
//! their own threads, and the whole worker fleet driven by ONE
//! closed-loop thread.
//!
//! The driver holds every worker socket and speaks the unchanged worker
//! protocol through the public wire API (`Frame`, `FrameCodec`,
//! `WireEnvSpec::cost_for`, `max_acceptable_share`), replying exactly as
//! `dolbie_net::worker::run_worker` would. It visits the sockets in a
//! fixed order, one *turn* each per pass. A turn reads frames until the
//! worker has sent a reply that the next frame depends on — a
//! `LocalCost` or a `Decision` — or until it is the straggler waiting
//! for its pinned share. Frames that need no reply (`Assignment`,
//! `Adjust`, `Epoch`) are absorbed inside the turn, since the frame after
//! them never waits on another worker. That rule is what keeps one
//! thread from deadlocking against a barrier that needs every worker.

use crate::host::{self, SchedStat};
use crate::report::{mean, median, quantile};
use crate::speed::{self, SpeedGauge};
use crate::trace::{totals_by_name, Span, Tracer};
use crate::{mix, Outcome, WARMUP};
use dolbie_core::cost::DynCost;
use dolbie_core::observation::max_acceptable_share;
use dolbie_core::{Allocation, Dolbie, DolbieConfig, LoadBalancer, Observation, ShardLayout};
use dolbie_net::env::{EnvKind, WireEnvSpec};
use dolbie_net::shard::{
    run_root, run_shard_master, RootEpoch, ShardMasterOptions, ShardRunReport, ShardedConfig,
    ShardedLoopbackRun,
};
use dolbie_net::transport::{FrameCodec, WireStats};
use dolbie_net::wire::{Frame, VERSION};
use dolbie_simnet::faults::FaultPlan;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Connections admitted per batch on one listener: a batch connects,
/// sends every `Hello`, then reads every `Welcome`, so no more than this
/// many connects are ever outstanding — well inside the 128-entry accept
/// backlog `TcpListener::bind` asks for. Racing a whole 128-worker slice
/// at one listener overflows it and costs a one-second SYN retransmit.
const ADMIT_BATCH: usize = 32;

/// Read deadline on every driver socket: a wedged tree fails the run
/// instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One tree workload's shape.
#[derive(Debug, Clone)]
pub struct TreeShape {
    /// Fleet size `N`.
    pub n: usize,
    /// Shard-masters `M`.
    pub m: usize,
    /// Rounds per session (one admitted tree).
    pub rounds: usize,
    /// Kill one worker every this many rounds (`None`: no kills).
    pub kill_every: Option<usize>,
    /// In the traced run, record spans for every this-many-th round.
    pub trace_stride: u32,
    /// In the untraced run, time a reference block every this many
    /// rounds (see `speed`).
    pub block_every: u64,
}

/// One session's plan: the tree, the env seed and the scheduled kills.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// Fleet size `N`.
    pub n: usize,
    /// Shard-masters `M`.
    pub m: usize,
    /// Horizon `T`.
    pub rounds: usize,
    /// The seeded cost stream.
    pub env: WireEnvSpec,
    /// `(round, global worker id)`: the driver closes that worker's
    /// socket right after its first `Decision` of that round or later.
    pub kills: Vec<(usize, usize)>,
}

impl SessionPlan {
    /// Plans session `index` of a run seeded with `seed`.
    pub fn new(shape: &TreeShape, seed: u64, index: u64) -> Self {
        let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: mix(seed, 2 * index) };
        let mut kills = Vec::new();
        if let Some(every) = shape.kill_every {
            let mut state = mix(seed, 2 * index + 1);
            let mut dead = vec![false; shape.n];
            dead[0] = true; // the timing socket never dies
            for round in (every / 2..shape.rounds - 1).step_by(every) {
                let victim = loop {
                    state = mix(state, round as u64);
                    let v = (state % shape.n as u64) as usize;
                    if !dead[v] {
                        break v;
                    }
                };
                dead[victim] = true;
                kills.push((round, victim));
            }
        }
        Self { n: shape.n, m: shape.m, rounds: shape.rounds, env, kills }
    }
}

/// A worker socket and the worker state `run_worker` would keep for it.
struct Sock {
    stream: Option<TcpStream>,
    codec: FrameCodec,
    id: usize,
    env: WireEnvSpec,
    share: f64,
    x_old: f64,
    gain: f64,
    epoch: u32,
    cost_fn: Option<DynCost>,
}

/// Scheduler counters per role, each summed over its threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoleSched {
    /// The driver (this process's main thread).
    pub driver: SchedStat,
    /// The root coordinator thread.
    pub root: SchedStat,
    /// Every shard-master thread.
    pub shard: SchedStat,
}

impl RoleSched {
    fn add(&mut self, other: &RoleSched) {
        self.driver.add(&other.driver);
        self.root.add(&other.root);
        self.shard.add(&other.shard);
    }

    fn total(&self) -> SchedStat {
        let mut all = self.driver;
        all.add(&self.root);
        all.add(&self.shard);
        all
    }
}

type Snapshot = Vec<(u32, String, SchedStat)>;

fn sched_delta(before: &Snapshot, after: &Snapshot) -> RoleSched {
    let pid = std::process::id();
    let mut out = RoleSched::default();
    for (tid, name, end) in after {
        let start = before.iter().find(|b| b.0 == *tid).map(|b| b.2).unwrap_or_default();
        let d = end.since(&start);
        if *tid == pid {
            out.driver.add(&d);
        } else if name == "root" {
            out.root.add(&d);
        } else if name.starts_with("shard-") {
            out.shard.add(&d);
        }
    }
    out
}

/// Everything one session produced.
pub struct Session {
    /// Seconds from binding the listeners to the last `Welcome`.
    pub setup_s: f64,
    /// `(round, epoch, when)` of every `RoundStart` at the first socket.
    pub starts: Vec<(u64, u32, Instant)>,
    /// The root's and shard-masters' reports.
    pub run: ShardedLoopbackRun,
    /// The driver's final share per global worker id (killed: `None`).
    pub final_shares: Vec<Option<f64>>,
    /// The driver's own wire counters over every socket.
    pub driver_wire: WireStats,
    /// Milliseconds from the end of the pass that answered the aborted
    /// attempt to the `Epoch` that follows a kill.
    pub transitions_ms: Vec<f64>,
    /// Scheduler counters and wall seconds over the window from the
    /// first `RoundStart` of round 0 to the first of round `T − 1`
    /// (profiled sessions only).
    pub sched: Option<(RoleSched, f64)>,
    /// Milliseconds of every reference block the driver timed between
    /// rounds (unprofiled sessions only).
    pub blocks: Vec<f64>,
    /// Rounds whose period holds a reference block, left out of the
    /// round samples.
    pub blocked_rounds: Vec<u64>,
}

enum Turn {
    Replied,
    Waiting,
    Done,
}

struct Driver<'a> {
    socks: Vec<Sock>,
    tracer: &'a mut Tracer,
    stride: u32,
    plan: &'a SessionPlan,
    round_span: Option<u32>,
    round: u32,
    starts: Vec<(u64, u32, Instant)>,
    victim_dead: bool,
    pass_end: Option<Instant>,
    transitions_ms: Vec<f64>,
    profile: bool,
    sched_start: Option<Snapshot>,
    sched: Option<(RoleSched, f64)>,
    block_every: Option<u64>,
    blocks: Vec<f64>,
    blocked_rounds: Vec<u64>,
    buf: Vec<u8>,
}

impl Driver<'_> {
    /// Records a span under the open round span, if this round is traced.
    fn span(&mut self, name: &'static str, start: u64) {
        if self.round_span.is_some() {
            self.tracer.record(name, start, self.round_span, self.round);
        }
    }

    fn now(&self) -> u64 {
        if self.round_span.is_some() {
            self.tracer.now()
        } else {
            0
        }
    }

    fn recv(&mut self, i: usize) -> Frame {
        loop {
            let t = self.now();
            let popped = self.socks[i].codec.pop_frame().expect("the tree sent undecodable bytes");
            if let Some(frame) = popped {
                self.span("decode", t);
                return frame;
            }
            let t = self.now();
            let sock = &mut self.socks[i];
            let stream = sock.stream.as_mut().expect("reading a live socket");
            let k = loop {
                match stream.read(&mut self.buf) {
                    Ok(0) => panic!("worker {}: the tree closed the socket mid-run", sock.id),
                    Ok(k) => break k,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => panic!("worker {}: read failed: {e}", sock.id),
                }
            };
            sock.codec.ingest(&self.buf[..k]);
            self.span("read", t);
        }
    }

    fn send(&mut self, i: usize, frame: &Frame) {
        let t = self.now();
        self.socks[i].codec.queue(frame);
        self.span("encode", t);
        let t = self.now();
        let sock = &mut self.socks[i];
        let stream = sock.stream.as_mut().expect("writing a live socket");
        while sock.codec.has_tx() {
            match stream.write(sock.codec.pending_tx()) {
                Ok(0) => panic!("worker {}: write returned 0", sock.id),
                Ok(k) => sock.codec.advance_tx(k),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => panic!("worker {}: write failed: {e}", sock.id),
            }
        }
        self.span("write", t);
    }

    /// A `RoundStart` at the first socket: the round clock ticks.
    fn tick(&mut self, round: u64, epoch: u32) {
        let now = Instant::now();
        if let Some(open) = self.round_span.take() {
            self.tracer.close(open);
        }
        self.round = round as u32;
        if self.tracer.enabled() && self.round.is_multiple_of(self.stride) {
            let start = self.tracer.now();
            let span = Span { name: "round", start, end: start, parent: None, round: self.round };
            self.round_span = Some(self.tracer.push(span));
        }
        let first_attempt = self.starts.last().is_none_or(|s| s.0 != round);
        self.starts.push((round, epoch, now));
        let block_due = self.block_every.is_some_and(|every| round % every == every / 2);
        if first_attempt && block_due {
            // The round waits on the driver for as long as the block
            // runs, so its period leaves the samples.
            self.blocks.push(speed::time_block());
            self.blocked_rounds.push(round);
        }
        if self.profile && first_attempt {
            if round == 0 {
                self.sched_start = Some(host::thread_schedstats());
            } else if round as usize == self.plan.rounds - 1 {
                if let Some(before) = &self.sched_start {
                    let wall = now.duration_since(self.starts[0].2).as_secs_f64();
                    self.sched = Some((sched_delta(before, &host::thread_schedstats()), wall));
                }
            }
        }
    }

    fn turn(&mut self, i: usize) -> Turn {
        loop {
            match self.recv(i) {
                Frame::RoundStart { epoch, round } => {
                    if i == 0 {
                        self.tick(round, epoch);
                    }
                    let sock = &self.socks[i];
                    assert_eq!(
                        epoch, sock.epoch,
                        "worker {}: round under a foreign epoch",
                        sock.id
                    );
                    let t = self.now();
                    let f = sock.env.cost_for(round as usize, sock.id);
                    let cost = f.eval(sock.share);
                    self.span("compute", t);
                    self.socks[i].cost_fn = Some(f);
                    self.send(i, &Frame::LocalCost { epoch, round, cost });
                    return Turn::Replied;
                }
                Frame::Coordination { round, global_cost, alpha, is_straggler } => {
                    if is_straggler {
                        return Turn::Waiting;
                    }
                    let t = self.now();
                    let sock = &mut self.socks[i];
                    let f = sock.cost_fn.as_ref().expect("coordination before any round");
                    sock.x_old = sock.share;
                    let target = max_acceptable_share(&**f, sock.share, global_cost);
                    sock.gain = (alpha * (target - sock.share)).max(0.0);
                    sock.share = sock.x_old + sock.gain;
                    let reply = Frame::Decision {
                        epoch: sock.epoch,
                        round,
                        share: sock.share,
                        gain: sock.gain,
                    };
                    self.span("compute", t);
                    self.send(i, &reply);
                    let id = self.socks[i].id;
                    if self.plan.kills.iter().any(|&(r, v)| v == id && round as usize >= r) {
                        // Vanish right after the Decision: only a
                        // non-straggler sends one, so the shard-master
                        // finds the socket dead in the next round's cost
                        // collect, after that round's RoundStart reached
                        // every worker. A straggler dying after its
                        // LocalCost is found only when its Assignment is
                        // written, and the shard-master then withholds
                        // the next RoundStart while another shard still
                        // waits on its workers' costs — a wait a single
                        // thread serving the sockets in order cannot
                        // break.
                        self.socks[i].stream = None;
                        self.victim_dead = true;
                        return Turn::Done;
                    }
                    return Turn::Replied;
                }
                Frame::Assignment { share, .. } => self.socks[i].share = share,
                Frame::Adjust { scale, .. } => {
                    let sock = &mut self.socks[i];
                    sock.share = sock.x_old + sock.gain * scale;
                }
                Frame::Epoch { epoch, share, .. } => {
                    let sock = &mut self.socks[i];
                    sock.epoch = epoch;
                    sock.share = share;
                    if std::mem::take(&mut self.victim_dead) {
                        let since = self.pass_end.expect("a pass ended since the kill");
                        self.transitions_ms.push(since.elapsed().as_secs_f64() * 1e3);
                    }
                }
                Frame::Shutdown => {
                    self.socks[i].stream = None;
                    return Turn::Done;
                }
                other => panic!("unexpected frame at a worker: {other:?}"),
            }
        }
    }

    fn run(&mut self) {
        let mut live: Vec<usize> = (0..self.socks.len()).collect();
        while !live.is_empty() {
            let mut next = Vec::with_capacity(live.len());
            for &i in &live {
                match self.turn(i) {
                    Turn::Replied | Turn::Waiting => next.push(i),
                    Turn::Done => {}
                }
            }
            self.pass_end = Some(Instant::now());
            live = next;
        }
        if let Some(open) = self.round_span.take() {
            self.tracer.close(open);
        }
    }
}

/// Connects, greets and admits the whole fleet in backlog-safe batches.
fn admit(plan: &SessionPlan, addrs: &[SocketAddr]) -> Vec<Sock> {
    let layout = ShardLayout::even(plan.n, plan.m);
    let mut socks = Vec::with_capacity(plan.n);
    let hello = Frame::Hello { version: VERSION }.encode();
    let mut buf = vec![0u8; 4096];
    for (k, addr) in addrs.iter().enumerate() {
        let mut left = layout.range(k).len();
        while left > 0 {
            let batch = left.min(ADMIT_BATCH);
            left -= batch;
            let mut streams = Vec::with_capacity(batch);
            for _ in 0..batch {
                let mut s = TcpStream::connect(addr).expect("connect to a shard-master");
                s.set_nodelay(true).expect("set TCP_NODELAY");
                s.set_read_timeout(Some(READ_TIMEOUT)).expect("set a read deadline");
                s.write_all(&hello).expect("send Hello");
                streams.push(s);
            }
            for mut stream in streams {
                let mut codec = FrameCodec::new();
                let welcome = loop {
                    if let Some(f) = codec.pop_frame().expect("a decodable Welcome") {
                        break f;
                    }
                    let k = stream.read(&mut buf).expect("read Welcome");
                    assert!(k > 0, "the shard-master closed a socket during admission");
                    codec.ingest(&buf[..k]);
                };
                let Frame::Welcome {
                    worker_id,
                    env,
                    initial_share,
                    drop_probability,
                    duplicate_probability,
                    ..
                } = welcome
                else {
                    panic!("expected Welcome, got {welcome:?}");
                };
                assert!(
                    drop_probability == 0.0 && duplicate_probability == 0.0,
                    "the driver speaks the lossless worker protocol only"
                );
                socks.push(Sock {
                    stream: Some(stream),
                    codec,
                    id: worker_id as usize,
                    env,
                    share: initial_share,
                    x_old: initial_share,
                    gain: 0.0,
                    epoch: 0,
                    cost_fn: None,
                });
            }
        }
    }
    socks.sort_by_key(|s| s.id);
    socks
}

/// Runs one complete tree: bind, spawn root and shard-masters, admit the
/// fleet, drive every round, collect the reports.
///
/// A profiled session records per-thread scheduler counters; with
/// `block_every`, the driver times a reference block every that many
/// rounds.
pub fn run_session(
    plan: &SessionPlan,
    tracer: &mut Tracer,
    stride: u32,
    profile: bool,
    block_every: Option<u64>,
) -> Session {
    let started = Instant::now();
    let cfg = ShardedConfig::new(plan.n, plan.m, plan.rounds, plan.env);
    let root_listener = TcpListener::bind("127.0.0.1:0").expect("bind the root listener");
    let root_addr = root_listener.local_addr().expect("root address");
    let shard_listeners: Vec<TcpListener> = (0..plan.m)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind a shard listener"))
        .collect();
    let addrs: Vec<SocketAddr> =
        shard_listeners.iter().map(|l| l.local_addr().expect("shard address")).collect();

    std::thread::scope(|scope| {
        let cfg = &cfg;
        let root = std::thread::Builder::new()
            .name("root".into())
            .spawn_scoped(scope, move || run_root(&root_listener, cfg))
            .expect("spawn the root");
        let shards: Vec<_> = shard_listeners
            .into_iter()
            .enumerate()
            .map(|(k, listener)| {
                let opts = ShardMasterOptions {
                    shard: k,
                    num_shards: plan.m,
                    frame_timeout: cfg.frame_timeout,
                    backbone_fault: FaultPlan::none(),
                    die_after_round: None,
                    die_mid_round: false,
                };
                std::thread::Builder::new()
                    .name(format!("shard-{k}"))
                    .spawn_scoped(scope, move || {
                        let stream = TcpStream::connect(root_addr)
                            .map_err(|e| dolbie_net::NetError::Transport(e.into()))?;
                        run_shard_master(stream, &listener, &opts)
                    })
                    .expect("spawn a shard-master")
            })
            .collect();

        let socks = admit(plan, &addrs);
        let setup_s = started.elapsed().as_secs_f64();
        let mut driver = Driver {
            socks,
            tracer,
            stride: stride.max(1),
            plan,
            round_span: None,
            round: 0,
            starts: Vec::with_capacity(plan.rounds + plan.kills.len()),
            victim_dead: false,
            pass_end: None,
            transitions_ms: Vec::new(),
            profile,
            sched_start: None,
            sched: None,
            block_every: block_every.filter(|&every| every > 0),
            blocks: Vec::new(),
            blocked_rounds: Vec::new(),
            buf: vec![0u8; 4096],
        };
        driver.run();

        let root = root.join().expect("root thread panicked").expect("the root failed");
        let mut shards: Vec<ShardRunReport> = shards
            .into_iter()
            .map(|h| {
                let report = h.join().expect("shard thread panicked");
                report.unwrap_or_else(|e| panic!("a shard-master failed: {e}"))
            })
            .collect();
        shards.sort_by_key(|s| s.shard);
        let mut final_shares = vec![None; plan.n];
        let mut driver_wire = WireStats::default();
        for s in &driver.socks {
            driver_wire.absorb(&s.codec.stats());
            if !plan.kills.iter().any(|k| k.1 == s.id) {
                final_shares[s.id] = Some(s.share);
            }
        }
        Session {
            setup_s,
            starts: driver.starts,
            run: ShardedLoopbackRun { root, shards, workers: Vec::new() },
            final_shares,
            driver_wire,
            transitions_ms: driver.transitions_ms,
            sched: driver.sched,
            blocks: driver.blocks,
            blocked_rounds: driver.blocked_rounds,
        }
    })
}

/// The sequential engine replaying the recorded membership schedule —
/// the recipe of the net crate's crash tests. Returns the allocations
/// played per round plus the final shares, and the seconds it took.
pub fn twin_allocations(
    env: WireEnvSpec,
    n: usize,
    rounds: usize,
    epochs: &[RootEpoch],
) -> (Vec<Vec<f64>>, f64) {
    let started = Instant::now();
    let mut twin = Dolbie::with_config(Allocation::uniform(n), DolbieConfig::new());
    let mut members = vec![true; n];
    let mut out = Vec::with_capacity(rounds + 1);
    for t in 0..rounds {
        for e in epochs.iter().filter(|e| e.round == t) {
            members.copy_from_slice(&e.members);
            twin.apply_membership(&members);
        }
        let shares = twin.allocation().clone();
        out.push(shares.as_slice().to_vec());
        let cost_fns: Vec<DynCost> = (0..n).map(|i| env.cost_for(t, i)).collect();
        let obs = Observation::from_costs_masked(t, &shares, &cost_fns, &members, Vec::new());
        twin.observe(&obs);
    }
    for e in epochs.iter().filter(|e| e.round == rounds) {
        members.copy_from_slice(&e.members);
        twin.apply_membership(&members);
    }
    out.push(twin.allocation().as_slice().to_vec());
    (out, started.elapsed().as_secs_f64())
}

/// Rounds whose `RoundStart` reached the first socket more than once:
/// aborted and replayed.
fn replayed_rounds(starts: &[(u64, u32, Instant)]) -> Vec<u64> {
    let mut out: Vec<u64> =
        starts.windows(2).filter(|w| w[0].0 == w[1].0).map(|w| w[0].0).collect();
    out.dedup();
    out
}

/// Round periods at the first socket, from the first `RoundStart` of
/// each round to the first of the next, with the round index — leaving
/// out the rounds that start within [`WARMUP`] of the session's first.
fn periods(starts: &[(u64, u32, Instant)]) -> Vec<(u64, f64)> {
    let mut firsts: Vec<(u64, Instant)> = Vec::new();
    for &(round, _, at) in starts {
        if firsts.last().is_none_or(|l| l.0 != round) {
            firsts.push((round, at));
        }
    }
    let Some(&(_, first)) = firsts.first() else { return Vec::new() };
    firsts
        .windows(2)
        .filter(|w| w[0].1.duration_since(first) >= WARMUP)
        .map(|w| (w[0].0, w[1].1.duration_since(w[0].1).as_secs_f64() * 1e3))
        .collect()
}

/// Checks one session against the sequential twin and the protocol's
/// counting rules; returns the failed checks and the twin's seconds.
pub fn gate(plan: &SessionPlan, session: &Session) -> (Vec<String>, f64) {
    let mut failures = Vec::new();
    let root = &session.run.root;
    let played = session.run.allocations();
    let (twin, twin_s) = twin_allocations(plan.env, plan.n, plan.rounds, &root.epochs);
    if root.rounds.len() != plan.rounds {
        failures.push(format!("{} of {} rounds committed", root.rounds.len(), plan.rounds));
    }
    let bitwise = played.len() == twin.len()
        && played.iter().zip(&twin).all(|(a, b)| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        });
    if !bitwise {
        failures.push("the tree diverged from the sequential membership twin".into());
    }
    if let Some(last) = played.last() {
        let sum = dolbie_core::numeric::pairwise_neumaier_sum(last);
        if (sum - 1.0).abs() >= 1e-12 {
            failures.push(format!("final |Σx − 1| = {:e}", (sum - 1.0).abs()));
        }
        let driver_agrees = session
            .final_shares
            .iter()
            .zip(last)
            .all(|(s, x)| s.is_none_or(|d| d.to_bits() == x.to_bits()));
        if !driver_agrees {
            failures.push("the driver's final shares differ from the shard-masters'".into());
        }
    }
    let m = plan.m;
    for r in &root.rounds {
        let expected = 5 * m + 3 * m * usize::from(r.rescaled) + 2 * m * usize::from(r.refreshed);
        if r.messages != expected {
            failures.push(format!(
                "round {}: {} backbone frames, expected {expected}",
                r.round, r.messages
            ));
            break;
        }
    }
    if root.epochs.len() != plan.kills.len() {
        failures.push(format!("{} epochs for {} kills", root.epochs.len(), plan.kills.len()));
    }
    let replayed = replayed_rounds(&session.starts);
    if replayed.len() != plan.kills.len() {
        failures.push(format!("{} replayed rounds for {} kills", replayed.len(), plan.kills.len()));
    }
    (failures, twin_s)
}

/// Per-run accumulation over sessions.
#[derive(Default)]
struct Acc {
    sessions: usize,
    setups: Vec<f64>,
    round_ms: Vec<f64>,
    session_p50: Vec<f64>,
    session_p90: Vec<f64>,
    epoch_ms: Vec<f64>,
    worker_rounds: f64,
    period_ms: f64,
    rounds: usize,
    driver_frames: u64,
    driver_bytes: u64,
    shard_frames: u64,
    shard_bytes: u64,
    backbone_frames: u64,
    backbone_bytes: u64,
    epochs: usize,
    replayed: usize,
    transitions_ms: Vec<f64>,
    twin_s: f64,
    sched: RoleSched,
    sched_wall_s: f64,
    sched_periods: usize,
}

impl Acc {
    /// Adds one session, its timings multiplied by `scale`.
    fn absorb(&mut self, plan: &SessionPlan, s: &Session, twin_s: f64, scale: f64) {
        self.sessions += 1;
        self.setups.push(s.setup_s * scale);
        let replayed = replayed_rounds(&s.starts);
        let mut session_ms = Vec::new();
        for (round, ms) in periods(&s.starts) {
            if s.blocked_rounds.contains(&round) {
                continue;
            }
            let dead = plan.kills.iter().filter(|k| k.0 as u64 <= round).count();
            self.worker_rounds += (plan.n - dead) as f64;
            self.period_ms += ms * scale;
            self.round_ms.push(ms);
            session_ms.push(ms * scale);
            if replayed.contains(&round) {
                self.epoch_ms.push(ms);
            }
        }
        self.session_p50.push(median(&session_ms));
        self.session_p90.push(quantile(&session_ms, 0.9));
        let root = &s.run.root;
        self.rounds += root.rounds.len();
        self.driver_frames += s.driver_wire.frames_sent + s.driver_wire.frames_received;
        self.driver_bytes += s.driver_wire.bytes_sent + s.driver_wire.bytes_received;
        for sh in &s.run.shards {
            self.shard_frames += sh.wire.frames_sent + sh.wire.frames_received;
            self.shard_bytes += sh.wire.bytes_sent + sh.wire.bytes_received;
        }
        for r in &root.rounds {
            self.backbone_frames += r.messages as u64;
            self.backbone_bytes += r.bytes as u64;
        }
        self.epochs += root.epochs.len();
        self.replayed += replayed.len();
        self.transitions_ms.extend_from_slice(&s.transitions_ms);
        self.twin_s += twin_s;
        if let Some((sched, wall)) = &s.sched {
            self.sched.add(sched);
            self.sched_wall_s += wall;
            self.sched_periods += plan.rounds - 1;
        }
    }
}

/// Runs a tree workload for `seconds` of timed sessions (set-up and
/// rounds; the correctness gates run between sessions, untimed).
pub fn run(
    shape: &TreeShape,
    seed: u64,
    seconds: f64,
    traced: bool,
    tracer: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let (mut plain, mut with_spans) = (Acc::default(), Acc::default());
    let mut gauge = SpeedGauge::default();
    let mut timed = 0.0;
    let mut index = 0u64;
    while timed < seconds || (traced && with_spans.sessions == 0) {
        // A traced run alternates untraced sessions — the baseline its
        // tracing overhead is measured against — and traced ones, so both
        // see the same mix of host speeds.
        let tracing = traced && index % 2 == 1;
        let plan = SessionPlan::new(shape, seed, index);
        index += 1;
        let started = Instant::now();
        let session = if tracing {
            run_session(&plan, tracer, shape.trace_stride, true, None)
        } else {
            run_session(&plan, &mut Tracer::new(false), 1, false, Some(shape.block_every))
        };
        timed += started.elapsed().as_secs_f64();
        let (failures, twin_s) = gate(&plan, &session);
        for f in &failures {
            eprintln!("perfbench: gate failed in session {index}: {f}");
        }
        out.failed += failures.len() as u64;
        out.attempted += session.starts.len() as u64;
        if tracing {
            with_spans.absorb(&plan, &session, twin_s, 1.0);
        } else {
            let scale = gauge.record(&session.blocks);
            plain.absorb(&plan, &session, twin_s, scale);
        }
    }

    let e = if plain.sessions > 0 { &plain } else { &with_spans };
    out.e2e.put("round_ms_p50", mean(&e.session_p50), "ms");
    out.e2e.put("round_ms_p90", mean(&e.session_p90), "ms");
    out.e2e.put("worker_rounds_per_s", e.worker_rounds / (e.period_ms / 1e3), "1/s");
    out.e2e.put("setup_s", median(&e.setups), "s");
    out.e2e.put("peak_rss_mb", host::peak_rss_mb(), "MiB");
    out.samples.push(("round_ms", e.round_ms.len()));
    out.samples.push(("setup_s", e.setups.len()));
    out.samples.push(("epoch_ms", e.epoch_ms.len()));
    out.samples.push(("reference_blocks", gauge.blocks()));
    out.notes.push(("reference_ms", gauge.block_ms()));
    out.notes.push(("speed_scale", gauge.scale()));
    out.notes.push(("wall_round_ms_p50", median(&e.round_ms)));

    if traced {
        let t = &with_spans;
        let spans = tracer.spans();
        let by_name = totals_by_name(spans);
        let count = |name: &str| by_name.get(name).map_or(0, |t| t.count) as f64;
        let self_ns = |name: &str| by_name.get(name).map_or(0.0, |t| t.self_ns as f64);
        let sampled = count("round").max(1.0);
        let rounds = t.rounds.max(1) as f64;
        let periods = t.sched_periods.max(1) as f64;
        let per_round_ms = |s: &SchedStat| s.cpu_ns as f64 / 1e6 / periods;
        let all = t.sched.total();
        let wall_ms = t.sched_wall_s * 1e3;
        let l = &mut out.layers;
        l.put("wire.encode_ns", self_ns("encode") / count("encode").max(1.0), "ns");
        l.put("wire.decode_ns", self_ns("decode") / count("decode").max(1.0), "ns");
        l.put("wire.frames_per_round", t.driver_frames as f64 / rounds, "count");
        l.put("wire.bytes_per_round", t.driver_bytes as f64 / rounds, "B");
        l.put("driver.write_us_per_round", self_ns("write") / sampled / 1e3, "us");
        l.put("driver.read_wait_ms_per_round", self_ns("read") / sampled / 1e6, "ms");
        l.put("driver.self_us_per_round", self_ns("round") / sampled / 1e3, "us");
        l.put("driver.cpu_ms_per_round", per_round_ms(&t.sched.driver), "ms");
        l.put("worker.compute_us_per_round", self_ns("compute") / sampled / 1e3, "us");
        l.put("shard.cpu_ms_per_round", per_round_ms(&t.sched.shard), "ms");
        l.put("shard.worker_frames_per_round", t.shard_frames as f64 / rounds, "count");
        l.put("shard.worker_bytes_per_round", t.shard_bytes as f64 / rounds, "B");
        l.put("root.cpu_ms_per_round", per_round_ms(&t.sched.root), "ms");
        l.put("backbone.frames_per_round", t.backbone_frames as f64 / rounds, "count");
        l.put("backbone.bytes_per_round", t.backbone_bytes as f64 / rounds, "B");
        l.put("sched.switches_per_round", all.slices as f64 / periods, "count");
        l.put("sched.runq_ms_per_round", all.runq_ns as f64 / 1e6 / periods, "ms");
        l.put("sched.idle_ms_per_round", (wall_ms - all.cpu_ns as f64 / 1e6) / periods, "ms");
        l.put("round.mean_ms", wall_ms / periods, "ms");
        l.put("host.reference_ms", gauge.block_ms(), "ms");
        l.put("host.speed_scale", gauge.scale(), "ratio");
        l.put("epoch.count", t.epochs as f64, "count");
        l.put("epoch.replayed_rounds", t.replayed as f64, "count");
        l.put("epoch.transition_ms", median(&t.transitions_ms), "ms");
        l.put("epoch.round_ms_p50", median(&t.epoch_ms), "ms");
        l.put("seq_engine.round_us", t.twin_s / rounds * 1e6, "us");
        let overhead = median(&t.round_ms) / median(&plain.round_ms) - 1.0;
        l.put("trace.overhead_pct", overhead * 100.0, "%");
        l.put("trace.spans", spans.len() as f64, "count");
        l.put("round.samples", t.round_ms.len() as f64, "count");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dolbie_net::shard::run_sharded_loopback;

    /// The one-thread driver and `run_sharded_loopback`'s thread-per-worker
    /// fleet play the same tree, with the same worker death, bit for bit.
    #[test]
    fn one_thread_driver_matches_the_threaded_loopback_fleet() {
        let (n, m, rounds, victim) = (8, 2, 300, 5);
        let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0xBE7C };
        let plan = SessionPlan { n, m, rounds, env, kills: vec![(120, victim)] };
        let session = run_session(&plan, &mut Tracer::new(false), 1, false, None);
        let (failures, _) = gate(&plan, &session);
        assert!(failures.is_empty(), "{failures:?}");
        let [epoch] = session.run.root.epochs.as_slice() else { panic!("one kill, one epoch") };

        // A threaded worker dying right after its LocalCost of the round
        // the driver's victim was found dead in yields the same epoch.
        // The threaded fleet hands out ids in Hello-completion order, so
        // the killed thread holds the victim's id only in most runs.
        let cfg = ShardedConfig::new(n, m, rounds, env).with_worker_kill(victim, epoch.round);
        let threaded = (0..10)
            .map(|_| run_sharded_loopback(&cfg).expect("threaded loopback run"))
            .find(|run| run.root.epochs == session.run.root.epochs)
            .expect("the threaded fleet reproduces the driver's epoch");
        let (driven, reference) = (session.run.allocations(), threaded.allocations());
        assert_eq!(driven.len(), reference.len());
        for (t, (a, b)) in driven.iter().zip(&reference).enumerate() {
            let same = a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "round {t}: the driven tree diverged from the threaded fleet");
        }
    }

    /// A kill planned on the round's straggler in the first shard — the
    /// shape that wedged a driver killing right after `LocalCost` — fires
    /// a round later and the tree completes.
    #[test]
    fn a_kill_planned_on_a_straggler_does_not_wedge_the_driver() {
        let (n, m, rounds) = (8, 2, 200);
        let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0xBE7C };
        let healthy = run_sharded_loopback(&ShardedConfig::new(n, m, rounds, env))
            .expect("healthy rehearsal");
        let (round, straggler) = healthy
            .root
            .rounds
            .iter()
            .skip(50)
            .map(|r| (r.round, r.straggler))
            .find(|&(_, s)| (1..n / m).contains(&s))
            .expect("some round elects a straggler in the first shard");
        let plan = SessionPlan { n, m, rounds, env, kills: vec![(round, straggler)] };
        let session = run_session(&plan, &mut Tracer::new(false), 1, false, None);
        let (failures, _) = gate(&plan, &session);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(session.run.root.epochs[0].round > round);
    }

    #[test]
    fn kill_plans_spare_the_timing_socket_and_never_repeat_a_victim() {
        let shape = TreeShape {
            n: 16,
            m: 2,
            rounds: 400,
            kill_every: Some(50),
            trace_stride: 1,
            block_every: 16,
        };
        let plan = SessionPlan::new(&shape, 7, 0);
        let rounds: Vec<usize> = plan.kills.iter().map(|k| k.0).collect();
        assert_eq!(rounds, vec![25, 75, 125, 175, 225, 275, 325, 375]);
        let mut victims: Vec<usize> = plan.kills.iter().map(|k| k.1).collect();
        assert!(!victims.contains(&0));
        victims.sort_unstable();
        victims.dedup();
        assert_eq!(victims.len(), plan.kills.len());
        assert_eq!(SessionPlan::new(&shape, 7, 0).kills, plan.kills);
    }
}
