//! Fault-tolerance acceptance tests for the TCP coordinator: a worker
//! killed mid-run (pre- and post-commit, `M ∈ {1, 2}`), a worker dying
//! before its cost report (its survivors' reports go stale), workers
//! stalled with their sockets open, a shard-master killed mid-run (pre-
//! and post-commit), a quorum loss, rogue peers at admission, and a worker
//! or a shard-master reporting impossible values (buried like a crashed
//! one) — each over real loopback TCP, each bounded in wall clock (never
//! a hang), and each with the surviving trajectory **bitwise identical**
//! to a sequential twin replaying the recorded membership schedule. A
//! shard-master sending its worker impossible values ends that worker
//! with a protocol error, and a root sending its shard-master impossible
//! values ends that shard-master with one.
//!
//! The twin is `dolbie_net::shard::twin_allocations`, whose recipe is
//! the contract the root's epoch records promise.

use dolbie_core::engine::TOTAL_REFRESH_INTERVAL;
use dolbie_core::numeric::SUM_BLOCK;
use dolbie_core::ShardLayout;
use dolbie_net::env::{EnvKind, WireEnvSpec};
use dolbie_net::shard::{
    run_root, run_shard_master, run_sharded_loopback, run_single_shard, shard_deadline,
    stitch_allocations, twin_allocations, RootEpoch, RootReport, ShardKill, ShardMasterOptions,
    ShardedConfig, ShardedLoopbackRun,
};
use dolbie_net::transport::{connect_with_backoff, FrameConn};
use dolbie_net::wire::{CursorPhase, Frame, VERSION};
use dolbie_net::worker::{run_worker, Step, WorkerMachine};
use dolbie_net::NetError;
use dolbie_simnet::faults::{FaultPlan, RetryPolicy};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Generous "no hang" bound: every case here finishes in well under a
/// second of protocol time; the bound only has to beat a dev-profile,
/// loaded-CI worst case while still catching a stuck deadline loop.
const WALL_BOUND: Duration = Duration::from_secs(60);

fn assert_bitwise_twin(run: &ShardedLoopbackRun, env: WireEnvSpec, n: usize, rounds: usize) {
    assert_stitched_twin(&run.allocations(), &run.root.epochs, env, n, rounds);
}

fn assert_stitched_twin(
    stitched: &[Vec<f64>],
    epochs: &[RootEpoch],
    env: WireEnvSpec,
    n: usize,
    rounds: usize,
) {
    // The twin is the flat engine: the shard count does not enter it.
    let reference = twin_allocations(&ShardedConfig::new(n, 1, rounds, env), epochs);
    assert_eq!(stitched.len(), reference.len(), "horizon mismatch");
    for (t, (net, seq)) in stitched.iter().zip(&reference).enumerate() {
        for i in 0..n {
            assert_eq!(
                net[i].to_bits(),
                seq[i].to_bits(),
                "round {t}, worker {i}: sharded trajectory diverged from the membership twin"
            );
        }
    }
}

fn assert_on_simplex(run: &ShardedLoopbackRun) {
    let last = run.allocations().pop().expect("final entry");
    let sum: f64 = last.iter().sum();
    assert!((sum - 1.0).abs() <= 1e-12, "final Σx = {sum}");
    for (i, (&x, &alive)) in last.iter().zip(&run.root.members).enumerate() {
        assert!(x >= 0.0, "worker {i} holds a negative share");
        if !alive {
            assert_eq!(x, 0.0, "dead worker {i} still holds share {x}");
        }
    }
}

/// Picks the global straggler of `round` from a healthy rehearsal run —
/// the kill fires *after* that round's costs are reported, so the
/// rehearsal's election at that round matches the kill run's.
fn straggler_at(env: WireEnvSpec, n: usize, m: usize, round: usize) -> usize {
    let cfg = ShardedConfig::new(n, m, round + 1, env);
    let run = run_sharded_loopback(&cfg).expect("healthy rehearsal");
    run.root.rounds[round].straggler
}

/// Kills worker `victim` after its round-`kill_round` cost report and
/// checks the one epoch it causes. A `pre_commit` death abandons the
/// kill round, whose replay opens the epoch; a post-commit death lets
/// the round stand, and the epoch opens one of the next two rounds.
fn killed_worker_case(
    n: usize,
    m: usize,
    rounds: usize,
    victim: usize,
    kill_round: usize,
    pre_commit: bool,
) {
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0xC4A54 + n as u64 };
    let mut cfg = ShardedConfig::new(n, m, rounds, env).with_worker_kill(victim, kill_round);
    cfg.frame_timeout = Duration::from_secs(2);
    let started = Instant::now();
    let run = run_sharded_loopback(&cfg).expect("a worker crash must not sink the run");
    assert!(started.elapsed() < WALL_BOUND, "the run stalled past the hang bound");

    assert_eq!(run.root.rounds.len(), rounds, "the horizon completes despite the crash");
    assert_eq!(run.root.epochs.len(), 1, "one death, one epoch");
    let epoch = &run.root.epochs[0];
    assert!(!epoch.members[victim], "the epoch must bury the planned victim");
    assert_eq!(epoch.members.iter().filter(|&&a| !a).count(), 1);
    let landing =
        if pre_commit { kill_round..=kill_round } else { kill_round + 1..=kill_round + 2 };
    assert!(
        landing.contains(&epoch.round),
        "the death fired at round {kill_round} (pre-commit: {pre_commit}) but the epoch landed \
         at round {}",
        epoch.round
    );
    assert!(run.root.dead_shards.is_empty(), "no shard-master died");

    assert_bitwise_twin(&run, env, n, rounds);
    assert_on_simplex(&run);

    // Every surviving worker crossed exactly the one epoch; the victim's
    // thread ended early (cleanly or with a transport error).
    for report in run.workers.iter().flatten() {
        if report.worker_id != victim {
            assert_eq!(report.epochs_seen, 1, "survivor {} missed the epoch", report.worker_id);
        }
    }
}

/// A non-straggler worker killed mid-run: the death surfaces at the
/// decision collect — *before* the round commits — so the root unwinds
/// `begin_round` and replays the kill round under the new membership.
#[test]
fn pre_commit_worker_kill_is_one_epoch_and_bitwise() {
    const N: usize = 8;
    const ROUNDS: usize = 30;
    const KILL_ROUND: usize = 11;
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0xC4A54 + N as u64 };
    for m in [1, 2] {
        // Any non-straggler victim exercises the pre-commit path.
        let straggler = straggler_at(env, N, m, KILL_ROUND);
        let victim = (0..N).find(|&i| i != straggler).expect("N >= 2");
        killed_worker_case(N, m, ROUNDS, victim, KILL_ROUND, true);
    }
}

/// The round's *straggler* killed mid-run: it owes no decision frame,
/// so the death is discovered only at the commit-delivery drain or the
/// next cost collect — *after* the round committed. The committed round
/// stands; the epoch lands at `kill_round + 1` (or `+ 2` when the
/// drain's write outruns the kernel's reset).
#[test]
fn post_commit_straggler_kill_is_one_epoch_and_bitwise() {
    const N: usize = 8;
    const ROUNDS: usize = 30;
    const KILL_ROUND: usize = 11;
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0xC4A54 + N as u64 };
    for m in [1, 2] {
        let victim = straggler_at(env, N, m, KILL_ROUND);
        killed_worker_case(N, m, ROUNDS, victim, KILL_ROUND, false);
    }
}

/// Workers that go silent with their sockets open after reporting a
/// round's cost are buried — they and nobody else — across
/// `M ∈ {1, 2}` × lossless/delayed worker links × {1, 4} simultaneous
/// stalls, twice each. Every case completes the horizon bitwise equal to
/// the membership twin. A shard-master needs up to one `frame_timeout`
/// to find its stalled workers, so the backbone deadlines nest around it
/// (a root deadline equal to the worker tier's buried whole live shards)
/// and four stalls cost about one `frame_timeout` at either tier — two
/// if a stalled worker was the round's straggler and owed no decision —
/// never one per stall: under 1.8 s where four serial `frame_timeout`s
/// would take 2.4 s.
#[test]
fn stalled_workers_are_buried_together_and_only_they() {
    const N: usize = 8;
    const ROUNDS: usize = 8;
    const STALL_ROUND: usize = 3;
    let hold = Duration::from_millis(2500);
    let delayed = FaultPlan::seeded(0x57A1)
        .with_drop_probability(0.12)
        .with_retry(RetryPolicy::new(0.001, 1.5, 6));
    for rep in 0..2u64 {
        for m in [1, 2] {
            for fault in [FaultPlan::none(), delayed.clone()] {
                for stalled in [&[3usize][..], &[1, 3, 5, 6]] {
                    let case = format!(
                        "rep {rep}, M = {m}, delayed = {}, stalled workers {stalled:?}",
                        !fault.is_lossless()
                    );
                    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0x57A1 + rep };
                    let mut cfg =
                        ShardedConfig::new(N, m, ROUNDS, env).with_fault_plan(fault.clone());
                    cfg.frame_timeout = Duration::from_millis(600);
                    cfg.worker_stalls = stalled.iter().map(|&k| (k, STALL_ROUND, hold)).collect();
                    let run = run_sharded_loopback(&cfg).unwrap_or_else(|e| panic!("{case}: {e}"));

                    assert_eq!(run.root.rounds.len(), ROUNDS, "{case}: horizon");
                    assert!(run.root.dead_shards.is_empty(), "{case}: a live shard was buried");
                    let dead: Vec<usize> = (0..N).filter(|&i| !run.root.members[i]).collect();
                    assert_eq!(dead, stalled, "{case}: exactly the stalled workers die");
                    assert_bitwise_twin(&run, env, N, ROUNDS);
                    assert_on_simplex(&run);
                    if stalled.len() == 4 {
                        assert!(
                            run.root.wall_clock < 1.8,
                            "{case}: stalled workers serialized the round: {:.3} s",
                            run.root.wall_clock
                        );
                    }
                }
            }
        }
    }
}

/// TCP never duplicates a frame, so a worker-link or backbone fault plan
/// that does is refused before the tree opens a socket.
#[test]
fn a_duplicating_fault_plan_is_refused() {
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0xD0B };
    let duplicating = FaultPlan::seeded(1).with_duplicate_probability(0.05);
    for cfg in [
        ShardedConfig::new(4, 1, 2, env).with_fault_plan(duplicating.clone()),
        ShardedConfig::new(4, 1, 2, env).with_backbone_fault_plan(duplicating),
    ] {
        let run = std::panic::catch_unwind(|| run_sharded_loopback(&cfg));
        assert!(run.is_err(), "a duplicating plan must be refused");
    }
}

fn killed_shard_case(kill: ShardKill, n: usize, m: usize, rounds: usize) {
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0x5DEAD + n as u64 };
    let mut cfg = ShardedConfig::new(n, m, rounds, env).with_shard_kill(kill);
    cfg.frame_timeout = Duration::from_secs(2);
    let started = Instant::now();
    let run = run_sharded_loopback(&cfg).expect("a shard-master crash must not sink the run");
    assert!(started.elapsed() < WALL_BOUND, "the run stalled past the hang bound");

    assert_eq!(run.root.rounds.len(), rounds, "the horizon completes degraded");
    assert_eq!(run.root.dead_shards, vec![kill.shard], "exactly the killed shard was buried");
    assert_eq!(run.root.epochs.len(), 1, "one mass epoch buries the whole range");
    let epoch = &run.root.epochs[0];
    let range = run.root.layout.range(kill.shard);
    for i in 0..n {
        assert_eq!(
            epoch.members[i],
            !range.contains(&i),
            "the mass epoch must bury exactly the dead shard's range"
        );
    }
    // Pre-commit (mid-round) kills abandon the kill round: the epoch
    // replays it. Post-commit kills stand: the epoch opens the next
    // round (detection waits for the next aggregation).
    let expected_round = if kill.mid_round { kill.after_round } else { kill.after_round + 1 };
    assert_eq!(epoch.round, expected_round, "the epoch landed on the wrong round");

    // The killed shard-master still yields a partial report whose last
    // committed round respects the pre/post-commit boundary.
    let dead_report = &run.shards[kill.shard];
    let committed = if kill.mid_round { kill.after_round } else { kill.after_round + 1 };
    assert_eq!(dead_report.rounds.len(), committed, "partial report length");

    assert_bitwise_twin(&run, env, n, rounds);
    assert_on_simplex(&run);
}

/// A shard-master killed *post-commit* (after its round's commit and
/// drain): the root discovers the dead link at the next aggregation,
/// buries the whole range as one mass epoch, and the survivors carry
/// the full unit of work to the horizon.
#[test]
fn post_commit_shard_kill_buries_the_range_as_one_mass_epoch() {
    killed_shard_case(ShardKill { shard: 1, after_round: 9, mid_round: false }, 12, 3, 24);
}

/// A shard-master killed *mid-round* (right after its aggregate, before
/// the commit): the root aborts the attempt bitwise — `begin_round` is
/// unwound — and the kill round replays under the mass epoch.
#[test]
fn mid_round_shard_kill_aborts_the_attempt_and_replays_the_round() {
    killed_shard_case(ShardKill { shard: 0, after_round: 7, mid_round: true }, 12, 3, 24);
}

/// Relays one shard-master's backbone link to the root at `root`, frame
/// by frame, until the root opens round `cut`'s Σx-refresh chain on it:
/// in place of that cursor, it fails the link on the root's side (so the
/// root's read of the shard's hop meets a closed socket after the round
/// committed) and tells the shard-master the run is over. Returns the
/// address the shard-master dials instead of the root's.
fn refresh_cutting_relay(root: SocketAddr, cut: usize) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let relay = std::thread::spawn(move || {
        let (shard, _) = listener.accept().unwrap();
        let upstream = TcpStream::connect(root).unwrap();
        let conn = |stream: &TcpStream| FrameConn::new(stream.try_clone().unwrap()).unwrap();
        let (mut from_shard, mut to_root) = (conn(&shard), conn(&upstream));
        let up = std::thread::spawn(move || {
            while let Ok(frame) = from_shard.recv(WALL_BOUND) {
                if to_root.send(&frame).is_err() {
                    break;
                }
            }
        });
        let (mut from_root, mut to_shard) = (conn(&upstream), conn(&shard));
        while let Ok(frame) = from_root.recv(WALL_BOUND) {
            if let Frame::ShardCursor { round, phase: CursorPhase::Shares, .. } = frame {
                if round == cut as u64 {
                    upstream.shutdown(std::net::Shutdown::Both).unwrap();
                    let _ = to_shard.send(&Frame::Shutdown);
                    break;
                }
            }
            if to_shard.send(&frame).is_err() {
                break;
            }
        }
        up.join().unwrap();
    });
    (addr, relay)
}

/// A shard-master lost *after* its round committed: its backbone link
/// fails in the round's Σx-refresh chain, past the commit point, so the
/// committed round stands and the root buries the shard's range through
/// its post-commit transition, in one mass epoch at the *next* round —
/// the round the survivors play next. The other shard, parked on its
/// refresh hop, is released by that epoch, and the trajectory matches
/// the membership twin bitwise.
#[test]
fn a_shard_lost_in_the_refresh_chain_is_buried_at_the_next_round() {
    const N: usize = 4;
    const M: usize = 2;
    // `RootEngine::needs_total_refresh` fires on the round whose
    // `begin_round` makes the count a multiple of the interval.
    const CUT: usize = TOTAL_REFRESH_INTERVAL - 1;
    const ROUNDS: usize = CUT + 3;
    let (lost, survivor) = (0, 1);
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0x2EF2E5 };
    let mut cfg = ShardedConfig::new(N, M, ROUNDS, env);
    cfg.frame_timeout = Duration::from_secs(2);
    let layout = ShardLayout::even(N, M);
    let listeners: Vec<TcpListener> =
        (0..M).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    let workers: Vec<JoinHandle<()>> = (0..N)
        .map(|i| {
            let addr = listeners[layout.shard_of(i)].local_addr().unwrap();
            std::thread::spawn(move || {
                let stream =
                    connect_with_backoff(addr, 10, Duration::from_millis(10), i as u64).unwrap();
                run_worker(stream).unwrap();
            })
        })
        .collect();
    let backbone = TcpListener::bind("127.0.0.1:0").unwrap();
    let (relayed, relay) = refresh_cutting_relay(backbone.local_addr().unwrap(), CUT);
    let started = Instant::now();
    let (root, shards) = std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .iter()
            .enumerate()
            .map(|(k, listener)| {
                let opts = ShardMasterOptions {
                    shard: k,
                    num_shards: M,
                    frame_timeout: cfg.frame_timeout,
                    backbone_fault: FaultPlan::none(),
                    die_after_round: None,
                    die_mid_round: false,
                };
                let addr = if k == lost { relayed } else { backbone.local_addr().unwrap() };
                scope.spawn(move || {
                    run_shard_master(TcpStream::connect(addr).unwrap(), listener, &opts)
                })
            })
            .collect();
        let root = run_root(&backbone, &cfg).expect("a lost shard-master must not sink the run");
        let shards: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().unwrap().expect("the relay ends the lost shard-master cleanly"))
            .collect();
        (root, shards)
    });
    relay.join().unwrap();
    for handle in workers {
        handle.join().unwrap();
    }
    assert!(started.elapsed() < WALL_BOUND, "the run stalled past the hang bound");

    assert_eq!(root.rounds.len(), ROUNDS, "the horizon completes degraded");
    assert!(root.rounds[CUT].refreshed, "round {CUT} must run the refresh chain");
    assert_eq!(root.dead_shards, vec![lost], "exactly the lost shard was buried");
    assert_eq!(root.epochs.len(), 1, "one mass epoch buries the whole range");
    let epoch = &root.epochs[0];
    assert_eq!(epoch.round, CUT + 1, "a post-commit loss opens the next round's epoch");
    for i in 0..N {
        assert_eq!(epoch.members[i], !layout.range(lost).contains(&i), "worker {i}");
    }
    assert_eq!(shards[lost].rounds.len(), CUT + 1, "the lost shard committed round {CUT}");
    assert_eq!(shards[survivor].epochs_seen, 1, "the survivor crossed the epoch");
    assert_stitched_twin(&stitch_allocations(&root, &shards), &root.epochs, env, N, ROUNDS);
}

/// With `min_live_shards = 2` and one of two shards killed, the quorum
/// policy terminates the run with a structured error naming the dead
/// shard and the policy — never a hang, never a panic.
#[test]
fn quorum_loss_terminates_with_a_structured_error() {
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0xBAD0_C0DE };
    let mut cfg = ShardedConfig::new(8, 2, 40, env)
        .with_shard_kill(ShardKill { shard: 1, after_round: 5, mid_round: false })
        .with_min_live_shards(2);
    cfg.frame_timeout = Duration::from_secs(2);
    let started = Instant::now();
    let err = run_sharded_loopback(&cfg).expect_err("quorum loss must be a structured error");
    assert!(started.elapsed() < WALL_BOUND, "the failing run stalled past the hang bound");
    let message = err.to_string();
    assert!(
        message.contains("quorum") && message.contains("[1]") && message.contains("2"),
        "the error must name the policy and the dead shard: {message}"
    );
}

/// The `M = 1` tree of `dolbie_node master` with its worker listener in
/// the test's hands, so rogue peers can reach it before the real fleet
/// does: `rogues` runs first, then `n` workers dial in. Returns the
/// root's report and the wall clock from the first worker's dial to the
/// root's return.
fn m1_tree_beside_rogues(
    n: usize,
    rounds: usize,
    seed: u64,
    rogues: impl FnOnce(SocketAddr) -> Vec<JoinHandle<()>>,
) -> (RootReport, Duration) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed };
    let mut cfg = ShardedConfig::new(n, 1, rounds, env);
    cfg.frame_timeout = Duration::from_millis(500);
    let rogues = rogues(addr);
    let started = Instant::now();
    let workers: Vec<JoinHandle<()>> = (0..n)
        .map(|k| {
            std::thread::spawn(move || {
                let stream =
                    connect_with_backoff(addr, 10, Duration::from_millis(10), k as u64).unwrap();
                run_worker(stream).unwrap();
            })
        })
        .collect();
    let (report, _) =
        run_single_shard(&listener, &cfg).expect("rogue connections must not abort the run");
    let elapsed = started.elapsed();
    for handle in rogues.into_iter().chain(workers) {
        handle.join().unwrap();
    }
    (report, elapsed)
}

/// Rogue connections — garbage bytes, an immediate close, a well-formed
/// non-Hello opener — are rejected socket-by-socket while the run
/// completes with the real fleet.
#[test]
fn rogue_handshakes_are_rejected_not_fatal() {
    const ROUNDS: usize = 5;
    let (report, _) = m1_tree_beside_rogues(3, ROUNDS, 0x0905, |addr| {
        (0..3u64)
            .map(|flavor| {
                std::thread::spawn(move || {
                    let Ok(mut stream) =
                        connect_with_backoff(addr, 10, Duration::from_millis(10), 90 + flavor)
                    else {
                        return;
                    };
                    match flavor {
                        0 => {
                            // Garbage: bytes that fail the magic check.
                            let _ = stream.write_all(b"GET / HTTP/1.1\r\n\r\n");
                            std::thread::sleep(Duration::from_millis(200));
                        }
                        1 => {} // immediate close
                        _ => {
                            // A well-formed frame that is not Hello.
                            let bytes = dolbie_net::wire::Frame::Shutdown.encode();
                            let _ = stream.write_all(&bytes);
                            std::thread::sleep(Duration::from_millis(200));
                        }
                    }
                })
            })
            .collect()
    });
    assert_eq!(report.rounds.len(), ROUNDS);
    assert!(report.epochs.is_empty(), "no real worker died");
}

/// Admission is concurrent: six connected-but-silent rogues hold sockets
/// open while the real fleet handshakes. Serial admission would spend
/// one `frame_timeout` per rogue reached before each worker (worst case
/// 6 × 500 ms before the run even starts); the shard-master admits the
/// fleet immediately and lets the rogue deadlines expire in parallel.
#[test]
fn silent_rogues_do_not_serialize_admission() {
    const ROUNDS: usize = 5;
    let (report, elapsed) = m1_tree_beside_rogues(3, ROUNDS, 0x51E7, |addr| {
        let rogues = (0..6u64)
            .map(|r| {
                std::thread::spawn(move || {
                    let Ok(stream) =
                        connect_with_backoff(addr, 10, Duration::from_millis(5), 70 + r)
                    else {
                        return;
                    };
                    // Silent: hold the socket open past our own rejection.
                    std::thread::sleep(Duration::from_millis(1500));
                    drop(stream);
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50)); // let the rogues land first
        rogues
    });
    assert_eq!(report.rounds.len(), ROUNDS);
    assert!(report.epochs.is_empty());
    // Serial admission would need ≥ 6 × 500 ms = 3 s before round 0;
    // concurrent admission finishes the whole run far sooner.
    assert!(
        elapsed < Duration::from_millis(2000),
        "admission serialized behind silent rogues: took {elapsed:?}"
    );
}

/// A connected-but-silent candidate is rejected at its own Hello
/// deadline: its socket closes one `frame_timeout` after it dialed, give
/// or take a margin, while admission goes on waiting for the fleet, and
/// the run then completes with the workers that dial in later.
#[test]
fn a_silent_candidate_is_closed_at_its_hello_deadline() {
    use std::io::Read;
    const N: usize = 2;
    const ROUNDS: usize = 3;
    let frame_timeout = Duration::from_millis(200);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0x4E11 };
    let mut cfg = ShardedConfig::new(N, 1, ROUNDS, env);
    cfg.frame_timeout = frame_timeout;
    let tree = std::thread::spawn(move || run_single_shard(&listener, &cfg).map(|(r, _)| r));
    let mut rogue = TcpStream::connect(addr).unwrap();
    let dialed = Instant::now();
    rogue.set_read_timeout(Some(frame_timeout * 10)).unwrap();
    let closed = rogue.read(&mut [0u8; 64]);
    let waited = dialed.elapsed();
    assert!(matches!(closed, Ok(0)), "the silent candidate read {closed:?} after {waited:?}");
    assert!(waited >= frame_timeout, "rejected after {waited:?}, before its deadline");
    assert!(waited < frame_timeout + Duration::from_millis(300), "rejected only after {waited:?}");
    assert!(!tree.is_finished(), "admission still waits for the fleet");
    let workers: Vec<JoinHandle<()>> = (0..N)
        .map(|k| {
            std::thread::spawn(move || {
                let stream =
                    connect_with_backoff(addr, 10, Duration::from_millis(10), k as u64).unwrap();
                run_worker(stream).unwrap();
            })
        })
        .collect();
    let report = tree.join().unwrap().expect("the run completes without the rogue");
    for worker in workers {
        worker.join().unwrap();
    }
    assert_eq!(report.rounds.len(), ROUNDS);
    assert!(report.epochs.is_empty());
}

/// Workers started long after their coordinator — the manual workflow
/// of starting `dolbie_node master` and then its workers — join a run
/// that completes bitwise: admission has no deadline, and the backbone
/// deadlines are armed only once round 0 commits. The fleet dials in
/// past both backbone deadlines. At `M = 1` the whole fleet is late,
/// through `run_single_shard` as `dolbie_node master` runs it; at
/// `M = 2` only the second shard's workers are, so the first
/// shard-master waits on the root while its sibling is still admitting.
#[test]
fn a_late_fleet_is_admitted_not_buried() {
    const N: usize = 4;
    const ROUNDS: usize = 6;
    let frame_timeout = Duration::from_millis(200);
    let late = frame_timeout * 8;
    for m in [1, 2] {
        let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0x1A7E + m as u64 };
        let mut cfg = ShardedConfig::new(N, m, ROUNDS, env);
        cfg.frame_timeout = frame_timeout;
        let layout = ShardLayout::even(N, m);
        let listeners: Vec<TcpListener> =
            (0..m).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
        let workers: Vec<JoinHandle<()>> = (0..N)
            .map(|i| {
                let k = layout.shard_of(i);
                let addr = listeners[k].local_addr().unwrap();
                let delay = if k + 1 == m { late } else { Duration::ZERO };
                std::thread::spawn(move || {
                    std::thread::sleep(delay);
                    let stream =
                        connect_with_backoff(addr, 10, Duration::from_millis(10), i as u64)
                            .unwrap();
                    run_worker(stream).unwrap();
                })
            })
            .collect();
        let (root, shards) = if m == 1 {
            let (root, shard) =
                run_single_shard(&listeners[0], &cfg).expect("a late fleet must be admitted");
            (root, vec![shard])
        } else {
            let backbone = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = backbone.local_addr().unwrap();
            std::thread::scope(|scope| {
                let handles: Vec<_> = listeners
                    .iter()
                    .enumerate()
                    .map(|(k, listener)| {
                        let opts = ShardMasterOptions {
                            shard: k,
                            num_shards: m,
                            frame_timeout,
                            backbone_fault: FaultPlan::none(),
                            die_after_round: None,
                            die_mid_round: false,
                        };
                        scope.spawn(move || {
                            run_shard_master(TcpStream::connect(addr).unwrap(), listener, &opts)
                        })
                    })
                    .collect();
                let root = run_root(&backbone, &cfg).expect("a late shard must not be buried");
                let shards: Vec<_> = handles
                    .into_iter()
                    .map(|h| h.join().unwrap().expect("no shard-master gives up on the root"))
                    .collect();
                (root, shards)
            })
        };
        for handle in workers {
            handle.join().unwrap();
        }
        assert_eq!(root.rounds.len(), ROUNDS, "M = {m}: horizon");
        assert!(root.epochs.is_empty() && root.dead_shards.is_empty(), "M = {m}: nobody died");
        assert!(
            root.rounds[0].elapsed > shard_deadline(frame_timeout).as_secs_f64(),
            "M = {m}: round 0 must have waited out the late fleet"
        );
        assert_stitched_twin(&stitch_allocations(&root, &shards), &[], env, N, ROUNDS);
    }
}

/// The one lie a [`lying_worker`] tells.
#[derive(Clone, Copy, Debug)]
enum Lie {
    /// A NaN local cost in this round.
    NanCost(usize),
    /// A negative gain in its first decision from this round on.
    NegativeGain(usize),
    /// In its first decision from this round on, a gain one ulp past the
    /// eq. (5) ceiling `(α·(1 − x)).max(0)` at its committed share `x`.
    GainPastBound(usize),
}

/// A worker that lies once: a [`WorkerMachine`] drives the protocol and
/// the liar rewrites only the one frame it lies in, then keeps its socket
/// open, reading, until the shard-master hangs up — so only the lie, not
/// a closed socket, can get it buried. Its replies are held by the plan
/// its `Welcome` ships, as an honest worker's are. Returns its id and the
/// round it lied in.
fn lying_worker(addr: SocketAddr, lie: Lie) -> (usize, usize) {
    let patience = Duration::from_secs(30);
    let stream = connect_with_backoff(addr, 10, Duration::from_millis(10), 4242).unwrap();
    let mut conn = FrameConn::new(stream).unwrap();
    conn.send(&Frame::Hello { version: VERSION }).unwrap();
    let (mut machine, plan) = WorkerMachine::welcome(conn.recv(patience).unwrap()).unwrap();
    let id = machine.worker_id();
    conn.hold_sends(&plan, id as u64 + 1, 0);
    let lied_in = loop {
        let frame = conn.recv(patience).expect("the liar is honest until it lies");
        // The eq. (5) ceiling `(α·(1 − x)).max(0)` at the committed share
        // `x` a `Coordination` finds.
        let ceiling = match frame {
            Frame::Coordination { alpha, .. } => (alpha * (1.0 - machine.share())).max(0.0),
            _ => 0.0,
        };
        let step = machine.step(frame).unwrap_or_else(|e| panic!("worker {id}: {e}"));
        let Step::Reply(mut reply) = step else { continue };
        let lied = match (&mut reply, lie) {
            (Frame::LocalCost { round, cost, .. }, Lie::NanCost(r)) if *round == r as u64 => {
                *cost = f64::NAN;
                Some(*round)
            }
            (Frame::Decision { round, gain, .. }, Lie::NegativeGain(r)) if *round >= r as u64 => {
                *gain = -0.25;
                Some(*round)
            }
            (Frame::Decision { round, gain, .. }, Lie::GainPastBound(r)) if *round >= r as u64 => {
                *gain = ceiling.next_up();
                Some(*round)
            }
            _ => None,
        };
        conn.send(&reply).unwrap();
        if let Some(round) = lied {
            break round as usize;
        }
    };
    while conn.recv(patience).is_ok() {}
    (id, lied_in)
}

/// A worker that reports an impossible value — a NaN cost, a negative
/// gain, or a gain past its eq. (5) ceiling — is handled as crashed: over the `M = 1` tree, with
/// lossless and with delayed worker links, the run finishes,
/// exactly the liar is buried in one epoch at the round it lied in, and
/// the trajectory matches the membership twin bitwise.
#[test]
fn a_worker_reporting_impossible_values_is_buried_like_a_crash() {
    const N: usize = 4;
    const ROUNDS: usize = 8;
    let delayed = FaultPlan::seeded(0x4E4E)
        .with_drop_probability(0.12)
        .with_retry(RetryPolicy::new(0.001, 1.5, 6));
    for fault in [FaultPlan::none(), delayed] {
        for lie in [Lie::NanCost(3), Lie::NegativeGain(3), Lie::GainPastBound(3)] {
            let case = format!("{lie:?}, delayed = {}", !fault.is_lossless());
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0x4E4E };
            let mut cfg = ShardedConfig::new(N, 1, ROUNDS, env).with_fault_plan(fault.clone());
            cfg.frame_timeout = Duration::from_millis(500);
            let liar = std::thread::spawn(move || lying_worker(addr, lie));
            let honest: Vec<JoinHandle<()>> = (0..N - 1)
                .map(|k| {
                    std::thread::spawn(move || {
                        let stream =
                            connect_with_backoff(addr, 10, Duration::from_millis(10), k as u64)
                                .unwrap();
                        let report = run_worker(stream).unwrap();
                        assert_eq!(report.epochs_seen, 1, "survivor {} missed the epoch", k);
                    })
                })
                .collect();
            let started = Instant::now();
            let (report, shard) =
                run_single_shard(&listener, &cfg).unwrap_or_else(|e| panic!("{case}: {e}"));
            assert!(started.elapsed() < WALL_BOUND, "{case}: the run stalled past the hang bound");
            let (liar_id, lied_in) = liar.join().unwrap();
            for handle in honest {
                handle.join().unwrap();
            }

            assert_eq!(report.rounds.len(), ROUNDS, "{case}: horizon");
            assert_eq!(report.epochs.len(), 1, "{case}: one lie, one epoch");
            let epoch = &report.epochs[0];
            let buried: Vec<usize> = (0..N).filter(|&i| !epoch.members[i]).collect();
            assert_eq!(buried, [liar_id], "{case}: exactly the liar is buried");
            assert_eq!(epoch.round, lied_in, "{case}: the lie's round is replayed");
            assert_stitched_twin(
                &stitch_allocations(&report, &[shard]),
                &report.epochs,
                env,
                N,
                ROUNDS,
            );
        }
    }
}

/// A worker driven by a [`WorkerMachine`], its replies held by the plan
/// its `Welcome` ships. The one admitted as worker `doomed` hangs up in
/// place of its round-`round` cost report; every other one runs to
/// `Shutdown`. Returns its id and, for a survivor, the epochs it crossed.
fn member_or_doomed(addr: SocketAddr, seed: u64, doomed: usize, round: usize) -> (usize, u32) {
    let patience = Duration::from_secs(30);
    let stream = connect_with_backoff(addr, 10, Duration::from_millis(10), seed).unwrap();
    let mut conn = FrameConn::new(stream).unwrap();
    conn.send(&Frame::Hello { version: VERSION }).unwrap();
    let (mut machine, plan) = WorkerMachine::welcome(conn.recv(patience).unwrap()).unwrap();
    let id = machine.worker_id();
    conn.hold_sends(&plan, id as u64 + 1, 0);
    let mut epochs = 0;
    loop {
        let frame = conn.recv(patience).unwrap_or_else(|e| panic!("worker {id}: {e}"));
        epochs += matches!(frame, Frame::Epoch { .. }) as u32;
        match machine.step(frame).unwrap_or_else(|e| panic!("worker {id}: {e}")) {
            Step::Reply(Frame::LocalCost { round: r, .. }) if id == doomed && r == round as u64 => {
                return (id, 0);
            }
            Step::Reply(reply) => conn.send(&reply).unwrap(),
            Step::Quiet => {}
            Step::Finished => return (id, epochs),
        }
    }
}

/// A worker that dies before its cost report is found first: the
/// staircase reads the highest member first, so the survivors' reports
/// of the abandoned attempt are still unread when the epoch opens, and
/// the replay's cost collect meets each ahead of its re-report. Over the
/// `M = 1` tree, lossless and with delayed worker links, those stale
/// reports are skipped by their epoch: the run finishes, the dead worker
/// is buried in one epoch at the round it died in, and the trajectory
/// matches the membership twin bitwise.
#[test]
fn reports_from_before_an_epoch_are_skipped_on_its_replay() {
    const N: usize = 4;
    const ROUNDS: usize = 8;
    const DEATH_ROUND: usize = 3;
    let delayed = FaultPlan::seeded(0x5EED)
        .with_drop_probability(0.12)
        .with_retry(RetryPolicy::new(0.001, 1.5, 6));
    for fault in [FaultPlan::none(), delayed] {
        let case = format!("delayed = {}", !fault.is_lossless());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0x5EED };
        let mut cfg = ShardedConfig::new(N, 1, ROUNDS, env).with_fault_plan(fault.clone());
        cfg.frame_timeout = Duration::from_millis(500);
        let members: Vec<JoinHandle<(usize, u32)>> = (0..N)
            .map(|k| {
                std::thread::spawn(move || member_or_doomed(addr, k as u64, N - 1, DEATH_ROUND))
            })
            .collect();
        let started = Instant::now();
        let (report, shard) =
            run_single_shard(&listener, &cfg).unwrap_or_else(|e| panic!("{case}: {e}"));
        assert!(started.elapsed() < WALL_BOUND, "{case}: the run stalled past the hang bound");
        for handle in members {
            let (id, epochs) = handle.join().unwrap();
            if id != N - 1 {
                assert_eq!(epochs, 1, "{case}: survivor {id} missed the epoch");
            }
        }

        assert_eq!(report.rounds.len(), ROUNDS, "{case}: horizon");
        assert_eq!(report.epochs.len(), 1, "{case}: one death, one epoch");
        let epoch = &report.epochs[0];
        let buried: Vec<usize> = (0..N).filter(|&i| !epoch.members[i]).collect();
        assert_eq!(buried, [N - 1], "{case}: exactly the dead worker is buried");
        assert_eq!(epoch.round, DEATH_ROUND, "{case}: the death's round is replayed");
        assert_stitched_twin(
            &stitch_allocations(&report, &[shard]),
            &report.epochs,
            env,
            N,
            ROUNDS,
        );
    }
}

/// The one lie a [`lying_shard_master`] tells, all in round 0.
#[derive(Clone, Copy, Debug)]
enum ShardLie {
    /// An aggregate with a NaN cost.
    NanCost,
    /// An aggregate naming worker 0, which another shard owns.
    ForeignCandidate,
    /// An aggregate with a share of 1.5.
    ShareAboveOne,
    /// A gains cursor returned with a full in-progress block.
    FullCursorBlock,
    /// A gains cursor returned with a NaN partial sum.
    NanCursor,
    /// A gains cursor returned with one more subtree than the values it
    /// absorbed make.
    ExtraSubtree,
}

/// A hand-rolled shard-master for the last shard of an `M = 2` tree,
/// with no workers behind it: it handshakes with the root, tells `lie`
/// in round 0, then waits for one more frame. Returns that frame — an
/// honest root sends none, because the lie buries the link — and hangs
/// up either way, so a root that misses the lie still finishes.
fn lying_shard_master(root: SocketAddr, lie: ShardLie) -> Option<Frame> {
    let patience = Duration::from_secs(30);
    let stream = connect_with_backoff(root, 10, Duration::from_millis(10), 77).unwrap();
    let mut conn = FrameConn::new(stream).unwrap();
    conn.send(&Frame::ShardHello { shard: 1, num_shards: 2 }).unwrap();
    let Frame::ShardWelcome { range_start, num_workers, .. } = conn.recv(patience).unwrap() else {
        panic!("expected ShardWelcome");
    };
    let (own, share) = (u64::from(range_start), 1.0 / f64::from(num_workers));
    let aggregate =
        |max_cost, straggler, share| Frame::ShardAggregate { round: 0, max_cost, straggler, share };
    let sent = match lie {
        ShardLie::NanCost => aggregate(f64::NAN, own, share),
        ShardLie::ForeignCandidate => aggregate(1.0, 0, share),
        ShardLie::ShareAboveOne => aggregate(1.0, own, 1.5),
        // An honest aggregate that loses the election: the lie comes
        // with the cursor.
        ShardLie::FullCursorBlock | ShardLie::NanCursor | ShardLie::ExtraSubtree => {
            aggregate(0.0, own, share)
        }
    };
    conn.send(&sent).unwrap();
    if matches!(lie, ShardLie::FullCursorBlock | ShardLie::NanCursor | ShardLie::ExtraSubtree) {
        let Frame::ShardCoord { .. } = conn.recv(patience).unwrap() else {
            panic!("expected ShardCoord");
        };
        let Frame::ShardCursor {
            round,
            phase,
            partial_sum,
            partial_compensation,
            partial_len,
            mut stack,
        } = conn.recv(patience).unwrap()
        else {
            panic!("expected the gains cursor");
        };
        let (partial_sum, partial_len) = match lie {
            ShardLie::FullCursorBlock => (partial_sum, SUM_BLOCK as u32),
            ShardLie::ExtraSubtree => {
                stack.push((1, 0.0));
                (partial_sum, partial_len)
            }
            _ => (f64::NAN, partial_len),
        };
        conn.send(&Frame::ShardCursor {
            round,
            phase,
            partial_sum,
            partial_compensation,
            partial_len,
            stack,
        })
        .unwrap();
    }
    conn.recv(patience).ok()
}

/// A shard-master that reports an impossible aggregate — a NaN cost, a
/// candidate outside its range, a share of 1.5 — or returns an
/// impossible gains cursor (a full open block, a NaN sum, a subtree the
/// values before the range's end cannot make) is handled as crashed: at `M = 2` the liar is
/// buried as one mass epoch at round 0, the root sends it nothing
/// more, and the surviving shard's run matches the membership twin
/// bitwise.
#[test]
fn a_shard_master_reporting_impossible_values_is_buried_like_a_crash() {
    const N: usize = 8;
    const ROUNDS: usize = 12;
    let frame_timeout = Duration::from_millis(500);
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0x5A1E };
    let layout = ShardLayout::even(N, 2);
    for lie in [
        ShardLie::NanCost,
        ShardLie::ForeignCandidate,
        ShardLie::ShareAboveOne,
        ShardLie::FullCursorBlock,
        ShardLie::NanCursor,
        ShardLie::ExtraSubtree,
    ] {
        let mut cfg = ShardedConfig::new(N, 2, ROUNDS, env);
        cfg.frame_timeout = frame_timeout;
        let backbone = TcpListener::bind("127.0.0.1:0").unwrap();
        let root_addr = backbone.local_addr().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let worker_addr = listener.local_addr().unwrap();
        let liar = std::thread::spawn(move || lying_shard_master(root_addr, lie));
        let workers: Vec<JoinHandle<()>> = layout
            .range(0)
            .map(|i| {
                std::thread::spawn(move || {
                    let stream =
                        connect_with_backoff(worker_addr, 10, Duration::from_millis(10), i as u64)
                            .unwrap();
                    run_worker(stream).unwrap();
                })
            })
            .collect();
        let started = Instant::now();
        let (root, shard) = std::thread::scope(|scope| {
            let honest = scope.spawn(|| {
                let opts = ShardMasterOptions {
                    shard: 0,
                    num_shards: 2,
                    frame_timeout,
                    backbone_fault: FaultPlan::none(),
                    die_after_round: None,
                    die_mid_round: false,
                };
                run_shard_master(TcpStream::connect(root_addr).unwrap(), &listener, &opts)
            });
            let root = run_root(&backbone, &cfg).unwrap_or_else(|e| panic!("{lie:?}: {e}"));
            (root, honest.join().unwrap().expect("the honest shard-master finishes"))
        });
        assert!(started.elapsed() < WALL_BOUND, "{lie:?}: the run stalled past the hang bound");
        for handle in workers {
            handle.join().unwrap();
        }
        let after = liar.join().unwrap();
        assert!(after.is_none(), "{lie:?}: the root kept talking to the liar: {after:?}");

        assert_eq!(root.rounds.len(), ROUNDS, "{lie:?}: horizon");
        assert_eq!(root.dead_shards, [1], "{lie:?}: exactly the liar is buried");
        assert_eq!(root.epochs.len(), 1, "{lie:?}: one lie, one mass epoch");
        let epoch = &root.epochs[0];
        assert_eq!(epoch.round, 0, "{lie:?}: the lie's round is replayed");
        for i in 0..N {
            assert_eq!(epoch.members[i], layout.range(0).contains(&i), "{lie:?}: worker {i}");
        }
        // The liar never committed a round: its range is the exact 0.0
        // the renormalization assigns a buried range.
        assert_eq!(shard.rounds.len(), ROUNDS, "{lie:?}: the survivor commits every round");
        let buried = vec![0.0; layout.range(1).len()];
        let stitched: Vec<Vec<f64>> = shard
            .rounds
            .iter()
            .map(|r| &r.shares)
            .chain([&shard.final_shares])
            .map(|own| [own.as_slice(), &buried].concat())
            .collect();
        assert_stitched_twin(&stitched, &root.epochs, env, N, ROUNDS);
    }
}

/// The one impossible value a [`lying_master`] sends its worker.
#[derive(Clone, Copy, Debug)]
enum MasterLie {
    /// None: the control case, which must finish.
    Honest,
    WelcomeShare(f64),
    WelcomeDrop(f64),
    WelcomeDuplicate(f64),
    WelcomeFrameTimeoutUs(u64),
    /// `Welcome` `(retry_ack_timeout, retry_backoff, retry_max_attempts)`,
    /// with a drop probability of 0.2.
    WelcomeRetry(f64, f64, u32),
    CoordinationCost(f64),
    CoordinationAlpha(f64),
    AdjustScale(f64),
    AssignmentShare(f64),
    EpochShare(f64),
}

/// A hand-rolled shard-master for one `run_worker`: it admits the
/// worker and plays its script up to and including `lie`, then holds
/// the socket open, so only the lie, not a closed socket, can end the
/// worker. The worker is a non-straggler in round 0 (the straggler, for
/// an `Assignment` lie); the honest script rescales by 0.5, crosses an
/// epoch that assigns 0.75 and shuts down. Returns the worker's final
/// share or protocol error, or `None` if it did not finish within
/// `patience`; panics if the worker panicked.
fn lying_master(lie: MasterLie, patience: Duration) -> Option<Result<f64, String>> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let stream = connect_with_backoff(addr, 10, Duration::from_millis(10), 19).unwrap();
        let result = match run_worker(stream) {
            Ok(report) => Ok(report.final_share),
            Err(NetError::Protocol(msg)) => Err(msg),
            Err(other) => Err(format!("not a protocol error: {other}")),
        };
        let _ = tx.send(result);
    });
    let (stream, _) = listener.accept().unwrap();
    let mut conn = FrameConn::new(stream).unwrap();
    let Frame::Hello { .. } = conn.recv(patience).unwrap() else { panic!("expected Hello") };
    let (mut initial_share, mut drop_probability, mut duplicate_probability) = (0.5, 0.0, 0.0);
    let mut frame_timeout_us = 100_000;
    let (mut retry_ack_timeout, mut retry_backoff, mut retry_max_attempts) = (0.05, 2.0, 16);
    let in_welcome = match lie {
        MasterLie::WelcomeShare(v) => {
            initial_share = v;
            true
        }
        MasterLie::WelcomeDrop(v) => {
            drop_probability = v;
            true
        }
        MasterLie::WelcomeDuplicate(v) => {
            duplicate_probability = v;
            true
        }
        MasterLie::WelcomeFrameTimeoutUs(v) => {
            frame_timeout_us = v;
            true
        }
        MasterLie::WelcomeRetry(ack, backoff, attempts) => {
            drop_probability = 0.2;
            (retry_ack_timeout, retry_backoff, retry_max_attempts) = (ack, backoff, attempts);
            true
        }
        _ => false,
    };
    conn.send(&Frame::Welcome {
        worker_id: 0,
        num_workers: 2,
        rounds: 1,
        env: WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0x19 },
        initial_share,
        drop_probability,
        duplicate_probability,
        fault_seed: 0,
        frame_timeout_us,
        retry_ack_timeout,
        retry_backoff,
        retry_max_attempts,
    })
    .unwrap();
    if !in_welcome {
        play_round(&mut conn, lie, patience);
    }
    let result = rx.recv_timeout(patience);
    drop(conn);
    match result {
        Ok(result) => {
            worker.join().unwrap();
            Some(result)
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{lie:?}: the worker panicked"),
        // Hung: left detached; the caller fails the case.
        Err(mpsc::RecvTimeoutError::Timeout) => None,
    }
}

/// [`lying_master`]'s round 0, ending at the lie.
fn play_round(conn: &mut FrameConn, lie: MasterLie, patience: Duration) {
    conn.send(&Frame::RoundStart { epoch: 0, round: 0 }).unwrap();
    let Frame::LocalCost { cost, .. } = conn.recv(patience).unwrap() else {
        panic!("expected LocalCost")
    };
    let (global_cost, alpha) = match lie {
        MasterLie::CoordinationCost(v) => (v, 0.5),
        MasterLie::CoordinationAlpha(v) => (cost, v),
        _ => (cost, 0.5),
    };
    let is_straggler = matches!(lie, MasterLie::AssignmentShare(_));
    conn.send(&Frame::Coordination { round: 0, global_cost, alpha, is_straggler }).unwrap();
    match lie {
        MasterLie::CoordinationCost(_) | MasterLie::CoordinationAlpha(_) => return,
        MasterLie::AssignmentShare(v) => {
            return conn.send(&Frame::Assignment { round: 0, share: v }).unwrap();
        }
        _ => {}
    }
    let Frame::Decision { .. } = conn.recv(patience).unwrap() else { panic!("expected Decision") };
    let scale = if let MasterLie::AdjustScale(v) = lie { v } else { 0.5 };
    conn.send(&Frame::Adjust { round: 0, scale }).unwrap();
    if matches!(lie, MasterLie::AdjustScale(_)) {
        return;
    }
    let share = if let MasterLie::EpochShare(v) = lie { v } else { 0.75 };
    conn.send(&Frame::Epoch { epoch: 1, round: 1, share, members: vec![true; 2] }).unwrap();
    if matches!(lie, MasterLie::Honest) {
        conn.send(&Frame::Shutdown).unwrap();
    }
}

/// The worker's trust boundary: a shard-master sending a share, an α or
/// an `Adjust` scale outside `[0, 1]`, a non-finite global cost, a drop
/// probability outside `[0, 1)`, any duplicate probability but 0 (TCP
/// never duplicates a frame), hold pacing `RetryPolicy::new` rejects or
/// whose timeouts overflow, or a zero frame timeout, ends `run_worker`
/// with a protocol error — no panic, no hang — while
/// the honest script finishes at the share its `Epoch` assigned.
#[test]
fn a_worker_stops_on_impossible_values_from_its_shard_master() {
    let patience = Duration::from_secs(10);
    assert_eq!(lying_master(MasterLie::Honest, patience), Some(Ok(0.75)), "the honest control");
    for lie in [
        MasterLie::WelcomeShare(f64::NAN),
        MasterLie::WelcomeShare(1.5),
        MasterLie::WelcomeShare(-0.25),
        MasterLie::WelcomeDrop(f64::NAN),
        MasterLie::WelcomeDrop(1.0),
        MasterLie::WelcomeDrop(-0.25),
        MasterLie::WelcomeDuplicate(f64::NAN),
        MasterLie::WelcomeDuplicate(1.5),
        MasterLie::WelcomeDuplicate(0.05),
        MasterLie::WelcomeFrameTimeoutUs(0),
        MasterLie::WelcomeRetry(f64::NAN, 2.0, 16),
        MasterLie::WelcomeRetry(-1.0, 2.0, 16),
        MasterLie::WelcomeRetry(0.05, 0.5, 16),
        MasterLie::WelcomeRetry(0.05, 2.0, 0),
        MasterLie::WelcomeRetry(1e300, 2.0, 16),
        MasterLie::CoordinationCost(f64::NAN),
        MasterLie::CoordinationCost(f64::INFINITY),
        MasterLie::CoordinationAlpha(f64::NAN),
        MasterLie::CoordinationAlpha(1.5),
        MasterLie::CoordinationAlpha(-0.25),
        MasterLie::AdjustScale(f64::NAN),
        MasterLie::AdjustScale(1.5),
        MasterLie::AdjustScale(-0.25),
        MasterLie::AssignmentShare(f64::NAN),
        MasterLie::AssignmentShare(1.5),
        MasterLie::EpochShare(f64::NEG_INFINITY),
        MasterLie::EpochShare(-0.25),
        MasterLie::EpochShare(1.5),
    ] {
        match lying_master(lie, patience) {
            Some(Err(msg)) if !msg.starts_with("not a protocol error") => {}
            other => panic!("{lie:?}: expected a protocol error, got {other:?}"),
        }
    }
}

/// The one impossible value a [`lying_root`] sends its shard-master.
#[derive(Clone, Copy, Debug)]
enum RootLie {
    /// None: the control case, which must finish.
    Honest,
    /// `ShardWelcome` `(num_workers, range_start, range_end)`.
    WelcomeRange(u32, u32, u32),
    WelcomeDrop(f64),
    /// `ShardWelcome` `(retry_ack_timeout, retry_backoff,
    /// retry_max_attempts)`, with a drop probability of 0.2.
    WelcomeRetry(f64, f64, u32),
    CoordCost(f64),
    CoordAlpha(f64),
    CoordStraggler(u64),
    /// The first gains cursor's `partial_len`.
    GainsCursorLen(u32),
    /// A first gains cursor one leaf short of a full 64-entry stack of
    /// subtrees (sizes 2⁶³ … 1): two more values carry it past a `u64`.
    GainsCursorStack,
    RescaleScale(f64),
    CommitShare(f64),
    /// The shares cursor's `partial_len`.
    SharesCursorLen(u32),
    /// An epoch transition at round 0 whose authoritative `ShardSlice`
    /// scatters these shares back.
    Scatter([f64; 2]),
}

/// A hand-rolled root for one `run_shard_master` over two workers
/// (`M = 1`, one round). It plays round 0 up to and including `lie`,
/// then goes silent with the backbone open, so only the lie, not a
/// closed socket, can end the shard-master. The honest script rescales
/// the gains by 0.5, commits with a Σx refresh and shuts down. Returns
/// the shard-master's rounds or protocol error, or `None` if it did not
/// finish within `patience`; panics if the shard-master panicked.
fn lying_root(lie: RootLie, patience: Duration) -> Option<Result<usize, String>> {
    let backbone = TcpListener::bind("127.0.0.1:0").unwrap();
    let root_addr = backbone.local_addr().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let worker_addr = listener.local_addr().unwrap();
    let (tx, rx) = mpsc::channel();
    let shard = std::thread::spawn(move || {
        let opts = ShardMasterOptions {
            shard: 0,
            num_shards: 1,
            frame_timeout: Duration::from_millis(500),
            backbone_fault: FaultPlan::none(),
            die_after_round: None,
            die_mid_round: false,
        };
        let stream = TcpStream::connect(root_addr).unwrap();
        let result = match run_shard_master(stream, &listener, &opts) {
            Ok(report) => Ok(report.rounds.len()),
            Err(NetError::Protocol(msg)) => Err(msg),
            Err(other) => Err(format!("not a protocol error: {other}")),
        };
        let _ = tx.send(result);
        // Dropping the listener resets workers it never admitted.
    });
    // The workers' own outcomes do not matter: each ends when the
    // shard-master closes its socket.
    let workers: Vec<JoinHandle<()>> = (0..2u64)
        .map(|i| {
            std::thread::spawn(move || {
                let stream = connect_with_backoff(worker_addr, 10, Duration::from_millis(10), i);
                let _ = stream.map(run_worker);
            })
        })
        .collect();
    let (stream, _) = backbone.accept().unwrap();
    let mut conn = FrameConn::new(stream).unwrap();
    let Frame::ShardHello { .. } = conn.recv(patience).unwrap() else {
        panic!("expected ShardHello")
    };
    let (mut num_workers, mut range_start, mut range_end) = (2, 0, 2);
    let mut drop_probability = 0.0;
    let (mut retry_ack_timeout, mut retry_backoff, mut retry_max_attempts) = (0.05, 2.0, 16);
    let in_welcome = match lie {
        RootLie::WelcomeRange(n, start, end) => {
            (num_workers, range_start, range_end) = (n, start, end);
            true
        }
        RootLie::WelcomeDrop(v) => {
            drop_probability = v;
            true
        }
        RootLie::WelcomeRetry(ack, backoff, attempts) => {
            drop_probability = 0.2;
            (retry_ack_timeout, retry_backoff, retry_max_attempts) = (ack, backoff, attempts);
            true
        }
        _ => false,
    };
    conn.send(&Frame::ShardWelcome {
        shard: 0,
        num_shards: 1,
        num_workers,
        rounds: 1,
        range_start,
        range_end,
        env: WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0x20 },
        drop_probability,
        fault_seed: 0,
        retry_ack_timeout,
        retry_backoff,
        retry_max_attempts,
    })
    .unwrap();
    if !in_welcome {
        play_root_round(&mut conn, lie, patience);
    }
    let result = rx.recv_timeout(patience);
    drop(conn);
    match result {
        Ok(result) => {
            shard.join().unwrap();
            for worker in workers {
                worker.join().unwrap();
            }
            Some(result)
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{lie:?}: the shard-master panicked"),
        // Hung: left detached; the caller fails the case.
        Err(mpsc::RecvTimeoutError::Timeout) => None,
    }
}

/// A round-0 cursor from the root, `partial_len` values into its open
/// block over the subtree `stack`.
fn root_cursor(phase: CursorPhase, partial_len: u32, stack: Vec<(u64, f64)>) -> Frame {
    Frame::ShardCursor {
        round: 0,
        phase,
        partial_sum: 0.0,
        partial_compensation: 0.0,
        partial_len,
        stack,
    }
}

/// One honest cursor hop of [`lying_root`]: the empty cursor that starts
/// the chain at shard 0, and the shard-master's cursor back.
fn hop(conn: &mut FrameConn, phase: CursorPhase, patience: Duration) {
    conn.send(&root_cursor(phase, 0, Vec::new())).unwrap();
    let Frame::ShardCursor { .. } = conn.recv(patience).unwrap() else {
        panic!("expected the cursor back")
    };
}

/// [`lying_root`]'s round 0, ending at the lie.
fn play_root_round(conn: &mut FrameConn, lie: RootLie, patience: Duration) {
    let Frame::ShardAggregate { max_cost, straggler, .. } = conn.recv(patience).unwrap() else {
        panic!("expected ShardAggregate")
    };
    if let RootLie::Scatter(shares) = lie {
        conn.send(&Frame::ShardEpoch { epoch: 1, round: 0, members: vec![true; 2] }).unwrap();
        let Frame::ShardSlice { .. } = conn.recv(patience).unwrap() else {
            panic!("expected the gathered ShardSlice")
        };
        return conn
            .send(&Frame::ShardSlice { epoch: 1, start: 0, shares: shares.to_vec() })
            .unwrap();
    }
    let (global_cost, alpha, straggler) = match lie {
        RootLie::CoordCost(v) => (v, 0.5, straggler),
        RootLie::CoordAlpha(v) => (max_cost, v, straggler),
        RootLie::CoordStraggler(v) => (max_cost, 0.5, v),
        _ => (max_cost, 0.5, straggler),
    };
    conn.send(&Frame::ShardCoord { round: 0, global_cost, alpha, straggler }).unwrap();
    let forged = match lie {
        RootLie::CoordCost(_) | RootLie::CoordAlpha(_) | RootLie::CoordStraggler(_) => return,
        RootLie::GainsCursorLen(v) => Some((v, Vec::new())),
        RootLie::GainsCursorStack => Some((126, (0..64).rev().map(|b| (1u64 << b, 0.0)).collect())),
        _ => None,
    };
    if let Some((partial_len, stack)) = forged {
        return conn.send(&root_cursor(CursorPhase::Gains, partial_len, stack)).unwrap();
    }
    hop(conn, CursorPhase::Gains, patience);
    let scale = if let RootLie::RescaleScale(v) = lie { v } else { 0.5 };
    conn.send(&Frame::ShardRescale { round: 0, scale }).unwrap();
    if matches!(lie, RootLie::RescaleScale(_)) {
        return;
    }
    hop(conn, CursorPhase::Gains, patience);
    let straggler_share = if let RootLie::CommitShare(v) = lie { v } else { 0.5 };
    conn.send(&Frame::ShardCommit { round: 0, straggler, straggler_share, refresh: true }).unwrap();
    match lie {
        RootLie::CommitShare(_) => return,
        RootLie::SharesCursorLen(v) => {
            return conn.send(&root_cursor(CursorPhase::Shares, v, Vec::new())).unwrap();
        }
        _ => {}
    }
    hop(conn, CursorPhase::Shares, patience);
    conn.send(&Frame::Shutdown).unwrap();
}

/// The shard-master's trust boundary: a root sending an impossible
/// `ShardWelcome` (no workers, a range outside the fleet, a drop
/// probability outside `[0, 1)`, hold pacing `RetryPolicy::new` rejects
/// or whose timeouts overflow), an impossible
/// `ShardCoord` (a non-finite cost, α outside `[0, 1]`, a straggler
/// outside the fleet), a rescale or committed share outside `[0, 1]`, a
/// cursor that cannot have absorbed the values before the range, or an
/// epoch transition scattering a share outside `[0, 1]`, ends
/// `run_shard_master` with a protocol error — no panic, no hang — while
/// the honest script commits its round.
#[test]
fn a_shard_master_stops_on_impossible_values_from_its_root() {
    let patience = Duration::from_secs(10);
    assert_eq!(lying_root(RootLie::Honest, patience), Some(Ok(1)), "the honest control");
    for lie in [
        RootLie::WelcomeRange(0, 0, 0),
        RootLie::WelcomeRange(2, 2, 1),
        RootLie::WelcomeRange(2, 0, 3),
        RootLie::WelcomeDrop(f64::NAN),
        RootLie::WelcomeDrop(1.0),
        RootLie::WelcomeDrop(-0.25),
        RootLie::WelcomeRetry(f64::NAN, 2.0, 16),
        RootLie::WelcomeRetry(-1.0, 2.0, 16),
        RootLie::WelcomeRetry(0.05, 0.5, 16),
        RootLie::WelcomeRetry(0.05, 2.0, 0),
        RootLie::WelcomeRetry(1e300, 2.0, 16),
        RootLie::CoordCost(f64::NAN),
        RootLie::CoordCost(f64::INFINITY),
        RootLie::CoordAlpha(f64::NAN),
        RootLie::CoordAlpha(1.5),
        RootLie::CoordAlpha(-0.25),
        RootLie::CoordStraggler(2),
        RootLie::CoordStraggler(u64::MAX),
        RootLie::GainsCursorLen(u32::MAX),
        RootLie::GainsCursorLen(SUM_BLOCK as u32),
        RootLie::GainsCursorStack,
        RootLie::RescaleScale(f64::NAN),
        RootLie::RescaleScale(1.5),
        RootLie::RescaleScale(-0.25),
        RootLie::CommitShare(f64::NAN),
        RootLie::CommitShare(1.5),
        RootLie::CommitShare(-0.25),
        RootLie::SharesCursorLen(u32::MAX),
        RootLie::Scatter([1.5, 0.5]),
        RootLie::Scatter([f64::NAN, 0.5]),
    ] {
        match lying_root(lie, patience) {
            Some(Err(msg)) if !msg.starts_with("not a protocol error") => {}
            other => panic!("{lie:?}: expected a protocol error, got {other:?}"),
        }
    }
}
