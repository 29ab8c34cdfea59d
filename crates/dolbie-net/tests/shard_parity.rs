//! The TCP coordinator's acceptance tests: over loopback TCP the
//! root → shard-masters → workers trajectory is bitwise identical to the
//! flat sequential engine for 500 rounds at M ∈ {1, 2, 4} × N ∈ {16, 64},
//! lossless and seeded-lossy; the `M = 1` tree (the flat master-worker
//! deployment) agrees with the simulated master-worker protocol; the
//! root tier's per-round message count is a pure function of M — it
//! never scales with N; and a four-digit fleet survives the OS listen
//! backlog.
//!
//! The 500-round horizon deliberately crosses the engine's
//! `TOTAL_REFRESH_INTERVAL = 256`, so the refresh cursor chain (the one
//! extra backbone hop) is exercised on every run.

use dolbie_core::{run_episode, Allocation, Dolbie, DolbieConfig, EpisodeOptions, LoadBalancer};
use dolbie_net::env::{EnvKind, WireEnvSpec};
use dolbie_net::shard::{run_sharded_loopback, ShardedConfig, ShardedLoopbackRun};
use dolbie_simnet::faults::{FaultPlan, RetryPolicy};
use dolbie_simnet::{FixedLatency, MasterWorkerSim};

const ROUNDS: usize = 500;
const MATRIX: [(usize, usize); 6] = [(16, 1), (16, 2), (16, 4), (64, 1), (64, 2), (64, 4)];

fn sequential_allocations(env: WireEnvSpec, n: usize, rounds: usize) -> Vec<Allocation> {
    let mut sequential = Dolbie::with_config(Allocation::uniform(n), DolbieConfig::new());
    let mut driver = env.environment(n);
    let trace = run_episode(&mut sequential, &mut driver, EpisodeOptions::new(rounds));
    let mut allocations: Vec<Allocation> =
        trace.records.iter().map(|r| r.allocation.clone()).collect();
    allocations.push(sequential.allocation().clone());
    allocations
}

fn assert_bitwise(run: &ShardedLoopbackRun, reference: &[Allocation], n: usize, m: usize) {
    let stitched = run.allocations();
    assert_eq!(stitched.len(), reference.len(), "horizon mismatch at N={n}, M={m}");
    for (t, (flat, expected)) in stitched.iter().zip(reference).enumerate() {
        assert_eq!(flat.len(), n);
        for (i, &x) in flat.iter().enumerate() {
            assert_eq!(
                x.to_bits(),
                expected.share(i).to_bits(),
                "round {t}, worker {i}: sharded trajectory diverged (N={n}, M={m})"
            );
        }
    }
}

/// The root's per-round logical frame count is determined by M and the
/// round's flags alone: M aggregates up, M coordinations down, 2M gains
/// cursor hops, M commits, plus 3M on a rescale re-chain and 2M on a
/// Σx-refresh round. No term involves N.
fn assert_root_messages_are_o_m(run: &ShardedLoopbackRun, m: usize) {
    let mut refreshes = 0usize;
    for round in &run.root.rounds {
        let mut expected = 5 * m;
        if round.rescaled {
            expected += 3 * m;
        }
        if round.refreshed {
            expected += 2 * m;
            refreshes += 1;
        }
        assert_eq!(
            round.messages, expected,
            "round {}: root exchanged {} backbone frames, expected {} (M={m})",
            round.round, round.messages, expected
        );
    }
    assert_eq!(refreshes, ROUNDS / 256, "the refresh chain must fire on schedule");
}

fn assert_workers_healthy(run: &ShardedLoopbackRun, n: usize) {
    let last = run.allocations().pop().expect("final entry");
    assert_eq!(run.workers.len(), n);
    for worker in &run.workers {
        let report = worker.as_ref().expect("healthy worker");
        assert_eq!(report.rounds_seen, ROUNDS);
        assert_eq!(report.epochs_seen, 0);
        assert_eq!(
            report.final_share.to_bits(),
            last[report.worker_id].to_bits(),
            "worker {} finished off its shard-master's share",
            report.worker_id
        );
    }
}

/// The `M = 1` tree against the simulated master-worker protocol: the
/// allocations agree to 1e-9 (the simulation's guarded pin sums naively;
/// the engine compensates), and so does the straggler wherever the
/// round's maximum cost is unique.
fn assert_matches_simnet_master_worker(run: &ShardedLoopbackRun, env: WireEnvSpec, n: usize) {
    let sim = MasterWorkerSim::new(env.environment(n), DolbieConfig::new(), FixedLatency::lan())
        .run(ROUNDS);
    let stitched = run.allocations();
    for ((net, root_round), sim_round) in stitched.iter().zip(&run.root.rounds).zip(&sim.rounds) {
        let l2: f64 = net
            .iter()
            .zip(sim_round.allocation.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(l2 < 1e-9, "round {}: TCP vs simnet master-worker drifted", sim_round.round);
        let max = sim_round.local_costs.iter().cloned().fold(f64::MIN, f64::max);
        let near = sim_round.local_costs.iter().filter(|&&c| (c - max).abs() < 1e-9).count();
        if near == 1 {
            assert_eq!(root_round.straggler, sim_round.straggler);
        }
    }
}

/// Lossless sharded loopback at every (N, M) of the acceptance matrix:
/// 500-round bitwise parity with the flat sequential engine, O(M) root
/// messaging, and every worker finishing on its engine share; at
/// `M = 1`, agreement with the simulated master-worker protocol.
#[test]
fn sharded_loopback_is_bitwise_identical_to_sequential_for_500_rounds() {
    for (n, m) in MATRIX {
        let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0xD01B_1E05 + n as u64 };
        let cfg = ShardedConfig::new(n, m, ROUNDS, env);
        let run = run_sharded_loopback(&cfg).expect("lossless sharded run");
        assert_eq!(run.root.rounds.len(), ROUNDS);
        assert_eq!(run.shards.len(), m);

        let reference = sequential_allocations(env, n, ROUNDS);
        assert_bitwise(&run, &reference, n, m);
        assert_root_messages_are_o_m(&run, m);
        assert_workers_healthy(&run, n);
        if m == 1 {
            assert_matches_simnet_master_worker(&run, env, n);
        }

        // The backbone is declared lossless: no retransmissions, ever.
        assert_eq!(run.root.wire.retransmissions, 0);
    }
}

/// The same matrix under a seeded lossy worker tier (socket-level drops,
/// duplicates, ack losses, retransmission delays on every worker link):
/// the run terminates, the faults demonstrably fired, and the trajectory
/// is *still* bitwise the sequential one — loss only delays frames. The
/// backbone stays lossless by design.
#[test]
fn lossy_sharded_loopback_stays_bitwise_identical_for_500_rounds() {
    for (n, m) in MATRIX {
        let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0xD01B_1E05 + n as u64 };
        // Loopback RTT is tens of microseconds, so a 1 ms ack timeout is
        // still far above any genuine round trip — it compresses the
        // injected retransmission delays, not the fault semantics.
        let retry = RetryPolicy::new(0.001, 1.5, 6);
        let plan = FaultPlan::seeded(21 + m as u64)
            .with_drop_probability(0.12)
            .with_duplicate_probability(0.05)
            .with_retry(retry);
        let cfg = ShardedConfig::new(n, m, ROUNDS, env).with_fault_plan(plan);
        let run = run_sharded_loopback(&cfg).expect("lossy sharded run must terminate");
        assert_eq!(run.root.rounds.len(), ROUNDS);

        // The faults genuinely fired at the worker tier...
        let mut worker_wire_retries = 0u64;
        let mut worker_wire_acks = 0u64;
        for shard in &run.shards {
            worker_wire_retries += shard.wire.retransmissions;
            worker_wire_acks += shard.wire.acks;
            // ...but never on the backbone.
            assert_eq!(shard.root_wire.retransmissions, 0);
        }
        assert!(worker_wire_retries > 0, "12% drop must force retransmissions");
        assert!(worker_wire_acks > 0, "lossy links must ack");

        // Chaos invariants 1–2 on the root-tier scalar trajectory; 4–5
        // are the bitwise assertion and termination themselves.
        let mut prev_alpha = f64::INFINITY;
        for round in &run.root.rounds {
            assert!(round.alpha <= prev_alpha + 1e-15, "round {}: α rose", round.round);
            prev_alpha = round.alpha;
        }
        let reference = sequential_allocations(env, n, ROUNDS);
        assert_bitwise(&run, &reference, n, m);
        assert_root_messages_are_o_m(&run, m);
        assert_workers_healthy(&run, n);
    }
}

/// Root-tier work is O(M), not O(N): quadrupling the fleet at fixed M
/// leaves the root's per-round message count and backbone byte volume
/// essentially unchanged (bytes may differ only by the O(log N) cursor
/// stack), while a shard-master's worker fan-in grows linearly with N.
#[test]
fn root_tier_message_count_is_independent_of_fleet_size() {
    let rounds = 40;
    let mut per_n: Vec<(usize, usize, u64)> = Vec::new();
    for n in [16usize, 64] {
        let m = 4;
        let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0x0_5CA1E + n as u64 };
        let cfg = ShardedConfig::new(n, m, rounds, env);
        let run = run_sharded_loopback(&cfg).expect("lossless sharded run");
        let messages: usize = run.root.rounds.iter().map(|r| r.messages).sum();
        let bytes: u64 = run.root.rounds.iter().map(|r| r.bytes as u64).sum();
        per_n.push((n, messages, bytes));
    }
    let (_, messages_16, bytes_16) = per_n[0];
    let (_, messages_64, bytes_64) = per_n[1];
    // Message counts: a pure function of M and per-round flags. The two
    // sweeps can differ only through rescale rounds, which are rare;
    // allow that slack but nothing N-proportional.
    let slack = 3 * 4 * rounds / 10;
    assert!(
        messages_64 <= messages_16 + slack,
        "root messages grew with N: {messages_16} at N=16 vs {messages_64} at N=64"
    );
    // Bytes: the cursor stack is O(log N), so 4× the fleet may add at
    // most a few stack entries per hop — far below a linear blowup.
    assert!(
        (bytes_64 as f64) < (bytes_16 as f64) * 2.0,
        "root backbone bytes scaled with N: {bytes_16} vs {bytes_64}"
    );
}

/// A 1024-worker `M = 1` fleet connects through the N-scaled backlog
/// schedule (staggered SYNs, log-scaled retry budget) and completes a
/// short run — the regression for fixed 10-attempt backoff exhausting
/// under listen backlog overflow at four-digit N.
#[test]
fn thousand_worker_fleet_survives_the_listen_backlog() {
    const N: usize = 1024;
    const ROUNDS: usize = 2;
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0xBAC6 };
    let run = run_sharded_loopback(&ShardedConfig::new(N, 1, ROUNDS, env))
        .expect("the full fleet must connect and finish");
    assert_eq!(run.root.rounds.len(), ROUNDS);
    assert!(run.root.epochs.is_empty(), "no worker lost to connect-retry exhaustion");
    assert_eq!(run.workers.len(), N);
    for worker in &run.workers {
        assert!(worker.is_ok(), "a worker failed to connect or finish");
    }
}
