//! The TCP coordinator's acceptance tests: over loopback TCP the
//! root → shard-masters → workers trajectory is bitwise identical to the
//! flat sequential engine for 500 rounds at M ∈ {1, 2, 4} × N ∈ {16, 64},
//! lossless and with seeded holds on the workers' replies (the delay a
//! lossy plan amounts to over TCP), and at the uneven, tie-heavy (N, M) =
//! (97, 7); the `M = 1` tree (the flat master-worker deployment) agrees
//! with the simulated master-worker protocol; the
//! feasibility guard's rescale path (`ShardRescale` to the shards,
//! `Adjust` to the workers) stays bitwise when an α floor forces it; the
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
    sequential_run(env, n, rounds, DolbieConfig::new()).0
}

/// The flat sequential engine's per-round allocations (plus the final
/// one) under `config`, and the engine itself.
fn sequential_run(
    env: WireEnvSpec,
    n: usize,
    rounds: usize,
    config: DolbieConfig,
) -> (Vec<Allocation>, Dolbie) {
    let mut sequential = Dolbie::with_config(Allocation::uniform(n), config);
    let mut driver = env.environment(n);
    let trace = run_episode(&mut sequential, &mut driver, EpisodeOptions::new(rounds));
    let mut allocations: Vec<Allocation> =
        trace.records.iter().map(|r| r.allocation.clone()).collect();
    allocations.push(sequential.allocation().clone());
    (allocations, sequential)
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
///
/// One more case runs (N, M) = (97, 7) on the static ramp: uneven ranges
/// of 14 and 13 workers, and seven slopes repeating every seven workers,
/// so every shard holds workers tied for the maximum cost and the
/// election must keep resolving ties to the lowest global index across
/// shard boundaries.
#[test]
fn sharded_loopback_is_bitwise_identical_to_sequential_for_500_rounds() {
    let chaos = MATRIX.map(|(n, m)| (n, m, EnvKind::ChaosMix));
    for (n, m, kind) in chaos.into_iter().chain([(97, 7, EnvKind::StaticRamp)]) {
        let env = WireEnvSpec { kind, seed: 0xD01B_1E05 + n as u64 };
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

        // Nothing is held on a lossless tree.
        assert_eq!(run.root.wire.holds, 0);
        assert!(run.workers.iter().flatten().all(|w| w.wire.holds == 0));
    }
}

/// The same matrix under a seeded 12% drop on every worker link, which
/// over TCP is delay: each worker holds a reply for the retransmission
/// timeouts its dropped attempts would have cost. The run terminates,
/// the holds demonstrably fired, and the trajectory is *still* bitwise
/// the sequential one. The backbone holds nothing.
#[test]
fn delayed_sharded_loopback_stays_bitwise_identical_for_500_rounds() {
    for (n, m) in MATRIX {
        let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0xD01B_1E05 + n as u64 };
        // Loopback RTT is tens of microseconds, so a 1 ms first timeout is
        // still far above any genuine round trip — it compresses the
        // holds, not the fault semantics.
        let plan = FaultPlan::seeded(21 + m as u64)
            .with_drop_probability(0.12)
            .with_retry(RetryPolicy::new(0.001, 1.5, 6));
        let cfg = ShardedConfig::new(n, m, ROUNDS, env).with_fault_plan(plan);
        let run = run_sharded_loopback(&cfg).expect("delayed sharded run must terminate");
        assert_eq!(run.root.rounds.len(), ROUNDS);

        // The holds genuinely fired at the worker tier...
        let holds: u64 = run.workers.iter().flatten().map(|w| w.wire.holds).sum();
        assert!(holds > 0, "12% drop must hold some replies");
        // ...but never on the backbone.
        assert_eq!(run.root.wire.holds, 0);
        assert!(run.shards.iter().all(|s| s.root_wire.holds == 0));

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

/// The feasibility guard over TCP. An α floor of 0.9 keeps the step
/// large enough that the root's guard fires: the shards rescale their
/// gains and re-chain the cursor, and the workers replay
/// `x_old + gain · scale` from `Adjust`. At M ∈ {1, 2} the run is
/// bitwise the sequential `Dolbie` under the same configuration, the
/// guard fires on the same rounds as the engine's, and every worker
/// finishes on its engine share.
#[test]
fn forced_guard_rescale_stays_bitwise_over_tcp() {
    let n = 16;
    let config = DolbieConfig::new().with_alpha_floor(0.9);
    for m in [1usize, 2] {
        let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0x6A4D + m as u64 };
        let mut cfg = ShardedConfig::new(n, m, ROUNDS, env);
        cfg.dolbie = config;
        let run = run_sharded_loopback(&cfg).expect("guarded sharded run");
        assert_eq!(run.root.rounds.len(), ROUNDS);

        let (reference, engine) = sequential_run(env, n, ROUNDS, config);
        let rescaled = run.root.rounds.iter().filter(|r| r.rescaled).count();
        assert!(rescaled > 0, "the α floor must trip the guard over TCP (M={m})");
        assert_eq!(rescaled, engine.stats().guard_activations, "guard rounds differ (M={m})");
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
