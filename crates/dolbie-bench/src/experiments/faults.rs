//! Experiment X1 (extension): fault robustness of all three protocol
//! architectures.
//!
//! The paper motivates the fully-distributed architecture with fault
//! tolerance ("avoid a single point of failure") but does not evaluate
//! faults. This experiment runs two studies:
//!
//! 1. **Crash/timeout recovery (master-worker)** — injects a worker crash
//!    window and an extreme straggler handled by a master-side timeout,
//!    and measures how the protocol re-balances around the failure and
//!    recovers (`faults_crash_recovery` CSV).
//! 2. **Architecture comparison under one seeded fault plan** — the same
//!    `FaultPlan` (crash window + 5% message drop + 1% duplication) is
//!    run against master-worker, fully-distributed, and ring; the
//!    trajectories stay identical (the protocols implement one recovery
//!    policy) while the link-layer costs diverge
//!    (`faults_architecture_comparison` CSV).
//!
//! Both CSVs are byte-identical at any `--threads` setting: the fault
//! decisions are pure hashes of the plan seed and message coordinates,
//! not draws from shared RNG state.

use crate::common::emit_csv;
use dolbie_core::parallel;
use dolbie_core::DolbieConfig;
use dolbie_metrics::Table;
use dolbie_mlsim::{Cluster, ClusterConfig, MlModel};
use dolbie_simnet::{
    Crash, FaultPlan, FixedLatency, FullyDistributedSim, MasterWorkerSim, RingSim,
};

const ROUNDS: usize = 60;
const CRASH: Crash = Crash { worker: 2, from_round: 20, until_round: 35 };

/// Runs the crash-recovery scenario on a small cluster.
pub fn faults() {
    println!("== Fault injection: crash window + cost timeout (master-worker protocol) ==");
    let mut cfg = ClusterConfig::paper(MlModel::ResNet18);
    cfg.num_workers = 10;
    let env = Cluster::sample(cfg, 77);

    // The three scenarios are independent protocol runs on copies of the
    // same cluster; fan them out.
    let mut scenarios = parallel::parallel_map(3, |i| {
        let mut sim = MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan());
        match i {
            0 => sim.run(ROUNDS),
            1 => sim.with_crash(CRASH).run(ROUNDS),
            _ => sim.with_cost_timeout(0.25).run(ROUNDS),
        }
    });
    let timed_out = scenarios.pop().expect("three scenarios");
    let crashed = scenarios.pop().expect("three scenarios");
    let healthy = scenarios.pop().expect("three scenarios");

    let mut table = Table::new(vec![
        "round",
        "healthy_cost",
        "crashed_cost",
        "crashed_share_w2",
        "crashed_active_w2",
        "timeout_cost",
        "timeout_active_count",
    ]);
    for t in 0..ROUNDS {
        table.push_row(vec![
            t.to_string(),
            format!("{:.6}", healthy.rounds[t].global_cost),
            format!("{:.6}", crashed.rounds[t].global_cost),
            format!("{:.6}", crashed.rounds[t].allocation.share(2)),
            (crashed.rounds[t].active[2] as u8).to_string(),
            format!("{:.6}", timed_out.rounds[t].global_cost),
            timed_out.rounds[t].active.iter().filter(|&&a| a).count().to_string(),
        ]);
    }
    emit_csv(&table, "faults_crash_recovery");

    let share_before = crashed.rounds[19].allocation.share(2);
    let share_frozen = crashed.rounds[30].allocation.share(2);
    let share_after = crashed.rounds[ROUNDS - 1].allocation.share(2);
    println!(
        "  crash of worker 2 over rounds 20..35: share {share_before:.4} -> frozen {share_frozen:.4} -> recovered {share_after:.4}"
    );
    println!(
        "  makespan: healthy {:.2} s, with crash {:.2} s, with 0.25 s timeout {:.2} s",
        healthy.makespan(),
        crashed.makespan(),
        timed_out.makespan()
    );
    let timeout_exclusions: usize =
        timed_out.rounds.iter().map(|r| r.active.iter().filter(|&&a| !a).count()).sum();
    println!("  timeout excluded workers {timeout_exclusions} times across {ROUNDS} rounds");
    println!("  every round remained feasible and the protocol never deadlocked.");

    architecture_comparison(&env);
}

/// Runs one seeded fault plan against all three architectures and emits
/// the link-layer comparison CSV.
fn architecture_comparison(env: &Cluster) {
    println!("== Fault injection: one seeded plan, three architectures ==");
    // Cost timeouts are a coordinator concept, so the shared plan carries
    // only faults every architecture can express: a crash window plus
    // lossy links.
    let plan = FaultPlan::seeded(2023)
        .with_crash(CRASH)
        .with_drop_probability(0.05)
        .with_duplicate_probability(0.01);

    let mut traces = parallel::parallel_map(3, |i| match i {
        0 => MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan())
            .with_fault_plan(plan.clone())
            .run(ROUNDS),
        1 => FullyDistributedSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan())
            .with_fault_plan(plan.clone())
            .run(ROUNDS),
        _ => RingSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan())
            .with_fault_plan(plan.clone())
            .run(ROUNDS),
    });
    let ring = traces.pop().expect("three traces");
    let fd = traces.pop().expect("three traces");
    let mw = traces.pop().expect("three traces");

    // One recovery policy across architectures: the trajectories agree
    // bit-for-bit through the crash window and the lossy links.
    for (a, b) in mw.rounds.iter().zip(&fd.rounds) {
        assert!(
            a.allocation.l2_distance(&b.allocation) < 1e-9,
            "round {}: master-worker and fully-distributed diverged",
            a.round
        );
    }
    for (a, b) in mw.rounds.iter().zip(&ring.rounds) {
        assert!(
            a.allocation.l2_distance(&b.allocation) < 1e-9,
            "round {}: master-worker and ring diverged",
            a.round
        );
    }

    let mut table = Table::new(vec![
        "architecture",
        "messages",
        "retries",
        "acks",
        "duplicates",
        "bytes",
        "makespan_s",
        "recovery_rounds",
        "total_cost",
    ]);
    for trace in [&mw, &fd, &ring] {
        table.push_row(vec![
            trace.architecture.to_string(),
            trace.total_messages().to_string(),
            trace.total_retries().to_string(),
            trace.total_acks().to_string(),
            trace.rounds.iter().map(|r| r.duplicates).sum::<usize>().to_string(),
            trace.total_bytes().to_string(),
            format!("{:.4}", trace.makespan()),
            trace.degraded_rounds().to_string(),
            format!("{:.6}", trace.total_cost()),
        ]);
        println!(
            "  {:>17}: {} msgs, {} retries, {} acks, {} B, makespan {:.2} s, {} degraded rounds",
            trace.architecture,
            trace.total_messages(),
            trace.total_retries(),
            trace.total_acks(),
            trace.total_bytes(),
            trace.makespan(),
            trace.degraded_rounds()
        );
    }
    emit_csv(&table, "faults_architecture_comparison");
    println!("  identical trajectories across architectures; only link-layer costs differ.");
}
