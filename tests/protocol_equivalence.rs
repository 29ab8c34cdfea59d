//! Integration across `dolbie-core`, `dolbie-simnet` and `dolbie-mlsim`:
//! both message-passing architectures and the ring must reproduce the
//! sequential engine's trajectory on the *realistic* cluster environment,
//! with the §IV-C message complexities. Real concurrent execution is
//! checked bitwise against the sequential run over loopback TCP, in
//! `dolbie-net`'s `shard_parity`.

use dolbie::core::{run_episode, Dolbie, DolbieConfig, EpisodeOptions};
use dolbie::mlsim::{Cluster, ClusterConfig, MlModel};
use dolbie::simnet::{
    FixedLatency, FullyDistributedSim, JitteredLatency, MasterWorkerSim, RingSim,
};

const N: usize = 10;
const ROUNDS: usize = 30;

fn cluster() -> Cluster {
    let mut cfg = ClusterConfig::paper(MlModel::ResNet18);
    cfg.num_workers = N;
    Cluster::sample(cfg, 4242)
}

#[test]
fn all_five_implementations_agree_on_the_cluster_environment() {
    let env = cluster();
    let mw =
        MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan()).run(ROUNDS);
    let fd =
        FullyDistributedSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan()).run(ROUNDS);
    let ring = RingSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan()).run(ROUNDS);
    let mut sequential = Dolbie::new(N);
    let mut driver = env;
    let reference = run_episode(&mut sequential, &mut driver, EpisodeOptions::new(ROUNDS));

    for (t, record) in reference.records.iter().enumerate() {
        let r = &record.allocation;
        assert!(mw.rounds[t].allocation.l2_distance(r) < 1e-9, "master-worker diverged at {t}");
        assert!(fd.rounds[t].allocation.l2_distance(r) < 1e-9, "fully-distributed diverged at {t}");
        assert!(ring.rounds[t].allocation.l2_distance(r) < 1e-9, "ring diverged at {t}");
        assert!((mw.rounds[t].global_cost - record.global_cost).abs() < 1e-9);
    }
}

#[test]
fn crash_recovery_preserves_feasibility_on_the_cluster() {
    use dolbie::simnet::Crash;
    let env = cluster();
    let trace = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan())
        .with_crash(Crash { worker: 4, from_round: 8, until_round: 18 })
        .run(ROUNDS);
    let frozen = trace.rounds[8].allocation.share(4);
    for t in 8..18 {
        assert!(!trace.rounds[t].active[4]);
        assert!((trace.rounds[t].allocation.share(4) - frozen).abs() < 1e-12);
        let sum: f64 = trace.rounds[t].allocation.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
    assert!(trace.rounds[ROUNDS - 1].active[4], "worker rejoined after recovery");
}

#[test]
fn message_complexity_matches_section_4c() {
    let env = cluster();
    let mw =
        MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan()).run(ROUNDS);
    let fd = FullyDistributedSim::new(env, DolbieConfig::new(), FixedLatency::lan()).run(ROUNDS);
    assert_eq!(mw.total_messages(), ROUNDS * 3 * N);
    assert_eq!(fd.total_messages(), ROUNDS * (N * (N - 1) + (N - 1)));
    assert!(fd.total_bytes() > mw.total_bytes());
}

#[test]
fn network_jitter_changes_wall_clock_but_not_decisions() {
    let env = cluster();
    let calm =
        MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::instant()).run(ROUNDS);
    let stormy = MasterWorkerSim::new(
        env,
        DolbieConfig::new(),
        JitteredLatency::new(FixedLatency::new(0.05, 1e6), 0.05, 1234),
    )
    .run(ROUNDS);
    for (a, b) in calm.rounds.iter().zip(&stormy.rounds) {
        assert!(a.allocation.l2_distance(&b.allocation) < 1e-12);
    }
    assert!(stormy.makespan() > calm.makespan());
    assert!(stormy.mean_control_overhead() > calm.mean_control_overhead());
}

#[test]
fn degraded_node_fault_injection_preserves_decisions() {
    use dolbie::simnet::{DegradedNode, NodeId};
    let env = cluster();
    let healthy =
        MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan()).run(ROUNDS);
    // Worker 3's links are 50x slower for rounds 5..15.
    let degraded = MasterWorkerSim::new(
        env,
        DolbieConfig::new(),
        DegradedNode::new(FixedLatency::lan(), NodeId::Worker(3), 50.0, 5, 15),
    )
    .run(ROUNDS);
    for (a, b) in healthy.rounds.iter().zip(&degraded.rounds) {
        assert!(
            a.allocation.l2_distance(&b.allocation) < 1e-12,
            "the synchronous protocol's decisions are delay-invariant"
        );
    }
    assert!(degraded.makespan() > healthy.makespan(), "but the fault costs wall-clock");
}

#[test]
fn one_fault_plan_drives_all_three_architectures_identically() {
    use dolbie::simnet::{Crash, FaultPlan};
    let env = cluster();
    let plan = FaultPlan::seeded(31)
        .with_crash(Crash { worker: 4, from_round: 8, until_round: 18 })
        .with_drop_probability(0.08)
        .with_duplicate_probability(0.02);
    let mw = MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan())
        .with_fault_plan(plan.clone())
        .run(ROUNDS);
    let fd = FullyDistributedSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan())
        .with_fault_plan(plan.clone())
        .run(ROUNDS);
    let ring = RingSim::new(env, DolbieConfig::new(), FixedLatency::lan())
        .with_fault_plan(plan)
        .run(ROUNDS);

    for t in 0..ROUNDS {
        assert!(
            mw.rounds[t].allocation.l2_distance(&fd.rounds[t].allocation) < 1e-9,
            "master-worker and fully-distributed diverged at {t}"
        );
        assert!(
            mw.rounds[t].allocation.l2_distance(&ring.rounds[t].allocation) < 1e-9,
            "master-worker and ring diverged at {t}"
        );
        let sum: f64 = mw.rounds[t].allocation.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "round {t} must stay feasible");
    }
    for trace in [&mw, &fd, &ring] {
        assert_eq!(trace.degraded_rounds(), 10, "{}", trace.architecture);
        assert!(trace.total_retries() > 0, "{} must retry on lossy links", trace.architecture);
    }
}
