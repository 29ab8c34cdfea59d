//! Cross-validation between the sampled chaos sweep and the model
//! checker's controlled scheduler.
//!
//! The model checker's claim to relevance is that its controlled runs
//! are the *same* executions the chaos sweep samples — the default
//! (all-zeros) decision prefix must reproduce each uncontrolled
//! simulation bitwise, and the shared invariant detectors must return
//! the same verdict on the replayed trajectory that the sweep reports
//! for the case. This test replays the first 20 seeded sweep schedules
//! through [`dolbie_mc::ReplayScheduler`] across all three flat
//! architectures and checks both properties.

use dolbie_bench::experiments::chaos::{self, ChaosCase};
use dolbie_core::DolbieConfig;
use dolbie_mc::ReplayScheduler;
use dolbie_simnet::invariants;
use dolbie_simnet::{FixedLatency, FullyDistributedSim, MasterWorkerSim, ProtocolTrace, RingSim};

const CASES: usize = 20;

/// Runs one architecture both uncontrolled (`run`) and under the model
/// checker's canonical all-defaults schedule (`run_with_scheduler`).
fn controlled_and_free(case: &ChaosCase, arch: &str) -> (ProtocolTrace, ProtocolTrace) {
    let plan = case.flat_plan();
    let make_mw = || {
        MasterWorkerSim::new(
            chaos::env_for(case.env_seed, case.n),
            DolbieConfig::new(),
            FixedLatency::lan(),
        )
        .with_fault_plan(plan.clone())
        .with_membership(case.schedule.clone())
    };
    let make_fd = || {
        FullyDistributedSim::new(
            chaos::env_for(case.env_seed, case.n),
            DolbieConfig::new(),
            FixedLatency::lan(),
        )
        .with_fault_plan(plan.clone())
        .with_membership(case.schedule.clone())
    };
    let make_ring = || {
        RingSim::new(
            chaos::env_for(case.env_seed, case.n),
            DolbieConfig::new(),
            FixedLatency::lan(),
        )
        .with_fault_plan(plan.clone())
        .with_membership(case.schedule.clone())
    };
    // An observing scheduler (`dolbie_mc::replay` observes nothing), so
    // the bitwise comparison also checks that hashing never perturbs a run.
    let mut sched = ReplayScheduler::new(&[]);
    match arch {
        "master-worker" => {
            (make_mw().run(case.rounds), make_mw().run_with_scheduler(case.rounds, &mut sched))
        }
        "fully-distributed" => {
            (make_fd().run(case.rounds), make_fd().run_with_scheduler(case.rounds, &mut sched))
        }
        "ring" => {
            (make_ring().run(case.rounds), make_ring().run_with_scheduler(case.rounds, &mut sched))
        }
        other => unreachable!("unknown architecture {other}"),
    }
}

#[test]
fn sweep_schedules_replay_bitwise_with_matching_verdicts() {
    for id in 0..CASES {
        let case = chaos::case_from_seed(id, chaos::MASTER_SEED);
        // The sweep's own verdict on this case: it must pass — the model
        // checker cross-validates against a green baseline.
        assert!(
            chaos::run_case(&case).is_ok(),
            "case {id}: the chaos sweep itself fails this case"
        );
        for arch in ["master-worker", "fully-distributed", "ring"] {
            let (free, controlled) = controlled_and_free(&case, arch);
            // (1) The canonical decision path IS the uncontrolled run:
            // every round agrees bitwise, active masks included.
            assert_eq!(
                free.rounds.len(),
                controlled.rounds.len(),
                "case {id} {arch}: round counts diverge under the controlled scheduler"
            );
            for (t, (a, b)) in free.rounds.iter().zip(&controlled.rounds).enumerate() {
                assert!(
                    invariants::rounds_agree_bitwise(a, b) && a.active == b.active,
                    "case {id} {arch}: controlled replay diverges at round {t}"
                );
            }
            // (2) The shared detectors return the sweep's verdict on the
            // replayed trajectory: this reachable path is invariant-clean.
            let verdict = invariants::check_trace(&controlled, case.rounds, |t| {
                case.schedule.members_at(case.n, t)
            });
            assert!(
                verdict.is_ok(),
                "case {id} {arch}: replayed path fails invariants the sweep passed: {:?}",
                verdict
            );
        }
    }
}
