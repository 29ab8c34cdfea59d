//! Experiment X3 (extension): churn recovery.
//!
//! A 10-worker paper cluster runs DOLBIE for 100 rounds through an
//! elastic-membership episode: at round 25 two workers depart — one
//! gracefully, one crash-detected — and at round 60 both rejoin at share
//! zero. `results/churn_recovery.csv` records, per round, the protocol's
//! max cost against two clairvoyant baselines:
//!
//! - the **static-N oracle**, which always balances all 10 workers — the
//!   bound the run can only match outside the churn window; and
//! - the **active-N oracle**, which balances exactly the current member
//!   set — the fair comparator during the window, showing DOLBIE
//!   re-converging to the shrunken fleet's optimum after the epoch
//!   boundary redistributes the departed shares.
//!
//! The master-worker trace is cross-checked round-by-round against the
//! sequential engine driven through `apply_membership` +
//! `Observation::from_costs_masked` (the experiment aborts on
//! divergence), and the oracle fan-out is deterministic, so the CSV is
//! byte-identical at any `--threads` setting.

use crate::common::emit_csv;
use dolbie_core::cost::DynCost;
use dolbie_core::oracle::instantaneous_minimizer;
use dolbie_core::parallel;
use dolbie_core::{Dolbie, DolbieConfig, Environment, LoadBalancer, Observation};
use dolbie_metrics::Table;
use dolbie_mlsim::{Cluster, ClusterConfig, MlModel};
use dolbie_simnet::{FixedLatency, LeaveKind, MasterWorkerSim, MembershipSchedule};

const N: usize = 10;
const ROUNDS: usize = 100;
const LEAVE_ROUND: usize = 25;
const REJOIN_ROUND: usize = 60;
const GRACEFUL_WORKER: usize = 3;
const CRASHED_WORKER: usize = 7;

fn schedule() -> MembershipSchedule {
    MembershipSchedule::none()
        .with_leave(LEAVE_ROUND, GRACEFUL_WORKER, LeaveKind::Graceful)
        .with_leave(LEAVE_ROUND, CRASHED_WORKER, LeaveKind::CrashDetected)
        .with_join(REJOIN_ROUND, GRACEFUL_WORKER)
        .with_join(REJOIN_ROUND, CRASHED_WORKER)
}

/// Runs the churn-recovery episode and writes `results/<name>.csv`.
pub fn churn_named(name: &str) {
    println!("== Churn recovery: 2 of {N} workers leave at round {LEAVE_ROUND}, rejoin at {REJOIN_ROUND} ==");
    let mut cfg = ClusterConfig::paper(MlModel::ResNet18);
    cfg.num_workers = N;
    let env = Cluster::sample(cfg, 0xC4A9);
    let sched = schedule();

    let trace = MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan())
        .with_membership(sched.clone())
        .run(ROUNDS);

    // Cross-check: the protocol through churn equals the sequential engine
    // through `apply_membership` — the experiment is a regression gate.
    let mut driver = env.clone();
    let mut sequential = Dolbie::new(N);
    let mut members = vec![true; N];
    for t in 0..ROUNDS {
        if sched.apply_round(t, &mut members).changed {
            sequential.apply_membership(&members);
        }
        let played = sequential.allocation().clone();
        let drift = trace.rounds[t].allocation.l2_distance(&played);
        assert!(
            drift < 1e-9,
            "round {t}: protocol diverged from the sequential engine by {drift:e}"
        );
        let fns = driver.reveal(t);
        let obs = Observation::from_costs_masked(t, &played, &fns, &members, Vec::new());
        sequential.observe(&obs);
    }

    // Clairvoyant baselines, fanned out across rounds (each round's oracle
    // is independent; order is restored by the harness).
    let oracles: Vec<(f64, f64)> = parallel::parallel_map(ROUNDS, |t| {
        let fns = env.clone().reveal(t);
        let static_opt =
            instantaneous_minimizer(&fns).expect("paper cost functions are well-formed").level;
        let members = sched.members_at(N, t);
        let active: Vec<DynCost> =
            fns.into_iter().enumerate().filter(|(i, _)| members[*i]).map(|(_, f)| f).collect();
        let active_opt =
            instantaneous_minimizer(&active).expect("a member subset stays well-formed").level;
        (static_opt, active_opt)
    });

    let mut table = Table::new(vec![
        "round",
        "max_cost",
        "static_oracle",
        "active_oracle",
        "active_count",
        "alpha",
        "share_graceful_w3",
        "share_crashed_w7",
    ]);
    for (t, r) in trace.rounds.iter().enumerate() {
        let (static_opt, active_opt) = oracles[t];
        table.push_row(vec![
            t.to_string(),
            format!("{:.6}", r.global_cost),
            format!("{static_opt:.6}"),
            format!("{active_opt:.6}"),
            r.active.iter().filter(|&&a| a).count().to_string(),
            format!("{:.9}", r.alpha),
            format!("{:.6}", r.allocation.share(GRACEFUL_WORKER)),
            format!("{:.6}", r.allocation.share(CRASHED_WORKER)),
        ]);
    }
    emit_csv(&table, name);

    let before = trace.rounds[LEAVE_ROUND - 1].global_cost;
    let spike = trace.rounds[LEAVE_ROUND].global_cost;
    let settled = trace.rounds[REJOIN_ROUND - 1].global_cost;
    let recovered = trace.rounds[ROUNDS - 1].global_cost;
    println!(
        "  max cost: {before:.3} before the leave, {spike:.3} at the boundary, {settled:.3} settled on 8 workers, {recovered:.3} after the rejoin"
    );
    println!(
        "  rejoiners re-enter at share 0: w{GRACEFUL_WORKER} = {:.4}, w{CRASHED_WORKER} = {:.4} at round {REJOIN_ROUND}; {:.4} / {:.4} by the horizon",
        trace.rounds[REJOIN_ROUND].allocation.share(GRACEFUL_WORKER),
        trace.rounds[REJOIN_ROUND].allocation.share(CRASHED_WORKER),
        trace.rounds[ROUNDS - 1].allocation.share(GRACEFUL_WORKER),
        trace.rounds[ROUNDS - 1].allocation.share(CRASHED_WORKER),
    );
    println!("  sequential-engine cross-check held to 1e-9 on every round.");
}

/// The default entry point: writes `results/churn_recovery.csv`.
pub fn churn() {
    churn_named("churn_recovery");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_matches_the_documented_episode() {
        let sched = schedule();
        sched.validate(N);
        let during = sched.members_at(N, LEAVE_ROUND);
        assert_eq!(during.iter().filter(|&&m| m).count(), N - 2);
        assert!(!during[GRACEFUL_WORKER] && !during[CRASHED_WORKER]);
        assert!(sched.members_at(N, REJOIN_ROUND).iter().all(|&m| m));
    }
}
