//! The model checker's acceptance gates: three exhaustively verified
//! configurations (one per architecture), and the end-to-end
//! bug-catching pipeline against the deliberately re-broken PR 4
//! overshoot guard.
//!
//! Each exploration's counters and first-visit order are pinned
//! exactly, under DFS and under BFS: the DFS values were taken from the
//! explorer that fingerprinted every delivery choice, and the BFS values
//! from the explorer that re-simulated every run from scratch, so they
//! also pin that observing state only where the scan reads it, and
//! starting a run from a forked simulator world, change no cut.

use dolbie_core::fingerprint::StateFp;
use dolbie_mc::{
    decision_count, explore, replay, reproducer, shrink, Arch, ExploreStats, McConfig, Strategy,
};
use dolbie_simnet::{Crash, FaultPlan, LeaveKind, MembershipSchedule, RetryPolicy};

/// Acceptance configuration (a): master-worker, N=3, 3 rounds, the full
/// drop + duplicate wire envelope under a two-attempt retry policy.
fn config_mw_lossy() -> McConfig {
    let mut plan =
        FaultPlan::seeded(0xD01B_0002).with_drop_probability(0.2).with_duplicate_probability(0.1);
    plan.retry = RetryPolicy::new(0.05, 2.0, 2);
    McConfig::new(Arch::MasterWorker, 3, 3).with_plan(plan)
}

/// Acceptance configuration (b): ring, N=4, 3 rounds, one crash window.
fn config_ring_crash() -> McConfig {
    let mut plan = FaultPlan::seeded(0xD01B_0003).with_crash(Crash {
        worker: 2,
        from_round: 1,
        until_round: 2,
    });
    plan.retry = RetryPolicy::new(0.05, 2.0, 2);
    McConfig::new(Arch::Ring, 4, 3).with_plan(plan)
}

/// Acceptance configuration (c): fully-distributed, N=3, 3 rounds, a
/// leave + join epoch pair overlapping a crash window.
fn config_fd_join_crash() -> McConfig {
    let mut plan = FaultPlan::seeded(0xD01B_0004).with_crash(Crash {
        worker: 1,
        from_round: 1,
        until_round: 2,
    });
    plan.retry = RetryPolicy::new(0.05, 2.0, 2);
    let schedule = MembershipSchedule::none().with_leave(1, 2, LeaveKind::Graceful).with_join(2, 2);
    McConfig::new(Arch::FullyDistributed, 3, 3).with_plan(plan).with_schedule(schedule)
}

/// Digest of the first-visit order of every explored state.
fn visit_digest(stats: &ExploreStats) -> u64 {
    let mut fp = StateFp::new(0xD01B_0515);
    for &state in &stats.visit_order {
        fp.push_u64(state);
    }
    fp.finish()
}

/// The pinned outcome of one configuration's exploration: runs, states
/// explored, states pruned, deepest trail, and the visit-order digest.
struct Pinned {
    runs: usize,
    explored: usize,
    pruned: usize,
    depth: usize,
    digest: u64,
}

fn assert_clean_and_pruned(name: &str, config: &McConfig, pinned: &Pinned) {
    let ex = explore(config, Strategy::Dfs);
    assert!(ex.complete, "{name}: exploration must be exhaustive");
    assert!(
        ex.violation.is_none(),
        "{name}: found a violation: {:?}",
        ex.violation.map(|v| v.message)
    );
    assert!(ex.stats.states_explored > 0, "{name}: no states visited");
    assert!(
        ex.stats.states_pruned * 2 > ex.stats.naive_states(),
        "{name}: pruning below 50% of naive ({} of {})",
        ex.stats.states_pruned,
        ex.stats.naive_states()
    );
    let s = &ex.stats;
    assert_eq!(
        (s.runs, s.states_explored, s.states_pruned, s.max_depth),
        (pinned.runs, pinned.explored, pinned.pruned, pinned.depth),
        "{name}: (runs, explored, pruned, depth) moved"
    );
    assert_eq!(visit_digest(s), pinned.digest, "{name}: first-visit order moved");
}

#[test]
fn master_worker_lossy_envelope_is_verified_exhaustively() {
    let pinned = Pinned {
        runs: 84_640,
        explored: 99,
        pruned: 84_350,
        depth: 107,
        digest: 0x0ed5_195b_e946_1385,
    };
    assert_clean_and_pruned("mw3x3 drop+dup", &config_mw_lossy(), &pinned);
}

#[test]
fn ring_crash_window_is_verified_exhaustively() {
    let pinned =
        Pinned { runs: 162, explored: 96, pruned: 132, depth: 19, digest: 0x1cee_fe22_9aa3_faf7 };
    assert_clean_and_pruned("ring4x3 crash", &config_ring_crash(), &pinned);
}

#[test]
fn fully_distributed_join_plus_crash_is_verified_exhaustively() {
    let pinned = Pinned {
        runs: 2_176,
        explored: 966,
        pruned: 2_054,
        depth: 30,
        digest: 0xa714_dd01_5e70_3131,
    };
    assert_clean_and_pruned("fd3x3 join+crash", &config_fd_join_crash(), &pinned);
}

/// Breadth-first exploration of a configuration covers it cleanly and
/// reproduces its pinned counters and first-visit order. BFS cuts land
/// in other places than DFS's, so its pins are its own.
fn assert_bfs_pinned(name: &str, config: &McConfig, pinned: &Pinned) {
    let ex = explore(config, Strategy::Bfs);
    assert!(ex.complete, "{name}: BFS exploration must be exhaustive");
    assert!(
        ex.violation.is_none(),
        "{name}: BFS found a violation: {:?}",
        ex.violation.map(|v| v.message)
    );
    let s = &ex.stats;
    assert_eq!(
        (s.runs, s.states_explored, s.states_pruned, s.max_depth),
        (pinned.runs, pinned.explored, pinned.pruned, pinned.depth),
        "{name}: BFS (runs, explored, pruned, depth) moved"
    );
    assert_eq!(visit_digest(s), pinned.digest, "{name}: BFS first-visit order moved");
}

#[test]
fn master_worker_lossy_envelope_is_verified_exhaustively_under_bfs() {
    let pinned = Pinned {
        runs: 84_640,
        explored: 99,
        pruned: 84_350,
        depth: 107,
        digest: 0x07a7_ba65_da74_2ea4,
    };
    assert_bfs_pinned("mw3x3 drop+dup", &config_mw_lossy(), &pinned);
}

#[test]
fn ring_crash_window_is_verified_exhaustively_under_bfs() {
    let pinned =
        Pinned { runs: 162, explored: 96, pruned: 132, depth: 17, digest: 0x36a6_aacd_358a_d31d };
    assert_bfs_pinned("ring4x3 crash", &config_ring_crash(), &pinned);
}

#[test]
fn fully_distributed_join_plus_crash_is_verified_exhaustively_under_bfs() {
    let pinned = Pinned {
        runs: 2_176,
        explored: 966,
        pruned: 2_054,
        depth: 30,
        digest: 0x11b3_359e_7854_51a4,
    };
    assert_bfs_pinned("fd3x3 join+crash", &config_fd_join_crash(), &pinned);
}

/// The sabotage configuration: env seed 6402's chaos-mix costs make the
/// round-1 joiner (share exactly 0.0) the straggler, so with the PR 4
/// overshoot guard disabled the non-stragglers' combined gain executes
/// `Σx ≈ 1.022 > 1` — the historical bug, verbatim.
fn sabotage_config() -> McConfig {
    let schedule = MembershipSchedule::none().with_leave(0, 2, LeaveKind::Graceful).with_join(1, 2);
    McConfig::new(Arch::MasterWorker, 3, 3)
        .with_env_seed(6402)
        .with_schedule(schedule)
        .with_sabotage()
}

#[test]
fn injected_overshoot_bug_is_caught_shrunk_and_reproduced() {
    let config = sabotage_config();

    // The guarded twin of the same configuration is clean.
    let mut guarded = config.clone();
    guarded.sabotage_overshoot_guard = false;
    let clean = explore(&guarded, Strategy::Dfs);
    assert!(clean.complete && clean.violation.is_none(), "guarded twin must pass");

    // The checker catches the sabotage.
    let ex = explore(&config, Strategy::Dfs);
    let violation = ex.violation.expect("the re-broken guard must be caught");
    assert!(
        violation.message.contains("feasibility") || violation.message.contains("panic"),
        "unexpected violation: {}",
        violation.message
    );

    // Shrinking lands well inside the 12-decision budget.
    let minimal = shrink(&config, &violation.prefix);
    assert!(
        decision_count(&minimal) <= 12,
        "shrunk reproducer needs {} non-default decisions",
        decision_count(&minimal)
    );

    // The emitted reproducer carries the full recipe...
    let text = reproducer(&config, &minimal, &violation.message);
    assert!(text.contains("Arch::MasterWorker"));
    assert!(text.contains(".with_sabotage()"));
    assert!(text.contains(&format!("{:#018x}", 6402)));
    assert!(text.contains("verdict.is_err()"));

    // ...and what it asserts reproduces bitwise: two independent replays
    // of the shrunk prefix fail with the identical message.
    let first = replay(&config, &minimal);
    let second = replay(&config, &minimal);
    let msg_a = first.verdict.expect_err("shrunk prefix still fails");
    let msg_b = second.verdict.expect_err("shrunk prefix still fails");
    assert_eq!(msg_a, msg_b, "reproducer is not bitwise stable");

    // Pinned from the replay that fingerprinted states: the shrunk
    // prefix, its message and the emitted test do not depend on hashing.
    assert_eq!(minimal, Vec::<u32>::new(), "the default run already fails");
    assert_eq!(msg_a, SABOTAGE_MESSAGE);
    assert_eq!(violation.message, SABOTAGE_MESSAGE);
    assert_eq!(text, SABOTAGE_REPRODUCER);
}

/// The sabotage configuration's violation message.
const SABOTAGE_MESSAGE: &str =
    "panic: protocol preserves feasibility: SumMismatch { sum: 1.02233984375 }";

/// The reproducer emitted for the sabotage configuration's shrunk prefix.
const SABOTAGE_REPRODUCER: &str = r#"#[test]
fn mc_reproducer() {
    // dolbie-mc counterexample: panic: protocol preserves feasibility: SumMismatch { sum: 1.02233984375 }
    // 0 non-default scheduler decision(s)
    let mut plan = FaultPlan::seeded(0x0000000000000000)
        .with_drop_probability(0.0)
        .with_duplicate_probability(0.0);
    plan.retry = RetryPolicy::new(0.05, 2.0, 2);
    let schedule = MembershipSchedule::none()
        .with_leave(0, 2, LeaveKind::Graceful)
        .with_join(1, 2);
    let config = McConfig::new(Arch::MasterWorker, 3, 3)
        .with_env_seed(0x0000000000001902)
        .with_plan(plan)
        .with_schedule(schedule)
        .with_sabotage();
    let prefix: &[u32] = &[];
    let outcome = dolbie_mc::replay(&config, prefix);
    assert!(outcome.verdict.is_err(), "counterexample no longer reproduces");
}
"#;
