//! Deterministic-exploration regression: BFS exploration must produce
//! byte-identical statistics — including the first-visit order of every
//! state fingerprint — at any worker-thread count, and exactly the
//! pinned ones. Kept in its own test binary because it toggles the
//! process-global thread setting.

use dolbie_core::fingerprint::StateFp;
use dolbie_core::parallel::set_threads;
use dolbie_mc::{explore, Arch, McConfig, Strategy};
use dolbie_simnet::{Crash, FaultPlan, LeaveKind, MembershipSchedule, RetryPolicy};

#[test]
fn bfs_exploration_is_byte_identical_at_any_thread_count() {
    let mut plan = FaultPlan::seeded(0xD01B_0004).with_crash(Crash {
        worker: 1,
        from_round: 1,
        until_round: 2,
    });
    plan.retry = RetryPolicy::new(0.05, 2.0, 2);
    let schedule = MembershipSchedule::none().with_leave(1, 2, LeaveKind::Graceful).with_join(2, 2);
    let config =
        McConfig::new(Arch::FullyDistributed, 3, 3).with_plan(plan).with_schedule(schedule);

    set_threads(1);
    let one = explore(&config, Strategy::Bfs);
    set_threads(4);
    let four = explore(&config, Strategy::Bfs);
    set_threads(0);

    assert!(one.complete && four.complete);
    assert!(one.violation.is_none() && four.violation.is_none());
    // The whole stats struct — runs, explored, pruned, depth, AND the
    // first-visit order vector — must match byte for byte.
    assert_eq!(one.stats, four.stats);
    // Pinned from the explorer that fingerprinted every delivery choice:
    // each wave's replays observe state only up to the cuts the merge
    // makes, so the counters and the visit order must not move.
    let s = &one.stats;
    assert_eq!((s.runs, s.states_explored, s.states_pruned, s.max_depth), (2_176, 966, 2_054, 30));
    let mut digest = StateFp::new(0xD01B_0515);
    for &state in &s.visit_order {
        digest.push_u64(state);
    }
    assert_eq!(digest.finish(), 0x11b3_359e_7854_51a4, "first-visit order moved");
}
