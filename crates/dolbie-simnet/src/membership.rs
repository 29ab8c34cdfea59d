//! Seeded, deterministic worker-churn schedules (epoch boundaries).
//!
//! A [`MembershipSchedule`] is the membership analogue of
//! [`FaultPlan`](crate::faults::FaultPlan): a declarative, seeded
//! description of every *epoch boundary* a run crosses. At the start of a
//! round named by the schedule, workers may
//!
//! - **leave** — [`LeaveKind::Graceful`] (announced, costs no detection
//!   time) or [`LeaveKind::CrashDetected`] (survivors discover the
//!   departure through the timeout machinery, which charges them a
//!   detection delay on the simulated clock); either way the departing
//!   worker's share is *redistributed* proportionally over the continuing
//!   members (contrast a `FaultPlan` crash window, which freezes the
//!   share in place for the worker's return);
//! - **join** (or rejoin) — the worker enters at share exactly `0.0` and
//!   is grown by the ordinary eq. (5)/(6) update.
//!
//! All three protocol simulators accept a schedule via
//! `with_membership` and cross boundaries with the same pure
//! re-normalization ([`renormalize_onto_members`]) and the same α rule
//! (`α ← min(α, cap)` with the cap re-derived against the new member
//! count), so their trajectories stay bitwise-identical through churn.
//! How the new view is disseminated is out of scope here — the sims model
//! an out-of-band membership service (e.g. the cluster manager that
//! started the workers); only the *detection* of a crash-style departure
//! costs simulated time.
//!
//! Like fault decisions, random schedules are pure hashes of
//! `(seed, round, worker)` — no stateful RNG — so a schedule is fully
//! determined by its seed regardless of execution order.

use dolbie_core::fingerprint::mix64;
use dolbie_core::membership::renormalize_onto_members;

/// How a worker departs at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaveKind {
    /// The worker announces its departure; survivors learn the new view
    /// for free.
    Graceful,
    /// The worker vanishes; survivors discover it via timeout and pay a
    /// detection delay on the simulated clock before the round starts.
    CrashDetected,
}

/// One worker's membership change at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipChange {
    /// The worker leaves the active set; its share is redistributed.
    Leave(LeaveKind),
    /// The worker (re)joins at share exactly `0.0`.
    Join,
}

/// A scheduled membership change: at the start of `round`, `worker`
/// undergoes `change`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipEvent {
    /// The round at whose start the change takes effect.
    pub round: usize,
    /// The affected worker.
    pub worker: usize,
    /// What happens to it.
    pub change: MembershipChange,
}

/// Detection delay charged to every continuing member when a boundary
/// contains a [`LeaveKind::CrashDetected`] departure and the fault plan
/// sets no [`cost_timeout`](crate::faults::FaultPlan::cost_timeout) to
/// reuse as the detector's deadline.
pub const DEFAULT_DETECTION_TIMEOUT: f64 = 0.25;

/// A seeded, deterministic sequence of epoch boundaries.
///
/// Events are applied in order at the start of their round. Redundant
/// events — a leave for a worker already out, a join for one already in —
/// are no-ops, which keeps shrunken (event-deleted) schedules valid in
/// the chaos harness.
///
/// # Examples
///
/// ```
/// use dolbie_simnet::membership::{LeaveKind, MembershipSchedule};
///
/// let schedule = MembershipSchedule::none()
///     .with_leave(5, 2, LeaveKind::Graceful)
///     .with_join(9, 2);
/// let members = schedule.members_at(4, 6);
/// assert_eq!(members, vec![true, true, false, true]);
/// assert_eq!(schedule.members_at(4, 9), vec![true; 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MembershipSchedule {
    /// Seed the random generator derived this schedule from (0 for
    /// hand-built schedules; carried for reproducer printing).
    pub seed: u64,
    /// The boundary events, in application order.
    pub events: Vec<MembershipEvent>,
}

impl MembershipSchedule {
    /// The empty schedule: the worker set never changes.
    pub fn none() -> Self {
        Self { seed: 0, events: Vec::new() }
    }

    /// Whether the schedule contains no events.
    pub fn is_none(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a leave event (builder style).
    pub fn with_leave(mut self, round: usize, worker: usize, kind: LeaveKind) -> Self {
        self.events.push(MembershipEvent { round, worker, change: MembershipChange::Leave(kind) });
        self.sort_events();
        self
    }

    /// Adds a join/rejoin event (builder style).
    pub fn with_join(mut self, round: usize, worker: usize) -> Self {
        self.events.push(MembershipEvent { round, worker, change: MembershipChange::Join });
        self.sort_events();
        self
    }

    fn sort_events(&mut self) {
        self.events.sort_by_key(|e| (e.round, e.worker));
    }

    /// Generates a random schedule over `n` workers and `rounds` rounds:
    /// each round, each member leaves with probability `leave_p` (never
    /// emptying the set; graceful or crash-detected decided by a second
    /// hash bit) and each absentee rejoins with probability `join_p`.
    /// Pure function of the arguments — no stateful RNG.
    pub fn random(seed: u64, n: usize, rounds: usize, leave_p: f64, join_p: f64) -> Self {
        let mut events = Vec::new();
        let mut members = vec![true; n];
        let mut member_count = n;
        for t in 0..rounds {
            for (w, member) in members.iter_mut().enumerate() {
                let u = hash_unit(seed, t as u64, w as u64, 0);
                if *member {
                    if member_count > 1 && u < leave_p {
                        let kind = if hash_unit(seed, t as u64, w as u64, 1) < 0.5 {
                            LeaveKind::Graceful
                        } else {
                            LeaveKind::CrashDetected
                        };
                        events.push(MembershipEvent {
                            round: t,
                            worker: w,
                            change: MembershipChange::Leave(kind),
                        });
                        *member = false;
                        member_count -= 1;
                    }
                } else if u < join_p {
                    events.push(MembershipEvent {
                        round: t,
                        worker: w,
                        change: MembershipChange::Join,
                    });
                    *member = true;
                    member_count += 1;
                }
            }
        }
        Self { seed, events }
    }

    /// Largest worker index any event names, for range validation.
    pub fn max_worker(&self) -> Option<usize> {
        self.events.iter().map(|e| e.worker).max()
    }

    /// Validates the schedule against a fleet of `n` workers: every named
    /// worker must exist and folding the events from the all-member state
    /// must never empty the active set.
    ///
    /// # Panics
    ///
    /// Panics on either violation.
    pub fn validate(&self, n: usize) {
        if let Some(max) = self.max_worker() {
            assert!(max < n, "membership event names worker {max}, fleet has {n}");
        }
        let mut members = vec![true; n];
        let mut rounds: Vec<usize> = self.events.iter().map(|e| e.round).collect();
        rounds.dedup();
        for t in rounds {
            self.apply_round(t, &mut members);
            assert!(
                members.iter().any(|&m| m),
                "membership schedule empties the worker set at round {t}"
            );
        }
    }

    /// Applies all events scheduled for the start of `round` to the
    /// member mask, reporting whether the view changed and whether any
    /// departure was crash-detected (costing detection time).
    pub fn apply_round(&self, round: usize, members: &mut [bool]) -> EpochChange {
        let mut change = EpochChange { changed: false, crash_detected: false };
        for event in self.events.iter().filter(|e| e.round == round) {
            let w = event.worker;
            match event.change {
                MembershipChange::Leave(kind) => {
                    if members[w] {
                        members[w] = false;
                        change.changed = true;
                        change.crash_detected |= kind == LeaveKind::CrashDetected;
                    }
                }
                MembershipChange::Join => {
                    if !members[w] {
                        members[w] = true;
                        change.changed = true;
                    }
                }
            }
        }
        change
    }

    /// [`apply_round`](Self::apply_round) with each event's firing gated
    /// by a [`Scheduler`](crate::sched::Scheduler) decision (default:
    /// it fires), so a model checker can branch on every join/leave
    /// boundary. A leave whose firing would empty the member set — only
    /// reachable on a branch where the scheduler previously held back a
    /// join, never on the all-default path of a
    /// [`validate`](Self::validate)d schedule — is force-skipped without
    /// consulting the scheduler, keeping controlled runs inside the
    /// non-empty-membership domain the epoch transition is defined on.
    pub fn apply_round_sched(
        &self,
        round: usize,
        members: &mut [bool],
        sched: &mut dyn crate::sched::Scheduler,
    ) -> EpochChange {
        use crate::sched::DecisionPoint;
        let mut change = EpochChange { changed: false, crash_detected: false };
        for event in self.events.iter().filter(|e| e.round == round) {
            let w = event.worker;
            match event.change {
                MembershipChange::Leave(kind) => {
                    if members[w] {
                        let sole_member = members.iter().filter(|&&m| m).count() == 1;
                        let fires = !sole_member
                            && sched.decide(
                                DecisionPoint::Membership { round, worker: w, join: false },
                                true,
                            );
                        if fires {
                            members[w] = false;
                            change.changed = true;
                            change.crash_detected |= kind == LeaveKind::CrashDetected;
                        }
                    }
                }
                MembershipChange::Join => {
                    if !members[w]
                        && sched.decide(
                            DecisionPoint::Membership { round, worker: w, join: true },
                            true,
                        )
                    {
                        members[w] = true;
                        change.changed = true;
                    }
                }
            }
        }
        change
    }

    /// The member mask in effect *during* `round` (events with
    /// `event.round <= round` applied to the all-member initial state)
    /// over a fleet of `n` workers.
    pub fn members_at(&self, n: usize, round: usize) -> Vec<bool> {
        let mut members = vec![true; n];
        for t in self.events.iter().map(|e| e.round).filter(|&t| t <= round) {
            self.apply_round(t, &mut members);
        }
        members
    }
}

/// What a boundary did to the view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochChange {
    /// Whether any membership flag flipped.
    pub changed: bool,
    /// Whether any departure was crash-detected.
    pub crash_detected: bool,
}

/// A pure hash of `(seed, round, worker, salt)` mapped to `[0, 1)`,
/// mirroring the `FaultPlan` decision hash.
fn hash_unit(seed: u64, round: u64, worker: u64, salt: u64) -> f64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for word in [round, worker, salt] {
        h = mix64(h ^ word);
    }
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The shared epoch-boundary state transition every simulator runs when
/// the view changes: re-normalize the shares onto the new member simplex
/// and shrink the step size(s) to the cap re-derived against the new
/// member count. `local_alphas` is the per-worker α state (one entry for
/// the master-worker sim); `previous_members` is the view *before* the
/// boundary. Returns the synchronized α every member holds afterwards.
///
/// The sync rule — take the minimum over the *outgoing* members' local
/// values, then `min` with the new cap, and install it everywhere —
/// matches what an explicit view-change round would compute (the FD/ring
/// consensus already folds a min over participant α values every round),
/// and is what keeps the three architectures' α state, and therefore
/// their trajectories, bitwise-identical through churn.
pub(crate) fn epoch_transition(
    shares: &mut [f64],
    local_alphas: &mut [f64],
    previous_members: &[bool],
    members: &[bool],
) -> f64 {
    renormalize_onto_members(shares, members);
    let mut sync = f64::INFINITY;
    for (&a, &m) in local_alphas.iter().zip(previous_members) {
        if m && a < sync {
            sync = a;
        }
    }
    if !sync.is_finite() {
        // Single-alpha callers (master-worker) pass an all-true previous
        // mask, so this only triggers on a degenerate empty previous view.
        sync = local_alphas.iter().copied().fold(f64::INFINITY, f64::min);
    }
    let alpha = sync.min(dolbie_core::membership::membership_alpha_cap(shares, members));
    local_alphas.fill(alpha);
    alpha
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_events_apply_in_order() {
        let s = MembershipSchedule::none()
            .with_join(8, 1)
            .with_leave(3, 1, LeaveKind::Graceful)
            .with_leave(3, 2, LeaveKind::CrashDetected);
        assert_eq!(s.events[0].round, 3);
        let mut members = vec![true; 4];
        let change = s.apply_round(3, &mut members);
        assert!(change.changed && change.crash_detected);
        assert_eq!(members, vec![true, false, false, true]);
        let change = s.apply_round(8, &mut members);
        assert!(change.changed && !change.crash_detected);
        assert_eq!(members, vec![true, true, false, true]);
    }

    #[test]
    fn redundant_events_are_no_ops() {
        let s = MembershipSchedule::none().with_join(0, 1).with_leave(2, 3, LeaveKind::Graceful);
        let mut members = vec![true; 4];
        // Join for a present worker: nothing happens.
        assert_eq!(
            s.apply_round(0, &mut members),
            EpochChange { changed: false, crash_detected: false }
        );
        members[3] = false;
        // Leave for an absent worker: nothing happens.
        assert_eq!(
            s.apply_round(2, &mut members),
            EpochChange { changed: false, crash_detected: false }
        );
    }

    #[test]
    fn random_schedules_are_deterministic_and_never_empty() {
        for seed in 0..32u64 {
            let a = MembershipSchedule::random(seed, 6, 40, 0.2, 0.3);
            let b = MembershipSchedule::random(seed, 6, 40, 0.2, 0.3);
            assert_eq!(a, b, "same seed, same schedule");
            a.validate(6);
            for t in 0..40 {
                assert!(a.members_at(6, t).iter().any(|&m| m), "seed {seed} empties at {t}");
            }
        }
        let a = MembershipSchedule::random(1, 6, 40, 0.2, 0.3);
        let b = MembershipSchedule::random(2, 6, 40, 0.2, 0.3);
        assert_ne!(a, b, "different seeds diverge");
    }

    #[test]
    fn random_schedules_do_churn() {
        let s = MembershipSchedule::random(7, 8, 60, 0.1, 0.3);
        let leaves =
            s.events.iter().filter(|e| matches!(e.change, MembershipChange::Leave(_))).count();
        let joins = s.events.iter().filter(|e| e.change == MembershipChange::Join).count();
        assert!(leaves > 0 && joins > 0, "schedule must contain both leaves and joins");
        let kinds: Vec<_> = s
            .events
            .iter()
            .filter_map(|e| match e.change {
                MembershipChange::Leave(k) => Some(k),
                MembershipChange::Join => None,
            })
            .collect();
        assert!(kinds.contains(&LeaveKind::Graceful) || kinds.contains(&LeaveKind::CrashDetected));
    }

    #[test]
    #[should_panic(expected = "names worker")]
    fn out_of_range_worker_is_rejected() {
        MembershipSchedule::none().with_leave(0, 9, LeaveKind::Graceful).validate(4);
    }

    #[test]
    #[should_panic(expected = "empties the worker set")]
    fn emptying_schedule_is_rejected() {
        MembershipSchedule::none()
            .with_leave(1, 0, LeaveKind::Graceful)
            .with_leave(1, 1, LeaveKind::CrashDetected)
            .validate(2);
    }

    #[test]
    fn epoch_transition_syncs_alphas_and_never_raises_them() {
        let mut shares = vec![0.4, 0.35, 0.25];
        let mut alphas = vec![0.2, 0.05, 0.4];
        let previous = vec![true, true, true];
        let members = vec![true, false, true];
        let alpha = epoch_transition(&mut shares, &mut alphas, &previous, &members);
        // The departing worker 1 held the minimum α = 0.05; the sync must
        // preserve it (α never increases across a boundary).
        assert!(alpha <= 0.05);
        assert!(alphas.iter().all(|&a| a == alpha));
        assert_eq!(shares[1], 0.0);
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
