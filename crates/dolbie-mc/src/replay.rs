//! Replay-based controlled execution: one run = one decision prefix.
//!
//! A run is identified by the vector of choice indices it makes at the
//! scheduler's decision points — index 0 is always the default (FIFO
//! delivery, the seeded fault-plan outcome, the scheduled membership
//! event firing) — and the [`ReplayScheduler`] follows the prefix, then
//! takes defaults, recording every decision point it passes
//! ([`DecisionRecord`]).
//!
//! The public [`replay()`] is *stateless* in the CHESS tradition: it
//! executes the simulator from a fresh world, so a run is a pure function
//! of `(config, prefix)`. [`shrink()`](crate::shrink()) and every emitted
//! reproducer run it, and it observes no state: it has no reader for
//! fingerprints.
//!
//! A fresh world is built over the rounds its [`McConfig`] revealed: the
//! configuration value reveals each round of its chaos-mix environment
//! once, and every world, and every fork of one, takes a clone of the
//! round's `Arc` when it opens the round
//! ([`Environment::reveal_shared`]). The rounds are kept under the
//! `env_seed`, `n` and `rounds` they were revealed for, so a run stays a
//! pure function of `(config, prefix)`: a unit test ties `replay()` to a
//! world over its own, unshared environment.
//!
//! The explorer's runs observe state and fork. Its visited-state pruning
//! reads a run's fingerprints only from the prefix boundary up to the
//! first state it already knows, so that is the only stretch its runs ask
//! the simulator to fingerprint ([`DecisionRecord::fp`]). Over the same
//! stretch, an explorer run saves its simulator world at each step
//! boundary (`Snapshot`); a child prefix branching off the run starts
//! from a clone of the latest world saved at or before its branch point,
//! with the decisions that led there copied into its scheduler, instead
//! of re-simulating the shared prefix from scratch. A fork is the same
//! run as a fresh start, record for record — a unit test ties the two
//! over sampled prefixes of every acceptance configuration. Every run
//! still executes to the end and is invariant-checked.

use crate::config::{Arch, McConfig};
use dolbie_core::fingerprint::StateFp;
use dolbie_core::{DolbieConfig, Environment};
use dolbie_simnet::invariants::check_trace;
use dolbie_simnet::{
    DecisionPoint, FixedLatency, FullyDistributedSim, LatencyModel, MasterWorkerSim, Protocol,
    ProtocolTrace, RingSim, Scheduler,
};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Hashes a `u64` fingerprint to itself: fingerprints are already
/// well-mixed 64-bit hashes ([`StateFp`]), so the explorer's sets and maps
/// keyed by them skip a second, keyed hash.
#[derive(Debug, Default)]
pub(crate) struct FpHasher(u64);

impl Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u64(&mut self, fp: u64) {
        self.0 = fp;
    }
}

/// A set of state fingerprints.
pub(crate) type FpSet = HashSet<u64, BuildHasherDefault<FpHasher>>;

/// One decision point a run passed through, as recorded by the
/// [`ReplayScheduler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionRecord {
    /// Number of alternatives at this point (`pending` for a delivery
    /// choice, 2 for every fault/membership coin).
    pub options: u32,
    /// The choice index taken (0 = default).
    pub chosen: u32,
    /// `None` for a delivery (dequeue) choice; `Some` for a binary
    /// fault/membership decision, identifying it.
    pub point: Option<DecisionPoint>,
    /// For binary decisions, the boolean the simulator actually received.
    pub outcome: bool,
    /// The canonical state fingerprint the simulator reported
    /// immediately before this dequeue. In the explorer's replays, `Some`
    /// at delivery choices from the prefix boundary up to and including
    /// the first state the explorer already knows — one it has visited,
    /// or one this run passed earlier; `None` elsewhere (inside the
    /// prefix, past that state, and at every binary decision). Always
    /// `None` in a [`replay()`] trail, which observes nothing.
    pub fp: Option<u64>,
}

impl DecisionRecord {
    /// Whether this record is a delivery (dequeue) choice.
    #[must_use]
    pub fn is_delivery(&self) -> bool {
        self.point.is_none()
    }
}

/// The decision records a run's trail is reserved for at least, in
/// [`replay()`] and in the explorer alike: a trail regrown mid-run copies
/// every record. The acceptance configurations' runs make at most 107
/// decisions.
const TRAIL_FLOOR: usize = 128;

/// A [`Scheduler`] that follows a decision prefix and defaults beyond
/// it, recording the full decision trail either way, and observing state
/// only inside the window [`DecisionRecord::fp`] describes.
#[derive(Debug)]
pub struct ReplayScheduler<'a> {
    prefix: &'a [u32],
    sabotage: bool,
    /// States the explorer already knows (`None`: none).
    known: Option<&'a FpSet>,
    /// Cleared at the first known or repeated fingerprint; false from
    /// the start in [`replay()`].
    observing: bool,
    pending_fp: Option<u64>,
    /// Every decision point passed, in order.
    pub trail: Vec<DecisionRecord>,
}

impl<'a> ReplayScheduler<'a> {
    /// A scheduler replaying `prefix` that observes state from the prefix
    /// boundary until the run repeats a state. ([`replay()`] builds one
    /// that observes nothing.)
    #[must_use]
    pub fn new(prefix: &'a [u32]) -> Self {
        // A run makes at least its prefix's decisions; room for twice as
        // many, and for `TRAIL_FLOOR` at least.
        Self {
            prefix,
            sabotage: false,
            known: None,
            observing: true,
            pending_fp: None,
            trail: Vec::with_capacity((2 * prefix.len()).max(TRAIL_FLOOR)),
        }
    }

    /// Arms the test-only overshoot-guard sabotage hook.
    #[must_use]
    pub fn with_sabotage(mut self, sabotage: bool) -> Self {
        self.sabotage = sabotage;
        self
    }

    fn next_choice(&self, options: u32) -> u32 {
        self.prefix.get(self.trail.len()).copied().unwrap_or(0).min(options - 1)
    }
}

impl Scheduler for ReplayScheduler<'_> {
    fn choose_delivery(&mut self, pending: usize) -> usize {
        let options = pending as u32;
        let chosen = self.next_choice(options);
        self.trail.push(DecisionRecord {
            options,
            chosen,
            point: None,
            outcome: false,
            fp: self.pending_fp.take(),
        });
        chosen as usize
    }

    fn decide(&mut self, point: DecisionPoint, default: bool) -> bool {
        let chosen = self.next_choice(2);
        let outcome = if chosen == 0 { default } else { !default };
        self.trail.push(DecisionRecord {
            options: 2,
            chosen,
            point: Some(point),
            outcome,
            fp: None,
        });
        outcome
    }

    fn wants_state(&self) -> bool {
        // The next decision is a delivery choice at trail index
        // `trail.len()`; the explorer reads none inside the prefix, and
        // a state the explorer's run loop already read for this choice
        // is not read again.
        self.observing && self.trail.len() >= self.prefix.len() && self.pending_fp.is_none()
    }

    fn observe_state(&mut self, fingerprint: u64) {
        self.pending_fp = Some(fingerprint);
        // The states this run observed so far are the fingerprints its
        // trail recorded: observation stops at the first repeat, so the
        // trail holds each of them once.
        if self.known.is_some_and(|known| known.contains(&fingerprint))
            || self.trail.iter().any(|d| d.fp == Some(fingerprint))
        {
            self.observing = false;
        }
    }

    fn sabotage_overshoot_guard(&self) -> bool {
        self.sabotage
    }
}

/// The outcome of replaying one decision prefix.
#[derive(Debug)]
pub struct RunOutcome {
    /// Every decision point the run passed, in order.
    pub trail: Vec<DecisionRecord>,
    /// The trace, when the run completed without panicking.
    pub trace: Option<ProtocolTrace>,
    /// Invariants 1, 2, 3, 5 over the trace (a panic — the deadlock
    /// assert or an infeasible allocation — is reported here too).
    pub verdict: Result<(), String>,
}

impl RunOutcome {
    /// Hash of the run's fault-equivalence signature: the outcomes of
    /// every crash and membership decision, in order. Two runs with equal
    /// signatures differ only in delivery order and wire faults — which
    /// are delay-only — so the confluence invariant requires their
    /// trajectories to agree bitwise.
    #[must_use]
    pub fn fault_signature(&self) -> u64 {
        let mut fp = StateFp::new(0xD01B_516A);
        for d in &self.trail {
            match d.point {
                Some(DecisionPoint::Crash { worker, round }) => {
                    fp.push_u64(1);
                    fp.push_usize(worker);
                    fp.push_usize(round);
                    fp.push_u64(u64::from(d.outcome));
                }
                Some(DecisionPoint::Membership { round, worker, join }) => {
                    fp.push_u64(2);
                    fp.push_usize(round);
                    fp.push_usize(worker);
                    fp.push_u64(u64::from(join));
                    fp.push_u64(u64::from(d.outcome));
                }
                _ => {}
            }
        }
        fp.finish()
    }

    /// Bitwise digest of the decision trajectory (allocation bits, α
    /// bits, straggler per round), or `None` if the run panicked.
    #[must_use]
    pub fn trace_digest(&self) -> Option<u64> {
        let trace = self.trace.as_ref()?;
        let mut fp = StateFp::new(0xD01B_D16E);
        for r in &trace.rounds {
            fp.push_f64_slice(r.allocation.as_slice());
            fp.push_f64(r.alpha);
            fp.push_usize(r.straggler);
        }
        Some(fp.finish())
    }
}

/// Feeds pre-recorded membership outcomes back to
/// `MembershipSchedule::apply_round_sched`, for reconstructing the
/// membership masks a finished run actually used.
struct OutcomeFeed<I>(I);

impl<I: Iterator<Item = bool>> Scheduler for OutcomeFeed<I> {
    fn decide(&mut self, _point: DecisionPoint, default: bool) -> bool {
        self.0.next().unwrap_or(default)
    }
}

/// The membership mask in force at each round of a finished run,
/// reconstructed by replaying the schedule against the trail's recorded
/// membership-decision outcomes (which appear in the trail in exactly
/// the order `apply_round_sched` consulted them).
#[must_use]
pub fn membership_masks(config: &McConfig, trail: &[DecisionRecord]) -> Vec<Vec<bool>> {
    let n = config.n;
    let mut masks = vec![true; config.rounds * n];
    fill_masks(config, trail, &mut masks);
    (0..config.rounds).map(|t| masks[t * n..(t + 1) * n].to_vec()).collect()
}

/// [`membership_masks`] into one slice of `config.rounds * config.n`:
/// round `t`'s mask is `[t * n, (t + 1) * n)`, each round's starting from
/// the one before.
fn fill_masks(config: &McConfig, trail: &[DecisionRecord], masks: &mut [bool]) {
    let outcomes = trail
        .iter()
        .filter(|d| matches!(d.point, Some(DecisionPoint::Membership { .. })))
        .map(|d| d.outcome);
    let mut feed = OutcomeFeed(outcomes);
    let n = config.n;
    for t in 0..config.rounds {
        if t == 0 {
            masks[..n].fill(true);
        } else {
            masks.copy_within((t - 1) * n..t * n, t * n);
        }
        config.schedule.apply_round_sched(t, &mut masks[t * n..(t + 1) * n], &mut feed);
    }
}

/// The `(round, worker)` pairs up to which [`check`] reconstructs a run's
/// membership masks on the stack instead of the heap: every
/// configuration small enough to explore.
const STACK_MASKS: usize = 64;

/// Invariants 1, 2, 3, 5 over a finished run's trace, under the
/// membership masks its trail recorded.
fn check(config: &McConfig, trace: &ProtocolTrace, trail: &[DecisionRecord]) -> Result<(), String> {
    let (n, len) = (config.n, config.rounds * config.n);
    let (mut stack, mut heap) = ([true; STACK_MASKS], Vec::new());
    let masks = if len <= STACK_MASKS {
        &mut stack[..len]
    } else {
        heap.resize(len, true);
        &mut heap[..]
    };
    fill_masks(config, trail, masks);
    check_trace(trace, config.rounds, |t| &masks[t * n..(t + 1) * n])
}

/// A simulator world the checker steps to its horizon and forks: one of
/// the three architectures' worlds, over the chaos-mix environment.
trait World: Send + Sync {
    fn step(&mut self, sched: &mut ReplayScheduler<'_>) -> bool;
    fn fingerprint(&self) -> Option<u64>;
    fn fork(&self) -> Box<dyn World>;
    fn into_trace(self: Box<Self>) -> ProtocolTrace;
}

impl<P, E, L> World for dolbie_simnet::World<P, E, L>
where
    P: Protocol + Send + Sync + 'static,
    E: Environment + Clone + Send + Sync + 'static,
    L: LatencyModel + Clone + Send + Sync + 'static,
{
    fn step(&mut self, sched: &mut ReplayScheduler<'_>) -> bool {
        dolbie_simnet::World::step(self, sched)
    }
    fn fingerprint(&self) -> Option<u64> {
        dolbie_simnet::World::fingerprint(self)
    }
    fn fork(&self) -> Box<dyn World> {
        Box::new(self.clone())
    }
    fn into_trace(self: Box<Self>) -> ProtocolTrace {
        dolbie_simnet::World::into_trace(*self)
    }
}

/// The configured simulator, poised at the start of its run, over the
/// rounds the configuration revealed ([`McConfig`] keeps them).
fn fresh_world(config: &McConfig) -> Box<dyn World> {
    world_over(config, config.environment())
}

/// The configured simulator over `env`, poised at the start of its run.
fn world_over<E>(config: &McConfig, env: E) -> Box<dyn World>
where
    E: Environment + Clone + Send + Sync + 'static,
{
    let (plan, schedule) = (config.plan.clone(), config.schedule.clone());
    match config.arch {
        Arch::MasterWorker => Box::new(
            MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan())
                .with_fault_plan(plan)
                .with_membership(schedule)
                .into_world(config.rounds),
        ),
        Arch::FullyDistributed => Box::new(
            FullyDistributedSim::new(env, DolbieConfig::new(), FixedLatency::lan())
                .with_fault_plan(plan)
                .with_membership(schedule)
                .into_world(config.rounds),
        ),
        Arch::Ring => Box::new(
            RingSim::new(env, DolbieConfig::new(), FixedLatency::lan())
                .with_fault_plan(plan)
                .with_membership(schedule)
                .into_world(config.rounds),
        ),
    }
}

/// A simulator world an explorer run saved at a step boundary, with the
/// decisions that led there (fingerprints cleared: a run started from
/// the snapshot passes them inside its prefix, where nothing is
/// observed). Shared by every child prefix that starts from it, and
/// dropped with the last of them.
pub(crate) struct Snapshot {
    world: Box<dyn World>,
    trail: Vec<DecisionRecord>,
}

impl Snapshot {
    /// The number of decisions made before the saved boundary.
    pub(crate) fn decisions(&self) -> usize {
        self.trail.len()
    }
}

/// An explorer run: its outcome, and the worlds it saved while observing,
/// in step order (strictly increasing [`Snapshot::decisions`]).
pub(crate) struct ExplorerRun {
    pub(crate) outcome: RunOutcome,
    pub(crate) saved: Vec<Arc<Snapshot>>,
}

/// Replays one decision prefix through the configured simulator and
/// checks the per-run invariants on the result.
///
/// Runs are pure functions of `(config, prefix)`: replaying the same
/// prefix twice produces bitwise-identical trails, traces, and verdicts,
/// which is what makes emitted reproducers stable.
///
/// This replay starts from a fresh simulator world and observes no
/// state: its scheduler declines every fingerprint, so the simulator
/// hashes nothing and every record carries `fp: None`. Only the explorer
/// reads fingerprints, through its own observing runs; the trail is
/// otherwise the same choice for choice.
#[must_use]
pub fn replay(config: &McConfig, prefix: &[u32]) -> RunOutcome {
    let sched = ReplayScheduler { observing: false, ..ReplayScheduler::new(prefix) };
    run(config, sched, || fresh_world(config)).outcome
}

/// [`replay()`] for the explorer: starts from a clone of `from` (a fresh
/// world when `None`) and observes state from the prefix boundary up to
/// the first fingerprint in `known` or the first one the run repeats
/// (see [`DecisionRecord::fp`]), saving the world at every step boundary
/// of that stretch. `from` must have been saved by a run whose choices
/// agree with `prefix` up to the snapshot's boundary, at or before the
/// prefix's last decision. Trails, traces, and verdicts depend on
/// neither `known` nor `from`.
pub(crate) fn replay_knowing(
    config: &McConfig,
    prefix: &[u32],
    known: &FpSet,
    from: Option<&Snapshot>,
) -> ExplorerRun {
    let mut sched = ReplayScheduler { known: Some(known), ..ReplayScheduler::new(prefix) };
    if let Some(snapshot) = from {
        debug_assert!(snapshot.decisions() < prefix.len(), "a snapshot past the branch point");
        sched.trail.clone_from(&snapshot.trail);
    }
    run(config, sched, || from.map_or_else(|| fresh_world(config), |s| s.world.fork()))
}

/// Runs the configured simulator from the world `start` builds to its
/// horizon under `sched`, saving the world at each step boundary where
/// the scheduler observes, and checks the per-run invariants on the
/// trace.
fn run(
    config: &McConfig,
    sched: ReplayScheduler<'_>,
    start: impl FnOnce() -> Box<dyn World>,
) -> ExplorerRun {
    let mut sched = sched.with_sabotage(config.sabotage_overshoot_guard);
    let mut saved: Vec<Arc<Snapshot>> = Vec::new();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut world = start();
        loop {
            if sched.wants_state() {
                // Read the boundary's state first: if the explorer already
                // knows it, its scan cuts at the next delivery choice and
                // no child branches from here on, so nothing is saved.
                if let Some(fp) = world.fingerprint() {
                    sched.observe_state(fp);
                }
                let decisions = sched.trail.len();
                if sched.observing && saved.last().is_none_or(|s| s.decisions() < decisions) {
                    let mut trail = sched.trail.clone();
                    for d in &mut trail[sched.prefix.len()..] {
                        d.fp = None;
                    }
                    saved.push(Arc::new(Snapshot { world: world.fork(), trail }));
                }
            }
            if !world.step(&mut sched) {
                break;
            }
        }
        world.into_trace()
    }));
    let (trace, verdict) = match result {
        Ok(trace) => {
            let verdict = check(config, &trace, &sched.trail);
            (Some(trace), verdict)
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".into());
            (None, Err(format!("panic: {msg}")))
        }
    };
    ExplorerRun { outcome: RunOutcome { trail: sched.trail, trace, verdict }, saved }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::chaos_mix_env;
    use dolbie_simnet::ProtocolRound;

    #[test]
    fn default_replay_matches_the_uncontrolled_sim_bitwise() {
        let config = McConfig::new(Arch::MasterWorker, 3, 3);
        let outcome = replay(&config, &[]);
        assert!(outcome.verdict.is_ok(), "{:?}", outcome.verdict);
        let free = MasterWorkerSim::new(
            chaos_mix_env(config.env_seed, config.n),
            DolbieConfig::new(),
            FixedLatency::lan(),
        )
        .run(config.rounds);
        let trace = outcome.trace.expect("run completed");
        assert_eq!(trace.rounds.len(), free.rounds.len());
        for (a, b) in trace.rounds.iter().zip(&free.rounds) {
            assert_eq!(a.allocation.l2_distance(&b.allocation), 0.0);
            assert_eq!(a.alpha.to_bits(), b.alpha.to_bits());
            assert_eq!(a.straggler, b.straggler);
        }
    }

    /// Master-worker N=3 × 3 rounds under drop + duplicate: fault coins
    /// sit between the delivery choices.
    fn lossy_mw() -> McConfig {
        let mut plan = dolbie_simnet::FaultPlan::seeded(0xD01B_0002)
            .with_drop_probability(0.2)
            .with_duplicate_probability(0.1);
        plan.retry = dolbie_simnet::RetryPolicy::new(0.05, 2.0, 2);
        McConfig::new(Arch::MasterWorker, 3, 3).with_plan(plan)
    }

    fn deliveries(trail: &[DecisionRecord]) -> Vec<usize> {
        (0..trail.len()).filter(|&k| trail[k].is_delivery()).collect()
    }

    /// The explorer's observing replay, knowing no state yet.
    fn observed(config: &McConfig, prefix: &[u32]) -> RunOutcome {
        replay_knowing(config, prefix, &FpSet::default(), None).outcome
    }

    /// A default-choice prefix cut at delivery index `i` replays the
    /// default run, observing nothing before `i` and, from `i` on, every
    /// delivery choice with the default run's fingerprint.
    #[test]
    fn observation_starts_at_the_prefix_boundary() {
        let config = lossy_mw();
        let base = observed(&config, &[]);
        let fps: Vec<u64> =
            deliveries(&base.trail).iter().map(|&k| base.trail[k].fp.expect("observed")).collect();
        assert!(fps.len() > 2, "the default run must pass several delivery choices");
        let distinct: HashSet<u64> = fps.iter().copied().collect();
        assert_eq!(distinct.len(), fps.len(), "the default run never repeats a state");
        for i in deliveries(&base.trail) {
            let cut = observed(&config, &vec![0; i]);
            assert_eq!(cut.trail.len(), base.trail.len());
            for (k, (a, b)) in cut.trail.iter().zip(&base.trail).enumerate() {
                assert_eq!(
                    (a.options, a.chosen, a.point, a.outcome),
                    (b.options, b.chosen, b.point, b.outcome)
                );
                let expect = if k < i { None } else { b.fp };
                assert_eq!(a.fp, expect, "prefix cut at {i}, decision {k}");
            }
        }
    }

    /// With the default run's `k`-th delivery state already known,
    /// observation records that state and stops right after it.
    #[test]
    fn observation_stops_at_the_first_known_state() {
        let config = lossy_mw();
        let base = observed(&config, &[]);
        for k in deliveries(&base.trail) {
            let known: FpSet = base.trail[k].fp.into_iter().collect();
            let run = replay_knowing(&config, &[], &known, None).outcome;
            assert_eq!(run.trail.len(), base.trail.len(), "the run still completes");
            for (j, (a, b)) in run.trail.iter().zip(&base.trail).enumerate() {
                let expect = if j <= k { b.fp } else { None };
                assert_eq!(a.fp, expect, "known state at {k}, decision {j}");
            }
        }
    }

    /// Seeded random walks over the decision tree: each prefix branches
    /// off the previous run's trail at a random decision point with
    /// alternatives, taking another option there, and every 16 prefixes
    /// the walk restarts from the default run.
    fn sampled_prefixes(config: &McConfig, seed: u64, count: usize) -> Vec<Vec<u32>> {
        let mut state = seed;
        let mut below = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let default = replay(config, &[]).trail;
        let mut trail = default.clone();
        let mut out = vec![Vec::new()];
        while out.len() < count {
            let mut points: Vec<usize> =
                (0..trail.len()).filter(|&k| trail[k].options > 1).collect();
            if points.is_empty() || out.len().is_multiple_of(16) {
                trail = default.clone();
                points = (0..trail.len()).filter(|&k| trail[k].options > 1).collect();
                assert!(!points.is_empty(), "the default run passes no decision with alternatives");
            }
            let k = points[below(points.len())];
            let d = trail[k];
            let mut prefix: Vec<u32> = trail[..k].iter().map(|r| r.chosen).collect();
            prefix.push((d.chosen + 1 + below(d.options as usize - 1) as u32) % d.options);
            trail = replay(config, &prefix).trail;
            out.push(prefix);
        }
        out
    }

    /// The other two acceptance configurations and the sabotage one
    /// (`tests/mc_acceptance.rs`), beside [`lossy_mw`].
    fn contract_configs() -> Vec<(&'static str, McConfig)> {
        use dolbie_simnet::{Crash, FaultPlan, LeaveKind, MembershipSchedule, RetryPolicy};
        let mut ring = FaultPlan::seeded(0xD01B_0003).with_crash(Crash {
            worker: 2,
            from_round: 1,
            until_round: 2,
        });
        ring.retry = RetryPolicy::new(0.05, 2.0, 2);
        let mut fd = FaultPlan::seeded(0xD01B_0004).with_crash(Crash {
            worker: 1,
            from_round: 1,
            until_round: 2,
        });
        fd.retry = RetryPolicy::new(0.05, 2.0, 2);
        let churn =
            MembershipSchedule::none().with_leave(1, 2, LeaveKind::Graceful).with_join(2, 2);
        let rejoin =
            MembershipSchedule::none().with_leave(0, 2, LeaveKind::Graceful).with_join(1, 2);
        vec![
            ("mw3x3 drop+dup", lossy_mw()),
            ("ring4x3 crash", McConfig::new(Arch::Ring, 4, 3).with_plan(ring)),
            (
                "fd3x3 join+crash",
                McConfig::new(Arch::FullyDistributed, 3, 3).with_plan(fd).with_schedule(churn),
            ),
            (
                "mw3x3 sabotage",
                McConfig::new(Arch::MasterWorker, 3, 3)
                    .with_env_seed(6402)
                    .with_schedule(rejoin)
                    .with_sabotage(),
            ),
        ]
    }

    /// `replay()` hashes nothing, and not hashing changes nothing else:
    /// over sampled prefixes of every acceptance configuration and the
    /// sabotage one, its trail is the observing replay's choice for
    /// choice with every fingerprint `None`, and the trace digest, fault
    /// signature and verdict agree.
    #[test]
    fn replay_observes_nothing_and_otherwise_matches_the_observing_replay() {
        for (name, config) in contract_configs() {
            let mut observed_fps = 0usize;
            for (s, prefix) in sampled_prefixes(&config, 0x5EED_0019, 200).iter().enumerate() {
                let plain = replay(&config, prefix);
                let seen = observed(&config, prefix);
                assert_eq!(plain.trail.len(), seen.trail.len(), "{name}, sample {s}");
                for (k, (a, b)) in plain.trail.iter().zip(&seen.trail).enumerate() {
                    assert_eq!(a.fp, None, "{name}, sample {s}, decision {k}");
                    assert_eq!(
                        (a.options, a.chosen, a.point, a.outcome),
                        (b.options, b.chosen, b.point, b.outcome),
                        "{name}, sample {s}, decision {k}"
                    );
                    observed_fps += usize::from(b.fp.is_some());
                }
                assert_eq!(plain.trace_digest(), seen.trace_digest(), "{name}, sample {s}");
                assert_eq!(plain.fault_signature(), seen.fault_signature(), "{name}, sample {s}");
                assert_eq!(plain.verdict, seen.verdict, "{name}, sample {s}");
            }
            assert!(observed_fps > 0, "{name}: the observing replays must hash something");
        }
    }

    /// Sharing the revealed rounds changes nothing: over sampled prefixes
    /// of every acceptance configuration and the sabotage one, `replay()`
    /// is the run of a world over its own, unshared [`chaos_mix_env`],
    /// record for record, with the same trace digest, fault signature and
    /// verdict.
    #[test]
    fn replay_matches_a_world_over_an_unshared_environment() {
        for (name, config) in contract_configs() {
            for (s, prefix) in sampled_prefixes(&config, 0x5EED_0032, 200).iter().enumerate() {
                let shared = replay(&config, prefix);
                let sched = ReplayScheduler { observing: false, ..ReplayScheduler::new(prefix) };
                let env = chaos_mix_env(config.env_seed, config.n);
                let unshared = run(&config, sched, || world_over(&config, env)).outcome;
                assert_eq!(shared.trail, unshared.trail, "{name}, sample {s}");
                assert_eq!(shared.trace_digest(), unshared.trace_digest(), "{name}, sample {s}");
                assert_eq!(
                    shared.fault_signature(),
                    unshared.fault_signature(),
                    "{name}, sample {s}"
                );
                assert_eq!(shared.verdict, unshared.verdict, "{name}, sample {s}");
            }
        }
    }

    /// A configuration's revealed rounds follow its fields: a clone whose
    /// `env_seed`, `n` or `rounds` is reassigned after the original (and
    /// the clone itself) replayed replays the new environment bit for
    /// bit as a configuration built with the new value does, and the
    /// original keeps replaying its own.
    #[test]
    fn a_reassigned_clone_replays_its_new_environment() {
        type Reassign = fn(&mut McConfig);
        let reassignments: [(&str, Reassign); 3] = [
            ("env_seed", |c| c.env_seed = 0xD01B_0777),
            ("n", |c| c.n = 4),
            ("rounds", |c| c.rounds = 4),
        ];
        let base = lossy_mw();
        let prefixes = sampled_prefixes(&base, 0x5EED_0033, 40);
        let before: Vec<RunOutcome> = prefixes.iter().map(|p| replay(&base, p)).collect();
        for (field, reassign) in reassignments {
            let mut clone = base.clone();
            let _ = replay(&clone, &[]);
            reassign(&mut clone);
            let mut fresh = lossy_mw().with_env_seed(clone.env_seed);
            (fresh.n, fresh.rounds) = (clone.n, clone.rounds);
            let mut changed = 0usize;
            for (s, prefix) in prefixes.iter().enumerate() {
                let (got, want) = (replay(&clone, prefix), replay(&fresh, prefix));
                assert_eq!(got.trail, want.trail, "{field}, sample {s}");
                // Every field of every round, the simulated times too.
                assert_eq!(format!("{:?}", got.trace), format!("{:?}", want.trace), "{field}");
                assert_eq!(got.verdict, want.verdict, "{field}, sample {s}");
                changed += usize::from(got.trace_digest() != before[s].trace_digest());
                let own = replay(&base, prefix);
                assert_eq!(own.trail, before[s].trail, "{field}, sample {s}: the original");
                assert_eq!(own.trace_digest(), before[s].trace_digest(), "{field}, sample {s}");
            }
            assert!(changed > 0, "{field}: the new environment must play differently");
        }
    }

    /// A fork changes nothing: over sampled prefixes of every acceptance
    /// configuration and the sabotage one, a run started from any world
    /// saved at or before its branch point (by a run that agrees with its
    /// prefix up to that point) is the run from a fresh world, record for
    /// record — fingerprints included — with the same trace digest, fault
    /// signature and verdict, and the same trace, timings included.
    #[test]
    fn a_forked_run_matches_the_run_from_a_fresh_world() {
        for (name, config) in contract_configs() {
            let mut forks = 0usize;
            for (s, prefix) in sampled_prefixes(&config, 0x5EED_0021, 200).iter().enumerate() {
                let Some(branch) = prefix.len().checked_sub(1) else { continue };
                // A run following the prefix up to its branch point: its
                // own prefix ends after the last non-default choice before
                // the branch, and it defaults from there on.
                let agree = prefix[..branch].iter().rposition(|&c| c != 0).map_or(0, |k| k + 1);
                let source = replay_knowing(&config, &prefix[..agree], &FpSet::default(), None);
                let fresh = observed(&config, prefix);
                for snapshot in source.saved.iter().filter(|sn| sn.decisions() <= branch) {
                    let forked =
                        replay_knowing(&config, prefix, &FpSet::default(), Some(snapshot)).outcome;
                    let at = format!("{name}, sample {s}, fork at {}", snapshot.decisions());
                    assert_eq!(forked.trail.len(), fresh.trail.len(), "{at}");
                    for (k, (a, b)) in forked.trail.iter().zip(&fresh.trail).enumerate() {
                        assert_eq!(
                            (a.options, a.chosen, a.point, a.outcome, a.fp),
                            (b.options, b.chosen, b.point, b.outcome, b.fp),
                            "{at}, decision {k}"
                        );
                    }
                    assert_eq!(forked.trace_digest(), fresh.trace_digest(), "{at}");
                    // Every field of every round, the simulated times too
                    // (`{:?}` prints each f64 exactly).
                    assert_eq!(format!("{:?}", forked.trace), format!("{:?}", fresh.trace), "{at}");
                    assert_eq!(forked.fault_signature(), fresh.fault_signature(), "{at}");
                    assert_eq!(forked.verdict, fresh.verdict, "{at}");
                    forks += 1;
                }
            }
            assert!(forks >= 200, "{name}: only {forks} forked runs compared");
        }
    }

    /// No invariant and no confluence key reads the link counters or the
    /// simulated times: over sampled runs of `mw3x3` under drop +
    /// duplicate, rewriting every round's `messages`, `bytes`, `retries`,
    /// `acks`, `duplicates`, `compute_finished` and `control_finished`
    /// leaves `check_trace`'s verdict, the trace digest and the fault
    /// signature as they were — for each run as it ran, and for a copy
    /// whose last α is raised, so that the verdict compared is a failure.
    #[test]
    fn verdicts_and_confluence_keys_ignore_link_counters_and_times() {
        let perturbations: [fn(&mut ProtocolRound); 3] = [
            |r| {
                (r.messages, r.bytes, r.retries, r.acks, r.duplicates) = (0, 0, 0, 0, 0);
                (r.compute_finished, r.control_finished) = (0.0, 0.0);
            },
            |r| {
                r.messages = r.messages * 3 + 7;
                r.bytes = r.bytes * 5 + 1;
                r.retries += 11;
                r.acks += 13;
                r.duplicates += 17;
                r.compute_finished = r.compute_finished * 2.0 + 1.5;
                r.control_finished = r.compute_finished - 0.25;
            },
            |r| {
                (r.messages, r.bytes, r.retries) = (usize::MAX, usize::MAX, usize::MAX);
                (r.acks, r.duplicates) = (usize::MAX, usize::MAX);
                (r.compute_finished, r.control_finished) = (1e300, -1e300);
            },
        ];
        let config = lossy_mw();
        let with_trace = |outcome: &RunOutcome, rounds: Vec<ProtocolRound>| {
            let trace = outcome.trace.as_ref().map(|t| ProtocolTrace { rounds, ..t.clone() });
            let masks = membership_masks(&config, &outcome.trail);
            let verdict =
                check_trace(trace.as_ref().expect("a trace"), config.rounds, |t| &masks[t]);
            RunOutcome { trail: outcome.trail.clone(), trace, verdict }
        };
        for (s, prefix) in sampled_prefixes(&config, 0x5EED_0026, 200).iter().enumerate() {
            let ran = replay(&config, prefix);
            let rounds = ran.trace.as_ref().expect("mw3x3 runs complete").rounds.clone();
            let mut raised = rounds.clone();
            raised.last_mut().expect("three rounds").alpha = f64::MAX;
            for (kind, rounds) in [("as run", rounds), ("α raised", raised)] {
                let base = with_trace(&ran, rounds.clone());
                assert_eq!(base.verdict.is_ok(), kind == "as run", "sample {s}, {kind}");
                for (k, perturb) in perturbations.iter().enumerate() {
                    let mut perturbed = rounds.clone();
                    perturbed.iter_mut().for_each(perturb);
                    let perturbed = with_trace(&ran, perturbed);
                    let at = format!("sample {s}, {kind}, perturbation {k}");
                    assert_eq!(perturbed.verdict, base.verdict, "{at}");
                    assert_eq!(perturbed.trace_digest(), base.trace_digest(), "{at}");
                    assert_eq!(perturbed.fault_signature(), base.fault_signature(), "{at}");
                }
            }
        }
    }

    #[test]
    fn replay_is_a_pure_function_of_the_prefix() {
        let config = McConfig::new(Arch::Ring, 4, 3);
        let a = replay(&config, &[2, 1]);
        let b = replay(&config, &[2, 1]);
        assert_eq!(a.trail, b.trail);
        assert_eq!(a.trace_digest(), b.trace_digest());
        assert_eq!(a.verdict, b.verdict);
    }

    #[test]
    fn flipping_a_delivery_choice_changes_the_trail_not_the_verdict() {
        let config = McConfig::new(Arch::MasterWorker, 3, 2);
        let base = replay(&config, &[]);
        assert!(base.verdict.is_ok());
        let first_delivery =
            base.trail.iter().position(DecisionRecord::is_delivery).expect("n=3 has reorderings");
        let mut prefix = vec![0u32; first_delivery + 1];
        prefix[first_delivery] = 1;
        let flipped = replay(&config, &prefix);
        assert!(flipped.verdict.is_ok(), "{:?}", flipped.verdict);
        assert_eq!(flipped.trail[first_delivery].chosen, 1);
        // Delivery order is delay-only: the trajectories agree bitwise.
        assert_eq!(base.trace_digest(), flipped.trace_digest());
        assert_eq!(base.fault_signature(), flipped.fault_signature());
    }
}
