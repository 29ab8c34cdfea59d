//! Discrete-event simulation of Algorithm 1 (master-worker DOLBIE).
//!
//! Every protocol step of the paper's Algorithm 1 is an explicit message
//! with simulated latency:
//!
//! 1. workers execute their shares (the local cost *is* the execution
//!    time) and send `l_{i,t}` to the master (line 4);
//! 2. the master collects all costs, identifies `l_t` and the straggler,
//!    and sends `(l_t, α_t, 1{i≠s_t})` to every worker (lines 9–12);
//! 3. non-stragglers compute `x'_{i,t}`, take the risk-averse step, and
//!    send `x_{i,t+1}` back (lines 6–7);
//! 4. the master assigns the remainder to the straggler (lines 14–15) and
//!    tightens `α` per eq. (7) (line 16).
//!
//! The per-round message count is `3·|active|` and the byte volume is
//! `Θ(N)` — the §IV-C claim, which the `comms` experiment measures.
//!
//! Workers pipeline: each starts executing round `t+1` the moment it knows
//! its own next share, so the simulated wall-clock reflects both execution
//! latency and protocol overhead.
//!
//! ## Fault tolerance (extension)
//!
//! The paper assumes responsive workers. This simulator additionally
//! accepts a shared [`FaultPlan`] — worker
//! crashes ([`Crash`] windows), a master-side cost timeout, and lossy
//! links with ack/retry-with-backoff. When a worker does not report in
//! time, the master excludes it from the round — its share is frozen, the
//! straggler is chosen among the responders, and the remainder arithmetic
//! still preserves `Σ_i x_i = 1` exactly. An excluded worker still has to
//! finish executing its abandoned round-`t` share before it may begin
//! round `t+1`, and that abandoned execution counts toward the round's
//! compute span (timeout-accounting bugfixes). A recovered worker rejoins
//! with its stale share and the system re-balances around it. If every
//! worker is down simultaneously the round freezes all shares and the run
//! continues — membership collapse degrades gracefully instead of
//! panicking.

use crate::coordinator::{
    assist_step, elect_straggler, frozen_round, straggler_pin_with_guard, tighten_alpha,
};
use crate::event::{EventQueue, Scheduled};
use crate::faults::{FaultPlan, LinkStats};
use crate::latency::LatencyModel;
use crate::membership::{epoch_transition, MembershipSchedule, DEFAULT_DETECTION_TIMEOUT};
use crate::message::{Message, NodeId, Payload};
use crate::sched::{pop_with, DecisionPoint, FifoScheduler, Scheduler};
use crate::trace::{ProtocolRound, ProtocolTrace};
use dolbie_core::cost::DynCost;
use dolbie_core::fingerprint::{MultisetFp, StateFp};
use dolbie_core::{Allocation, DolbieConfig, Environment};
use std::sync::Arc;

pub use crate::faults::Crash;

#[derive(Debug, Clone, Copy)]
enum Ev {
    ComputeDone { worker: usize },
    Deliver(Message),
    CostTimeout,
}

/// The master-worker protocol simulator.
///
/// # Examples
///
/// ```
/// use dolbie_simnet::{FixedLatency, MasterWorkerSim};
/// use dolbie_core::environment::StaticLinearEnvironment;
/// use dolbie_core::DolbieConfig;
///
/// let env = StaticLinearEnvironment::from_slopes(vec![3.0, 1.0]);
/// let mut sim = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan());
/// let trace = sim.run(10);
/// assert_eq!(trace.rounds.len(), 10);
/// assert_eq!(trace.rounds[0].messages, 3 * 2); // 3N messages per round
/// ```
#[derive(Debug, Clone)]
pub struct MasterWorkerSim<E, L> {
    env: E,
    latency: L,
    shares: Vec<f64>,
    alpha: f64,
    plan: FaultPlan,
    membership: MembershipSchedule,
}

impl<E: Environment, L: LatencyModel> MasterWorkerSim<E, L> {
    /// Creates the simulator with the uniform initial partition.
    pub fn new(env: E, config: DolbieConfig, latency: L) -> Self {
        let n = env.num_workers();
        let initial = Allocation::uniform(n);
        let alpha = config.resolve_initial_alpha(&initial);
        Self {
            env,
            latency,
            shares: initial.into_inner(),
            alpha,
            plan: FaultPlan::none(),
            membership: MembershipSchedule::none(),
        }
    }

    /// Installs a membership schedule: at scheduled epoch boundaries
    /// workers leave (their shares redistributed proportionally) or
    /// (re)join at share zero, and `α` shrinks to the cap re-derived
    /// against the new member count. Replaces any schedule set earlier.
    ///
    /// # Panics
    ///
    /// Panics if the schedule names a worker out of range or would empty
    /// the active set.
    pub fn with_membership(mut self, schedule: MembershipSchedule) -> Self {
        schedule.validate(self.shares.len());
        self.membership = schedule;
        self
    }

    /// Installs a complete fault plan (crashes, cost timeout, lossy
    /// links). Replaces any plan set earlier.
    ///
    /// # Panics
    ///
    /// Panics if a crash window names a worker index out of range.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        if let Some(max) = plan.max_crash_worker() {
            assert!(max < self.shares.len(), "crash worker out of range");
        }
        self.plan = plan;
        self
    }

    /// Injects a crash window: the worker neither executes nor responds
    /// during `[from_round, until_round)`; its share is frozen and the
    /// rest of the cluster balances without it.
    ///
    /// # Panics
    ///
    /// Panics if the worker index is out of range.
    pub fn with_crash(mut self, crash: Crash) -> Self {
        assert!(crash.worker < self.shares.len(), "crash worker out of range");
        self.plan.crashes.push(crash);
        self
    }

    /// Sets a master-side timeout (seconds from the round's barrier time):
    /// workers that have not reported their cost by then are excluded from
    /// the round as if crashed.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is not positive and finite.
    pub fn with_cost_timeout(mut self, seconds: f64) -> Self {
        self.plan = self.plan.with_cost_timeout(seconds);
        self
    }

    /// Runs the protocol for `rounds` rounds.
    ///
    /// # Panics
    ///
    /// Panics if the environment produces malformed cost functions.
    pub fn run(&mut self, rounds: usize) -> ProtocolTrace {
        self.run_with_scheduler(rounds, &mut FifoScheduler)
    }

    /// [`run`](Self::run) under controlled nondeterminism: every event
    /// dequeue, wire-fault coin, crash window, and membership boundary is
    /// routed through `sched` (see [`crate::sched`]). With
    /// [`FifoScheduler`] this is bitwise identical to [`run`](Self::run);
    /// with an exploring scheduler it is the model checker's branching
    /// execution.
    ///
    /// # Panics
    ///
    /// Panics if the environment produces malformed cost functions, or if
    /// a scheduler drives the protocol into a round that cannot complete
    /// (the deadlock check — unreachable under any delivery order the
    /// checker can express, which is exactly what `dolbie-mc` verifies).
    pub fn run_with_scheduler(
        &mut self,
        rounds: usize,
        sched: &mut dyn Scheduler,
    ) -> ProtocolTrace {
        let mut run = Run::new(self.shares.len(), rounds);
        while run.step(self, sched) {}
        run.into_trace()
    }

    /// Moves the simulator into a [`MasterWorkerWorld`] poised at the
    /// start of a `rounds`-round run. Stepping the world to its end under
    /// a scheduler yields exactly the trace
    /// [`run_with_scheduler`](Self::run_with_scheduler) returns under it.
    pub fn into_world(self, rounds: usize) -> MasterWorkerWorld<E, L> {
        let run = Run::new(self.shares.len(), rounds);
        MasterWorkerWorld { sim: self, run }
    }
}

/// A master-worker run in progress: the simulator plus everything its
/// run keeps between two steps (the trace so far, the per-worker clocks,
/// the membership view, and the open round's event queue, protocol
/// state and revealed cost functions).
///
/// Cloning a world forks the run: both copies continue from the same
/// state, and the clone shares the open round's cost functions instead
/// of revealing the environment again. The model checker forks worlds
/// so that a run branching late need not re-simulate its shared prefix.
#[derive(Debug, Clone)]
pub struct MasterWorkerWorld<E, L> {
    sim: MasterWorkerSim<E, L>,
    run: Run,
}

impl<E: Environment, L: LatencyModel> MasterWorkerWorld<E, L> {
    /// Advances the run by one step under `sched`: opening the next round
    /// (its membership and crash decisions), or one event delivery (and
    /// closing the round it completes). Returns `false`, doing nothing,
    /// once the horizon is reached.
    ///
    /// # Panics
    ///
    /// As [`MasterWorkerSim::run_with_scheduler`].
    pub fn step(&mut self, sched: &mut dyn Scheduler) -> bool {
        self.run.step(&mut self.sim, sched)
    }

    /// The canonical fingerprint of the run's continuation-determining
    /// state (times excluded) that the next [`step`](Self::step) reports
    /// to a state-observing scheduler: `Some` exactly when that step
    /// makes a delivery choice. Lets a caller read the state at a step
    /// boundary before deciding what to do there; a scheduler that
    /// received it should decline to observe it again.
    pub fn fingerprint(&self) -> Option<u64> {
        self.run.fingerprint(&self.sim)
    }

    /// The trace of the rounds completed so far.
    pub fn into_trace(self) -> ProtocolTrace {
        self.run.into_trace()
    }
}

/// The state a run keeps between steps, apart from the simulator.
#[derive(Debug, Clone)]
struct Run {
    rounds: usize,
    trace: Vec<ProtocolRound>,
    /// Per-worker time at which it may begin executing the round.
    ready_at: Vec<f64>,
    /// Active membership view (epoch state, distinct from crash windows).
    members: Vec<bool>,
    /// The open round, if any.
    round: Option<Round>,
}

/// One round in flight: its inputs, event queue, and master state.
#[derive(Debug, Clone)]
struct Round {
    fns: Arc<[DynCost]>,
    down: Vec<bool>,
    alive_count: usize,
    member_count: usize,
    local_costs: Vec<f64>,
    queue: EventQueue<Ev>,
    costs_received: Vec<bool>,
    costs_count: usize,
    coordination_sent: bool,
    participants: Vec<bool>,
    /// Alive workers shut out by the cost timeout this round.
    excluded: Vec<bool>,
    global_cost: f64,
    straggler: usize,
    decisions: Vec<Option<f64>>,
    decisions_count: usize,
    expected_decisions: usize,
    next_shares: Vec<f64>,
    stats: LinkStats,
    compute_finished: f64,
    control_finished: f64,
    round_done: bool,
}

impl Run {
    fn new(n: usize, rounds: usize) -> Self {
        Self {
            rounds,
            trace: Vec::with_capacity(rounds),
            ready_at: vec![0.0f64; n],
            members: vec![true; n],
            round: None,
        }
    }

    fn into_trace(self) -> ProtocolTrace {
        ProtocolTrace { architecture: "master-worker", rounds: self.trace }
    }

    fn step<E: Environment, L: LatencyModel>(
        &mut self,
        sim: &mut MasterWorkerSim<E, L>,
        sched: &mut dyn Scheduler,
    ) -> bool {
        let t = self.trace.len();
        let Some(round) = &mut self.round else {
            if t == self.rounds {
                return false;
            }
            self.open(t, sim, sched);
            return true;
        };
        // Fingerprint the full continuation-determining state before each
        // genuine delivery choice (len > 1), so an exploring scheduler can
        // prune revisited states. The FIFO scheduler declines
        // (`wants_state`), costing the uncontrolled sims nothing.
        if round.queue.len() > 1 && sched.wants_state() {
            sched.observe_state(round.fingerprint(t, self.rounds, sim, &self.members));
        }
        let drained = match pop_with(&mut round.queue, sched) {
            Some(scheduled) => {
                round.deliver(t, scheduled, sim, &mut self.ready_at, sched);
                false
            }
            None => true,
        };
        if drained || round.round_done {
            self.close(t, sim);
        }
        true
    }

    fn fingerprint<E, L>(&self, sim: &MasterWorkerSim<E, L>) -> Option<u64> {
        let round = self.round.as_ref().filter(|r| r.queue.len() > 1)?;
        Some(round.fingerprint(self.trace.len(), self.rounds, sim, &self.members))
    }

    /// Opens round `t`: the epoch boundary, the reveal, the crash
    /// decisions, and every live worker's execution. A round nobody can
    /// play is recorded frozen on the spot.
    fn open<E: Environment, L: LatencyModel>(
        &mut self,
        t: usize,
        sim: &mut MasterWorkerSim<E, L>,
        sched: &mut dyn Scheduler,
    ) {
        let n = sim.shares.len();
        // Epoch boundary: apply scheduled leaves/joins, re-normalize onto
        // the new member simplex, shrink α to the re-derived cap.
        let boundary = sim.membership.apply_round_sched(t, &mut self.members, sched);
        if boundary.changed {
            let mut alpha_state = [sim.alpha];
            sim.alpha = epoch_transition(&mut sim.shares, &mut alpha_state, &[true], &self.members);
            if boundary.crash_detected {
                // Survivors discover the departure via timeout.
                let detection = sim.plan.cost_timeout.unwrap_or(DEFAULT_DETECTION_TIMEOUT);
                for (r, &m) in self.ready_at.iter_mut().zip(&self.members) {
                    if m {
                        *r += detection;
                    }
                }
            }
        }
        let member_count = self.members.iter().filter(|&&m| m).count();

        let fns: Arc<[DynCost]> = sim.env.reveal(t).into();
        assert_eq!(fns.len(), n, "environment must cover every worker");
        let down: Vec<bool> = (0..n)
            .map(|i| {
                !self.members[i]
                    || (sim.plan.crashed(i, t)
                        && sched.decide(DecisionPoint::Crash { worker: i, round: t }, true))
            })
            .collect();
        let alive_count = down.iter().filter(|&&c| !c).count();
        let local_costs: Vec<f64> =
            (0..n).map(|i| if down[i] { 0.0 } else { fns[i].eval(sim.shares[i]) }).collect();
        if alive_count == 0 {
            // Membership collapsed: freeze every share and continue.
            self.trace.push(frozen_round(
                t,
                &sim.shares,
                local_costs,
                &self.ready_at,
                n,
                sim.alpha,
            ));
            return;
        }

        // A full round is cost + share + ack per live worker, plus retries
        // and an optional timeout; reserve up front so the heap never
        // reallocates mid-round.
        let mut queue: EventQueue<Ev> = EventQueue::with_capacity(3 * alive_count + 1);
        let mut round_base = 0.0f64;
        for i in 0..n {
            if down[i] {
                continue;
            }
            queue.schedule(self.ready_at[i] + local_costs[i], Ev::ComputeDone { worker: i });
            round_base = round_base.max(self.ready_at[i]);
        }
        if let Some(timeout) = sim.plan.cost_timeout {
            queue.schedule(round_base + timeout, Ev::CostTimeout);
        }

        self.round = Some(Round {
            fns,
            down,
            alive_count,
            member_count,
            local_costs,
            queue,
            costs_received: vec![false; n],
            costs_count: 0,
            coordination_sent: false,
            participants: vec![false; n],
            excluded: vec![false; n],
            global_cost: f64::MIN,
            straggler: 0,
            decisions: vec![None; n],
            decisions_count: 0,
            expected_decisions: usize::MAX,
            next_shares: sim.shares.clone(),
            stats: LinkStats::default(),
            compute_finished: 0.0,
            control_finished: 0.0,
            round_done: false,
        });
    }

    /// Closes the open round `t`: records it and commits its shares.
    fn close<E, L>(&mut self, t: usize, sim: &mut MasterWorkerSim<E, L>) {
        let round = self.round.take().expect("an open round to close");
        let n = sim.shares.len();
        assert!(round.round_done || n == 1, "protocol deadlocked in round {t}");

        // The shares executed this round go to the record; the round's
        // update becomes the simulator's.
        let executed = std::mem::replace(&mut sim.shares, round.next_shares);
        let executed = Allocation::from_update(executed).expect("protocol preserves feasibility");
        self.trace.push(ProtocolRound {
            round: t,
            allocation: executed,
            local_costs: round.local_costs,
            global_cost: round.global_cost,
            straggler: round.straggler,
            messages: round.stats.messages,
            bytes: round.stats.bytes,
            retries: round.stats.retries,
            acks: round.stats.acks,
            duplicates: round.stats.duplicates,
            compute_finished: round.compute_finished,
            control_finished: round.control_finished,
            active: round.participants,
            alpha: sim.alpha,
        });
    }
}

impl Round {
    fn fingerprint<E, L>(
        &self,
        t: usize,
        rounds: usize,
        sim: &MasterWorkerSim<E, L>,
        members: &[bool],
    ) -> u64 {
        let mut fp = StateFp::new(0xD01B_0001);
        fp.push_usize(t);
        fp.push_usize(rounds);
        fp.push_f64_slice(&sim.shares);
        fp.push_f64(sim.alpha);
        fp.push_f64_slice(&self.next_shares);
        fp.push_bool_slice(members);
        fp.push_bool_slice(&self.down);
        fp.push_bool_slice(&self.costs_received);
        fp.push_bool_slice(&self.participants);
        fp.push_bool_slice(&self.excluded);
        fp.push_u64(u64::from(self.coordination_sent));
        fp.push_f64(self.global_cost);
        fp.push_usize(self.straggler);
        fp.push_usize(self.decisions_count);
        fp.push_usize(self.expected_decisions);
        for d in &self.decisions {
            fp.push_opt_f64(*d);
        }
        let mut pending = MultisetFp::new();
        self.queue.for_each_pending(|ev| {
            pending.insert(match ev {
                Ev::ComputeDone { worker } => 1 + *worker as u64,
                Ev::CostTimeout => 0,
                Ev::Deliver(msg) => msg.fingerprint(),
            });
        });
        fp.push_u64(pending.finish());
        fp.finish()
    }

    fn send<L: LatencyModel>(
        &mut self,
        latency: &mut L,
        plan: &FaultPlan,
        sched: &mut dyn Scheduler,
        msg: Message,
    ) {
        let delay = latency.delay(&msg);
        assert!(delay >= 0.0, "latency model produced a negative delay");
        let outcome = plan.transmit_with(&msg, delay, sched);
        self.stats.record(&msg, &outcome);
        self.queue.schedule(self.queue.now() + outcome.delivery_delay, Ev::Deliver(msg));
    }

    fn deliver<E, L: LatencyModel>(
        &mut self,
        t: usize,
        scheduled: Scheduled<Ev>,
        sim: &mut MasterWorkerSim<E, L>,
        ready_at: &mut [f64],
        sched: &mut dyn Scheduler,
    ) {
        match scheduled.event {
            Ev::ComputeDone { worker } => {
                if self.excluded[worker] {
                    // Already accounted at exclusion time; the worker
                    // knows the round moved on without it and reports
                    // nothing.
                    return;
                }
                self.compute_finished = self.compute_finished.max(scheduled.time);
                // Line 4: share the local cost with the master.
                let cost = self.local_costs[worker];
                self.send(
                    &mut sim.latency,
                    &sim.plan,
                    sched,
                    Message {
                        from: NodeId::Worker(worker),
                        to: NodeId::Master,
                        round: t,
                        payload: Payload::LocalCost { cost },
                    },
                );
            }
            Ev::CostTimeout => {
                if !self.coordination_sent && self.costs_count >= 1 {
                    self.coordinate(t, sim, ready_at, sched);
                }
            }
            Ev::Deliver(msg) => match msg.payload {
                Payload::LocalCost { .. } => {
                    let NodeId::Worker(i) = msg.from else {
                        unreachable!("only workers report costs")
                    };
                    if self.coordination_sent {
                        // Late report after the timeout: the worker sat
                        // this round out.
                        return;
                    }
                    assert!(!self.costs_received[i], "duplicate cost report");
                    self.costs_received[i] = true;
                    self.costs_count += 1;
                    if self.costs_count == self.alive_count {
                        self.coordinate(t, sim, ready_at, sched);
                    }
                }
                Payload::Coordination { global_cost: l_t, alpha, is_straggler } => {
                    let NodeId::Worker(i) = msg.to else {
                        unreachable!("coordination goes to workers")
                    };
                    if is_straggler {
                        // Line 8: the straggler waits for its share.
                        return;
                    }
                    // Lines 5-7: risk-averse assistance.
                    let updated = assist_step(&self.fns[i], sim.shares[i], l_t, alpha);
                    self.send(
                        &mut sim.latency,
                        &sim.plan,
                        sched,
                        Message {
                            from: NodeId::Worker(i),
                            to: NodeId::Master,
                            round: t,
                            payload: Payload::Decision { share: updated },
                        },
                    );
                    // The worker may start the next round as soon as it
                    // committed to its own share.
                    ready_at[i] = scheduled.time;
                }
                Payload::Decision { share } => {
                    let NodeId::Worker(i) = msg.from else {
                        unreachable!("only workers send decisions")
                    };
                    assert!(self.decisions[i].is_none(), "duplicate decision");
                    self.decisions[i] = Some(share);
                    self.decisions_count += 1;
                    if self.decisions_count == self.expected_decisions {
                        self.finalize(t, sim, sched);
                    }
                }
                Payload::StragglerAssignment { .. } => {
                    let NodeId::Worker(i) = msg.to else {
                        unreachable!("assignment goes to the straggler")
                    };
                    ready_at[i] = scheduled.time;
                    self.control_finished = scheduled.time;
                    self.round_done = true;
                }
                _ => {
                    unreachable!("non-master-worker payload in Algorithm 1")
                }
            },
        }
    }

    /// Lines 9-12, shared between the all-reported and timeout paths: fix
    /// the participant set, identify the straggler among it, and
    /// broadcast the coordination scalars; then lines 14-16 at once if
    /// the straggler is the only participant.
    fn coordinate<E, L: LatencyModel>(
        &mut self,
        t: usize,
        sim: &mut MasterWorkerSim<E, L>,
        ready_at: &mut [f64],
        sched: &mut dyn Scheduler,
    ) {
        let n = self.participants.len();
        self.coordination_sent = true;
        self.participants.copy_from_slice(&self.costs_received);
        for (j, ready) in ready_at.iter_mut().enumerate() {
            if self.down[j] || self.participants[j] {
                continue;
            }
            // Timed out: the worker's in-flight execution is abandoned,
            // but it still has to finish it before round t+1, and that
            // execution is compute time of *this* round (accounting
            // bugfixes).
            self.excluded[j] = true;
            *ready += self.local_costs[j];
            self.compute_finished = self.compute_finished.max(*ready);
        }
        let elected = elect_straggler(&self.local_costs, &self.participants)
            .expect("coordination requires at least one participant");
        self.global_cost = elected.global_cost;
        self.straggler = elected.straggler;
        self.expected_decisions = self.participants.iter().filter(|&&p| p).count() - 1;
        for j in 0..n {
            if !self.participants[j] {
                continue;
            }
            let payload = Payload::Coordination {
                global_cost: self.global_cost,
                alpha: sim.alpha,
                is_straggler: j == self.straggler,
            };
            self.send(
                &mut sim.latency,
                &sim.plan,
                sched,
                Message { from: NodeId::Master, to: NodeId::Worker(j), round: t, payload },
            );
        }
        if self.expected_decisions == 0 {
            self.finalize(t, sim, sched);
        }
    }

    /// Lines 14-16, triggered once every expected decision arrived.
    fn finalize<E, L: LatencyModel>(
        &mut self,
        t: usize,
        sim: &mut MasterWorkerSim<E, L>,
        sched: &mut dyn Scheduler,
    ) {
        for j in 0..self.participants.len() {
            if j != self.straggler && self.participants[j] {
                self.next_shares[j] = self.decisions[j].expect("participant reported");
            }
        }
        // Crashed/timed-out workers keep their frozen entry in
        // `next_shares`; the guarded pin counts them as-is.
        let s_share = straggler_pin_with_guard(
            &sim.shares,
            &mut self.next_shares,
            self.straggler,
            !sched.sabotage_overshoot_guard(),
        );
        // Eq. (7) against the active member count (== n when no
        // membership schedule is installed).
        sim.alpha = tighten_alpha(sim.alpha, self.member_count, s_share);
        self.send(
            &mut sim.latency,
            &sim.plan,
            sched,
            Message {
                from: NodeId::Master,
                to: NodeId::Worker(self.straggler),
                round: t,
                payload: Payload::StragglerAssignment { share: s_share },
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{FixedLatency, JitteredLatency};
    use dolbie_core::environment::{RotatingStragglerEnvironment, StaticLinearEnvironment};
    use dolbie_core::{run_episode, Dolbie, EpisodeOptions};

    #[test]
    fn message_count_is_3n_per_round() {
        let env = StaticLinearEnvironment::from_slopes(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut sim = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan());
        let trace = sim.run(7);
        for r in &trace.rounds {
            assert_eq!(r.messages, 15, "3N messages per round");
            assert!(r.active.iter().all(|&a| a), "everyone participates");
            assert_eq!(r.retries, 0, "lossless links never retransmit");
            assert_eq!(r.acks, 0, "lossless links send no acks");
        }
        assert_eq!(trace.total_messages(), 7 * 15);
        assert!(trace.total_bytes() > 0);
    }

    #[test]
    fn trajectory_matches_sequential_dolbie() {
        let env = RotatingStragglerEnvironment::new(4, 3, 8.0, 1.0);
        let mut sim = MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan());
        let protocol = sim.run(30);

        let mut sequential = Dolbie::new(4);
        let mut driver = env;
        let reference = run_episode(&mut sequential, &mut driver, EpisodeOptions::new(30));

        for (p, r) in protocol.rounds.iter().zip(&reference.records) {
            assert!(
                p.allocation.l2_distance(&r.allocation) < 1e-9,
                "round {}: protocol {} vs sequential {}",
                p.round,
                p.allocation,
                r.allocation
            );
            assert_eq!(p.straggler, r.straggler, "round {}", p.round);
            assert!((p.global_cost - r.global_cost).abs() < 1e-9);
        }
    }

    #[test]
    fn decisions_are_delay_invariant() {
        // Same environment under wildly different network conditions must
        // produce the same allocation sequence (synchronous protocol).
        let env = StaticLinearEnvironment::from_slopes(vec![5.0, 1.0, 2.0]);
        let fast =
            MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::instant()).run(20);
        let slow = MasterWorkerSim::new(
            env.clone(),
            DolbieConfig::new(),
            JitteredLatency::new(FixedLatency::new(0.5, 1e3), 0.2, 7),
        )
        .run(20);
        for (a, b) in fast.rounds.iter().zip(&slow.rounds) {
            assert!(a.allocation.l2_distance(&b.allocation) < 1e-12);
        }
        // But the wall clock differs.
        assert!(slow.makespan() > fast.makespan());
    }

    #[test]
    fn decisions_survive_lossy_links_unchanged() {
        // Message loss delays rounds (retransmissions) but the protocol is
        // synchronous: the allocation sequence is bit-identical.
        let env = StaticLinearEnvironment::from_slopes(vec![5.0, 1.0, 2.0, 3.0]);
        let clean =
            MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan()).run(20);
        let lossy = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan())
            .with_fault_plan(
                FaultPlan::seeded(42).with_drop_probability(0.3).with_duplicate_probability(0.1),
            )
            .run(20);
        for (a, b) in clean.rounds.iter().zip(&lossy.rounds) {
            assert!(a.allocation.l2_distance(&b.allocation) == 0.0, "round {}", a.round);
            assert_eq!(a.messages, b.messages, "logical message counts agree");
        }
        assert!(lossy.total_retries() > 0, "30% loss must retransmit");
        assert!(lossy.total_acks() >= lossy.total_messages(), "every delivery acked");
        assert!(lossy.total_bytes() > clean.total_bytes());
        assert!(lossy.makespan() > clean.makespan(), "retransmission waits cost wall-clock");
    }

    #[test]
    fn empty_fault_plan_reproduces_the_plain_trace_bitwise() {
        let env = StaticLinearEnvironment::from_slopes(vec![3.0, 1.0, 2.0]);
        let plain =
            MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan()).run(15);
        let planned = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan())
            .with_fault_plan(FaultPlan::none())
            .run(15);
        for (a, b) in plain.rounds.iter().zip(&planned.rounds) {
            for (x, y) in a.allocation.iter().zip(b.allocation.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(a.messages, b.messages);
            assert_eq!(a.bytes, b.bytes);
            assert_eq!(a.compute_finished.to_bits(), b.compute_finished.to_bits());
            assert_eq!(a.control_finished.to_bits(), b.control_finished.to_bits());
        }
    }

    #[test]
    fn control_overhead_is_positive_with_real_latency() {
        let env = StaticLinearEnvironment::from_slopes(vec![2.0, 1.0]);
        let mut sim = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan());
        let trace = sim.run(5);
        for r in &trace.rounds {
            assert!(r.control_overhead() > 0.0);
            assert!(r.control_finished >= r.compute_finished);
        }
    }

    #[test]
    fn global_cost_decreases_on_static_instance() {
        let env = StaticLinearEnvironment::from_slopes(vec![6.0, 1.0, 2.0]);
        let mut sim = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan());
        let trace = sim.run(60);
        let first = trace.rounds.first().unwrap().global_cost;
        let last = trace.rounds.last().unwrap().global_cost;
        assert!(last < first * 0.7, "protocol DOLBIE must improve: {first} -> {last}");
    }

    #[test]
    fn crashed_worker_is_excluded_and_its_share_frozen() {
        let env = StaticLinearEnvironment::from_slopes(vec![4.0, 1.0, 2.0, 1.5]);
        let crash = Crash { worker: 1, from_round: 5, until_round: 12 };
        let mut sim =
            MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan()).with_crash(crash);
        let trace = sim.run(25);
        let frozen_share = trace.rounds[5].allocation.share(1);
        for t in 5..12 {
            let r = &trace.rounds[t];
            assert!(!r.active[1], "round {t}: crashed worker must not participate");
            assert!(
                (r.allocation.share(1) - frozen_share).abs() < 1e-12,
                "round {t}: crashed worker's share must be frozen"
            );
            // Fewer protocol messages while one worker is out.
            assert_eq!(r.messages, 3 * 3, "3 * |active| messages");
            let sum: f64 = r.allocation.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        // After recovery the worker participates and regains work.
        assert!(trace.rounds[24].active[1]);
        assert!(
            trace.rounds[24].allocation.share(1) > frozen_share,
            "the fast worker should win back work after recovering"
        );
    }

    #[test]
    fn cost_timeout_excludes_an_extreme_straggler() {
        // Worker 0 takes ~4 s per round; with a 1 s timeout the master
        // proceeds without it.
        let env = StaticLinearEnvironment::from_slopes(vec![16.0, 1.0, 1.0, 1.0]);
        let mut sim = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan())
            .with_cost_timeout(1.0);
        let trace = sim.run(10);
        let first = &trace.rounds[0];
        assert!(!first.active[0], "the slow worker times out");
        assert!(first.active[1] && first.active[2] && first.active[3]);
        // The round completes in ~1 s + protocol, far below worker 0's 4 s.
        assert!(first.control_finished < 2.0, "control at {}", first.control_finished);
        let sum: f64 = trace.rounds.last().unwrap().allocation.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn excluded_worker_finishes_its_abandoned_share_before_the_next_round() {
        // Regression (timeout accounting): worker 0 computes 16 * 0.25 =
        // 4 s per round with its frozen share. Its abandoned round-t
        // execution must complete before its round-(t+1) execution starts,
        // so its round-t finish times are ~4, 8, 12, ... — not a constant
        // 4 s as the pre-fix pipelining allowed.
        let env = StaticLinearEnvironment::from_slopes(vec![16.0, 1.0, 1.0, 1.0]);
        let mut sim = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan())
            .with_cost_timeout(1.0);
        let trace = sim.run(5);
        let w0_cost = trace.rounds[0].local_costs[0];
        assert!(w0_cost > 3.9, "worker 0's share stays frozen at ~4 s of work");
        for (t, r) in trace.rounds.iter().enumerate() {
            assert!(!r.active[0], "round {t}: worker 0 always times out");
            // compute_finished includes the excluded worker's abandoned
            // execution, which cannot overlap its previous round's.
            let serialized_floor = (t + 1) as f64 * w0_cost;
            assert!(
                r.compute_finished >= serialized_floor - 1e-9,
                "round {t}: compute finished {} but worker 0 alone needs {}",
                r.compute_finished,
                serialized_floor
            );
        }
    }

    #[test]
    fn timeout_rounds_do_not_book_compute_time_as_control_overhead() {
        // Regression (timeout accounting): the excluded worker computes
        // until long after the decision phase ends, so the round has no
        // idle coordination tail — control_overhead must be 0, not the
        // pre-fix "decision end minus fastest computes" gap.
        let env = StaticLinearEnvironment::from_slopes(vec![16.0, 1.0, 1.0, 1.0]);
        let trace = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan())
            .with_cost_timeout(1.0)
            .run(5);
        for (t, r) in trace.rounds.iter().enumerate() {
            assert!(
                r.compute_finished > r.control_finished,
                "round {t}: the abandoned execution outlasts the decision phase"
            );
            assert_eq!(
                r.control_overhead(),
                0.0,
                "round {t}: compute time must not be attributed to control"
            );
        }
    }

    #[test]
    fn generous_timeout_changes_nothing() {
        let env = StaticLinearEnvironment::from_slopes(vec![3.0, 1.0, 2.0]);
        let plain =
            MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan()).run(15);
        let with_timeout = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan())
            .with_cost_timeout(1e6)
            .run(15);
        for (a, b) in plain.rounds.iter().zip(&with_timeout.rounds) {
            assert!(a.allocation.l2_distance(&b.allocation) < 1e-12);
            assert_eq!(a.messages, b.messages);
        }
    }

    #[test]
    fn fully_crashed_round_freezes_shares_and_continues() {
        // Membership collapse: both workers down in round 1. The round
        // freezes every share, exchanges nothing, and the run continues —
        // the graceful-degradation semantics shared by all architectures.
        let env = StaticLinearEnvironment::from_slopes(vec![1.0, 2.0]);
        let mut sim = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan())
            .with_crash(Crash { worker: 0, from_round: 1, until_round: 2 })
            .with_crash(Crash { worker: 1, from_round: 1, until_round: 2 });
        let trace = sim.run(4);
        let dead = &trace.rounds[1];
        assert!(dead.active.iter().all(|&a| !a), "nobody participates");
        assert_eq!(dead.messages, 0, "nothing is exchanged");
        // Round 2 executes the exact shares the dead round froze.
        assert!(dead.allocation.l2_distance(&trace.rounds[2].allocation) < 1e-15);
        let frozen: f64 = dead.allocation.iter().sum();
        assert!((frozen - 1.0).abs() < 1e-9, "frozen shares stay feasible");
        // The cluster resumes balancing afterwards.
        assert!(trace.rounds[3].active.iter().all(|&a| a));
        assert!(trace.rounds[3].messages > 0);
    }

    #[test]
    fn single_survivor_rounds_keep_the_frozen_remainder() {
        // alive_count == 1: the lone responder is trivially the straggler
        // and absorbs the remainder of the frozen shares — the same
        // degradation the leaderless architectures implement (asserted in
        // their own lone-survivor tests and the crash-equivalence suites).
        let env = StaticLinearEnvironment::from_slopes(vec![3.0, 1.0, 2.0]);
        let crash_a = Crash { worker: 0, from_round: 4, until_round: 7 };
        let crash_b = Crash { worker: 2, from_round: 4, until_round: 7 };
        let trace = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan())
            .with_crash(crash_a)
            .with_crash(crash_b)
            .run(12);
        let frozen = trace.rounds[4].allocation.share(1);
        for t in 4..7 {
            let r = &trace.rounds[t];
            assert_eq!(r.active, vec![false, true, false], "round {t}: lone survivor");
            assert_eq!(r.straggler, 1, "a lone survivor is trivially the straggler");
            assert!(
                (r.allocation.share(1) - frozen).abs() < 1e-12,
                "round {t}: the survivor's share is stable while alone"
            );
            let sum: f64 = r.allocation.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "round {t}: feasibility through collapse");
        }
        assert!(trace.rounds[11].active.iter().all(|&a| a), "everyone rejoined");
        let mut prev = f64::INFINITY;
        for r in &trace.rounds {
            assert!(r.alpha <= prev, "round {}: alpha rose through collapse", r.round);
            prev = r.alpha;
        }
    }

    #[test]
    fn zero_survivor_rounds_freeze_everything_and_continue() {
        // alive_count == 0: full membership collapse freezes every share,
        // sends nothing, stalls the clock, and the run resumes when the
        // workers come back — mirroring the leaderless architectures.
        let env = StaticLinearEnvironment::from_slopes(vec![3.0, 1.0, 2.0]);
        let trace = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan())
            .with_crash(Crash { worker: 0, from_round: 4, until_round: 7 })
            .with_crash(Crash { worker: 1, from_round: 5, until_round: 6 })
            .with_crash(Crash { worker: 2, from_round: 4, until_round: 7 })
            .run(12);
        // The shares executed in round 4 (produced by round 3's update,
        // when everyone was alive) stay frozen for the whole window.
        let frozen = trace.rounds[4].allocation.clone();
        let dead = &trace.rounds[5];
        assert!(dead.active.iter().all(|&a| !a), "nobody participates");
        assert_eq!(dead.messages, 0, "a dead cluster sends nothing");
        assert_eq!(dead.global_cost, 0.0, "nothing executes");
        let sum: f64 = dead.allocation.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "frozen shares stay feasible");
        for t in 4..7 {
            let r = &trace.rounds[t];
            assert!(
                (r.allocation.share(0) - frozen.share(0)).abs() < 1e-12,
                "round {t}: crashed shares are frozen, not redistributed"
            );
        }
        assert!(trace.rounds[11].active.iter().all(|&a| a), "everyone rejoined");
        let mut prev = f64::INFINITY;
        for r in &trace.rounds {
            assert!(r.alpha <= prev, "round {}: alpha rose through collapse", r.round);
            prev = r.alpha;
        }
    }
}
