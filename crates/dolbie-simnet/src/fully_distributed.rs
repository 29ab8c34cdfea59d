//! Discrete-event simulation of Algorithm 2 (fully-distributed DOLBIE).
//!
//! No master: each worker broadcasts its local cost and local step size
//! `ᾱ_{i,t}` to every peer (line 4), independently computes the global
//! cost, straggler, and consensus step size `α_t = min_j ᾱ_{j,t}`
//! (lines 5–7), and the non-stragglers send their updated decision *only to
//! the straggler* (line 9), which absorbs the remainder and tightens its
//! local step size per eq. (8) (lines 11–13).
//!
//! Per round this exchanges `N(N−1) + (N−1)` messages — the `O(N²)`
//! communication complexity of §IV-C, traded for the removal of the single
//! point of failure and for keeping decisions private from non-stragglers.
//!
//! Faults (extension): the simulator accepts the same
//! [`FaultPlan`] as the other architectures —
//! crash windows freeze the crashed worker's share while the survivors
//! balance among themselves, lossy links retransmit with ack/backoff, and
//! membership collapse degrades gracefully: a lone survivor keeps its
//! share and continues (matching the master-worker single-responder
//! semantics), and a round with no survivors freezes every share instead
//! of panicking. The plan's cost timeout is a coordinator-side concept and
//! is ignored here — there is no master to enforce it.

use crate::coordinator::{
    assist_step, frozen_round, lone_survivor_round, member_alpha, straggler_pin_with_guard,
    tighten_alpha,
};
use crate::event::{EventQueue, Scheduled};
use crate::faults::{Crash, FaultPlan, LinkStats};
use crate::latency::LatencyModel;
use crate::membership::{epoch_transition, MembershipSchedule, DEFAULT_DETECTION_TIMEOUT};
use crate::message::{Message, NodeId, Payload};
use crate::sched::{pop_with, DecisionPoint, FifoScheduler, Scheduler};
use crate::trace::{ProtocolRound, ProtocolTrace};
use dolbie_core::cost::DynCost;
use dolbie_core::fingerprint::{MultisetFp, StateFp};
use dolbie_core::{Allocation, DolbieConfig, Environment};
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
enum Ev {
    ComputeDone { worker: usize },
    Deliver(Message),
}

/// Per-round, per-worker protocol state.
#[derive(Debug, Clone)]
struct WorkerRoundState {
    costs: Vec<Option<f64>>,
    alphas: Vec<Option<f64>>,
    broadcasts_received: usize,
    decisions: Vec<Option<f64>>,
    decisions_received: usize,
    resolved: bool,
}

impl WorkerRoundState {
    fn new(n: usize) -> Self {
        Self {
            costs: vec![None; n],
            alphas: vec![None; n],
            broadcasts_received: 0,
            decisions: vec![None; n],
            decisions_received: 0,
            resolved: false,
        }
    }
}

/// The fully-distributed protocol simulator.
///
/// # Examples
///
/// ```
/// use dolbie_simnet::{FixedLatency, FullyDistributedSim};
/// use dolbie_core::environment::StaticLinearEnvironment;
/// use dolbie_core::DolbieConfig;
///
/// let env = StaticLinearEnvironment::from_slopes(vec![3.0, 1.0, 2.0]);
/// let mut sim = FullyDistributedSim::new(env, DolbieConfig::new(), FixedLatency::lan());
/// let trace = sim.run(10);
/// // N(N-1) broadcasts + (N-1) decisions = 8 messages for N = 3.
/// assert_eq!(trace.rounds[0].messages, 8);
/// ```
#[derive(Debug, Clone)]
pub struct FullyDistributedSim<E, L> {
    env: E,
    latency: L,
    shares: Vec<f64>,
    local_alphas: Vec<f64>,
    plan: FaultPlan,
    membership: MembershipSchedule,
}

impl<E: Environment, L: LatencyModel> FullyDistributedSim<E, L> {
    /// Creates the simulator with the uniform initial partition; every
    /// worker starts with the same local step size `ᾱ_{i,1} = α_1`.
    ///
    /// # Panics
    ///
    /// Panics if the environment has fewer than two workers (a one-worker
    /// "distributed" system has no protocol to run).
    pub fn new(env: E, config: DolbieConfig, latency: L) -> Self {
        let n = env.num_workers();
        assert!(n >= 2, "the fully-distributed protocol needs at least two workers");
        let initial = Allocation::uniform(n);
        let alpha = config.resolve_initial_alpha(&initial);
        Self {
            env,
            latency,
            shares: initial.into_inner(),
            local_alphas: vec![alpha; n],
            plan: FaultPlan::none(),
            membership: MembershipSchedule::none(),
        }
    }

    /// Installs a membership schedule: at epoch boundaries the workers
    /// rebuild their all-to-all broadcast topology around the new member
    /// set, departing shares are redistributed proportionally, joiners
    /// enter at share zero, and every member synchronizes its local step
    /// size to `min` over the outgoing members' values capped against the
    /// new member count. Replaces any schedule set earlier.
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

    /// Installs a complete fault plan (crashes, lossy links). The plan's
    /// cost timeout is ignored — there is no coordinator to enforce it.
    /// Replaces any plan set earlier.
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

    /// Injects a crash window (extension): the worker neither executes nor
    /// broadcasts during `[from_round, until_round)`. The survivors share a
    /// consistent view of the membership (as a failure detector would
    /// provide), freeze the crashed worker's share, and balance among
    /// themselves.
    ///
    /// # Panics
    ///
    /// Panics if the worker index is out of range.
    pub fn with_crash(mut self, crash: Crash) -> Self {
        assert!(crash.worker < self.shares.len(), "crash worker out of range");
        self.plan.crashes.push(crash);
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
    /// [`FifoScheduler`] this is bitwise identical to [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics if the environment produces malformed cost functions, or on
    /// the deadlock check if a scheduler drives a round that cannot
    /// complete (unreachable — the `dolbie-mc` claim).
    pub fn run_with_scheduler(
        &mut self,
        rounds: usize,
        sched: &mut dyn Scheduler,
    ) -> ProtocolTrace {
        let mut run = Run::new(self.shares.len(), rounds);
        while run.step(self, sched) {}
        run.into_trace()
    }

    /// Moves the simulator into a [`FullyDistributedWorld`] poised at the
    /// start of a `rounds`-round run (see
    /// [`MasterWorkerWorld`](crate::MasterWorkerWorld)).
    pub fn into_world(self, rounds: usize) -> FullyDistributedWorld<E, L> {
        let run = Run::new(self.shares.len(), rounds);
        FullyDistributedWorld { sim: self, run }
    }
}

/// A fully-distributed run in progress; cloning it forks the run (see
/// [`MasterWorkerWorld`](crate::MasterWorkerWorld)).
#[derive(Debug, Clone)]
pub struct FullyDistributedWorld<E, L> {
    sim: FullyDistributedSim<E, L>,
    run: Run,
}

impl<E: Environment, L: LatencyModel> FullyDistributedWorld<E, L> {
    /// Advances the run by one step under `sched`: opening the next round,
    /// or one event delivery (and closing the round it completes).
    /// Returns `false`, doing nothing, once the horizon is reached.
    ///
    /// # Panics
    ///
    /// As [`FullyDistributedSim::run_with_scheduler`].
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
    ready_at: Vec<f64>,
    /// Active membership view (epoch state, distinct from crash windows).
    members: Vec<bool>,
    /// The open round, if any.
    round: Option<Round>,
}

/// One round in flight: its inputs, event queue, and every worker's view.
#[derive(Debug, Clone)]
struct Round {
    fns: Arc<[DynCost]>,
    down: Vec<bool>,
    alive_count: usize,
    member_count: usize,
    local_costs: Vec<f64>,
    queue: EventQueue<Ev>,
    states: Vec<WorkerRoundState>,
    next_shares: Vec<f64>,
    next_alphas: Vec<f64>,
    stats: LinkStats,
    compute_finished: f64,
    straggler_done_at: f64,
    last_resolution_at: f64,
    resolved_count: usize,
    global_cost: f64,
    straggler: usize,
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
        ProtocolTrace { architecture: "fully-distributed", rounds: self.trace }
    }

    fn step<E: Environment, L: LatencyModel>(
        &mut self,
        sim: &mut FullyDistributedSim<E, L>,
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
        if round.queue.len() > 1 && sched.wants_state() {
            sched.observe_state(round.fingerprint(t, self.rounds, sim, &self.members));
        }
        let drained = match pop_with(&mut round.queue, sched) {
            Some(scheduled) => {
                if round.deliver(t, scheduled, sim, &mut self.ready_at, sched) {
                    round.resolve_waiting_straggler(sim, &mut self.ready_at, sched);
                }
                false
            }
            None => true,
        };
        // The round closes once every live worker resolved: a worker
        // resolves as soon as it holds every broadcast (and, for the
        // straggler, every decision).
        if drained || round.resolved_count == round.alive_count {
            self.close(t, sim);
        }
        true
    }

    fn fingerprint<E, L>(&self, sim: &FullyDistributedSim<E, L>) -> Option<u64> {
        let round = self.round.as_ref().filter(|r| r.queue.len() > 1)?;
        Some(round.fingerprint(self.trace.len(), self.rounds, sim, &self.members))
    }

    /// Opens round `t`: the epoch boundary, the reveal, the crash
    /// decisions, and every live worker's execution. A round with at
    /// most one survivor is recorded on the spot.
    fn open<E: Environment, L: LatencyModel>(
        &mut self,
        t: usize,
        sim: &mut FullyDistributedSim<E, L>,
        sched: &mut dyn Scheduler,
    ) {
        let n = sim.shares.len();
        // Epoch boundary: rebuild the broadcast topology around the new
        // member set and run the shared state transition.
        let previous_members = self.members.clone();
        let boundary = sim.membership.apply_round_sched(t, &mut self.members, sched);
        if boundary.changed {
            epoch_transition(
                &mut sim.shares,
                &mut sim.local_alphas,
                &previous_members,
                &self.members,
            );
            if boundary.crash_detected {
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
            let alpha = member_alpha(&sim.local_alphas, &self.members);
            self.trace.push(frozen_round(t, &sim.shares, local_costs, &self.ready_at, n, alpha));
            return;
        }
        if alive_count == 1 {
            self.trace.push(lone_survivor_round(
                t,
                &mut sim.shares,
                &mut sim.local_alphas,
                local_costs,
                &mut self.ready_at,
                &down,
                &self.members,
            ));
            return;
        }

        // Expected load: every live worker broadcasts its cost to the
        // other n−1 peers, plus the compute-done markers themselves.
        let mut queue: EventQueue<Ev> =
            EventQueue::with_capacity(alive_count * (n - 1) + alive_count);
        for i in 0..n {
            if !down[i] {
                queue.schedule(self.ready_at[i] + local_costs[i], Ev::ComputeDone { worker: i });
            }
        }

        let mut states: Vec<WorkerRoundState> = (0..n).map(|_| WorkerRoundState::new(n)).collect();
        // Seed each worker's own observation (lines 2-3).
        for i in 0..n {
            if down[i] {
                continue;
            }
            states[i].costs[i] = Some(local_costs[i]);
            states[i].alphas[i] = Some(sim.local_alphas[i]);
            states[i].broadcasts_received = 1;
        }
        let mut global_cost = f64::MIN;
        let mut straggler = 0usize;
        for (j, &c) in local_costs.iter().enumerate() {
            if !down[j] && c > global_cost {
                global_cost = c;
                straggler = j;
            }
        }
        self.round = Some(Round {
            fns,
            down,
            alive_count,
            member_count,
            local_costs,
            queue,
            states,
            next_shares: sim.shares.clone(),
            next_alphas: sim.local_alphas.clone(),
            stats: LinkStats::default(),
            compute_finished: 0.0,
            straggler_done_at: 0.0,
            last_resolution_at: 0.0,
            resolved_count: 0,
            global_cost,
            straggler,
        });
    }

    /// Closes the open round `t`: records it and commits its shares and
    /// step sizes.
    fn close<E, L>(&mut self, t: usize, sim: &mut FullyDistributedSim<E, L>) {
        let round = self.round.take().expect("an open round to close");
        assert_eq!(round.resolved_count, round.alive_count, "protocol deadlocked in round {t}");

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
            control_finished: round.last_resolution_at.max(round.straggler_done_at),
            active: round.down.iter().map(|&c| !c).collect(),
            alpha: member_alpha(&round.next_alphas, &self.members),
        });
        sim.local_alphas = round.next_alphas;
    }
}

impl Round {
    fn fingerprint<E, L>(
        &self,
        t: usize,
        rounds: usize,
        sim: &FullyDistributedSim<E, L>,
        members: &[bool],
    ) -> u64 {
        let mut fp = StateFp::new(0xD01B_0003);
        fp.push_usize(t);
        fp.push_usize(rounds);
        fp.push_f64_slice(&sim.shares);
        fp.push_f64_slice(&sim.local_alphas);
        fp.push_f64_slice(&self.next_shares);
        fp.push_f64_slice(&self.next_alphas);
        fp.push_bool_slice(members);
        fp.push_bool_slice(&self.down);
        fp.push_f64(self.global_cost);
        fp.push_usize(self.straggler);
        fp.push_usize(self.resolved_count);
        for st in &self.states {
            for c in &st.costs {
                fp.push_opt_f64(*c);
            }
            for a in &st.alphas {
                fp.push_opt_f64(*a);
            }
            for d in &st.decisions {
                fp.push_opt_f64(*d);
            }
            fp.push_usize(st.broadcasts_received);
            fp.push_usize(st.decisions_received);
            fp.push_u64(u64::from(st.resolved));
        }
        let mut pending = MultisetFp::new();
        self.queue.for_each_pending(|ev| {
            pending.insert(match ev {
                Ev::ComputeDone { worker } => 1 + *worker as u64,
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

    /// Handles one delivered event. Returns `false` when the receiver
    /// cannot resolve yet (or already has), in which case the straggler
    /// is not re-checked after this event.
    fn deliver<E, L: LatencyModel>(
        &mut self,
        t: usize,
        scheduled: Scheduled<Ev>,
        sim: &mut FullyDistributedSim<E, L>,
        ready_at: &mut [f64],
        sched: &mut dyn Scheduler,
    ) -> bool {
        let now = scheduled.time;
        match scheduled.event {
            Ev::ComputeDone { worker } => {
                self.compute_finished = self.compute_finished.max(now);
                // Line 4: broadcast (l_i, ᾱ_i) to all live peers.
                let payload = Payload::CostAndStepSize {
                    cost: self.local_costs[worker],
                    alpha: sim.local_alphas[worker],
                };
                for j in 0..self.down.len() {
                    if j == worker || self.down[j] {
                        continue;
                    }
                    self.send(
                        &mut sim.latency,
                        &sim.plan,
                        sched,
                        Message {
                            from: NodeId::Worker(worker),
                            to: NodeId::Worker(j),
                            round: t,
                            payload,
                        },
                    );
                }
            }
            Ev::Deliver(msg) => {
                let NodeId::Worker(me) = msg.to else {
                    unreachable!("no master in the fully-distributed protocol")
                };
                let NodeId::Worker(sender) = msg.from else {
                    unreachable!("no master in the fully-distributed protocol")
                };
                match msg.payload {
                    Payload::CostAndStepSize { cost, alpha } => {
                        let state = &mut self.states[me];
                        assert!(state.costs[sender].is_none(), "duplicate broadcast");
                        state.costs[sender] = Some(cost);
                        state.alphas[sender] = Some(alpha);
                        state.broadcasts_received += 1;
                    }
                    Payload::Decision { share } => {
                        let state = &mut self.states[me];
                        assert!(state.decisions[sender].is_none(), "duplicate decision");
                        state.decisions[sender] = Some(share);
                        state.decisions_received += 1;
                    }
                    _ => unreachable!("master-worker payload in Algorithm 2"),
                }
                // Try to resolve worker `me` (lines 5-13).
                let state = &self.states[me];
                if state.resolved || state.broadcasts_received < self.alive_count {
                    return false;
                }
                // Lines 5-7: every worker derives the same view (crashed
                // peers contribute no step size).
                let alpha_t =
                    state.alphas.iter().flatten().fold(f64::INFINITY, |acc, &a| acc.min(a));
                if me != self.straggler {
                    // Lines 8-10.
                    let updated =
                        assist_step(&self.fns[me], sim.shares[me], self.global_cost, alpha_t);
                    self.next_shares[me] = updated;
                    // Adopt the consensus step size so the round's minimum
                    // is replicated at every node — without this a crash
                    // of the historical-minimum holder would silently
                    // loosen later rounds' α, unlike the master-worker
                    // protocol whose master remembers every tightening.
                    self.next_alphas[me] = alpha_t;
                    self.send(
                        &mut sim.latency,
                        &sim.plan,
                        sched,
                        Message {
                            from: NodeId::Worker(me),
                            to: NodeId::Worker(self.straggler),
                            round: t,
                            payload: Payload::Decision { share: updated },
                        },
                    );
                    self.states[me].resolved = true;
                    self.resolved_count += 1;
                    ready_at[me] = now;
                    self.last_resolution_at = self.last_resolution_at.max(now);
                } else if state.decisions_received == self.alive_count - 1 {
                    // Lines 11-13; every live peer's decision is in
                    // `next_shares` (written before it was sent), crashed
                    // workers' shares sit there frozen.
                    let s_share = straggler_pin_with_guard(
                        &sim.shares,
                        &mut self.next_shares,
                        me,
                        !sched.sabotage_overshoot_guard(),
                    );
                    self.next_alphas[me] = tighten_alpha(alpha_t, self.member_count, s_share);
                    self.states[me].resolved = true;
                    self.resolved_count += 1;
                    ready_at[me] = now;
                    self.straggler_done_at = now;
                    self.last_resolution_at = self.last_resolution_at.max(now);
                }
            }
        }
        true
    }

    /// The straggler may have been waiting only on decisions that arrived
    /// before its last broadcast; re-check it.
    fn resolve_waiting_straggler<E, L>(
        &mut self,
        sim: &FullyDistributedSim<E, L>,
        ready_at: &mut [f64],
        sched: &mut dyn Scheduler,
    ) {
        let straggler = self.straggler;
        let s_state = &self.states[straggler];
        if s_state.resolved
            || s_state.broadcasts_received != self.alive_count
            || s_state.decisions_received != self.alive_count - 1
        {
            return;
        }
        let s_share = straggler_pin_with_guard(
            &sim.shares,
            &mut self.next_shares,
            straggler,
            !sched.sabotage_overshoot_guard(),
        );
        let alpha_t = s_state.alphas.iter().flatten().fold(f64::INFINITY, |acc, &a| acc.min(a));
        self.next_alphas[straggler] = tighten_alpha(alpha_t, self.member_count, s_share);
        self.states[straggler].resolved = true;
        self.resolved_count += 1;
        let now = self.queue.now();
        ready_at[straggler] = now;
        self.straggler_done_at = now;
        self.last_resolution_at = self.last_resolution_at.max(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{FixedLatency, JitteredLatency};
    use crate::master_worker::MasterWorkerSim;
    use dolbie_core::environment::{RotatingStragglerEnvironment, StaticLinearEnvironment};
    use dolbie_core::{run_episode, Dolbie, EpisodeOptions};

    #[test]
    fn message_count_is_quadratic() {
        for n in [2usize, 3, 5, 8] {
            let env = StaticLinearEnvironment::from_slopes((1..=n).map(|i| i as f64).collect());
            let mut sim = FullyDistributedSim::new(env, DolbieConfig::new(), FixedLatency::lan());
            let trace = sim.run(3);
            let expected = n * (n - 1) + (n - 1);
            for r in &trace.rounds {
                assert_eq!(r.messages, expected, "N = {n}");
            }
        }
    }

    #[test]
    fn trajectory_matches_sequential_and_master_worker() {
        let env = RotatingStragglerEnvironment::new(5, 4, 7.0, 1.0);
        let fd =
            FullyDistributedSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan()).run(40);
        let mw =
            MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan()).run(40);
        let mut sequential = Dolbie::new(5);
        let mut driver = env;
        let reference = run_episode(&mut sequential, &mut driver, EpisodeOptions::new(40));

        for ((f, m), r) in fd.rounds.iter().zip(&mw.rounds).zip(&reference.records) {
            assert!(
                f.allocation.l2_distance(&m.allocation) < 1e-9,
                "round {}: FD {} vs MW {}",
                f.round,
                f.allocation,
                m.allocation
            );
            assert!(f.allocation.l2_distance(&r.allocation) < 1e-9);
            assert_eq!(f.straggler, r.straggler);
        }
    }

    #[test]
    fn consensus_step_size_equals_master_worker_step_size() {
        // min_j ᾱ_{j,t} must track the master's α_t (see §IV-B.2); verify
        // indirectly through identical long-horizon trajectories on an
        // adversarial instance where α tightens repeatedly.
        let env = RotatingStragglerEnvironment::new(3, 1, 10.0, 0.5);
        let fd =
            FullyDistributedSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan()).run(60);
        let mw = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan()).run(60);
        let last_fd = fd.rounds.last().unwrap();
        let last_mw = mw.rounds.last().unwrap();
        assert!(last_fd.allocation.l2_distance(&last_mw.allocation) < 1e-9);
    }

    #[test]
    fn decisions_are_delay_invariant() {
        let env = StaticLinearEnvironment::from_slopes(vec![4.0, 1.0, 2.0, 3.0]);
        let a = FullyDistributedSim::new(env.clone(), DolbieConfig::new(), FixedLatency::instant())
            .run(15);
        let b = FullyDistributedSim::new(
            env,
            DolbieConfig::new(),
            JitteredLatency::new(FixedLatency::new(0.3, 1e4), 0.5, 99),
        )
        .run(15);
        for (x, y) in a.rounds.iter().zip(&b.rounds) {
            assert!(x.allocation.l2_distance(&y.allocation) < 1e-12);
        }
    }

    #[test]
    fn decisions_survive_lossy_links_unchanged() {
        let env = StaticLinearEnvironment::from_slopes(vec![4.0, 1.0, 2.0, 3.0]);
        let clean =
            FullyDistributedSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan()).run(15);
        let lossy = FullyDistributedSim::new(env, DolbieConfig::new(), FixedLatency::lan())
            .with_fault_plan(
                FaultPlan::seeded(7).with_drop_probability(0.25).with_duplicate_probability(0.05),
            )
            .run(15);
        for (a, b) in clean.rounds.iter().zip(&lossy.rounds) {
            assert!(a.allocation.l2_distance(&b.allocation) == 0.0, "round {}", a.round);
            assert_eq!(a.messages, b.messages, "logical counts agree");
        }
        assert!(lossy.total_retries() > 0);
        assert!(lossy.makespan() > clean.makespan());
    }

    #[test]
    fn byte_volume_exceeds_master_worker() {
        let env = StaticLinearEnvironment::from_slopes(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let fd =
            FullyDistributedSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan()).run(5);
        let mw = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan()).run(5);
        assert!(fd.total_bytes() > mw.total_bytes());
        assert!(fd.total_messages() > mw.total_messages());
    }

    #[test]
    fn crash_window_freezes_share_and_survivors_rebalance() {
        let env = StaticLinearEnvironment::from_slopes(vec![4.0, 1.0, 2.0, 1.5]);
        let trace = FullyDistributedSim::new(env, DolbieConfig::new(), FixedLatency::lan())
            .with_crash(Crash { worker: 2, from_round: 6, until_round: 14 })
            .run(25);
        let frozen = trace.rounds[6].allocation.share(2);
        for t in 6..14 {
            let r = &trace.rounds[t];
            assert!(!r.active[2], "round {t}");
            assert!((r.allocation.share(2) - frozen).abs() < 1e-12, "round {t}");
            let sum: f64 = r.allocation.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            // Fewer broadcasts while one worker is out: 3*2 + 2 messages.
            assert_eq!(r.messages, 3 * 2 + 2, "round {t}: {} messages", r.messages);
        }
        assert!(trace.rounds[24].active[2], "worker rejoined");
        // Crash-free rounds match master-worker semantics again.
        let sum: f64 = trace.rounds[24].allocation.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn crash_equivalence_with_master_worker() {
        // The two architectures implement the same recovery policy, so
        // their trajectories agree even through the crash window.
        let env = StaticLinearEnvironment::from_slopes(vec![5.0, 1.0, 2.0, 3.0, 1.2]);
        let crash = Crash { worker: 1, from_round: 4, until_round: 10 };
        let fd = FullyDistributedSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan())
            .with_crash(crash)
            .run(20);
        let mw = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan())
            .with_crash(crash)
            .run(20);
        for (f, m) in fd.rounds.iter().zip(&mw.rounds) {
            assert!(
                f.allocation.l2_distance(&m.allocation) < 1e-9,
                "round {}: FD {} vs MW {}",
                f.round,
                f.allocation,
                m.allocation
            );
        }
    }

    #[test]
    fn lone_survivor_round_freezes_and_continues() {
        // Two of three workers crash: the pre-fix simulator panicked on
        // `alive_count >= 2`; now the survivor carries its share through
        // the round and the cluster re-balances after recovery — the same
        // semantics as the master-worker protocol (asserted below).
        let env = StaticLinearEnvironment::from_slopes(vec![3.0, 1.0, 2.0]);
        let crash_a = Crash { worker: 0, from_round: 4, until_round: 7 };
        let crash_b = Crash { worker: 2, from_round: 4, until_round: 7 };
        let fd = FullyDistributedSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan())
            .with_crash(crash_a)
            .with_crash(crash_b)
            .run(12);
        let mw = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan())
            .with_crash(crash_a)
            .with_crash(crash_b)
            .run(12);
        for t in 4..7 {
            let r = &fd.rounds[t];
            assert_eq!(r.active, vec![false, true, false], "round {t}: only worker 1 participates");
            assert_eq!(r.straggler, 1, "a lone survivor is trivially the straggler");
            assert_eq!(r.messages, 0, "no peers, no protocol traffic");
            let sum: f64 = r.allocation.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(
                (r.allocation.share(1) - fd.rounds[4].allocation.share(1)).abs() < 1e-12,
                "round {t}: the survivor's share is stable while alone"
            );
        }
        for (f, m) in fd.rounds.iter().zip(&mw.rounds) {
            assert!(
                f.allocation.l2_distance(&m.allocation) < 1e-9,
                "round {}: FD and MW degrade identically",
                f.round
            );
        }
        assert!(fd.rounds[11].active.iter().all(|&a| a), "everyone rejoined");
    }

    #[test]
    #[should_panic(expected = "at least two workers")]
    fn single_worker_is_rejected() {
        let env = StaticLinearEnvironment::from_slopes(vec![1.0]);
        let _ = FullyDistributedSim::new(env, DolbieConfig::new(), FixedLatency::lan());
    }
}
