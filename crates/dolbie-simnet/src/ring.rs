//! A token-ring architecture for DOLBIE (extension).
//!
//! The paper gives two architectures: master-worker (`3N` messages,
//! constant protocol depth, single point of failure) and fully-distributed
//! (`~N²` messages, constant depth, no coordinator). This module adds a
//! third point in the design space — a leaderless **token ring** with
//! `O(N)` messages but `O(N)` protocol depth:
//!
//! - **pass 1 (aggregate)**: a token circulates `0 → 1 → … → N−1 → 0`,
//!   folding in each worker's local cost and local step size; when it
//!   returns, worker 0 knows `l_t`, `s_t`, and `α_t = min_j ᾱ_j` —
//!   exactly the quantities Algorithm 2 obtains by broadcast;
//! - **pass 2 (update)**: the token carries those scalars back around the
//!   ring; each non-straggler applies eq. (5) as the token passes and adds
//!   its new share to a running sum; back at worker 0, the straggler's
//!   remainder `1 − Σ` is known and delivered (eq. (6)); the straggler
//!   tightens its local step size per eq. (8).
//!
//! Because the ring accumulates shares in ascending worker order — the
//! same order the other implementations use — the trajectory is
//! *identical* to master-worker, fully-distributed, and the sequential
//! engine (tested). Total: `2N + 1` messages per round — `2N` when the
//! ring head (worker 0) is itself the straggler, since the final
//! assignment hop is not needed — `Θ(N)` bytes, but the decision phase
//! takes `2N` sequential hops instead of a constant number.
//!
//! Faults (extension): the simulator accepts the same
//! [`FaultPlan`] as the other architectures.
//! Crashed workers are spliced out of the ring — the token circulates
//! among the `A` survivors in ascending worker order, the lowest-indexed
//! survivor acts as the ring head, and the crashed workers' shares stay
//! frozen while the survivors rebalance the remainder (`2A + 1` messages,
//! `2A` when the head is the straggler). Lossy links retransmit with
//! ack/backoff, and membership collapse degrades gracefully exactly like
//! the other two architectures: a lone survivor keeps its share, an empty
//! membership freezes every share, and the run continues. The plan's cost
//! timeout is a coordinator-side concept and is ignored here.

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

/// The token-ring protocol simulator.
///
/// # Examples
///
/// ```
/// use dolbie_simnet::{FixedLatency, RingSim};
/// use dolbie_core::environment::StaticLinearEnvironment;
/// use dolbie_core::DolbieConfig;
///
/// let env = StaticLinearEnvironment::from_slopes(vec![1.0, 3.0, 2.0]);
/// let mut sim = RingSim::new(env, DolbieConfig::new(), FixedLatency::lan());
/// let trace = sim.run(10);
/// // 2N + 1 messages per round for N = 3 (one fewer when worker 0
/// // happens to be the straggler, as no assignment hop is needed).
/// assert_eq!(trace.rounds[0].messages, 7);
/// ```
#[derive(Debug, Clone)]
pub struct RingSim<E, L> {
    env: E,
    latency: L,
    shares: Vec<f64>,
    local_alphas: Vec<f64>,
    plan: FaultPlan,
    membership: MembershipSchedule,
}

impl<E: Environment, L: LatencyModel> RingSim<E, L> {
    /// Creates the simulator with the uniform initial partition.
    ///
    /// # Panics
    ///
    /// Panics if the environment has fewer than two workers.
    pub fn new(env: E, config: DolbieConfig, latency: L) -> Self {
        let n = env.num_workers();
        assert!(n >= 2, "the ring protocol needs at least two workers");
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

    /// Installs a membership schedule: at epoch boundaries the ring is
    /// rebuilt around the new member set (lowest-indexed member becomes the
    /// head), departing shares are redistributed proportionally, joiners
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

    /// Injects a crash window (extension): the worker is spliced out of
    /// the ring during `[from_round, until_round)`, its share frozen, and
    /// the token circulates among the survivors.
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

    /// Moves the simulator into a [`RingWorld`] poised at the start of a
    /// `rounds`-round run (see [`MasterWorkerWorld`](crate::MasterWorkerWorld)).
    pub fn into_world(self, rounds: usize) -> RingWorld<E, L> {
        let run = Run::new(self.shares.len(), rounds);
        RingWorld { sim: self, run }
    }
}

/// A token-ring run in progress; cloning it forks the run (see
/// [`MasterWorkerWorld`](crate::MasterWorkerWorld)).
#[derive(Debug, Clone)]
pub struct RingWorld<E, L> {
    sim: RingSim<E, L>,
    run: Run,
}

impl<E: Environment, L: LatencyModel> RingWorld<E, L> {
    /// Advances the run by one step under `sched`: opening the next round,
    /// or one event delivery (and closing the round it completes).
    /// Returns `false`, doing nothing, once the horizon is reached.
    ///
    /// # Panics
    ///
    /// As [`RingSim::run_with_scheduler`].
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

/// One round in flight: its inputs, the ring of survivors, the event
/// queue, and the token state.
#[derive(Debug, Clone)]
struct Round {
    fns: Arc<[DynCost]>,
    down: Vec<bool>,
    member_count: usize,
    local_costs: Vec<f64>,
    /// The lowest-indexed survivor: it originates the token and computes
    /// the straggler remainder.
    head: usize,
    /// Each survivor's successor on the ring.
    succ: Vec<usize>,
    queue: EventQueue<Ev>,
    computed: Vec<bool>,
    /// Pass-1 token state: held by `token_at` waiting for that worker's
    /// compute, or in flight as a message.
    pending_aggregate: Option<(usize, f64, usize, f64)>,
    next_shares: Vec<f64>,
    next_alphas: Vec<f64>,
    stats: LinkStats,
    compute_finished: f64,
    control_finished: f64,
    round_done: bool,
    global_cost: f64,
    straggler: usize,
    /// The consensus α the straggler saw on its pass-2 hop, applied when
    /// its assignment arrives.
    straggler_alpha: f64,
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
        ProtocolTrace { architecture: "ring", rounds: self.trace }
    }

    fn step<E: Environment, L: LatencyModel>(
        &mut self,
        sim: &mut RingSim<E, L>,
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

    fn fingerprint<E, L>(&self, sim: &RingSim<E, L>) -> Option<u64> {
        let round = self.round.as_ref().filter(|r| r.queue.len() > 1)?;
        Some(round.fingerprint(self.trace.len(), self.rounds, sim, &self.members))
    }

    /// Opens round `t`: the epoch boundary, the reveal, the crash
    /// decisions, the ring of survivors, and every survivor's execution.
    /// A round with at most one survivor is recorded on the spot.
    fn open<E: Environment, L: LatencyModel>(
        &mut self,
        t: usize,
        sim: &mut RingSim<E, L>,
        sched: &mut dyn Scheduler,
    ) {
        let n = sim.shares.len();
        // Epoch boundary: rebuild the ring around the new member set and
        // run the shared state transition.
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
        let alive: Vec<usize> = (0..n).filter(|&i| !down[i]).collect();
        let local_costs: Vec<f64> =
            (0..n).map(|i| if down[i] { 0.0 } else { fns[i].eval(sim.shares[i]) }).collect();
        if alive.is_empty() {
            // Membership collapsed: freeze every share and continue.
            let alpha = member_alpha(&sim.local_alphas, &self.members);
            self.trace.push(frozen_round(t, &sim.shares, local_costs, &self.ready_at, n, alpha));
            return;
        }
        if alive.len() == 1 {
            // A ring of one has no token to pass.
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

        // The ring of survivors, in ascending worker order.
        let head = alive[0];
        let mut succ = vec![usize::MAX; n];
        for (k, &w) in alive.iter().enumerate() {
            succ[w] = alive[(k + 1) % alive.len()];
        }

        // Two token passes around the ring of survivors plus each
        // survivor's compute-done marker.
        let mut queue: EventQueue<Ev> = EventQueue::with_capacity(3 * alive.len() + 1);
        for &i in &alive {
            queue.schedule(self.ready_at[i] + local_costs[i], Ev::ComputeDone { worker: i });
        }

        self.round = Some(Round {
            fns,
            down,
            member_count,
            local_costs,
            head,
            succ,
            queue,
            computed: vec![false; n],
            pending_aggregate: None,
            next_shares: sim.shares.clone(),
            next_alphas: sim.local_alphas.clone(),
            stats: LinkStats::default(),
            compute_finished: 0.0,
            control_finished: 0.0,
            round_done: false,
            global_cost: f64::MIN,
            straggler: 0,
            straggler_alpha: f64::INFINITY,
        });
    }

    /// Closes the open round `t`: records it and commits its shares and
    /// step sizes.
    fn close<E, L>(&mut self, t: usize, sim: &mut RingSim<E, L>) {
        let round = self.round.take().expect("an open round to close");
        assert!(round.round_done, "ring protocol deadlocked in round {t}");

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
        sim: &RingSim<E, L>,
        members: &[bool],
    ) -> u64 {
        let mut fp = StateFp::new(0xD01B_0002);
        fp.push_usize(t);
        fp.push_usize(rounds);
        fp.push_f64_slice(&sim.shares);
        fp.push_f64_slice(&sim.local_alphas);
        fp.push_f64_slice(&self.next_shares);
        fp.push_f64_slice(&self.next_alphas);
        fp.push_bool_slice(members);
        fp.push_bool_slice(&self.down);
        fp.push_bool_slice(&self.computed);
        match self.pending_aggregate {
            None => fp.push_u64(0),
            Some((held_by, max_cost, arg, min_alpha)) => {
                fp.push_u64(1);
                fp.push_usize(held_by);
                fp.push_f64(max_cost);
                fp.push_usize(arg);
                fp.push_f64(min_alpha);
            }
        }
        fp.push_f64(self.global_cost);
        fp.push_usize(self.straggler);
        fp.push_f64(self.straggler_alpha);
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

    /// Sends `payload` from worker `from` to worker `to`.
    #[allow(clippy::too_many_arguments)]
    fn send<L: LatencyModel>(
        &mut self,
        latency: &mut L,
        plan: &FaultPlan,
        sched: &mut dyn Scheduler,
        t: usize,
        from: usize,
        to: usize,
        payload: Payload,
    ) {
        let msg = Message { from: NodeId::Worker(from), to: NodeId::Worker(to), round: t, payload };
        let delay = latency.delay(&msg);
        assert!(delay >= 0.0, "latency model produced a negative delay");
        let outcome = plan.transmit_with(&msg, delay, sched);
        self.stats.record(&msg, &outcome);
        self.queue.schedule(self.queue.now() + outcome.delivery_delay, Ev::Deliver(msg));
    }

    /// Folds worker `me` into the pass-1 token and forwards it.
    fn forward_aggregate<E, L: LatencyModel>(
        &mut self,
        t: usize,
        me: usize,
        (max_cost, arg, min_alpha): (f64, usize, f64),
        sim: &mut RingSim<E, L>,
        sched: &mut dyn Scheduler,
    ) {
        let (max_cost, straggler) = if self.local_costs[me] > max_cost {
            (self.local_costs[me], me)
        } else {
            (max_cost, arg)
        };
        let min_alpha = min_alpha.min(sim.local_alphas[me]);
        let to = self.succ[me];
        self.send(
            &mut sim.latency,
            &sim.plan,
            sched,
            t,
            me,
            to,
            Payload::RingAggregate { max_cost, straggler, min_alpha },
        );
    }

    fn deliver<E, L: LatencyModel>(
        &mut self,
        t: usize,
        scheduled: Scheduled<Ev>,
        sim: &mut RingSim<E, L>,
        ready_at: &mut [f64],
        sched: &mut dyn Scheduler,
    ) {
        let now = scheduled.time;
        let head = self.head;
        match scheduled.event {
            Ev::ComputeDone { worker } => {
                self.compute_finished = self.compute_finished.max(now);
                self.computed[worker] = true;
                if worker == head {
                    // The head originates the aggregation token.
                    let payload = Payload::RingAggregate {
                        max_cost: self.local_costs[head],
                        straggler: head,
                        min_alpha: sim.local_alphas[head],
                    };
                    let to = self.succ[head];
                    self.send(&mut sim.latency, &sim.plan, sched, t, head, to, payload);
                } else if let Some((held_by, max_cost, arg, min_alpha)) =
                    self.pending_aggregate.take()
                {
                    // The token was parked here waiting for this worker's
                    // compute; fold and forward now.
                    if held_by == worker {
                        self.forward_aggregate(t, worker, (max_cost, arg, min_alpha), sim, sched);
                    } else {
                        self.pending_aggregate = Some((held_by, max_cost, arg, min_alpha));
                    }
                }
            }
            Ev::Deliver(msg) => {
                let NodeId::Worker(me) = msg.to else { unreachable!("the ring has no master") };
                match msg.payload {
                    Payload::RingAggregate { max_cost, straggler: arg, min_alpha } => {
                        if me == head {
                            // Pass 1 complete: the head knows the round
                            // scalars and starts pass 2 with its own eq. (5)
                            // update folded in.
                            self.global_cost = max_cost;
                            self.straggler = arg;
                            let alpha = min_alpha;
                            // Adopt the consensus step size so the round's
                            // minimum survives a later crash of whichever
                            // worker produced it (every node does this as
                            // the update token passes).
                            self.next_alphas[head] = alpha;
                            let mut sum = 0.0;
                            if self.straggler != head {
                                let updated = assist_step(
                                    &self.fns[head],
                                    sim.shares[head],
                                    self.global_cost,
                                    alpha,
                                );
                                self.next_shares[head] = updated;
                                ready_at[head] = now;
                                sum += updated;
                            }
                            let payload = Payload::RingUpdate {
                                global_cost: self.global_cost,
                                straggler: self.straggler,
                                alpha,
                                sum_shares: sum,
                            };
                            let to = self.succ[head];
                            self.send(&mut sim.latency, &sim.plan, sched, t, head, to, payload);
                        } else if self.computed[me] {
                            // Fold in and forward immediately.
                            self.forward_aggregate(t, me, (max_cost, arg, min_alpha), sim, sched);
                        } else {
                            // Park the token until this worker's compute
                            // completes.
                            self.pending_aggregate = Some((me, max_cost, arg, min_alpha));
                        }
                    }
                    Payload::RingUpdate { global_cost: l_t, straggler: s, alpha, sum_shares } => {
                        if me == head {
                            // Pass 2 complete: pin the straggler against
                            // the candidates the token collected (every
                            // live worker's update is in `next_shares` by
                            // now; crashed workers' shares sit there
                            // frozen).
                            let s_share = straggler_pin_with_guard(
                                &sim.shares,
                                &mut self.next_shares,
                                s,
                                !sched.sabotage_overshoot_guard(),
                            );
                            if s == head {
                                self.next_alphas[head] =
                                    tighten_alpha(alpha, self.member_count, s_share);
                                ready_at[head] = now;
                                self.control_finished = now;
                                self.round_done = true;
                            } else {
                                let payload = Payload::StragglerAssignment { share: s_share };
                                self.send(&mut sim.latency, &sim.plan, sched, t, head, s, payload);
                            }
                        } else {
                            let mut sum = sum_shares;
                            if me != s {
                                let updated =
                                    assist_step(&self.fns[me], sim.shares[me], l_t, alpha);
                                self.next_shares[me] = updated;
                                self.next_alphas[me] = alpha;
                                ready_at[me] = now;
                                sum += updated;
                            } else {
                                self.straggler_alpha = alpha;
                            }
                            let payload = Payload::RingUpdate {
                                global_cost: l_t,
                                straggler: s,
                                alpha,
                                sum_shares: sum,
                            };
                            let to = self.succ[me];
                            self.send(&mut sim.latency, &sim.plan, sched, t, me, to, payload);
                        }
                    }
                    Payload::StragglerAssignment { share } => {
                        assert!(
                            self.straggler_alpha.is_finite(),
                            "assignment must follow the update token"
                        );
                        self.next_shares[me] = share;
                        self.next_alphas[me] =
                            tighten_alpha(self.straggler_alpha, self.member_count, share);
                        ready_at[me] = now;
                        self.control_finished = now;
                        self.round_done = true;
                    }
                    _ => unreachable!("non-ring payload in the ring protocol"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::FixedLatency;
    use crate::master_worker::MasterWorkerSim;
    use dolbie_core::environment::{RotatingStragglerEnvironment, StaticLinearEnvironment};

    #[test]
    fn message_count_is_2n_plus_1() {
        for n in [2usize, 3, 5, 8] {
            let env = StaticLinearEnvironment::from_slopes((1..=n).map(|i| i as f64).collect());
            let mut sim = RingSim::new(env, DolbieConfig::new(), FixedLatency::lan());
            let trace = sim.run(4);
            for r in &trace.rounds {
                // 2N + 1, except when worker 0 is itself the straggler
                // (no final assignment hop): straggler 0 happens when it
                // has the max cost.
                let expected = if r.straggler == 0 { 2 * n } else { 2 * n + 1 };
                assert_eq!(r.messages, expected, "N = {n}, straggler {}", r.straggler);
            }
        }
    }

    #[test]
    fn message_count_is_exact_for_every_straggler_position() {
        // Engineer each straggler position in turn and assert the exact
        // count: 2N + 1 hops, minus the assignment hop when the head
        // (worker 0) is itself the straggler.
        let n = 5usize;
        for s in 0..n {
            let slopes: Vec<f64> =
                (0..n).map(|i| if i == s { 50.0 } else { 1.0 + 0.1 * i as f64 }).collect();
            let env = StaticLinearEnvironment::from_slopes(slopes);
            let trace = RingSim::new(env, DolbieConfig::new(), FixedLatency::lan()).run(1);
            let r = &trace.rounds[0];
            assert_eq!(r.straggler, s, "the engineered straggler position");
            let expected = if s == 0 { 2 * n } else { 2 * n + 1 };
            assert_eq!(r.messages, expected, "straggler at position {s}");
        }
    }

    #[test]
    fn trajectory_matches_master_worker() {
        let env = RotatingStragglerEnvironment::new(6, 4, 7.0, 1.0);
        let ring = RingSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan()).run(40);
        let mw = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan()).run(40);
        for (r, m) in ring.rounds.iter().zip(&mw.rounds) {
            assert!(
                r.allocation.l2_distance(&m.allocation) < 1e-9,
                "round {}: ring {} vs mw {}",
                r.round,
                r.allocation,
                m.allocation
            );
            assert!((r.global_cost - m.global_cost).abs() < 1e-9);
        }
    }

    #[test]
    fn control_depth_grows_with_ring_size() {
        // With constant per-hop latency and instant computes, the ring's
        // decision phase takes ~2N hops vs the master-worker's ~4.
        let hop = FixedLatency::new(0.01, f64::INFINITY);
        let sizes = [4usize, 16];
        let mut ring_overheads = Vec::new();
        let mut mw_overheads = Vec::new();
        for &n in &sizes {
            let env =
                StaticLinearEnvironment::from_slopes((1..=n).map(|i| 0.1 * i as f64).collect());
            let ring = RingSim::new(env.clone(), DolbieConfig::new(), hop).run(3);
            let mw = MasterWorkerSim::new(env, DolbieConfig::new(), hop).run(3);
            ring_overheads.push(ring.mean_control_overhead());
            mw_overheads.push(mw.mean_control_overhead());
        }
        // Ring overhead scales ~linearly with N; master-worker stays flat.
        assert!(
            ring_overheads[1] > ring_overheads[0] * 2.5,
            "ring overhead must grow with N: {ring_overheads:?}"
        );
        assert!(
            mw_overheads[1] < mw_overheads[0] * 2.0,
            "master-worker overhead must stay near-constant: {mw_overheads:?}"
        );
    }

    #[test]
    fn bytes_are_linear_in_n() {
        let n = 12;
        let env = StaticLinearEnvironment::from_slopes((1..=n).map(|i| i as f64).collect());
        let trace = RingSim::new(env, DolbieConfig::new(), FixedLatency::lan()).run(5);
        // 2N+1 messages of <= 44 bytes each.
        assert!(trace.rounds[0].bytes <= (2 * n + 1) * 44);
    }

    #[test]
    fn decisions_survive_lossy_links_unchanged() {
        let env = StaticLinearEnvironment::from_slopes(vec![4.0, 1.0, 2.0, 3.0]);
        let clean = RingSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan()).run(15);
        let lossy = RingSim::new(env, DolbieConfig::new(), FixedLatency::lan())
            .with_fault_plan(
                FaultPlan::seeded(11).with_drop_probability(0.25).with_duplicate_probability(0.05),
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
    fn crash_splices_worker_out_of_the_ring() {
        let env = StaticLinearEnvironment::from_slopes(vec![4.0, 1.0, 2.0, 1.5]);
        let trace = RingSim::new(env, DolbieConfig::new(), FixedLatency::lan())
            .with_crash(Crash { worker: 2, from_round: 6, until_round: 14 })
            .run(25);
        let frozen = trace.rounds[6].allocation.share(2);
        for t in 6..14 {
            let r = &trace.rounds[t];
            assert!(!r.active[2], "round {t}");
            assert!((r.allocation.share(2) - frozen).abs() < 1e-12, "round {t}");
            let sum: f64 = r.allocation.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            // The token circulates among A = 3 survivors: 2A hops plus
            // the assignment hop unless the head is the straggler.
            let expected = if r.straggler == 0 { 6 } else { 7 };
            assert_eq!(r.messages, expected, "round {t}");
        }
        assert!(trace.rounds[24].active[2], "worker rejoined");
    }

    #[test]
    fn crashed_head_hands_the_ring_to_the_next_survivor() {
        // Worker 0 (the usual head/originator) crashes: worker 1 must
        // take over token origination and remainder computation.
        let env = StaticLinearEnvironment::from_slopes(vec![4.0, 1.0, 2.0, 1.5]);
        let crash = Crash { worker: 0, from_round: 3, until_round: 8 };
        let ring = RingSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan())
            .with_crash(crash)
            .run(15);
        let mw = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan())
            .with_crash(crash)
            .run(15);
        for t in 3..8 {
            let r = &ring.rounds[t];
            assert!(!r.active[0], "round {t}");
            let sum: f64 = r.allocation.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        for (r, m) in ring.rounds.iter().zip(&mw.rounds) {
            assert!(
                r.allocation.l2_distance(&m.allocation) < 1e-9,
                "round {}: ring and MW degrade identically",
                r.round
            );
        }
    }

    #[test]
    fn crash_equivalence_with_master_worker() {
        let env = StaticLinearEnvironment::from_slopes(vec![5.0, 1.0, 2.0, 3.0, 1.2]);
        let crash = Crash { worker: 1, from_round: 4, until_round: 10 };
        let ring = RingSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan())
            .with_crash(crash)
            .run(20);
        let mw = MasterWorkerSim::new(env, DolbieConfig::new(), FixedLatency::lan())
            .with_crash(crash)
            .run(20);
        for (r, m) in ring.rounds.iter().zip(&mw.rounds) {
            assert!(
                r.allocation.l2_distance(&m.allocation) < 1e-9,
                "round {}: ring {} vs mw {}",
                r.round,
                r.allocation,
                m.allocation
            );
        }
    }

    #[test]
    fn lone_survivor_and_empty_membership_freeze_and_continue() {
        let env = StaticLinearEnvironment::from_slopes(vec![3.0, 1.0, 2.0]);
        let trace = RingSim::new(env, DolbieConfig::new(), FixedLatency::lan())
            .with_crash(Crash { worker: 0, from_round: 4, until_round: 7 })
            .with_crash(Crash { worker: 2, from_round: 4, until_round: 7 })
            .with_crash(Crash { worker: 1, from_round: 5, until_round: 6 })
            .run(12);
        // Round 4 and 6: one survivor; round 5: nobody alive.
        for t in [4usize, 6] {
            let r = &trace.rounds[t];
            assert_eq!(r.active, vec![false, true, false], "round {t}");
            assert_eq!(r.messages, 0, "round {t}: a ring of one passes no token");
            let sum: f64 = r.allocation.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        let dead = &trace.rounds[5];
        assert!(dead.active.iter().all(|&a| !a));
        assert_eq!(dead.messages, 0);
        let sum: f64 = dead.allocation.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "frozen shares stay feasible");
        // The lone survivor keeps its share for the whole collapse window
        // (a ring of one has nobody to rebalance with), and the frozen
        // peers' shares come out of it untouched.
        for w in 0..3 {
            for t in 5..7 {
                assert!(
                    (trace.rounds[t].allocation.share(w) - trace.rounds[4].allocation.share(w))
                        .abs()
                        < 1e-12,
                    "round {t}: worker {w}'s share drifted during the collapse"
                );
            }
        }
        assert!(trace.rounds[11].active.iter().all(|&a| a), "everyone rejoined");
        let mut prev = f64::INFINITY;
        for r in &trace.rounds {
            assert!(r.alpha <= prev, "round {}: alpha rose through collapse", r.round);
            prev = r.alpha;
        }
    }

    #[test]
    #[should_panic(expected = "at least two workers")]
    fn single_worker_is_rejected() {
        let env = StaticLinearEnvironment::from_slopes(vec![1.0]);
        let _ = RingSim::new(env, DolbieConfig::new(), FixedLatency::lan());
    }
}
