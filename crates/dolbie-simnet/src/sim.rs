//! The simulator skeleton the architectures share.
//!
//! Master-worker (Algorithm 1), fully-distributed (Algorithm 2) and the
//! token ring differ only in the messages a round exchanges. Everything
//! around those messages is written once here:
//!
//! - the builder ([`Sim::new`], [`Sim::with_membership`],
//!   [`Sim::with_fault_plan`], [`Sim::with_crash`]) and the run entry
//!   points ([`Sim::run`], [`Sim::run_with_scheduler`],
//!   [`Sim::into_world`]);
//! - the `Clone` [`World`] the model checker steps and forks;
//! - each round's prelude: the membership boundary (the epoch transition
//!   and the survivors' crash-detection delay), the reveal, the crash
//!   coins in worker order, the live workers' local costs, and the
//!   rounds recorded on the spot — nobody alive, or a leaderless
//!   architecture's lone survivor;
//! - the round driver: the state fingerprint before each delivery
//!   choice, the scheduled dequeue, and the close with its deadlock
//!   check and trace record;
//! - `send`, through the latency model and the fault plan's retry
//!   envelope.
//!
//! An architecture implements [`Protocol`]: its round state, how a round
//! seeds its queue, how it handles one event, and the fields it adds to
//! the state fingerprint. The shard tier
//! ([`ShardedSim`](crate::ShardedSim)) shares the builder and the prelude
//! through [`Architecture`] and keeps its own run loop.

use crate::coordinator::{frozen_round, lone_survivor_round, member_alpha};
use crate::event::{EventQueue, Scheduled};
use crate::faults::{Crash, FaultPlan, LinkStats};
use crate::latency::LatencyModel;
use crate::membership::{epoch_transition, MembershipSchedule, DEFAULT_DETECTION_TIMEOUT};
use crate::message::Message;
use crate::sched::{pop_with, DecisionPoint, FifoScheduler, Scheduler};
use crate::trace::{ProtocolRound, ProtocolTrace};
use dolbie_core::cost::DynCost;
use dolbie_core::fingerprint::{MultisetFp, StateFp};
use dolbie_core::{Allocation, DolbieConfig, Environment};
use std::fmt::Debug;
use std::sync::Arc;

/// What the shared builder and round prelude need to know about an
/// architecture.
pub trait Architecture {
    /// The architecture's name, as its traces record it.
    const NAME: &'static str;
    /// Whether every worker keeps its own step size `ᾱ_i` (the
    /// fully-distributed and ring protocols) instead of one coordinator
    /// keeping `α`. A leaderless architecture needs at least two
    /// workers, syncs the outgoing members' step sizes at an epoch
    /// boundary, reports the members' minimum, and plays a round with
    /// one survivor without messages.
    const LEADERLESS: bool;

    /// The step-size state: `[α]` at a coordinator, or every worker's
    /// `ᾱ_i` (leaderless).
    type Alphas: AsRef<[f64]> + AsMut<[f64]> + Clone + Debug + Send + Sync;

    /// The step-size state of `n` workers starting at `alpha`.
    fn alphas(n: usize, alpha: f64) -> Self::Alphas;
}

/// An event-driven architecture: the messages of its round, on the
/// shared skeleton. Implemented by the three protocol simulators of this
/// crate.
pub trait Protocol: Architecture + Clone + Debug + Default {
    /// The domain tag of the architecture's state fingerprint.
    const FINGERPRINT_TAG: u64;

    /// The architecture's own state in an open round.
    type State: Clone + Debug + Send + Sync;

    /// Starts an opened round (its shared fields set, its queue empty):
    /// schedules every live worker's execution, and any timer, and
    /// returns the round's state, built in the buffers of `spare` (the
    /// state of the run's last closed round, if any) where it can.
    fn open<L: LatencyModel, S: Scheduler + ?Sized>(
        round: &mut Round<Self>,
        spare: Option<Self::State>,
        cx: &mut Cx<'_, L, S>,
    ) -> Self::State;

    /// Handles one event of the round, setting `round.done` once the
    /// round is complete.
    fn deliver<L: LatencyModel, S: Scheduler + ?Sized>(
        round: &mut Round<Self>,
        state: &mut Self::State,
        event: Scheduled<Ev>,
        cx: &mut Cx<'_, L, S>,
    );

    /// Pushes the architecture's fields of the state fingerprint, which
    /// the skeleton brackets between the round, the horizon and the
    /// committed shares before, and the pending events after. `alphas`
    /// is the committed step-size state.
    fn fingerprint(
        fp: &mut StateFp,
        round: &Round<Self>,
        state: &Self::State,
        alphas: &[f64],
        members: &[bool],
    );

    /// The workers the closed round records as active: by default every
    /// live one.
    fn active(round: &Round<Self>, state: &Self::State) -> Vec<bool> {
        let _ = state;
        round.down.iter().map(|&c| !c).collect()
    }
}

/// An event in a round's queue.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// A worker finished executing its share.
    ComputeDone {
        /// The worker.
        worker: usize,
    },
    /// A message arrives.
    Deliver(Message),
    /// The master's cost deadline (master-worker with a cost timeout).
    CostTimeout,
}

/// One round in flight: what every architecture's round holds.
#[derive(Debug, Clone)]
pub struct Round<A: Architecture> {
    pub(crate) t: usize,
    pub(crate) fns: Arc<[DynCost]>,
    pub(crate) down: Vec<bool>,
    pub(crate) alive_count: usize,
    pub(crate) member_count: usize,
    pub(crate) local_costs: Vec<f64>,
    pub(crate) queue: EventQueue<Ev>,
    pub(crate) stats: LinkStats,
    /// The round's update, committed at the close.
    pub(crate) next_shares: Vec<f64>,
    /// The step-size state's update, committed at the close.
    pub(crate) next_alphas: A::Alphas,
    pub(crate) global_cost: f64,
    pub(crate) straggler: usize,
    pub(crate) compute_finished: f64,
    pub(crate) control_finished: f64,
    /// Set by the handler that completes the round.
    pub(crate) done: bool,
}

/// What a handler may touch outside its round: the links and the
/// scheduler it sends with, the committed shares and step sizes it
/// reads, and the per-worker clocks it advances.
pub struct Cx<'a, L, S: ?Sized> {
    pub(crate) latency: &'a mut L,
    pub(crate) plan: &'a FaultPlan,
    pub(crate) sched: &'a mut S,
    pub(crate) shares: &'a [f64],
    pub(crate) alphas: &'a [f64],
    /// Per-worker time at which it may begin executing the next round.
    pub(crate) ready_at: &'a mut [f64],
}

impl<A: Architecture> Round<A> {
    /// Sends `msg`: its latency, the fault plan's retry envelope (each
    /// wire coin a scheduler decision), the round's link statistics, and
    /// its delivery event.
    pub(crate) fn send<L: LatencyModel, S: Scheduler + ?Sized>(
        &mut self,
        cx: &mut Cx<'_, L, S>,
        msg: Message,
    ) {
        let delay = cx.latency.delay(&msg);
        assert!(delay >= 0.0, "latency model produced a negative delay");
        let outcome = cx.plan.transmit_with(&msg, delay, cx.sched);
        self.stats.record(&msg, &outcome);
        self.queue.schedule(self.queue.now() + outcome.delivery_delay, Ev::Deliver(msg));
    }
}

/// A closed round's buffers, for the next round to reuse: its event
/// queue, its `down` mask and the architecture's round state `S`.
#[derive(Debug)]
pub(crate) struct Spare<S = ()> {
    queue: EventQueue<Ev>,
    down: Vec<bool>,
    state: Option<S>,
}

impl<S> Default for Spare<S> {
    fn default() -> Self {
        Self { queue: EventQueue::new(), down: Vec::new(), state: None }
    }
}

/// A protocol simulator: the environment, the latency model, the
/// committed shares and step sizes, the fault plan and the membership
/// schedule of architecture `A`.
#[derive(Debug, Clone)]
pub struct Sim<A: Architecture, E, L> {
    pub(crate) arch: A,
    pub(crate) env: E,
    pub(crate) latency: L,
    pub(crate) shares: Vec<f64>,
    pub(crate) alphas: A::Alphas,
    pub(crate) plan: FaultPlan,
    pub(crate) membership: MembershipSchedule,
}

impl<A: Architecture, E: Environment, L: LatencyModel> Sim<A, E, L> {
    /// The simulator with the uniform initial partition and `α_1` at
    /// every holder of a step size.
    pub(crate) fn build(env: E, config: DolbieConfig, latency: L, arch: A) -> Self {
        let n = env.num_workers();
        if A::LEADERLESS {
            assert!(n >= 2, "the {} protocol needs at least two workers", A::NAME);
        }
        let initial = Allocation::uniform(n);
        let alpha = config.resolve_initial_alpha(&initial);
        Self {
            arch,
            env,
            latency,
            shares: initial.into_inner(),
            alphas: A::alphas(n, alpha),
            plan: FaultPlan::none(),
            membership: MembershipSchedule::none(),
        }
    }

    /// Installs a membership schedule: at scheduled epoch boundaries
    /// workers leave (their shares redistributed proportionally onto the
    /// remaining members) or (re)join at share zero, every step size
    /// shrinks to the cap re-derived against the new member count, and
    /// the architecture rebuilds its topology around the new member set.
    /// Replaces any schedule set earlier.
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
    /// links). Only the master-worker coordinator enforces the cost
    /// timeout; every architecture charges it (or
    /// [`DEFAULT_DETECTION_TIMEOUT`]) to the survivors' clocks when a
    /// membership departure is crash-detected. Replaces any plan set
    /// earlier.
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
    /// survivors balance without it.
    ///
    /// # Panics
    ///
    /// Panics if the worker index is out of range.
    pub fn with_crash(mut self, crash: Crash) -> Self {
        assert!(crash.worker < self.shares.len(), "crash worker out of range");
        self.plan.crashes.push(crash);
        self
    }

    /// Opens round `t` up to the architecture's own messages: the epoch
    /// boundary, the reveal, the crash decisions and the live workers'
    /// local costs, in buffers taken from `spare`. A round nobody can
    /// play — or, leaderless, only one worker — is recorded on the spot
    /// and `None` returned.
    pub(crate) fn open_round<S: Scheduler + ?Sized, St>(
        &mut self,
        t: usize,
        members: &mut [bool],
        ready_at: &mut [f64],
        trace: &mut Vec<ProtocolRound>,
        spare: &mut Spare<St>,
        sched: &mut S,
    ) -> Option<Round<A>> {
        let n = self.shares.len();
        // Epoch boundary: apply scheduled leaves/joins, re-normalize onto
        // the new member simplex, shrink the step sizes to the re-derived
        // cap.
        let previous = A::LEADERLESS.then(|| members.to_vec());
        let boundary = self.membership.apply_round_sched(t, members, sched);
        if boundary.changed {
            // A coordinator's one α syncs against itself.
            let previous = previous.as_deref().unwrap_or(&[true]);
            epoch_transition(&mut self.shares, self.alphas.as_mut(), previous, members);
            if boundary.crash_detected {
                // Survivors discover the departure via timeout.
                let detection = self.plan.cost_timeout.unwrap_or(DEFAULT_DETECTION_TIMEOUT);
                for (r, &m) in ready_at.iter_mut().zip(members.iter()) {
                    if m {
                        *r += detection;
                    }
                }
            }
        }
        let member_count = members.iter().filter(|&&m| m).count();

        let fns = self.env.reveal_shared(t);
        assert_eq!(fns.len(), n, "environment must cover every worker");
        let mut down = std::mem::take(&mut spare.down);
        down.clear();
        down.extend((0..n).map(|i| {
            !members[i]
                || (self.plan.crashed(i, t)
                    && sched.decide(DecisionPoint::Crash { worker: i, round: t }, true))
        }));
        let alive_count = down.iter().filter(|&&c| !c).count();
        let local_costs: Vec<f64> =
            (0..n).map(|i| if down[i] { 0.0 } else { fns[i].eval(self.shares[i]) }).collect();
        if alive_count == 0 {
            // Membership collapsed: freeze every share and continue.
            let alpha = reported_alpha::<A>(self.alphas.as_ref(), members);
            trace.push(frozen_round(t, &self.shares, local_costs, ready_at, n, alpha));
            spare.down = down;
            return None;
        }
        if A::LEADERLESS && alive_count == 1 {
            // No peer to coordinate with.
            trace.push(lone_survivor_round(
                t,
                &mut self.shares,
                self.alphas.as_mut(),
                local_costs,
                ready_at,
                &down,
                members,
            ));
            spare.down = down;
            return None;
        }
        Some(Round {
            t,
            fns,
            down,
            alive_count,
            member_count,
            local_costs,
            queue: std::mem::take(&mut spare.queue),
            stats: LinkStats::default(),
            next_shares: self.shares.clone(),
            next_alphas: self.alphas.clone(),
            global_cost: f64::MIN,
            straggler: 0,
            compute_finished: 0.0,
            control_finished: 0.0,
            done: false,
        })
    }
}

/// The α a round reports: the coordinator's, or the members' minimum.
fn reported_alpha<A: Architecture>(alphas: &[f64], members: &[bool]) -> f64 {
    if A::LEADERLESS {
        member_alpha(alphas, members)
    } else {
        alphas[0]
    }
}

impl<P: Protocol, E: Environment, L: LatencyModel> Sim<P, E, L> {
    /// Creates the simulator with the uniform initial partition; every
    /// holder of a step size starts at `α_1`.
    ///
    /// # Panics
    ///
    /// Panics if a leaderless architecture (fully-distributed, ring) gets
    /// fewer than two workers: a one-worker system has no protocol to
    /// run.
    pub fn new(env: E, config: DolbieConfig, latency: L) -> Self {
        Self::build(env, config, latency, P::default())
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

    /// Moves the simulator into a [`World`] poised at the start of a
    /// `rounds`-round run. Stepping the world to its end under a
    /// scheduler yields exactly the trace
    /// [`run_with_scheduler`](Self::run_with_scheduler) returns under it.
    pub fn into_world(self, rounds: usize) -> World<P, E, L> {
        let run = Run::new(self.shares.len(), rounds);
        World { sim: self, run }
    }
}

/// A run in progress: the simulator plus everything its run keeps
/// between two steps (the trace so far, the per-worker clocks, the
/// membership view, and the open round's event queue, protocol state and
/// revealed cost functions).
///
/// Cloning a world forks the run: both copies continue from the same
/// state, and the clone shares the open round's cost functions instead
/// of revealing the environment again. The model checker forks worlds
/// so that a run branching late need not re-simulate its shared prefix.
#[derive(Debug, Clone)]
pub struct World<P: Protocol, E, L> {
    sim: Sim<P, E, L>,
    run: Run<P>,
}

impl<P: Protocol, E: Environment, L: LatencyModel> World<P, E, L> {
    /// Advances the run by one step under `sched`: opening the next round
    /// (its membership and crash decisions), or one event delivery (and
    /// closing the round it completes). Returns `false`, doing nothing,
    /// once the horizon is reached.
    ///
    /// # Panics
    ///
    /// As [`Sim::run_with_scheduler`].
    pub fn step<S: Scheduler + ?Sized>(&mut self, sched: &mut S) -> bool {
        self.run.step(&mut self.sim, sched)
    }

    /// The canonical fingerprint of the run's continuation-determining
    /// state (times excluded) that the next [`step`](Self::step) reports
    /// to a state-observing scheduler: `Some` exactly when that step
    /// makes a delivery choice. Lets a caller read the state at a step
    /// boundary before deciding what to do there; a scheduler that
    /// received it should decline to observe it again.
    pub fn fingerprint(&self) -> Option<u64> {
        let run = &self.run;
        let (round, state) = run.round.as_ref().filter(|(r, _)| r.queue.len() > 1)?;
        Some(fingerprint::<P, E, L>(round, state, &self.sim, run.rounds, &run.members))
    }

    /// The trace of the rounds completed so far.
    pub fn into_trace(self) -> ProtocolTrace {
        self.run.into_trace()
    }
}

/// The state a run keeps between steps, apart from the simulator.
#[derive(Debug)]
struct Run<P: Protocol> {
    rounds: usize,
    /// The completed rounds, with room for the whole horizon.
    trace: Vec<ProtocolRound>,
    /// Per-worker time at which it may begin executing the round.
    ready_at: Vec<f64>,
    /// Active membership view (epoch state, distinct from crash windows).
    members: Vec<bool>,
    /// The open round, if any.
    round: Option<(Round<P>, P::State)>,
    /// The last closed round's buffers, for the next round to reuse.
    spare: Spare<P::State>,
}

impl<P: Protocol> Run<P> {
    fn new(n: usize, rounds: usize) -> Self {
        Self {
            rounds,
            trace: Vec::with_capacity(rounds),
            ready_at: vec![0.0f64; n],
            members: vec![true; n],
            round: None,
            spare: Spare::default(),
        }
    }

    fn into_trace(self) -> ProtocolTrace {
        ProtocolTrace { architecture: P::NAME, rounds: self.trace }
    }

    fn step<E: Environment, L: LatencyModel, S: Scheduler + ?Sized>(
        &mut self,
        sim: &mut Sim<P, E, L>,
        sched: &mut S,
    ) -> bool {
        let t = self.trace.len();
        let Some((round, state)) = &mut self.round else {
            if t == self.rounds {
                return false;
            }
            let (members, ready_at, trace) =
                (&mut self.members, &mut self.ready_at, &mut self.trace);
            if let Some(mut round) =
                sim.open_round(t, members, ready_at, trace, &mut self.spare, sched)
            {
                let spare = self.spare.state.take();
                let state = P::open(&mut round, spare, &mut cx(sim, &mut self.ready_at, sched));
                self.round = Some((round, state));
            }
            return true;
        };
        // Fingerprint the full continuation-determining state before each
        // genuine delivery choice (len > 1), so an exploring scheduler can
        // prune revisited states. The FIFO scheduler declines
        // (`wants_state`), costing the uncontrolled sims nothing.
        if round.queue.len() > 1 && sched.wants_state() {
            let fp = fingerprint::<P, E, L>(round, state, sim, self.rounds, &self.members);
            sched.observe_state(fp);
        }
        let drained = match pop_with(&mut round.queue, sched) {
            Some(event) => {
                P::deliver(round, state, event, &mut cx(sim, &mut self.ready_at, sched));
                false
            }
            None => true,
        };
        if drained || round.done {
            self.close(sim);
        }
        true
    }

    /// Closes the open round: records it and commits its shares and step
    /// sizes.
    fn close<E, L>(&mut self, sim: &mut Sim<P, E, L>) {
        let (round, state) = self.round.take().expect("an open round to close");
        let t = round.t;
        assert!(round.done, "{} protocol deadlocked in round {t}", P::NAME);
        let alpha = reported_alpha::<P>(round.next_alphas.as_ref(), &self.members);
        let active = P::active(&round, &state);

        // The shares executed this round go to the record; the round's
        // update becomes the simulator's.
        let executed = std::mem::replace(&mut sim.shares, round.next_shares);
        let executed = Allocation::from_update(executed).expect("protocol preserves feasibility");
        let mut queue = round.queue;
        queue.clear();
        self.spare.queue = queue;
        self.spare.down = round.down;
        self.spare.state = Some(state);
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
            active,
            alpha,
        });
        sim.alphas = round.next_alphas;
    }
}

impl<P: Protocol> Clone for Run<P> {
    /// Copies the run for a fork. The copy's trace has room for the whole
    /// horizon, so recording its next round does not regrow it; the
    /// spare buffers stay behind, since the copy's open round has its own.
    fn clone(&self) -> Self {
        let mut trace = Vec::with_capacity(self.rounds);
        trace.extend_from_slice(&self.trace);
        Self {
            rounds: self.rounds,
            trace,
            ready_at: self.ready_at.clone(),
            members: self.members.clone(),
            round: self.round.clone(),
            spare: Spare::default(),
        }
    }
}

/// A handler's context over `sim`'s fields and the run's clocks.
fn cx<'a, A: Architecture, E, L, S: ?Sized>(
    sim: &'a mut Sim<A, E, L>,
    ready_at: &'a mut [f64],
    sched: &'a mut S,
) -> Cx<'a, L, S> {
    Cx {
        latency: &mut sim.latency,
        plan: &sim.plan,
        sched,
        shares: &sim.shares,
        alphas: sim.alphas.as_ref(),
        ready_at,
    }
}

/// The open round's state fingerprint: the round, the horizon and the
/// committed shares, the architecture's fields, then the pending events
/// as a multiset.
fn fingerprint<P: Protocol, E, L>(
    round: &Round<P>,
    state: &P::State,
    sim: &Sim<P, E, L>,
    rounds: usize,
    members: &[bool],
) -> u64 {
    let mut fp = StateFp::new(P::FINGERPRINT_TAG);
    fp.push_usize(round.t);
    fp.push_usize(rounds);
    fp.push_f64_slice(&sim.shares);
    P::fingerprint(&mut fp, round, state, sim.alphas.as_ref(), members);
    let mut pending = MultisetFp::new();
    round.queue.for_each_pending(|ev| {
        pending.insert(match ev {
            Ev::ComputeDone { worker } => 1 + *worker as u64,
            Ev::CostTimeout => 0,
            Ev::Deliver(msg) => msg.fingerprint(),
        });
    });
    fp.push_u64(pending.finish());
    fp.finish()
}
