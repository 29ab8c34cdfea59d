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
//! accepts a shared [`FaultPlan`](crate::FaultPlan) — worker
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

use crate::coordinator::{assist_step, elect_straggler, straggler_pin_with_guard, tighten_alpha};
use crate::event::Scheduled;
use crate::latency::LatencyModel;
use crate::message::{Message, NodeId, Payload};
use crate::sched::Scheduler;
use crate::sim::{Architecture, Cx, Ev, Protocol, Round, Sim, World};
use dolbie_core::fingerprint::StateFp;
use dolbie_core::Environment;

pub use crate::faults::Crash;

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
pub type MasterWorkerSim<E, L> = Sim<MasterWorker, E, L>;

/// A master-worker run in progress; cloning it forks the run (see
/// [`World`]).
pub type MasterWorkerWorld<E, L> = World<MasterWorker, E, L>;

/// Algorithm 1: a master coordinates the workers and keeps the one `α`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MasterWorker;

impl Architecture for MasterWorker {
    const NAME: &'static str = "master-worker";
    const LEADERLESS: bool = false;
    type Alphas = [f64; 1];

    fn alphas(_n: usize, alpha: f64) -> [f64; 1] {
        [alpha]
    }
}

impl<E: Environment, L: LatencyModel> MasterWorkerSim<E, L> {
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
}

/// The master's state in an open master-worker round.
#[derive(Debug, Clone)]
pub struct MasterState {
    /// What the master holds from each worker this round: one record per
    /// worker, in the buffer of the run's last closed round, so a run
    /// and a fork allocate it once.
    workers: Vec<Report>,
    costs_count: usize,
    coordination_sent: bool,
    decisions_count: usize,
    expected_decisions: usize,
}

/// What the master holds from one worker in an open round.
#[derive(Debug, Clone, Copy, Default)]
struct Report {
    cost_received: bool,
    /// Reported in time to take part in the decision phase.
    participant: bool,
    /// Alive but shut out by the cost timeout this round.
    excluded: bool,
    decision: Option<f64>,
}

impl Protocol for MasterWorker {
    const FINGERPRINT_TAG: u64 = 0xD01B_0001;
    type State = MasterState;

    fn open<L: LatencyModel, S: Scheduler + ?Sized>(
        round: &mut Round<MasterWorker>,
        spare: Option<MasterState>,
        cx: &mut Cx<'_, L, S>,
    ) -> MasterState {
        let n = round.down.len();
        // A full round is cost + share + ack per live worker, plus retries
        // and an optional timeout; reserve up front so the heap never
        // reallocates mid-round.
        round.queue.reserve(3 * round.alive_count + 1);
        let mut round_base = 0.0f64;
        for i in 0..n {
            if round.down[i] {
                continue;
            }
            let done = cx.ready_at[i] + round.local_costs[i];
            round.queue.schedule(done, Ev::ComputeDone { worker: i });
            round_base = round_base.max(cx.ready_at[i]);
        }
        if let Some(timeout) = cx.plan.cost_timeout {
            round.queue.schedule(round_base + timeout, Ev::CostTimeout);
        }
        let mut workers = spare.map(|st| st.workers).unwrap_or_default();
        workers.clear();
        workers.resize(n, Report::default());
        MasterState {
            workers,
            costs_count: 0,
            coordination_sent: false,
            decisions_count: 0,
            expected_decisions: usize::MAX,
        }
    }

    fn deliver<L: LatencyModel, S: Scheduler + ?Sized>(
        round: &mut Round<MasterWorker>,
        st: &mut MasterState,
        scheduled: Scheduled<Ev>,
        cx: &mut Cx<'_, L, S>,
    ) {
        let t = round.t;
        match scheduled.event {
            Ev::ComputeDone { worker } => {
                if st.workers[worker].excluded {
                    // Already accounted at exclusion time; the worker
                    // knows the round moved on without it and reports
                    // nothing.
                    return;
                }
                round.compute_finished = round.compute_finished.max(scheduled.time);
                // Line 4: share the local cost with the master.
                let cost = round.local_costs[worker];
                let payload = Payload::LocalCost { cost };
                let msg =
                    Message { from: NodeId::Worker(worker), to: NodeId::Master, round: t, payload };
                round.send(cx, msg);
            }
            Ev::CostTimeout => {
                if !st.coordination_sent && st.costs_count >= 1 {
                    st.coordinate(round, cx);
                }
            }
            Ev::Deliver(msg) => match msg.payload {
                Payload::LocalCost { .. } => {
                    let NodeId::Worker(i) = msg.from else {
                        unreachable!("only workers report costs")
                    };
                    if st.coordination_sent {
                        // Late report after the timeout: the worker sat
                        // this round out.
                        return;
                    }
                    assert!(!st.workers[i].cost_received, "duplicate cost report");
                    st.workers[i].cost_received = true;
                    st.costs_count += 1;
                    if st.costs_count == round.alive_count {
                        st.coordinate(round, cx);
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
                    let updated = assist_step(&round.fns[i], cx.shares[i], l_t, alpha);
                    let payload = Payload::Decision { share: updated };
                    let msg =
                        Message { from: NodeId::Worker(i), to: NodeId::Master, round: t, payload };
                    round.send(cx, msg);
                    // The worker may start the next round as soon as it
                    // committed to its own share.
                    cx.ready_at[i] = scheduled.time;
                }
                Payload::Decision { share } => {
                    let NodeId::Worker(i) = msg.from else {
                        unreachable!("only workers send decisions")
                    };
                    assert!(st.workers[i].decision.is_none(), "duplicate decision");
                    st.workers[i].decision = Some(share);
                    st.decisions_count += 1;
                    if st.decisions_count == st.expected_decisions {
                        st.finalize(round, cx);
                    }
                }
                Payload::StragglerAssignment { .. } => {
                    let NodeId::Worker(i) = msg.to else {
                        unreachable!("assignment goes to the straggler")
                    };
                    cx.ready_at[i] = scheduled.time;
                    round.control_finished = scheduled.time;
                    round.done = true;
                }
                _ => {
                    unreachable!("non-master-worker payload in Algorithm 1")
                }
            },
        }
    }

    fn fingerprint(
        fp: &mut StateFp,
        round: &Round<MasterWorker>,
        st: &MasterState,
        _alphas: &[f64],
        members: &[bool],
    ) {
        // The master's α as of this step: tightened in place once the
        // round finalizes.
        fp.push_f64(round.next_alphas[0]);
        fp.push_f64_slice(&round.next_shares);
        fp.push_bool_slice(members);
        fp.push_bool_slice(&round.down);
        fp.push_bools(st.workers.iter().map(|w| w.cost_received));
        fp.push_bools(st.workers.iter().map(|w| w.participant));
        fp.push_bools(st.workers.iter().map(|w| w.excluded));
        fp.push_u64(u64::from(st.coordination_sent));
        fp.push_f64(round.global_cost);
        fp.push_usize(round.straggler);
        fp.push_usize(st.decisions_count);
        fp.push_usize(st.expected_decisions);
        for w in &st.workers {
            fp.push_opt_f64(w.decision);
        }
    }

    /// The workers that reported in time.
    fn active(_round: &Round<MasterWorker>, st: &MasterState) -> Vec<bool> {
        st.workers.iter().map(|w| w.participant).collect()
    }
}

impl MasterState {
    /// Lines 9-12, shared between the all-reported and timeout paths: fix
    /// the participant set, identify the straggler among it, and
    /// broadcast the coordination scalars; then lines 14-16 at once if
    /// the straggler is the only participant.
    fn coordinate<L: LatencyModel, S: Scheduler + ?Sized>(
        &mut self,
        round: &mut Round<MasterWorker>,
        cx: &mut Cx<'_, L, S>,
    ) {
        let n = self.workers.len();
        self.coordination_sent = true;
        for (j, (w, ready)) in self.workers.iter_mut().zip(cx.ready_at.iter_mut()).enumerate() {
            w.participant = w.cost_received;
            if round.down[j] || w.participant {
                continue;
            }
            // Timed out: the worker's in-flight execution is abandoned,
            // but it still has to finish it before round t+1, and that
            // execution is compute time of *this* round (accounting
            // bugfixes).
            w.excluded = true;
            *ready += round.local_costs[j];
            round.compute_finished = round.compute_finished.max(*ready);
        }
        let elected =
            elect_straggler(&round.local_costs, self.workers.iter().map(|w| w.participant))
                .expect("coordination requires at least one participant");
        round.global_cost = elected.global_cost;
        round.straggler = elected.straggler;
        self.expected_decisions = self.workers.iter().filter(|w| w.participant).count() - 1;
        for j in 0..n {
            if !self.workers[j].participant {
                continue;
            }
            let payload = Payload::Coordination {
                global_cost: round.global_cost,
                alpha: cx.alphas[0],
                is_straggler: j == round.straggler,
            };
            let msg =
                Message { from: NodeId::Master, to: NodeId::Worker(j), round: round.t, payload };
            round.send(cx, msg);
        }
        if self.expected_decisions == 0 {
            self.finalize(round, cx);
        }
    }

    /// Lines 14-16, triggered once every expected decision arrived.
    fn finalize<L: LatencyModel, S: Scheduler + ?Sized>(
        &mut self,
        round: &mut Round<MasterWorker>,
        cx: &mut Cx<'_, L, S>,
    ) {
        for (j, w) in self.workers.iter().enumerate() {
            if j != round.straggler && w.participant {
                round.next_shares[j] = w.decision.expect("participant reported");
            }
        }
        // Crashed/timed-out workers keep their frozen entry in
        // `next_shares`; the guarded pin counts them as-is.
        let s_share = straggler_pin_with_guard(
            cx.shares,
            &mut round.next_shares,
            round.straggler,
            !cx.sched.sabotage_overshoot_guard(),
        );
        // Eq. (7) against the active member count (== n when no
        // membership schedule is installed).
        round.next_alphas[0] = tighten_alpha(round.next_alphas[0], round.member_count, s_share);
        let payload = Payload::StragglerAssignment { share: s_share };
        let to = NodeId::Worker(round.straggler);
        round.send(cx, Message { from: NodeId::Master, to, round: round.t, payload });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::latency::{FixedLatency, JitteredLatency};
    use dolbie_core::environment::{RotatingStragglerEnvironment, StaticLinearEnvironment};
    use dolbie_core::DolbieConfig;
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
