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
//! [`FaultPlan`](crate::FaultPlan) as the other architectures —
//! crash windows freeze the crashed worker's share while the survivors
//! balance among themselves, lossy links retransmit with ack/backoff, and
//! membership collapse degrades gracefully: a lone survivor keeps its
//! share and continues (matching the master-worker single-responder
//! semantics), and a round with no survivors freezes every share instead
//! of panicking. The plan's cost timeout is a coordinator-side concept and
//! is ignored here — there is no master to enforce it. At an epoch
//! boundary the workers rebuild their all-to-all broadcast topology
//! around the new member set.

use crate::coordinator::{assist_step, straggler_pin_with_guard, tighten_alpha};
use crate::event::Scheduled;
use crate::latency::LatencyModel;
use crate::message::{Message, NodeId, Payload};
use crate::sched::Scheduler;
use crate::sim::{Architecture, Cx, Ev, Protocol, Round, Sim, World};
use dolbie_core::fingerprint::StateFp;

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
pub type FullyDistributedSim<E, L> = Sim<FullyDistributed, E, L>;

/// A fully-distributed run in progress; cloning it forks the run (see
/// [`World`]).
pub type FullyDistributedWorld<E, L> = World<FullyDistributed, E, L>;

/// Algorithm 2: every worker broadcasts to every peer and keeps its own
/// `ᾱ_i`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullyDistributed;

impl Architecture for FullyDistributed {
    const NAME: &'static str = "fully-distributed";
    const LEADERLESS: bool = true;
    type Alphas = Vec<f64>;

    fn alphas(n: usize, alpha: f64) -> Vec<f64> {
        vec![alpha; n]
    }
}

/// Every worker's view of an open fully-distributed round.
#[derive(Debug, Clone)]
pub struct PeerViews {
    /// Each worker's progress through the round.
    views: Vec<View>,
    /// What each worker heard from each peer, one row of `n` per
    /// receiver: the `n × n` table of a round in one allocation.
    heard: Vec<Heard>,
    resolved_count: usize,
}

/// One worker's progress through the round.
#[derive(Debug, Clone, Copy, Default)]
struct View {
    broadcasts_received: usize,
    decisions_received: usize,
    resolved: bool,
}

/// What one worker heard from one peer.
#[derive(Debug, Clone, Copy, Default)]
struct Heard {
    cost: Option<f64>,
    alpha: Option<f64>,
    decision: Option<f64>,
}

impl PeerViews {
    /// What worker `me` heard, indexed by peer.
    fn row(&self, me: usize) -> &[Heard] {
        let n = self.views.len();
        &self.heard[me * n..(me + 1) * n]
    }

    /// Lines 5-7: worker `me`'s consensus step size (crashed peers
    /// contribute none).
    fn alpha(&self, me: usize) -> f64 {
        self.row(me).iter().filter_map(|h| h.alpha).fold(f64::INFINITY, |acc, a| acc.min(a))
    }
}

impl Protocol for FullyDistributed {
    const FINGERPRINT_TAG: u64 = 0xD01B_0003;
    type State = PeerViews;

    fn open<L: LatencyModel, S: Scheduler + ?Sized>(
        round: &mut Round<FullyDistributed>,
        spare: Option<PeerViews>,
        cx: &mut Cx<'_, L, S>,
    ) -> PeerViews {
        let n = round.down.len();
        let alive_count = round.alive_count;
        // Expected load: every live worker broadcasts its cost to the
        // other n−1 peers, plus the compute-done markers themselves.
        round.queue.reserve(alive_count * (n - 1) + alive_count);
        for i in 0..n {
            if !round.down[i] {
                let done = cx.ready_at[i] + round.local_costs[i];
                round.queue.schedule(done, Ev::ComputeDone { worker: i });
            }
        }

        let (mut views, mut heard) = spare.map(|st| (st.views, st.heard)).unwrap_or_default();
        views.clear();
        views.resize(n, View::default());
        heard.clear();
        heard.resize(n * n, Heard::default());
        // Seed each worker's own observation (lines 2-3).
        for (i, view) in views.iter_mut().enumerate() {
            if round.down[i] {
                continue;
            }
            let own = &mut heard[i * n + i];
            own.cost = Some(round.local_costs[i]);
            own.alpha = Some(cx.alphas[i]);
            view.broadcasts_received = 1;
        }
        for (j, &c) in round.local_costs.iter().enumerate() {
            if !round.down[j] && c > round.global_cost {
                round.global_cost = c;
                round.straggler = j;
            }
        }
        PeerViews { views, heard, resolved_count: 0 }
    }

    fn deliver<L: LatencyModel, S: Scheduler + ?Sized>(
        round: &mut Round<FullyDistributed>,
        st: &mut PeerViews,
        scheduled: Scheduled<Ev>,
        cx: &mut Cx<'_, L, S>,
    ) {
        let t = round.t;
        let now = scheduled.time;
        match scheduled.event {
            Ev::ComputeDone { worker } => {
                round.compute_finished = round.compute_finished.max(now);
                // Line 4: broadcast (l_i, ᾱ_i) to all live peers.
                let payload = Payload::CostAndStepSize {
                    cost: round.local_costs[worker],
                    alpha: cx.alphas[worker],
                };
                for j in 0..round.down.len() {
                    if j == worker || round.down[j] {
                        continue;
                    }
                    let (from, to) = (NodeId::Worker(worker), NodeId::Worker(j));
                    round.send(cx, Message { from, to, round: t, payload });
                }
            }
            Ev::Deliver(msg) => {
                let NodeId::Worker(me) = msg.to else {
                    unreachable!("no master in the fully-distributed protocol")
                };
                let NodeId::Worker(sender) = msg.from else {
                    unreachable!("no master in the fully-distributed protocol")
                };
                let n = st.views.len();
                let (view, from) = (&mut st.views[me], &mut st.heard[me * n + sender]);
                match msg.payload {
                    Payload::CostAndStepSize { cost, alpha } => {
                        assert!(from.cost.is_none(), "duplicate broadcast");
                        from.cost = Some(cost);
                        from.alpha = Some(alpha);
                        view.broadcasts_received += 1;
                    }
                    Payload::Decision { share } => {
                        assert!(from.decision.is_none(), "duplicate decision");
                        from.decision = Some(share);
                        view.decisions_received += 1;
                    }
                    _ => unreachable!("master-worker payload in Algorithm 2"),
                }
                let view = *view;
                // Try to resolve worker `me` (lines 5-13). A receiver that
                // cannot resolve yet (or already has) leaves the straggler
                // unchecked after this event.
                if view.resolved || view.broadcasts_received < round.alive_count {
                    return;
                }
                // Lines 5-7: every worker derives the same view.
                let alpha_t = st.alpha(me);
                if me != round.straggler {
                    // Lines 8-10.
                    let updated =
                        assist_step(&round.fns[me], cx.shares[me], round.global_cost, alpha_t);
                    round.next_shares[me] = updated;
                    // Adopt the consensus step size so the round's minimum
                    // is replicated at every node — without this a crash
                    // of the historical-minimum holder would silently
                    // loosen later rounds' α, unlike the master-worker
                    // protocol whose master remembers every tightening.
                    round.next_alphas[me] = alpha_t;
                    let (from, to) = (NodeId::Worker(me), NodeId::Worker(round.straggler));
                    let payload = Payload::Decision { share: updated };
                    round.send(cx, Message { from, to, round: t, payload });
                    st.resolve(round, me, now, cx);
                } else if view.decisions_received == round.alive_count - 1 {
                    st.pin(round, now, cx);
                }
            }
            Ev::CostTimeout => unreachable!("no coordinator to time out"),
        }
        // The straggler may have been waiting only on decisions that
        // arrived before its last broadcast; re-check it.
        let s_view = &st.views[round.straggler];
        if !s_view.resolved
            && s_view.broadcasts_received == round.alive_count
            && s_view.decisions_received == round.alive_count - 1
        {
            st.pin(round, round.queue.now(), cx);
        }
    }

    fn fingerprint(
        fp: &mut StateFp,
        round: &Round<FullyDistributed>,
        st: &PeerViews,
        alphas: &[f64],
        members: &[bool],
    ) {
        fp.push_f64_slice(alphas);
        fp.push_f64_slice(&round.next_shares);
        fp.push_f64_slice(&round.next_alphas);
        fp.push_bool_slice(members);
        fp.push_bool_slice(&round.down);
        fp.push_f64(round.global_cost);
        fp.push_usize(round.straggler);
        fp.push_usize(st.resolved_count);
        for (me, view) in st.views.iter().enumerate() {
            let row = st.row(me);
            for h in row {
                fp.push_opt_f64(h.cost);
            }
            for h in row {
                fp.push_opt_f64(h.alpha);
            }
            for h in row {
                fp.push_opt_f64(h.decision);
            }
            fp.push_usize(view.broadcasts_received);
            fp.push_usize(view.decisions_received);
            fp.push_u64(u64::from(view.resolved));
        }
    }
}

impl PeerViews {
    /// Lines 11-13 at the straggler: every live peer's decision is in
    /// `next_shares` (written before it was sent), crashed workers'
    /// shares sit there frozen.
    fn pin<L: LatencyModel, S: Scheduler + ?Sized>(
        &mut self,
        round: &mut Round<FullyDistributed>,
        now: f64,
        cx: &mut Cx<'_, L, S>,
    ) {
        let s = round.straggler;
        let s_share = straggler_pin_with_guard(
            cx.shares,
            &mut round.next_shares,
            s,
            !cx.sched.sabotage_overshoot_guard(),
        );
        round.next_alphas[s] = tighten_alpha(self.alpha(s), round.member_count, s_share);
        self.resolve(round, s, now, cx);
    }

    /// Worker `me` is done with the round at `now`; the round closes once
    /// every live worker is.
    fn resolve<L, S: Scheduler + ?Sized>(
        &mut self,
        round: &mut Round<FullyDistributed>,
        me: usize,
        now: f64,
        cx: &mut Cx<'_, L, S>,
    ) {
        self.views[me].resolved = true;
        self.resolved_count += 1;
        cx.ready_at[me] = now;
        round.control_finished = round.control_finished.max(now);
        round.done = self.resolved_count == round.alive_count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Crash, FaultPlan};
    use crate::latency::{FixedLatency, JitteredLatency};
    use crate::master_worker::MasterWorkerSim;
    use dolbie_core::environment::{RotatingStragglerEnvironment, StaticLinearEnvironment};
    use dolbie_core::DolbieConfig;
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
