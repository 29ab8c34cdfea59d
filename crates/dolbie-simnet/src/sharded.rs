//! The two-level shard tier as a message-passing protocol simulation.
//!
//! M shard-masters each run the coordinator duties
//! ([`crate::coordinator`]) over a contiguous slice of N/M workers; a
//! root coordinator runs the *same* min-max logic over shard-level
//! aggregates. Per round:
//!
//! 1. workers report local costs to their shard-master (line 4 of
//!    Algorithm 1, unchanged — a worker cannot tell which architecture
//!    sits above it);
//! 2. each shard-master elects its slice's straggler candidate and ships
//!    one [`Payload::ShardAggregate`] to the root — the root combines the
//!    M candidates in ascending shard order with the same strict `>` the
//!    flat master uses, which elects the identical global straggler;
//! 3. the root broadcasts [`Payload::ShardCoordination`] to the
//!    shard-masters, which replay ordinary `Coordination` messages to
//!    their workers; non-stragglers take the eq. (5) step and answer with
//!    their `Decision`;
//! 4. the eq. (6)/guard arithmetic needs two ascending-order sums (the
//!    combined gain, then the non-straggler total); each is computed by a
//!    [`Payload::ShardPartial`] token chained through the shard-masters
//!    in ascending shard order, every shard folding its slice
//!    *elementwise* — so the fold order is exactly the flat master's
//!    ascending worker order and the result is bitwise identical;
//! 5. the root pins the straggler (assignment routed via its
//!    shard-master) and tightens α per eq. (7).
//!
//! The root therefore exchanges O(M) messages per round — M aggregates
//! up, M coordination broadcasts down, four token hops, one assignment —
//! while the flat master exchanges Θ(N). [`ShardedRun::root_rounds`]
//! records that tier's traffic separately; the TCP sweep
//! (`paper_figures tcp`) measures the same fan-in on real sockets.
//!
//! ## Fault and membership semantics
//!
//! Crash windows, lossy links, and membership epochs carry over from the
//! flat architectures unchanged. A **shard-master crash**
//! ([`ShardedSim::with_shard_master_crash`]) takes its whole slice dark:
//! every worker of the shard is excluded for the window (shares frozen,
//! exactly as if each had crashed individually) and the shard sends
//! nothing. For the two chained sums the root replays an unresponsive
//! shard's slice from its own checkpoint *in shard order* — the root
//! already tracks every share for epoch re-normalization (the same
//! master-side bookkeeping the flat masters keep for buried workers), so
//! a dead shard costs the root O(N/M) local work but no protocol stall.
//! Membership epochs (including a schedule draining an entire shard's
//! workers) run the flat `epoch_transition` at the root over the
//! gathered slices.
//!
//! Because every cross-shard reduction is either the exact argmax or an
//! elementwise ascending chain, the sharded trajectory is **bitwise
//! identical** to [`MasterWorkerSim`](crate::MasterWorkerSim) under any
//! fault plan × membership schedule the flat simulator accepts (cost
//! timeouts excepted — a per-shard timeout would exclude by arrival time,
//! which is a deadline policy, not a round policy; the shard tier defers
//! that to the TCP runtime's deadline machinery in `dolbie-net`). The
//! chaos suite sweeps exactly that equivalence.

use crate::coordinator::{assist_step, elect_straggler, tighten_alpha};
use crate::faults::{Crash, FaultPlan, LinkStats};
use crate::latency::LatencyModel;
use crate::message::{Message, NodeId, Payload};
use crate::sched::FifoScheduler;
use crate::sim::{Architecture, Round, Sim, Spare};
use crate::trace::{ProtocolRound, ProtocolTrace};
use dolbie_core::shard::ShardLayout;
use dolbie_core::{Allocation, DolbieConfig, Environment};

/// The root tier's traffic in one round — the O(M) fan-in the
/// architecture exists to demonstrate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RootTierRound {
    /// Messages with the root as an endpoint.
    pub messages: usize,
    /// Bytes of those messages.
    pub bytes: usize,
}

/// A sharded run: the ordinary protocol trace plus the root tier's
/// per-round traffic.
#[derive(Debug)]
pub struct ShardedRun {
    /// The full protocol trace (all tiers' messages combined), directly
    /// comparable with the flat architectures' traces.
    pub trace: ProtocolTrace,
    /// Per-round root-tier traffic, aligned with `trace.rounds`.
    pub root_rounds: Vec<RootTierRound>,
}

/// The two-level shard-tier protocol simulator: the master-worker
/// protocol's builder and round prelude over a [`ShardLayout`].
///
/// # Examples
///
/// ```
/// use dolbie_simnet::{FixedLatency, MasterWorkerSim, ShardedSim};
/// use dolbie_core::environment::StaticLinearEnvironment;
/// use dolbie_core::DolbieConfig;
///
/// let env = StaticLinearEnvironment::from_slopes(vec![3.0, 1.0, 2.0, 4.0]);
/// let mut flat = MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan());
/// let mut sharded = ShardedSim::new(env, DolbieConfig::new(), FixedLatency::lan(), 2);
/// let a = flat.run(10);
/// let b = sharded.run(10);
/// for (x, y) in a.rounds.iter().zip(&b.trace.rounds) {
///     assert_eq!(x.allocation.l2_distance(&y.allocation), 0.0);
/// }
/// ```
pub type ShardedSim<E, L> = Sim<ShardLayout, E, L>;

impl Architecture for ShardLayout {
    const NAME: &'static str = "sharded";
    const LEADERLESS: bool = false;
    type Alphas = [f64; 1];

    fn alphas(_n: usize, alpha: f64) -> [f64; 1] {
        [alpha]
    }
}

impl<E: Environment, L: LatencyModel> ShardedSim<E, L> {
    /// Creates the simulator with the uniform initial partition split
    /// into `shards` contiguous near-even shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `shards > N`.
    pub fn new(env: E, config: DolbieConfig, latency: L, shards: usize) -> Self {
        let layout = ShardLayout::even(env.num_workers(), shards);
        Self::build(env, config, latency, layout)
    }

    /// The shard layout in force.
    pub fn layout(&self) -> &ShardLayout {
        &self.arch
    }

    /// Injects a shard-master crash window: the entire shard goes dark
    /// for `[from_round, until_round)` — every worker of the shard is
    /// excluded (its share frozen) and the shard exchanges nothing, while
    /// the root replays the slice from its checkpoint. Equivalent, by
    /// construction, to crashing each of the shard's workers individually
    /// in the flat architectures — the equivalence the chaos suite
    /// asserts bitwise.
    ///
    /// # Panics
    ///
    /// Panics if the shard index is out of range.
    pub fn with_shard_master_crash(
        mut self,
        shard: usize,
        from_round: usize,
        until_round: usize,
    ) -> Self {
        assert!(shard < self.arch.num_shards(), "shard index out of range");
        for worker in self.arch.range(shard) {
            self.plan.crashes.push(Crash { worker, from_round, until_round });
        }
        self
    }

    /// Runs the protocol for `rounds` rounds.
    ///
    /// # Panics
    ///
    /// Panics if the environment produces malformed cost functions.
    pub fn run(&mut self, rounds: usize) -> ShardedRun {
        let n = self.shares.len();
        let m = self.arch.num_shards();
        let mut trace = Vec::with_capacity(rounds);
        let mut root_rounds = Vec::with_capacity(rounds);
        let mut ready_at = vec![0.0f64; n];
        let mut members = vec![true; n];

        for t in 0..rounds {
            // The epoch boundary (the root runs the flat transition over
            // the gathered slices: the one O(N)-at-the-root event), the
            // reveal and the crash windows, as in the flat simulators.
            let Some(Round { fns, down, member_count, local_costs, mut next_shares, .. }) = self
                .open_round(
                    t,
                    &mut members,
                    &mut ready_at,
                    &mut trace,
                    &mut Spare::<()>::default(),
                    &mut FifoScheduler,
                )
            else {
                root_rounds.push(RootTierRound::default());
                continue;
            };
            let participants: Vec<bool> = down.iter().map(|&c| !c).collect();

            let mut stats = LinkStats::default();
            let mut root = RootTierRound::default();
            let mut compute_finished = 0.0f64;

            // (1) workers → shard-masters: local cost reports.
            let mut shard_cost_ready = vec![f64::NEG_INFINITY; m];
            for (k, cost_ready) in shard_cost_ready.iter_mut().enumerate() {
                for i in self.arch.range(k) {
                    if down[i] {
                        continue;
                    }
                    let done = ready_at[i] + local_costs[i];
                    compute_finished = compute_finished.max(done);
                    let arrive = transmit(
                        &mut self.latency,
                        &self.plan,
                        &mut stats,
                        &mut root,
                        false,
                        Message {
                            from: NodeId::Worker(i),
                            to: NodeId::Master,
                            round: t,
                            payload: Payload::LocalCost { cost: local_costs[i] },
                        },
                        done,
                    );
                    *cost_ready = cost_ready.max(arrive);
                }
            }
            let live_shard: Vec<bool> = shard_cost_ready.iter().map(|v| v.is_finite()).collect();

            // (2) shard-masters → root: straggler candidates, combined in
            // ascending shard order with the same strict > the flat scan
            // uses — exact, so the elected straggler is identical.
            let mut t_root = f64::NEG_INFINITY;
            let mut best: Option<(f64, usize)> = None;
            for k in 0..m {
                if !live_shard[k] {
                    continue;
                }
                let range = self.arch.range(k);
                let candidate = elect_straggler(
                    &local_costs[range.clone()],
                    participants[range.clone()].iter().copied(),
                )
                .expect("a live shard has a participant");
                let global_idx = range.start + candidate.straggler;
                let arrive = transmit(
                    &mut self.latency,
                    &self.plan,
                    &mut stats,
                    &mut root,
                    true,
                    Message {
                        from: NodeId::Master,
                        to: NodeId::Master,
                        round: t,
                        payload: Payload::ShardAggregate {
                            max_cost: candidate.global_cost,
                            straggler: global_idx,
                            share: self.shares[global_idx],
                        },
                    },
                    shard_cost_ready[k],
                );
                t_root = t_root.max(arrive);
                match best {
                    None => best = Some((candidate.global_cost, global_idx)),
                    Some((b, _)) if candidate.global_cost > b => {
                        best = Some((candidate.global_cost, global_idx))
                    }
                    Some(_) => {}
                }
            }
            let (global_cost, straggler) = best.expect("alive_count > 0 elects a straggler");
            debug_assert_eq!(
                elect_straggler(&local_costs, participants.iter().copied()).map(|e| e.straggler),
                Some(straggler),
                "shard-order candidate combination must reproduce the flat scan"
            );

            // (3) coordination down both tiers; eq. (5) decisions back up
            // to the shard-masters.
            let alpha_t = self.alphas[0];
            let mut shard_dec_ready = shard_cost_ready.clone();
            for k in 0..m {
                if !live_shard[k] {
                    continue;
                }
                let at_shard = transmit(
                    &mut self.latency,
                    &self.plan,
                    &mut stats,
                    &mut root,
                    true,
                    Message {
                        from: NodeId::Master,
                        to: NodeId::Master,
                        round: t,
                        payload: Payload::ShardCoordination {
                            global_cost,
                            alpha: alpha_t,
                            straggler,
                        },
                    },
                    t_root,
                );
                shard_dec_ready[k] = at_shard;
                for i in self.arch.range(k) {
                    if down[i] {
                        continue;
                    }
                    let at_worker = transmit(
                        &mut self.latency,
                        &self.plan,
                        &mut stats,
                        &mut root,
                        false,
                        Message {
                            from: NodeId::Master,
                            to: NodeId::Worker(i),
                            round: t,
                            payload: Payload::Coordination {
                                global_cost,
                                alpha: alpha_t,
                                is_straggler: i == straggler,
                            },
                        },
                        at_shard,
                    );
                    if i == straggler {
                        continue;
                    }
                    next_shares[i] = assist_step(&fns[i], self.shares[i], global_cost, alpha_t);
                    ready_at[i] = at_worker;
                    let at_master = transmit(
                        &mut self.latency,
                        &self.plan,
                        &mut stats,
                        &mut root,
                        false,
                        Message {
                            from: NodeId::Worker(i),
                            to: NodeId::Master,
                            round: t,
                            payload: Payload::Decision { share: next_shares[i] },
                        },
                        at_worker,
                    );
                    shard_dec_ready[k] = shard_dec_ready[k].max(at_master);
                }
            }

            // (4) the two ascending chained sums (see `chain_token`): the
            // guarded pin, decomposed exactly as
            // `coordinator::guarded_straggler_pin` computes it.
            let (total_gain, t_gain) = chain_token(
                &self.arch,
                &live_shard,
                &shard_dec_ready,
                straggler,
                |i| next_shares[i] - self.shares[i],
                t_root,
                t,
                &mut self.latency,
                &self.plan,
                &mut stats,
                &mut root,
            );
            let s_old = self.shares[straggler];
            let mut t_pin = t_gain;
            if total_gain > s_old && total_gain > 0.0 {
                let scale = s_old / total_gain;
                let mut rescale_done = shard_dec_ready.clone();
                for k in 0..m {
                    if !live_shard[k] {
                        continue;
                    }
                    rescale_done[k] = transmit(
                        &mut self.latency,
                        &self.plan,
                        &mut stats,
                        &mut root,
                        true,
                        Message {
                            from: NodeId::Master,
                            to: NodeId::Master,
                            round: t,
                            payload: Payload::ShardRescale { scale },
                        },
                        t_gain,
                    );
                }
                for (j, next) in next_shares.iter_mut().enumerate() {
                    if j != straggler {
                        *next = self.shares[j] + scale * (*next - self.shares[j]);
                    }
                }
                shard_dec_ready = rescale_done;
                t_pin = t_gain;
            }
            let (others, t_others) = chain_token(
                &self.arch,
                &live_shard,
                &shard_dec_ready,
                straggler,
                |i| next_shares[i],
                t_pin,
                t,
                &mut self.latency,
                &self.plan,
                &mut stats,
                &mut root,
            );
            let s_share = (1.0 - others).max(0.0);
            next_shares[straggler] = s_share;
            self.alphas[0] = tighten_alpha(self.alphas[0], member_count, s_share);

            // (5) assignment routed root → shard-master → straggler.
            let at_shard = transmit(
                &mut self.latency,
                &self.plan,
                &mut stats,
                &mut root,
                true,
                Message {
                    from: NodeId::Master,
                    to: NodeId::Master,
                    round: t,
                    payload: Payload::StragglerAssignment { share: s_share },
                },
                t_others,
            );
            let control_finished = transmit(
                &mut self.latency,
                &self.plan,
                &mut stats,
                &mut root,
                false,
                Message {
                    from: NodeId::Master,
                    to: NodeId::Worker(straggler),
                    round: t,
                    payload: Payload::StragglerAssignment { share: s_share },
                },
                at_shard,
            );
            ready_at[straggler] = control_finished;

            let executed = Allocation::from_update(self.shares.clone())
                .expect("protocol preserves feasibility");
            trace.push(ProtocolRound {
                round: t,
                allocation: executed,
                local_costs,
                global_cost,
                straggler,
                messages: stats.messages,
                bytes: stats.bytes,
                retries: stats.retries,
                acks: stats.acks,
                duplicates: stats.duplicates,
                compute_finished,
                control_finished,
                active: participants,
                alpha: self.alphas[0],
            });
            root_rounds.push(root);
            self.shares = next_shares;
        }
        ShardedRun {
            trace: ProtocolTrace { architecture: ShardLayout::NAME, rounds: trace },
            root_rounds,
        }
    }
}

/// Sends one logical message at `at`, driving the fault plan and the
/// stats exactly as the flat simulators do; returns the delivery time.
/// Messages with the root as an endpoint are additionally booked on the
/// root tier's counters.
fn transmit<L: LatencyModel>(
    latency: &mut L,
    plan: &FaultPlan,
    stats: &mut LinkStats,
    root: &mut RootTierRound,
    touches_root: bool,
    msg: Message,
    at: f64,
) -> f64 {
    let delay = latency.delay(&msg);
    assert!(delay >= 0.0, "latency model produced a negative delay");
    let outcome = plan.transmit(&msg, delay);
    stats.record(&msg, &outcome);
    if touches_root {
        root.messages += 1;
        root.bytes += msg.size_bytes();
    }
    at + outcome.delivery_delay
}

/// Chains a running-sum token through the shards in ascending shard
/// order; every shard folds its slice **elementwise** (skipping only the
/// straggler), so the adds happen in exactly the flat ascending worker
/// order and the sum is bitwise identical to the flat master's.
///
/// Unresponsive shards are replayed by the root from its checkpoint, in
/// place: the token is routed back to the root for the dead slice and
/// onward to the next live shard, keeping the fold order intact at the
/// cost of O(slice) root work — but no extra protocol stall.
#[allow(clippy::too_many_arguments)]
fn chain_token<L: LatencyModel>(
    layout: &ShardLayout,
    live_shard: &[bool],
    shard_ready: &[f64],
    straggler: usize,
    contribution: impl Fn(usize) -> f64,
    start_time: f64,
    round: usize,
    latency: &mut L,
    plan: &FaultPlan,
    stats: &mut LinkStats,
    root: &mut RootTierRound,
) -> (f64, f64) {
    let mut sum = 0.0f64;
    let mut time = start_time;
    let mut at_root = true;
    let hop = |sum: f64,
               time: f64,
               touches_root: bool,
               latency: &mut L,
               stats: &mut LinkStats,
               root: &mut RootTierRound| {
        transmit(
            latency,
            plan,
            stats,
            root,
            touches_root,
            Message {
                from: NodeId::Master,
                to: NodeId::Master,
                round,
                payload: Payload::ShardPartial { sum },
            },
            time,
        )
    };
    for k in 0..layout.num_shards() {
        if live_shard[k] {
            // Token hop to shard k: from the root (first hop or after a
            // checkpoint replay) or from the previous live shard.
            let arrive = hop(sum, time, at_root, latency, stats, root);
            time = arrive.max(shard_ready[k]);
            at_root = false;
        } else if !at_root {
            // Route the token home so the root can replay the dead
            // shard's checkpointed slice in order.
            time = hop(sum, time, true, latency, stats, root);
            at_root = true;
        }
        for i in layout.range(k) {
            if i != straggler {
                sum += contribution(i);
            }
        }
    }
    if !at_root {
        time = hop(sum, time, true, latency, stats, root);
    }
    (sum, time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{FixedLatency, JitteredLatency};
    use crate::master_worker::MasterWorkerSim;
    use crate::membership::MembershipSchedule;
    use dolbie_core::environment::{RotatingStragglerEnvironment, StaticLinearEnvironment};

    fn assert_bitwise(a: &ProtocolTrace, b: &ProtocolTrace) {
        assert_eq!(a.rounds.len(), b.rounds.len());
        for (x, y) in a.rounds.iter().zip(&b.rounds) {
            for (u, v) in x.allocation.iter().zip(y.allocation.iter()) {
                assert_eq!(u.to_bits(), v.to_bits(), "round {}", x.round);
            }
            assert_eq!(x.straggler, y.straggler, "round {}", x.round);
            assert_eq!(x.global_cost.to_bits(), y.global_cost.to_bits(), "round {}", x.round);
            assert_eq!(x.alpha.to_bits(), y.alpha.to_bits(), "round {}", x.round);
            assert_eq!(x.active, y.active, "round {}", x.round);
        }
    }

    #[test]
    fn sharded_matches_master_worker_bitwise_lossless() {
        for shards in [1usize, 2, 3, 4] {
            let env = RotatingStragglerEnvironment::new(12, 5, 8.0, 1.0);
            let flat =
                MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan()).run(60);
            let sharded =
                ShardedSim::new(env, DolbieConfig::new(), FixedLatency::lan(), shards).run(60);
            assert_bitwise(&sharded.trace, &flat);
        }
    }

    #[test]
    fn sharded_decisions_survive_lossy_links_unchanged() {
        let env = StaticLinearEnvironment::from_slopes(vec![5.0, 1.0, 2.0, 3.0, 2.5, 1.5]);
        let clean =
            MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan()).run(25);
        let mut lossy = ShardedSim::new(env, DolbieConfig::new(), FixedLatency::lan(), 3)
            .with_fault_plan(
                FaultPlan::seeded(42).with_drop_probability(0.3).with_duplicate_probability(0.1),
            );
        let run = lossy.run(25);
        assert_bitwise(&run.trace, &clean);
        assert!(run.trace.total_retries() > 0, "30% loss must retransmit");
        assert!(run.trace.makespan() > clean.makespan(), "retransmission waits cost wall-clock");
    }

    #[test]
    fn sharded_matches_master_worker_bitwise_under_crashes() {
        let env = RotatingStragglerEnvironment::new(10, 4, 6.0, 1.0);
        let plan = FaultPlan::seeded(7)
            .with_drop_probability(0.2)
            .with_crash(Crash { worker: 3, from_round: 5, until_round: 11 })
            .with_crash(Crash { worker: 8, from_round: 9, until_round: 14 });
        let flat = MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan())
            .with_fault_plan(plan.clone())
            .run(30);
        let sharded = ShardedSim::new(env, DolbieConfig::new(), FixedLatency::lan(), 4)
            .with_fault_plan(plan)
            .run(30);
        assert_bitwise(&sharded.trace, &flat);
    }

    #[test]
    fn sharded_matches_master_worker_bitwise_through_epochs() {
        let env = RotatingStragglerEnvironment::new(9, 4, 6.0, 1.0);
        let schedule = MembershipSchedule::random(0xD01B, 9, 40, 0.1, 0.12);
        let flat = MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan())
            .with_membership(schedule.clone())
            .run(40);
        let sharded = ShardedSim::new(env, DolbieConfig::new(), FixedLatency::lan(), 3)
            .with_membership(schedule)
            .run(40);
        assert_bitwise(&sharded.trace, &flat);
    }

    #[test]
    fn shard_master_crash_is_the_slicewise_crash_of_the_flat_architecture() {
        // Shard 1 of three (workers 3..6) dies for rounds 4..9; the flat
        // reference crashes those workers individually. Trajectories must
        // agree bitwise, and the dark slice's shares must stay frozen.
        let env = RotatingStragglerEnvironment::new(9, 4, 6.0, 1.0);
        let mut flat_plan = FaultPlan::seeded(3).with_drop_probability(0.15);
        for worker in 3..6 {
            flat_plan.crashes.push(Crash { worker, from_round: 4, until_round: 9 });
        }
        let flat = MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan())
            .with_fault_plan(flat_plan)
            .run(20);
        let sharded = ShardedSim::new(env, DolbieConfig::new(), FixedLatency::lan(), 3)
            .with_fault_plan(FaultPlan::seeded(3).with_drop_probability(0.15))
            .with_shard_master_crash(1, 4, 9)
            .run(20);
        assert_bitwise(&sharded.trace, &flat);
        let frozen: Vec<f64> =
            (3..6).map(|i| sharded.trace.rounds[4].allocation.share(i)).collect();
        for t in 4..9 {
            let r = &sharded.trace.rounds[t];
            for (j, i) in (3..6).enumerate() {
                assert!(!r.active[i], "round {t}: dark shard must not participate");
                assert_eq!(
                    r.allocation.share(i).to_bits(),
                    frozen[j].to_bits(),
                    "round {t}: dark shard's share must stay frozen"
                );
            }
        }
        assert!(sharded.trace.rounds[19].active.iter().all(|&a| a), "shard recovered");
    }

    #[test]
    fn whole_shard_membership_drain_redistributes_onto_siblings() {
        // A schedule decommissions shard 1's workers (3..6) at round 6:
        // their shares must drain into the surviving shards (simplex
        // preserved), and the flat reference agrees bitwise.
        let env = RotatingStragglerEnvironment::new(9, 4, 6.0, 1.0);
        let mut schedule = MembershipSchedule::none();
        for worker in 3..6 {
            schedule = schedule.with_leave(6, worker, crate::membership::LeaveKind::Graceful);
        }
        let flat = MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan())
            .with_membership(schedule.clone())
            .run(16);
        let sharded = ShardedSim::new(env, DolbieConfig::new(), FixedLatency::lan(), 3)
            .with_membership(schedule)
            .run(16);
        assert_bitwise(&sharded.trace, &flat);
        for t in 6..16 {
            let r = &sharded.trace.rounds[t];
            for i in 3..6 {
                assert_eq!(r.allocation.share(i), 0.0, "round {t}: departed worker holds zero");
            }
            let sum: f64 = r.allocation.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "round {t}: drained mass stays on the simplex");
        }
    }

    #[test]
    fn root_tier_traffic_is_o_of_m_not_o_of_n() {
        // Lossless, everyone alive: per round the root exchanges exactly
        // 2M + 5 messages (M aggregates, M coordination broadcasts, two
        // hops per chained sum, one assignment) regardless of N — while
        // total traffic, like the flat master's, scales with N.
        let n = 24;
        for shards in [1usize, 2, 4, 8] {
            let env = RotatingStragglerEnvironment::new(n, 5, 8.0, 1.0);
            let run = ShardedSim::new(env, DolbieConfig::new(), FixedLatency::lan(), shards).run(8);
            for (t, r) in run.root_rounds.iter().enumerate() {
                assert_eq!(r.messages, 2 * shards + 5, "round {t}, M={shards}");
            }
            // N costs + M aggregates + (M + N) coordinations + (N − 1)
            // decisions + 2(M + 1) chain hops + 2 assignment hops.
            for r in &run.trace.rounds {
                assert_eq!(r.messages, 3 * n + 4 * shards + 3, "total tier traffic");
            }
        }
    }

    #[test]
    fn sharded_wall_clock_is_latency_dependent_but_decisions_are_not() {
        let env = StaticLinearEnvironment::from_slopes(vec![5.0, 1.0, 2.0, 3.0]);
        let fast =
            ShardedSim::new(env.clone(), DolbieConfig::new(), FixedLatency::instant(), 2).run(15);
        let slow = ShardedSim::new(
            env,
            DolbieConfig::new(),
            JitteredLatency::new(FixedLatency::new(0.5, 1e3), 0.2, 7),
            2,
        )
        .run(15);
        assert_bitwise(&fast.trace, &slow.trace);
        assert!(slow.trace.makespan() > fast.trace.makespan());
    }
}
