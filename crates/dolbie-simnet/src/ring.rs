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
//! [`FaultPlan`](crate::FaultPlan) as the other architectures.
//! Crashed workers are spliced out of the ring — the token circulates
//! among the `A` survivors in ascending worker order, the lowest-indexed
//! survivor acts as the ring head, and the crashed workers' shares stay
//! frozen while the survivors rebalance the remainder (`2A + 1` messages,
//! `2A` when the head is the straggler). Lossy links retransmit with
//! ack/backoff, and membership collapse degrades gracefully exactly like
//! the other two architectures: a lone survivor keeps its share, an empty
//! membership freezes every share, and the run continues. The plan's cost
//! timeout is a coordinator-side concept and is ignored here. At an epoch
//! boundary the ring is rebuilt around the new member set, its
//! lowest-indexed member the head.

use crate::coordinator::{assist_step, straggler_pin_with_guard, tighten_alpha};
use crate::event::Scheduled;
use crate::latency::LatencyModel;
use crate::message::{Message, NodeId, Payload};
use crate::sched::Scheduler;
use crate::sim::{Architecture, Cx, Ev, Protocol, Round, Sim, World};
use dolbie_core::fingerprint::StateFp;

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
pub type RingSim<E, L> = Sim<Ring, E, L>;

/// A token-ring run in progress; cloning it forks the run (see
/// [`World`]).
pub type RingWorld<E, L> = World<Ring, E, L>;

/// The token ring: two passes of a token through the survivors, every
/// worker keeping its own `ᾱ_i`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ring;

impl Architecture for Ring {
    const NAME: &'static str = "ring";
    const LEADERLESS: bool = true;
    type Alphas = Vec<f64>;

    fn alphas(n: usize, alpha: f64) -> Vec<f64> {
        vec![alpha; n]
    }
}

/// The ring of survivors and the token in an open ring round.
#[derive(Debug, Clone)]
pub struct TokenState {
    /// The lowest-indexed survivor: it originates the token and computes
    /// the straggler remainder.
    head: usize,
    /// Each worker's place on the ring: one record per worker, in the
    /// buffer of the run's last closed round, so a run and a fork
    /// allocate it once.
    seats: Vec<Seat>,
    /// Pass-1 token state: held by `token_at` waiting for that worker's
    /// compute, or in flight as a message.
    pending_aggregate: Option<(usize, f64, usize, f64)>,
    /// The consensus α the straggler saw on its pass-2 hop, applied when
    /// its assignment arrives.
    straggler_alpha: f64,
}

/// One worker's place on the ring in an open round.
#[derive(Debug, Clone, Copy)]
struct Seat {
    /// Its successor on the ring of survivors (`usize::MAX` if down).
    succ: usize,
    /// Whether it has finished executing its share.
    computed: bool,
}

impl Protocol for Ring {
    const FINGERPRINT_TAG: u64 = 0xD01B_0002;
    type State = TokenState;

    fn open<L: LatencyModel, S: Scheduler + ?Sized>(
        round: &mut Round<Ring>,
        spare: Option<TokenState>,
        cx: &mut Cx<'_, L, S>,
    ) -> TokenState {
        let n = round.down.len();
        // The ring of survivors, in ascending worker order: each links to
        // the next survivor, and the last wraps to the head.
        let alive = |i: &usize| !round.down[*i];
        let head = (0..n).find(alive).expect("an opened round has a survivor");
        let mut seats = spare.map(|st| st.seats).unwrap_or_default();
        seats.clear();
        seats.resize(n, Seat { succ: usize::MAX, computed: false });
        let mut last = head;
        for w in (head + 1..n).filter(alive) {
            seats[last].succ = w;
            last = w;
        }
        seats[last].succ = head;

        // Two token passes around the ring of survivors plus each
        // survivor's compute-done marker.
        round.queue.reserve(3 * round.alive_count + 1);
        for i in (0..n).filter(alive) {
            let done = cx.ready_at[i] + round.local_costs[i];
            round.queue.schedule(done, Ev::ComputeDone { worker: i });
        }
        TokenState { head, seats, pending_aggregate: None, straggler_alpha: f64::INFINITY }
    }

    fn deliver<L: LatencyModel, S: Scheduler + ?Sized>(
        round: &mut Round<Ring>,
        st: &mut TokenState,
        scheduled: Scheduled<Ev>,
        cx: &mut Cx<'_, L, S>,
    ) {
        let now = scheduled.time;
        let head = st.head;
        match scheduled.event {
            Ev::ComputeDone { worker } => {
                round.compute_finished = round.compute_finished.max(now);
                st.seats[worker].computed = true;
                if worker == head {
                    // The head originates the aggregation token.
                    let payload = Payload::RingAggregate {
                        max_cost: round.local_costs[head],
                        straggler: head,
                        min_alpha: cx.alphas[head],
                    };
                    hop(round, cx, head, st.seats[head].succ, payload);
                } else if let Some((held_by, max_cost, arg, min_alpha)) =
                    st.pending_aggregate.take()
                {
                    // The token was parked here waiting for this worker's
                    // compute; fold and forward now.
                    if held_by == worker {
                        st.forward_aggregate(round, worker, (max_cost, arg, min_alpha), cx);
                    } else {
                        st.pending_aggregate = Some((held_by, max_cost, arg, min_alpha));
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
                            round.global_cost = max_cost;
                            round.straggler = arg;
                            let alpha = min_alpha;
                            // Adopt the consensus step size so the round's
                            // minimum survives a later crash of whichever
                            // worker produced it (every node does this as
                            // the update token passes).
                            round.next_alphas[head] = alpha;
                            let mut sum = 0.0;
                            if round.straggler != head {
                                let updated = assist_step(
                                    &round.fns[head],
                                    cx.shares[head],
                                    round.global_cost,
                                    alpha,
                                );
                                round.next_shares[head] = updated;
                                cx.ready_at[head] = now;
                                sum += updated;
                            }
                            let payload = Payload::RingUpdate {
                                global_cost: round.global_cost,
                                straggler: round.straggler,
                                alpha,
                                sum_shares: sum,
                            };
                            hop(round, cx, head, st.seats[head].succ, payload);
                        } else if st.seats[me].computed {
                            // Fold in and forward immediately.
                            st.forward_aggregate(round, me, (max_cost, arg, min_alpha), cx);
                        } else {
                            // Park the token until this worker's compute
                            // completes.
                            st.pending_aggregate = Some((me, max_cost, arg, min_alpha));
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
                                cx.shares,
                                &mut round.next_shares,
                                s,
                                !cx.sched.sabotage_overshoot_guard(),
                            );
                            if s == head {
                                round.next_alphas[head] =
                                    tighten_alpha(alpha, round.member_count, s_share);
                                cx.ready_at[head] = now;
                                round.control_finished = now;
                                round.done = true;
                            } else {
                                let payload = Payload::StragglerAssignment { share: s_share };
                                hop(round, cx, head, s, payload);
                            }
                        } else {
                            let mut sum = sum_shares;
                            if me != s {
                                let updated =
                                    assist_step(&round.fns[me], cx.shares[me], l_t, alpha);
                                round.next_shares[me] = updated;
                                round.next_alphas[me] = alpha;
                                cx.ready_at[me] = now;
                                sum += updated;
                            } else {
                                st.straggler_alpha = alpha;
                            }
                            let payload = Payload::RingUpdate {
                                global_cost: l_t,
                                straggler: s,
                                alpha,
                                sum_shares: sum,
                            };
                            hop(round, cx, me, st.seats[me].succ, payload);
                        }
                    }
                    Payload::StragglerAssignment { share } => {
                        assert!(
                            st.straggler_alpha.is_finite(),
                            "assignment must follow the update token"
                        );
                        round.next_shares[me] = share;
                        round.next_alphas[me] =
                            tighten_alpha(st.straggler_alpha, round.member_count, share);
                        cx.ready_at[me] = now;
                        round.control_finished = now;
                        round.done = true;
                    }
                    _ => unreachable!("non-ring payload in the ring protocol"),
                }
            }
            Ev::CostTimeout => unreachable!("no coordinator to time out"),
        }
    }

    fn fingerprint(
        fp: &mut StateFp,
        round: &Round<Ring>,
        st: &TokenState,
        alphas: &[f64],
        members: &[bool],
    ) {
        fp.push_f64_slice(alphas);
        fp.push_f64_slice(&round.next_shares);
        fp.push_f64_slice(&round.next_alphas);
        fp.push_bool_slice(members);
        fp.push_bool_slice(&round.down);
        fp.push_bools(st.seats.iter().map(|seat| seat.computed));
        match st.pending_aggregate {
            None => fp.push_u64(0),
            Some((held_by, max_cost, arg, min_alpha)) => {
                fp.push_u64(1);
                fp.push_usize(held_by);
                fp.push_f64(max_cost);
                fp.push_usize(arg);
                fp.push_f64(min_alpha);
            }
        }
        fp.push_f64(round.global_cost);
        fp.push_usize(round.straggler);
        fp.push_f64(st.straggler_alpha);
    }
}

impl TokenState {
    /// Folds worker `me` into the pass-1 token and forwards it.
    fn forward_aggregate<L: LatencyModel, S: Scheduler + ?Sized>(
        &mut self,
        round: &mut Round<Ring>,
        me: usize,
        (max_cost, arg, min_alpha): (f64, usize, f64),
        cx: &mut Cx<'_, L, S>,
    ) {
        let (max_cost, straggler) = if round.local_costs[me] > max_cost {
            (round.local_costs[me], me)
        } else {
            (max_cost, arg)
        };
        let min_alpha = min_alpha.min(cx.alphas[me]);
        let payload = Payload::RingAggregate { max_cost, straggler, min_alpha };
        hop(round, cx, me, self.seats[me].succ, payload);
    }
}

/// Sends `payload` from worker `from` to worker `to`.
fn hop<L: LatencyModel, S: Scheduler + ?Sized>(
    round: &mut Round<Ring>,
    cx: &mut Cx<'_, L, S>,
    from: usize,
    to: usize,
    payload: Payload,
) {
    let msg =
        Message { from: NodeId::Worker(from), to: NodeId::Worker(to), round: round.t, payload };
    round.send(cx, msg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Crash, FaultPlan};
    use crate::latency::FixedLatency;
    use crate::master_worker::MasterWorkerSim;
    use dolbie_core::environment::{RotatingStragglerEnvironment, StaticLinearEnvironment};
    use dolbie_core::DolbieConfig;

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
