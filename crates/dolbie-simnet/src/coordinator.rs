//! The coordinator-over-a-member-set toolkit shared by every
//! architecture in this crate.
//!
//! Master-worker, the token ring, fully-distributed consensus, and the
//! two-level shard tier ([`crate::sharded`]) all perform the same four
//! coordination duties each round, differing only in *who* performs them
//! and over *which* member set:
//!
//! 1. **elect** — pick the straggler among the round's participants
//!    (ascending scan, strict `>`, lowest index on ties);
//! 2. **assist** — each non-straggler takes the eq. (5) risk-averse step
//!    toward the largest share it could absorb without becoming a worse
//!    straggler itself;
//! 3. **pin** — assign the straggler the eq. (6) remainder, with the
//!    engine's floating-point feasibility guard;
//! 4. **tighten** — shrink the step size per eq. (7) against the member
//!    count.
//!
//! Centralizing the four as order-exact helpers is what keeps the
//! architectures' trajectories bit-for-bit identical: the master applies
//! them over all N workers, a shard-master over its N/M slice, the ring
//! distributes (1) and (3) across token passes — but every participant
//! runs the same floating-point expressions in the same order.
//!
//! [`frozen_round`] completes the toolkit with the shared
//! membership-collapse degradation (no responsive member: freeze every
//! share, exchange nothing, continue).

use crate::trace::ProtocolRound;
use dolbie_core::cost::CostFunction;
use dolbie_core::observation::max_acceptable_share;
use dolbie_core::step_size::feasibility_cap;
use dolbie_core::Allocation;

/// The straggler elected for a round: its index and the global cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Elected {
    /// The straggler `s_t` (lowest index attaining the maximum).
    pub straggler: usize,
    /// The global cost `l_t` (the straggler's local cost).
    pub global_cost: f64,
}

/// Duty (1): elects the straggler among the participants — ascending
/// scan, strict `>`, so ties resolve to the lowest index. Returns `None`
/// when nobody participates (membership collapse; see [`frozen_round`]).
///
/// The scan's shape is what lets a shard tier decompose the election: a
/// contiguous shard's local first-maximum, combined across shards in
/// ascending shard order with the same strict `>`, elects the identical
/// worker (comparison is exact — no rounding is involved).
pub fn elect_straggler(local_costs: &[f64], participants: &[bool]) -> Option<Elected> {
    let mut best: Option<Elected> = None;
    for (i, (&cost, &in_round)) in local_costs.iter().zip(participants).enumerate() {
        if !in_round {
            continue;
        }
        match best {
            None => best = Some(Elected { straggler: i, global_cost: cost }),
            Some(b) if cost > b.global_cost => {
                best = Some(Elected { straggler: i, global_cost: cost })
            }
            Some(_) => {}
        }
    }
    best
}

/// Duty (2): one non-straggler's eq. (5) risk-averse step — toward the
/// largest share `x'` it could absorb while staying under the global
/// cost, moved `α` of the way.
///
/// Every architecture must use this exact expression (`x − α·(x − x')`,
/// not an algebraic rearrangement) for the cross-architecture bitwise
/// guarantees to hold.
pub fn assist_step(cost_fn: &dyn CostFunction, share: f64, global_cost: f64, alpha: f64) -> f64 {
    let target = max_acceptable_share(cost_fn, share, global_cost);
    share - alpha * (share - target)
}

/// Duty (4): the eq. (7) step-size tightening — never loosened, capped by
/// the feasibility bound the straggler's new share implies for the
/// current member count.
pub fn tighten_alpha(alpha: f64, member_count: usize, straggler_share: f64) -> f64 {
    alpha.min(feasibility_cap(member_count, straggler_share))
}

/// Duty (3): eq. (6) pin with the engine's feasibility guard, shared by
/// every architecture so guarded rounds stay bitwise identical across
/// them.
///
/// `next` holds every non-straggler's candidate share — the eq. (5)
/// update for the round's deciders, the frozen share for crashed,
/// timed-out, and departed workers. Eq. (7) proves the combined gain
/// fits inside the straggler's share in exact arithmetic, but a
/// zero-share joiner that becomes the straggler right after an epoch
/// boundary can hold a smaller share than the one α was last capped
/// against; mirror the engine's guard (`dolbie_core::shard::RootEngine`)
/// and rescale the gains so constraint (3) survives. In the wire protocol
/// the correction factor rides on the straggler assignment / pass-2
/// token; the sims apply it to the bookkeeping directly. The sums run
/// in ascending worker order at every call site, which is what keeps
/// the architectures' trajectories bit-for-bit equal — a shard tier
/// preserves the order by folding one running accumulator through the
/// shards in ascending shard order.
///
/// This pin deliberately does not call `RootEngine`, the engines' one
/// round tail: it sums naively (`1 − Σ_{i≠s} x_i` in ascending order),
/// not through the running compensated total. That makes the simulated
/// protocols an independent model rather than a replay of the engine —
/// the `1e-9` TCP-vs-simnet cross-check and the `dolbie-mc` state
/// fingerprints are pinned to exactly this arithmetic, so it must not
/// be swapped for the engine's.
pub fn guarded_straggler_pin(old: &[f64], next: &mut [f64], straggler: usize) -> f64 {
    straggler_pin_with_guard(old, next, straggler, true)
}

/// [`guarded_straggler_pin`] with the overshoot guard switchable.
///
/// `guard = true` is the shipping behaviour; `guard = false` re-breaks
/// the PR 4 simplex-overshoot bug (the rescale is skipped, so a
/// zero-share straggler's round can execute `Σx > 1`). The switch exists
/// solely as the model checker's bug-injection target — a deliberately
/// planted violation its exploration, shrinking, and reproducer pipeline
/// must catch end to end. Production call sites all go through the
/// guarded wrapper; only a scheduler whose (test-only)
/// `sabotage_overshoot_guard` hook answers `true` reaches this with
/// `guard = false`.
pub fn straggler_pin_with_guard(
    old: &[f64],
    next: &mut [f64],
    straggler: usize,
    guard: bool,
) -> f64 {
    let mut total_gain = 0.0;
    for (j, (&o, &x)) in old.iter().zip(next.iter()).enumerate() {
        if j != straggler {
            total_gain += x - o;
        }
    }
    let s_old = old[straggler];
    if guard && total_gain > s_old && total_gain > 0.0 {
        let scale = s_old / total_gain;
        for (j, (&o, x)) in old.iter().zip(next.iter_mut()).enumerate() {
            if j != straggler {
                *x = o + scale * (*x - o);
            }
        }
    }
    let mut others = 0.0;
    for (j, &x) in next.iter().enumerate() {
        if j != straggler {
            others += x;
        }
    }
    let s_share = (1.0 - others).max(0.0);
    next[straggler] = s_share;
    s_share
}

/// The record of a round in which no worker was responsive: every share
/// is frozen, nothing executes, nothing is sent. Shared by all
/// architectures so membership collapse degrades identically everywhere.
pub fn frozen_round(
    t: usize,
    shares: &[f64],
    local_costs: Vec<f64>,
    ready_at: &[f64],
    n: usize,
    alpha: f64,
) -> ProtocolRound {
    // The cluster clock does not advance while everyone is down.
    let stall = ready_at.iter().fold(0.0f64, |acc, &r| acc.max(r));
    ProtocolRound {
        round: t,
        allocation: Allocation::from_update(shares.to_vec()).expect("frozen shares stay feasible"),
        local_costs,
        global_cost: 0.0,
        straggler: 0,
        messages: 0,
        bytes: 0,
        retries: 0,
        acks: 0,
        duplicates: 0,
        compute_finished: stall,
        control_finished: stall,
        active: vec![false; n],
        alpha,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dolbie_core::cost::LinearCost;

    #[test]
    fn election_is_lowest_index_first_maximum_over_participants() {
        let costs = [1.0, 5.0, 5.0, 2.0];
        let all = [true; 4];
        let e = elect_straggler(&costs, &all).unwrap();
        assert_eq!((e.straggler, e.global_cost), (1, 5.0), "strict > keeps the first maximum");

        let masked = [true, false, true, true];
        let e = elect_straggler(&costs, &masked).unwrap();
        assert_eq!(e.straggler, 2, "non-participants are invisible");

        assert_eq!(elect_straggler(&costs, &[false; 4]), None, "collapse elects nobody");
    }

    #[test]
    fn election_decomposes_over_contiguous_shards() {
        // Shard-local first-maxima combined in shard order with the same
        // strict > elect the same worker as the flat scan — including
        // across-shard ties.
        let costs = [3.0, 7.0, 7.0, 1.0, 7.0, 2.0];
        let all = [true; 6];
        let flat = elect_straggler(&costs, &all).unwrap();
        let left = elect_straggler(&costs[..3], &all[..3]).unwrap();
        let right = elect_straggler(&costs[3..], &all[3..]).unwrap();
        let combined = if right.global_cost > left.global_cost {
            Elected { straggler: right.straggler + 3, ..right }
        } else {
            left
        };
        assert_eq!(combined, flat);
    }

    #[test]
    fn tighten_never_loosens() {
        let a = tighten_alpha(0.4, 8, 0.02);
        assert!(a <= 0.4);
        assert_eq!(tighten_alpha(a, 8, 0.9), a, "a generous cap leaves alpha unchanged");
    }

    #[test]
    fn assist_step_moves_toward_the_acceptable_share() {
        let f = LinearCost::new(2.0, 0.0);
        let share = 0.1;
        let stepped = assist_step(&f, share, 1.0, 0.5);
        let target = max_acceptable_share(&f, share, 1.0);
        assert!(target > share, "a cheap worker can absorb more");
        assert!(share < stepped && stepped < target, "risk-averse partial step");
        assert_eq!(stepped.to_bits(), (share - 0.5 * (share - target)).to_bits());
    }

    #[test]
    fn guarded_pin_preserves_the_simplex_even_when_gains_overshoot() {
        // Straggler holds 0.01 but the others' combined gain is 0.2: the
        // guard must rescale so the pinned share stays non-negative.
        let old = [0.01, 0.5, 0.49];
        let mut next = [0.01, 0.6, 0.59];
        let s = guarded_straggler_pin(&old, &mut next, 0);
        assert!(s >= 0.0);
        let sum: f64 = next.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
