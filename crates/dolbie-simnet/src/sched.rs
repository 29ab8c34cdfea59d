//! Scheduler injection points: controlled nondeterminism for the sims.
//!
//! Every source of nondeterminism in the protocol simulations is routed
//! through one trait so that a model checker can *enumerate* it instead
//! of sampling it:
//!
//! - **Delivery order.** Each event-queue dequeue with more than one
//!   pending event asks [`Scheduler::choose_delivery`] for a rank in the
//!   canonical `(time, seq)` order ([`EventQueue::pop_nth`]).
//! - **Wire faults.** Each drop/duplicate/ack-loss coin inside the
//!   retry envelope ([`FaultPlan::transmit_with`]) becomes a binary
//!   [`Scheduler::decide`] with the seeded hash outcome as the default.
//! - **Crash windows.** Whether a worker actually crashes in a round its
//!   fault plan covers is a [`Scheduler::decide`] (default: it does).
//! - **Membership boundaries.** Whether a scheduled leave/join fires at
//!   its round boundary is a [`Scheduler::decide`] (default: it does),
//!   via [`MembershipSchedule::apply_round_sched`].
//!
//! The default implementation of every method reproduces the uncontrolled
//! sims exactly: [`FifoScheduler`] answers rank 0 (the earliest pending
//! event — `pop_nth(0)` is `pop()`) and every default decision, so
//! `run()` delegating to `run_with_scheduler(rounds, &mut FifoScheduler)`
//! is *bitwise* identical to the pre-scheduler code path. That identity
//! is what lets the chaos sweeps and the model checker share ground: a
//! random sweep case is the model checker's all-default path.
//!
//! [`EventQueue::pop_nth`]: crate::event::EventQueue::pop_nth
//! [`FaultPlan::transmit_with`]: crate::faults::FaultPlan::transmit_with
//! [`MembershipSchedule::apply_round_sched`]: crate::membership::MembershipSchedule::apply_round_sched

use crate::event::{EventQueue, Scheduled};

/// A point at which a fault plan or membership schedule consults the
/// scheduler. Carried alongside the binary decision so an exploring
/// scheduler can label the branch it is taking (and a shrinker can
/// describe it in a reproducer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionPoint {
    /// Drop the data frame of `attempt` on the wire?
    WireDrop {
        /// Protocol round of the message.
        round: usize,
        /// Link attempt index within the retry envelope.
        attempt: usize,
    },
    /// Duplicate the delivered data frame?
    WireDuplicate {
        /// Protocol round of the message.
        round: usize,
        /// Link attempt index within the retry envelope.
        attempt: usize,
    },
    /// Drop the acknowledgement of a delivered attempt?
    WireAckDrop {
        /// Protocol round of the message.
        round: usize,
        /// Link attempt index within the retry envelope.
        attempt: usize,
    },
    /// Does the crash window covering (`worker`, `round`) actually fire?
    Crash {
        /// Worker whose plan window covers the round.
        worker: usize,
        /// The round being started.
        round: usize,
    },
    /// Does the scheduled membership event fire at its round boundary?
    Membership {
        /// The round boundary.
        round: usize,
        /// Worker leaving or joining.
        worker: usize,
        /// `true` for a join, `false` for a leave.
        join: bool,
    },
}

/// Controlled-nondeterminism hooks threaded through
/// `run_with_scheduler` on every protocol sim.
///
/// All methods have defaults reproducing the uncontrolled sims, so a
/// scheduler only overrides the axes it wants to control. The state
/// observation pair ([`wants_state`](Scheduler::wants_state) /
/// [`observe_state`](Scheduler::observe_state)) exists so the sims only
/// pay for fingerprinting when a model checker is actually attached.
pub trait Scheduler {
    /// Picks which pending event to deliver next, as a rank in the
    /// canonical `(time, seq)` order over the `pending` queued events
    /// (`0` = the event `pop()` would deliver). Called only when
    /// `pending > 1`; out-of-range answers are clamped by the caller.
    fn choose_delivery(&mut self, pending: usize) -> usize {
        let _ = pending;
        0
    }

    /// Resolves one binary fault/membership decision. `default` is the
    /// seeded hash outcome the uncontrolled sims would use.
    fn decide(&mut self, point: DecisionPoint, default: bool) -> bool {
        let _ = point;
        default
    }

    /// Whether the sim should compute and report a state fingerprint
    /// before the next delivery choice. Asked before every dequeue, so a
    /// scheduler can observe only where it reads; each `true` costs one
    /// full state hash. [`FifoScheduler`] answers `false`.
    fn wants_state(&self) -> bool {
        false
    }

    /// Receives the canonical state fingerprint computed immediately
    /// before the next [`choose_delivery`](Scheduler::choose_delivery)
    /// call. Only invoked when [`wants_state`](Scheduler::wants_state)
    /// returns `true`.
    fn observe_state(&mut self, fingerprint: u64) {
        let _ = fingerprint;
    }

    /// Test-only sabotage hook: when `true`, the sims skip the simplex
    /// overshoot guard in the straggler pin (re-introducing the PR 4 bug)
    /// so the model checker's violation path can be exercised end to end.
    /// Never overridden outside `dolbie-mc`'s bug-injection tests.
    #[doc(hidden)]
    fn sabotage_overshoot_guard(&self) -> bool {
        false
    }
}

/// The identity scheduler: earliest-event delivery, every default fault
/// decision, no state observation. `run_with_scheduler(rounds, &mut
/// FifoScheduler)` is bitwise identical to the historical `run(rounds)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {}

/// Dequeues the next event under scheduler control: FIFO when zero or
/// one event is pending (no choice exists — the scheduler is not even
/// consulted, keeping decision traces free of forced moves), otherwise
/// the scheduler's chosen rank in canonical order, clamped into range.
pub fn pop_with<E, S: Scheduler + ?Sized>(
    queue: &mut EventQueue<E>,
    sched: &mut S,
) -> Option<Scheduled<E>> {
    match queue.len() {
        0 => None,
        1 => queue.pop(),
        pending => {
            let rank = sched.choose_delivery(pending).min(pending - 1);
            queue.pop_nth(rank)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_scheduler_answers_defaults() {
        let mut fifo = FifoScheduler;
        assert_eq!(fifo.choose_delivery(5), 0);
        assert!(fifo.decide(DecisionPoint::Crash { worker: 0, round: 0 }, true));
        assert!(!fifo.decide(DecisionPoint::Crash { worker: 0, round: 0 }, false));
        assert!(!fifo.wants_state());
        assert!(!fifo.sabotage_overshoot_guard());
    }

    #[test]
    fn pop_with_clamps_out_of_range_ranks() {
        struct Always(usize);
        impl Scheduler for Always {
            fn choose_delivery(&mut self, _pending: usize) -> usize {
                self.0
            }
        }
        let mut queue = EventQueue::new();
        queue.schedule(1.0, "a");
        queue.schedule(2.0, "b");
        let mut sched = Always(99);
        let got = pop_with(&mut queue, &mut sched).unwrap();
        assert_eq!(got.event, "b");
        // The remaining (earlier) event still pops, and the clock does
        // not run backwards.
        let rest = pop_with(&mut queue, &mut sched).unwrap();
        assert_eq!(rest.event, "a");
        assert_eq!(queue.now(), 2.0);
    }

    #[test]
    fn pop_with_is_fifo_under_the_fifo_scheduler() {
        let mut controlled = EventQueue::new();
        let mut plain = EventQueue::new();
        for (t, e) in [(3.0, "c"), (1.0, "a"), (2.0, "b")] {
            controlled.schedule(t, e);
            plain.schedule(t, e);
        }
        let mut fifo = FifoScheduler;
        while let Some(expect) = plain.pop() {
            let got = pop_with(&mut controlled, &mut fifo).unwrap();
            assert_eq!(got.event, expect.event);
            assert_eq!(got.time.to_bits(), expect.time.to_bits());
        }
        assert!(pop_with(&mut controlled, &mut fifo).is_none());
    }
}
