//! Deterministic, seeded fault injection shared by all three protocol
//! simulators.
//!
//! The paper motivates the fully-distributed architecture with fault
//! tolerance ("no single point of failure", §IV-C) but never evaluates
//! faults. This module is the evaluation substrate: one [`FaultPlan`]
//! describes every fault a run injects —
//!
//! - **crash windows** ([`Crash`]): a worker neither executes nor responds
//!   for a range of rounds; survivors freeze its share and balance among
//!   themselves (the recovery policy all three architectures implement
//!   identically, so their trajectories agree even through faults);
//! - **message loss and duplication**: every logical protocol message is
//!   carried by a simulated reliable link layer — each physical
//!   transmission is dropped with [`FaultPlan::drop_probability`] and an
//!   arriving copy is duplicated with
//!   [`FaultPlan::duplicate_probability`]; the sender retransmits on an
//!   ack timeout with exponential backoff ([`RetryPolicy`]) until a data
//!   copy *and* its ack both get through (the final attempt is forced
//!   through, so delivery — and therefore protocol progress — is
//!   guaranteed);
//! - **cost timeouts**: a coordinator-side report deadline. Only the
//!   master-worker protocol has a coordinator, so
//!   [`FaultPlan::cost_timeout`] is honored by `MasterWorkerSim` and
//!   documented as a no-op for the leaderless architectures.
//!
//! ## Determinism
//!
//! Fault decisions must not depend on execution order — the experiment
//! harness replays runs across arbitrary thread counts and requires
//! byte-identical outputs. Every drop/duplicate decision is therefore a
//! pure hash of `(seed, round, from, to, payload kind, attempt, channel)`
//! rather than a draw from a stateful RNG: the same message meets the same
//! fate no matter when it is sent or what else is in flight. An empty plan
//! ([`FaultPlan::none`]) takes a dedicated lossless path through
//! [`FaultPlan::transmit`] that adds no retries, acks, or bytes, so
//! fault-free runs reproduce the pre-fault-layer traces bitwise.

use crate::message::{Message, NodeId, Payload};
use dolbie_core::fingerprint::mix64;

/// A window of rounds during which a worker is unresponsive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// The crashed worker.
    pub worker: usize,
    /// First affected round (inclusive).
    pub from_round: usize,
    /// First healthy round again (exclusive end).
    pub until_round: usize,
}

impl Crash {
    /// Whether this crash window makes `worker` unresponsive in `round`.
    pub fn covers(&self, worker: usize, round: usize) -> bool {
        self.worker == worker && round >= self.from_round && round < self.until_round
    }
}

/// Retransmission parameters of the simulated reliable link layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Seconds the sender waits for an ack before the first retransmission.
    pub ack_timeout: f64,
    /// Multiplicative backoff applied to the ack timeout per retry.
    pub backoff: f64,
    /// Hard cap on physical transmissions of one logical message; the
    /// final attempt is forced through so delivery is guaranteed.
    pub max_attempts: usize,
}

impl RetryPolicy {
    /// Validates the policy.
    ///
    /// # Panics
    ///
    /// Panics if `ack_timeout` is not positive and finite, `backoff < 1`,
    /// or `max_attempts == 0`.
    pub fn new(ack_timeout: f64, backoff: f64, max_attempts: usize) -> Self {
        assert!(
            ack_timeout > 0.0 && ack_timeout.is_finite(),
            "ack timeout must be positive and finite"
        );
        assert!(backoff >= 1.0 && backoff.is_finite(), "backoff factor must be >= 1");
        assert!(max_attempts >= 1, "at least one transmission attempt is required");
        Self { ack_timeout, backoff, max_attempts }
    }
}

impl Default for RetryPolicy {
    /// 50 ms initial ack timeout, doubling per retry, at most 16 attempts.
    fn default() -> Self {
        Self { ack_timeout: 0.05, backoff: 2.0, max_attempts: 16 }
    }
}

/// Wire size of a link-layer acknowledgement frame: the 16-byte header
/// (sender, recipient, round tag) and no payload, matching the accounting
/// model of [`Payload::size_bytes`].
pub const ACK_BYTES: usize = 16;

/// A seeded, deterministic description of every fault a run injects.
///
/// # Examples
///
/// ```
/// use dolbie_simnet::faults::{Crash, FaultPlan};
///
/// let plan = FaultPlan::seeded(7)
///     .with_crash(Crash { worker: 1, from_round: 3, until_round: 6 })
///     .with_drop_probability(0.1);
/// assert!(plan.crashed(1, 4));
/// assert!(!plan.crashed(1, 6));
/// assert!(!plan.is_lossless());
/// assert!(FaultPlan::none().is_lossless());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every per-message fault decision.
    pub seed: u64,
    /// Crash windows.
    pub crashes: Vec<Crash>,
    /// Coordinator-side cost-report deadline in seconds (master-worker
    /// only; the leaderless architectures have no coordinator to enforce
    /// it and ignore the field).
    pub cost_timeout: Option<f64>,
    /// Probability that a physical transmission (data or ack) is dropped.
    pub drop_probability: f64,
    /// Probability that a delivered data copy is duplicated in flight.
    pub duplicate_probability: f64,
    /// Retransmission parameters used when the plan is lossy.
    pub retry: RetryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Distinguishes the hash streams of one attempt's fault decisions.
#[derive(Clone, Copy)]
enum Channel {
    Data,
    Ack,
    Duplicate,
}

impl FaultPlan {
    /// The empty plan: no crashes, no timeout, lossless links.
    pub fn none() -> Self {
        Self {
            seed: 0,
            crashes: Vec::new(),
            cost_timeout: None,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            retry: RetryPolicy::default(),
        }
    }

    /// An empty plan carrying `seed` for later probabilistic faults.
    pub fn seeded(seed: u64) -> Self {
        Self { seed, ..Self::none() }
    }

    /// Adds a crash window.
    pub fn with_crash(mut self, crash: Crash) -> Self {
        self.crashes.push(crash);
        self
    }

    /// Sets the coordinator-side cost-report deadline (seconds from the
    /// round's barrier time).
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is not positive and finite.
    pub fn with_cost_timeout(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0 && seconds.is_finite(), "timeout must be positive");
        self.cost_timeout = Some(seconds);
        self
    }

    /// Sets the per-transmission drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)` (a probability of 1 could never
    /// deliver anything without the forced final attempt doing all the
    /// work, which is a misconfiguration, not a fault model).
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0, 1)");
        self.drop_probability = p;
        self
    }

    /// Sets the per-delivery duplication probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    pub fn with_duplicate_probability(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "duplicate probability must be in [0, 1)");
        self.duplicate_probability = p;
        self
    }

    /// Overrides the retransmission parameters.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Whether any crash window makes `worker` unresponsive in `round`.
    pub fn crashed(&self, worker: usize, round: usize) -> bool {
        self.crashes.iter().any(|c| c.covers(worker, round))
    }

    /// Whether the plan's links neither drop nor duplicate messages.
    pub fn is_lossless(&self) -> bool {
        self.drop_probability == 0.0 && self.duplicate_probability == 0.0
    }

    /// Largest worker index any crash window names, for range validation.
    pub fn max_crash_worker(&self) -> Option<usize> {
        self.crashes.iter().map(|c| c.worker).max()
    }

    /// Simulates carrying one logical message over the (possibly lossy)
    /// link, given the latency model's one-way delay for it.
    ///
    /// Returns when the receiver first holds the message and what the
    /// retransmission machinery cost on the wire. On a lossless plan this
    /// is exactly one transmission with no acks — byte-for-byte the
    /// pre-fault-layer behavior.
    pub fn transmit(&self, message: &Message, latency_delay: f64) -> LinkOutcome {
        self.transmit_with(message, latency_delay, &mut crate::sched::FifoScheduler)
    }

    /// [`transmit`](Self::transmit) with every drop/duplicate/ack-loss
    /// coin routed through a [`Scheduler`](crate::sched::Scheduler): each
    /// becomes a binary [`decide`](crate::sched::Scheduler::decide) whose
    /// default is the seeded hash outcome, so the
    /// [`FifoScheduler`](crate::sched::FifoScheduler) reproduces
    /// `transmit` bitwise while a model checker can branch on both sides
    /// of every coin within the retry envelope. The forced final attempt
    /// never consults the scheduler — loss stays delay-only by
    /// construction, in the controlled runs too.
    pub fn transmit_with<S: crate::sched::Scheduler + ?Sized>(
        &self,
        message: &Message,
        latency_delay: f64,
        sched: &mut S,
    ) -> LinkOutcome {
        use crate::sched::DecisionPoint;
        if self.is_lossless() {
            return LinkOutcome {
                delivery_delay: latency_delay,
                retries: 0,
                acks: 0,
                duplicates: 0,
                extra_bytes: 0,
            };
        }
        let round = message.round;
        // Every coin of this message shares the first four key words, so
        // the chain is folded over them once and finished per coin.
        let key = self.message_key(message);
        let mut outcome =
            LinkOutcome { delivery_delay: 0.0, retries: 0, acks: 0, duplicates: 0, extra_bytes: 0 };
        let mut delivery: Option<f64> = None;
        let mut offset = 0.0;
        let mut rto = self.retry.ack_timeout;
        for attempt in 0..self.retry.max_attempts {
            let forced = attempt + 1 == self.retry.max_attempts;
            if attempt > 0 {
                outcome.retries += 1;
                outcome.extra_bytes += message.size_bytes();
            }
            let data_arrives = forced
                || !sched.decide(
                    DecisionPoint::WireDrop { round, attempt },
                    keyed_chance(key, attempt, Channel::Data, self.drop_probability),
                );
            if data_arrives {
                if delivery.is_none() {
                    delivery = Some(offset + latency_delay);
                }
                if sched.decide(
                    DecisionPoint::WireDuplicate { round, attempt },
                    keyed_chance(key, attempt, Channel::Duplicate, self.duplicate_probability),
                ) {
                    outcome.duplicates += 1;
                    outcome.extra_bytes += message.size_bytes();
                }
                // The receiver acks every arriving copy; the sender stops
                // once one ack makes it back.
                outcome.acks += 1;
                outcome.extra_bytes += ACK_BYTES;
                let ack_arrives = forced
                    || !sched.decide(
                        DecisionPoint::WireAckDrop { round, attempt },
                        keyed_chance(key, attempt, Channel::Ack, self.drop_probability),
                    );
                if ack_arrives {
                    break;
                }
            }
            offset += rto;
            rto *= self.retry.backoff;
        }
        outcome.delivery_delay = delivery.expect("the forced final attempt always delivers");
        outcome
    }

    /// The coin chain of [`FaultPlan::hashed_chance`] folded over a
    /// message's `(round, from, to, payload kind)` key: every fault coin
    /// of the message continues from here with its attempt and channel
    /// ([`keyed_chance`]).
    fn message_key(&self, message: &Message) -> u64 {
        [
            message.round as u64,
            node_code(message.from),
            node_code(message.to),
            payload_kind(&message.payload),
        ]
        .into_iter()
        .fold(self.seed ^ 0x9e37_79b9_7f4a_7c15, |h, word| mix64(h ^ word))
    }

    /// Whether a real socket-layer data transmission is dropped.
    ///
    /// This is the wire-runtime (`dolbie-net`) counterpart of the
    /// simulator-internal decision stream: the same plan drives the same
    /// kind of pure, order-independent per-attempt fate, but keyed on a
    /// link-layer sequence number and node codes instead of a simulated
    /// [`Message`], because the wire runtime frames its own traffic.
    ///
    /// # Examples
    ///
    /// ```
    /// use dolbie_simnet::faults::FaultPlan;
    ///
    /// let plan = FaultPlan::seeded(7).with_drop_probability(0.5);
    /// // Pure: the same transmission always meets the same fate.
    /// assert_eq!(plan.wire_drop(3, 0, 1, 0), plan.wire_drop(3, 0, 1, 0));
    /// // Lossless plans never drop.
    /// assert!(!FaultPlan::none().wire_drop(3, 0, 1, 0));
    /// ```
    pub fn wire_drop(&self, seq: u64, from: u64, to: u64, attempt: usize) -> bool {
        self.hashed_chance(
            [seq, from, to, WIRE_KIND, attempt as u64, Channel::Data as u64],
            self.drop_probability,
        )
    }

    /// The shared pure-hash Bernoulli draw behind every fault decision.
    fn hashed_chance(&self, words: [u64; 6], p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for word in words {
            h = mix64(h ^ word);
        }
        unit_draw(h) < p
    }
}

/// Pure per-message fault decision: `true` with probability `p`,
/// independent of execution order. Finishes the chain of
/// [`FaultPlan::message_key`] with the attempt and channel words, so it
/// draws exactly what [`FaultPlan::hashed_chance`] draws for the full
/// six-word key.
fn keyed_chance(key: u64, attempt: usize, channel: Channel, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    unit_draw(mix64(mix64(key ^ attempt as u64) ^ channel as u64)) < p
}

/// Maps a hash to a uniform draw in `[0, 1)` from its top 53 bits.
fn unit_draw(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Payload-kind code reserved for the wire runtime's decision stream, so
/// socket-layer fates never collide with any simulated [`Payload`] kind.
const WIRE_KIND: u64 = 0xD0;

/// One logical message's trip through the link layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkOutcome {
    /// Seconds from the logical send until the receiver first holds the
    /// message (retransmission wait included).
    pub delivery_delay: f64,
    /// Physical data transmissions beyond the first attempt.
    pub retries: usize,
    /// Acknowledgement frames the receiver put on the wire.
    pub acks: usize,
    /// Network-duplicated data copies (deduplicated before the protocol
    /// sees them).
    pub duplicates: usize,
    /// Wire bytes beyond the first data transmission (retransmissions,
    /// duplicates, and acks).
    pub extra_bytes: usize,
}

/// Per-round wire accounting shared by the protocol simulators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Logical protocol messages (the §IV-C counts).
    pub messages: usize,
    /// Total wire bytes, retransmissions and acks included.
    pub bytes: usize,
    /// Data retransmissions beyond each message's first attempt.
    pub retries: usize,
    /// Acknowledgement frames.
    pub acks: usize,
    /// Network-duplicated data copies.
    pub duplicates: usize,
}

impl LinkStats {
    /// Folds one logical message and its link-layer outcome into the
    /// round's totals.
    pub fn record(&mut self, message: &Message, outcome: &LinkOutcome) {
        self.messages += 1;
        self.bytes += message.size_bytes() + outcome.extra_bytes;
        self.retries += outcome.retries;
        self.acks += outcome.acks;
        self.duplicates += outcome.duplicates;
    }
}

fn node_code(node: NodeId) -> u64 {
    match node {
        NodeId::Master => 0,
        NodeId::Worker(i) => i as u64 + 1,
    }
}

fn payload_kind(payload: &Payload) -> u64 {
    match payload {
        Payload::LocalCost { .. } => 1,
        Payload::CostAndStepSize { .. } => 2,
        Payload::Coordination { .. } => 3,
        Payload::Decision { .. } => 4,
        Payload::StragglerAssignment { .. } => 5,
        Payload::RingAggregate { .. } => 6,
        Payload::RingUpdate { .. } => 7,
        Payload::ShardAggregate { .. } => 8,
        Payload::ShardCoordination { .. } => 9,
        Payload::ShardPartial { .. } => 10,
        Payload::ShardRescale { .. } => 11,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(round: usize, from: usize, to: usize) -> Message {
        Message {
            from: NodeId::Worker(from),
            to: NodeId::Worker(to),
            round,
            payload: Payload::Decision { share: 0.25 },
        }
    }

    #[test]
    fn lossless_plan_is_a_single_bare_transmission() {
        let plan = FaultPlan::none();
        let out = plan.transmit(&msg(0, 0, 1), 0.003);
        assert_eq!(
            out,
            LinkOutcome {
                delivery_delay: 0.003,
                retries: 0,
                acks: 0,
                duplicates: 0,
                extra_bytes: 0
            }
        );
    }

    #[test]
    fn crash_windows_cover_their_rounds() {
        let plan = FaultPlan::none()
            .with_crash(Crash { worker: 2, from_round: 5, until_round: 9 })
            .with_crash(Crash { worker: 0, from_round: 0, until_round: 1 });
        assert!(plan.crashed(2, 5) && plan.crashed(2, 8));
        assert!(!plan.crashed(2, 4) && !plan.crashed(2, 9));
        assert!(plan.crashed(0, 0) && !plan.crashed(1, 0));
        assert_eq!(plan.max_crash_worker(), Some(2));
        assert_eq!(FaultPlan::none().max_crash_worker(), None);
    }

    #[test]
    fn transmit_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(1).with_drop_probability(0.5);
        let b = FaultPlan::seeded(2).with_drop_probability(0.5);
        let outcomes_a: Vec<LinkOutcome> =
            (0..64).map(|t| a.transmit(&msg(t, 0, 1), 0.001)).collect();
        let outcomes_a2: Vec<LinkOutcome> =
            (0..64).map(|t| a.transmit(&msg(t, 0, 1), 0.001)).collect();
        let outcomes_b: Vec<LinkOutcome> =
            (0..64).map(|t| b.transmit(&msg(t, 0, 1), 0.001)).collect();
        assert_eq!(outcomes_a, outcomes_a2, "same plan, same fate");
        assert_ne!(outcomes_a, outcomes_b, "different seeds diverge");
        // With 50% loss, some message somewhere needed a retry.
        assert!(outcomes_a.iter().any(|o| o.retries > 0));
        // And every message was eventually delivered with bounded delay.
        for o in &outcomes_a {
            assert!(o.delivery_delay.is_finite() && o.delivery_delay >= 0.001);
        }
    }

    #[test]
    fn retries_wait_out_exponential_backoff() {
        // Find a message whose first data attempt is dropped; its delivery
        // must be delayed by at least the first ack timeout.
        let plan = FaultPlan::seeded(3)
            .with_drop_probability(0.6)
            .with_retry(RetryPolicy::new(0.1, 2.0, 10));
        let delayed = (0..256)
            .map(|t| plan.transmit(&msg(t, 1, 2), 0.0))
            .find(|o| o.delivery_delay > 0.0)
            .expect("60% loss must delay someone");
        assert!(delayed.delivery_delay >= 0.1 - 1e-12);
    }

    #[test]
    fn duplicates_do_not_delay_delivery() {
        let plan = FaultPlan::seeded(9).with_duplicate_probability(0.5);
        let mut dup_total = 0;
        for t in 0..128 {
            let out = plan.transmit(&msg(t, 0, 3), 0.002);
            // Duplication without loss: one attempt, delivered on time.
            assert_eq!(out.retries, 0);
            assert_eq!(out.delivery_delay, 0.002);
            dup_total += out.duplicates;
        }
        assert!(dup_total > 0, "50% duplication must fire");
    }

    #[test]
    fn wire_bytes_account_for_every_frame() {
        let plan = FaultPlan::seeded(4).with_drop_probability(0.4).with_duplicate_probability(0.2);
        for t in 0..64 {
            let m = msg(t, 0, 1);
            let out = plan.transmit(&m, 0.001);
            assert_eq!(
                out.extra_bytes,
                (out.retries + out.duplicates) * m.size_bytes() + out.acks * ACK_BYTES
            );
            assert!(out.acks >= 1, "delivery implies at least one ack frame");
        }
    }

    #[test]
    fn link_stats_fold_logical_and_physical_traffic() {
        let plan = FaultPlan::seeded(5).with_drop_probability(0.3);
        let mut stats = LinkStats::default();
        let mut expected_bytes = 0;
        for t in 0..32 {
            let m = msg(t, 2, 0);
            let out = plan.transmit(&m, 0.001);
            expected_bytes += m.size_bytes() + out.extra_bytes;
            stats.record(&m, &out);
        }
        assert_eq!(stats.messages, 32);
        assert_eq!(stats.bytes, expected_bytes);
        assert!(stats.acks >= 32, "lossy links ack every delivery");
    }

    #[test]
    fn wire_decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(11).with_drop_probability(0.5);
        let b = FaultPlan::seeded(12).with_drop_probability(0.5);
        let stream = |plan: &FaultPlan| -> Vec<bool> {
            (0..256u64).map(|seq| plan.wire_drop(seq, 0, 3, 0)).collect()
        };
        assert_eq!(stream(&a), stream(&a), "pure decisions replay identically");
        assert_ne!(stream(&a), stream(&b), "different seeds diverge");
        // At 50%, the stream both drops and delivers somewhere in 256 draws.
        let s = stream(&a);
        assert!(s.iter().any(|&d| d));
        assert!(s.iter().any(|&d| !d));
    }

    #[test]
    fn wire_decisions_vary_with_every_key_component() {
        let plan = FaultPlan::seeded(13).with_drop_probability(0.5);
        let base: Vec<bool> = (0..128u64).map(|s| plan.wire_drop(s, 0, 1, 0)).collect();
        let other_to: Vec<bool> = (0..128u64).map(|s| plan.wire_drop(s, 0, 2, 0)).collect();
        let other_from: Vec<bool> = (0..128u64).map(|s| plan.wire_drop(s, 1, 1, 0)).collect();
        let other_attempt: Vec<bool> = (0..128u64).map(|s| plan.wire_drop(s, 0, 1, 1)).collect();
        assert_ne!(base, other_to);
        assert_ne!(base, other_from);
        assert_ne!(base, other_attempt);
    }

    /// The per-message keyed chain that `transmit_with` flips is the
    /// six-word chain of `hashed_chance`, coin for coin: every payload
    /// kind, master and worker endpoints, every attempt of the retry
    /// envelope, every channel, and the probability edges.
    #[test]
    fn keyed_coins_draw_what_the_six_word_chain_draws() {
        let payloads = [
            Payload::LocalCost { cost: 1.5 },
            Payload::CostAndStepSize { cost: 1.5, alpha: 0.5 },
            Payload::Coordination { global_cost: 2.0, alpha: 0.5, is_straggler: false },
            Payload::Decision { share: 0.25 },
            Payload::StragglerAssignment { share: 0.25 },
            Payload::RingAggregate { max_cost: 2.0, straggler: 1, min_alpha: 0.5 },
            Payload::RingUpdate { global_cost: 2.0, straggler: 1, alpha: 0.5, sum_shares: 0.75 },
            Payload::ShardAggregate { max_cost: 2.0, straggler: 1, share: 0.25 },
            Payload::ShardCoordination { global_cost: 2.0, alpha: 0.5, straggler: 1 },
            Payload::ShardPartial { sum: 0.75 },
            Payload::ShardRescale { scale: 0.9 },
        ];
        let kinds: Vec<u64> = payloads.iter().map(payload_kind).collect();
        assert_eq!(kinds, (1..=11).collect::<Vec<u64>>(), "one payload of every kind");
        let nodes = [NodeId::Master, NodeId::Worker(0), NodeId::Worker(2)];
        let plan = FaultPlan::seeded(0xC01D).with_drop_probability(0.2);
        let (mut hits, mut misses) = (0, 0);
        for p in [0.0, 0.2, 1.0] {
            for payload in payloads {
                for (from, to) in nodes.iter().flat_map(|&a| nodes.map(|b| (a, b))) {
                    for round in [0, 7] {
                        let message = Message { from, to, round, payload };
                        let key = plan.message_key(&message);
                        for attempt in 0..plan.retry.max_attempts {
                            for channel in [Channel::Data, Channel::Ack, Channel::Duplicate] {
                                let words = [
                                    round as u64,
                                    node_code(from),
                                    node_code(to),
                                    payload_kind(&payload),
                                    attempt as u64,
                                    channel as u64,
                                ];
                                let keyed = keyed_chance(key, attempt, channel, p);
                                assert_eq!(
                                    keyed,
                                    plan.hashed_chance(words, p),
                                    "{words:?}, p = {p}"
                                );
                                if p == 0.2 {
                                    if keyed {
                                        hits += 1;
                                    } else {
                                        misses += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(hits > 0 && misses > 0, "p = 0.2 must draw both outcomes");
    }

    #[test]
    fn lossless_wire_plan_never_drops() {
        let plan = FaultPlan::none();
        for seq in 0..64u64 {
            assert!(!plan.wire_drop(seq, 0, 1, 0));
        }
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn drop_probability_of_one_is_rejected() {
        let _ = FaultPlan::none().with_drop_probability(1.0);
    }

    #[test]
    #[should_panic(expected = "ack timeout")]
    fn non_positive_ack_timeout_is_rejected() {
        let _ = RetryPolicy::new(0.0, 2.0, 4);
    }
}
