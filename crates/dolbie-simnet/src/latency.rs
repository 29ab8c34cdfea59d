//! Network latency models for the protocol simulations.
//!
//! The decisions DOLBIE makes are *delay-invariant* — the protocols are
//! synchronous within a round, so message latency affects only the wall
//! clock, never the trajectory. The models here let the experiments (and a
//! property test) demonstrate exactly that, and let the fault-injection
//! extension perturb the network without touching protocol code.

use crate::message::Message;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Computes the in-flight delay of a message.
pub trait LatencyModel {
    /// Seconds between send and delivery of `message`.
    fn delay(&mut self, message: &Message) -> f64;
}

impl<T: LatencyModel + ?Sized> LatencyModel for Box<T> {
    fn delay(&mut self, message: &Message) -> f64 {
        (**self).delay(message)
    }
}

/// Constant per-message base delay plus size-proportional transfer time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedLatency {
    /// Propagation delay per message, in seconds.
    pub base: f64,
    /// Link bandwidth in bytes/second.
    pub bandwidth: f64,
}

impl FixedLatency {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `base < 0` or `bandwidth <= 0`.
    pub fn new(base: f64, bandwidth: f64) -> Self {
        assert!(base >= 0.0 && base.is_finite(), "base delay must be non-negative");
        assert!(bandwidth > 0.0 && !bandwidth.is_nan(), "bandwidth must be positive");
        Self { base, bandwidth }
    }

    /// A LAN-ish default: 0.5 ms base, 1 GB/s.
    pub fn lan() -> Self {
        Self::new(5e-4, 1e9)
    }

    /// Zero-delay network, useful for tests.
    pub fn instant() -> Self {
        Self { base: 0.0, bandwidth: f64::INFINITY }
    }
}

impl LatencyModel for FixedLatency {
    fn delay(&mut self, message: &Message) -> f64 {
        self.base + message.size_bytes() as f64 / self.bandwidth
    }
}

/// Fixed latency plus uniformly distributed jitter, seeded for
/// reproducibility.
#[derive(Debug, Clone)]
pub struct JitteredLatency {
    fixed: FixedLatency,
    jitter_max: f64,
    rng: StdRng,
}

impl JitteredLatency {
    /// Creates the model with jitter drawn uniformly from
    /// `[0, jitter_max]` per message.
    ///
    /// # Panics
    ///
    /// Panics if `jitter_max < 0`.
    pub fn new(fixed: FixedLatency, jitter_max: f64, seed: u64) -> Self {
        assert!(jitter_max >= 0.0 && jitter_max.is_finite(), "jitter must be non-negative");
        Self { fixed, jitter_max, rng: StdRng::seed_from_u64(seed) }
    }
}

impl LatencyModel for JitteredLatency {
    fn delay(&mut self, message: &Message) -> f64 {
        let jitter =
            if self.jitter_max > 0.0 { self.rng.gen_range(0.0..=self.jitter_max) } else { 0.0 };
        self.fixed.delay(message) + jitter
    }
}

/// A topology-aware model: per-link base delays from an `N×N` matrix (plus
/// the master, treated as node `N`), with size-proportional transfer time.
/// Models racks, cross-datacenter links, or any non-uniform fabric — the
/// regime where the ring architecture's neighbor-only traffic can beat
/// all-to-all broadcast despite its `O(N)` depth.
#[derive(Debug, Clone)]
pub struct PerLinkLatency {
    /// `delays[from][to]` in seconds; row/column `N` is the master.
    delays: Vec<Vec<f64>>,
    bandwidth: f64,
}

impl PerLinkLatency {
    /// Creates the model from an `(N+1) × (N+1)` base-delay matrix (the
    /// last index is the master) and a shared link bandwidth in
    /// bytes/second.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty or ragged, any delay is negative or
    /// non-finite, or `bandwidth <= 0`.
    pub fn new(delays: Vec<Vec<f64>>, bandwidth: f64) -> Self {
        assert!(!delays.is_empty(), "delay matrix must be non-empty");
        let n = delays.len();
        for (i, row) in delays.iter().enumerate() {
            assert_eq!(row.len(), n, "delay matrix row {i} is ragged");
            assert!(
                row.iter().all(|d| d.is_finite() && *d >= 0.0),
                "delays must be finite and non-negative"
            );
        }
        assert!(bandwidth > 0.0 && !bandwidth.is_nan(), "bandwidth must be positive");
        Self { delays, bandwidth }
    }

    fn index(&self, node: crate::message::NodeId) -> usize {
        match node {
            crate::message::NodeId::Worker(i) => {
                assert!(i < self.delays.len() - 1, "worker {i} outside the delay matrix");
                i
            }
            crate::message::NodeId::Master => self.delays.len() - 1,
        }
    }
}

impl LatencyModel for PerLinkLatency {
    fn delay(&mut self, message: &Message) -> f64 {
        let from = self.index(message.from);
        let to = self.index(message.to);
        self.delays[from][to] + message.size_bytes() as f64 / self.bandwidth
    }
}

/// Fault injection: wraps a model and stretches delays of messages touching
/// a chosen node by a multiplicative factor during a window of rounds —
/// the "degraded link / slow NIC" scenario of the robustness experiments.
#[derive(Debug, Clone)]
pub struct DegradedNode<M> {
    inner: M,
    node: crate::message::NodeId,
    factor: f64,
    from_round: usize,
    until_round: usize,
}

impl<M: LatencyModel> DegradedNode<M> {
    /// Wraps `inner`; messages to or from `node` in rounds
    /// `[from_round, until_round)` take `factor`× as long.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1`.
    pub fn new(
        inner: M,
        node: crate::message::NodeId,
        factor: f64,
        from_round: usize,
        until_round: usize,
    ) -> Self {
        assert!(factor >= 1.0 && factor.is_finite(), "degradation factor must be >= 1");
        Self { inner, node, factor, from_round, until_round }
    }
}

impl<M: LatencyModel> LatencyModel for DegradedNode<M> {
    fn delay(&mut self, message: &Message) -> f64 {
        let base = self.inner.delay(message);
        let touches = message.from == self.node || message.to == self.node;
        let active = message.round >= self.from_round && message.round < self.until_round;
        if touches && active {
            base * self.factor
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{NodeId, Payload};

    fn msg(round: usize) -> Message {
        Message {
            from: NodeId::Worker(0),
            to: NodeId::Master,
            round,
            payload: Payload::LocalCost { cost: 1.0 },
        }
    }

    #[test]
    fn fixed_latency_is_base_plus_transfer() {
        let mut m = FixedLatency::new(0.001, 24.0);
        // 24-byte message over 24 B/s = 1 s transfer.
        assert!((m.delay(&msg(0)) - 1.001).abs() < 1e-12);
    }

    #[test]
    fn instant_is_zero() {
        let mut m = FixedLatency::instant();
        assert_eq!(m.delay(&msg(0)), 0.0);
    }

    #[test]
    fn jitter_is_bounded_and_reproducible() {
        let mut a = JitteredLatency::new(FixedLatency::instant(), 0.01, 42);
        let mut b = JitteredLatency::new(FixedLatency::instant(), 0.01, 42);
        for _ in 0..100 {
            let da = a.delay(&msg(0));
            let db = b.delay(&msg(0));
            assert_eq!(da, db, "same seed, same jitter");
            assert!((0.0..=0.01).contains(&da));
        }
    }

    #[test]
    fn zero_jitter_matches_fixed() {
        let mut j = JitteredLatency::new(FixedLatency::lan(), 0.0, 1);
        let mut f = FixedLatency::lan();
        assert_eq!(j.delay(&msg(0)), f.delay(&msg(0)));
    }

    #[test]
    fn degraded_node_stretches_matching_messages() {
        let mut m =
            DegradedNode::new(FixedLatency::new(1.0, f64::INFINITY), NodeId::Worker(0), 3.0, 2, 5);
        assert_eq!(m.delay(&msg(0)), 1.0, "before the window");
        assert_eq!(m.delay(&msg(2)), 3.0, "inside the window");
        assert_eq!(m.delay(&msg(4)), 3.0);
        assert_eq!(m.delay(&msg(5)), 1.0, "after the window");
        // A message not touching the node is unaffected.
        let other = Message {
            from: NodeId::Worker(1),
            to: NodeId::Worker(2),
            round: 3,
            payload: Payload::Decision { share: 0.1 },
        };
        assert_eq!(m.delay(&other), 1.0);
    }

    #[test]
    fn per_link_latency_uses_the_matrix() {
        let mut m = PerLinkLatency::new(
            vec![vec![0.0, 0.001, 0.5], vec![0.001, 0.0, 0.5], vec![0.5, 0.5, 0.0]],
            f64::INFINITY,
        );
        // Worker 0 -> worker 1: near link.
        let near = Message {
            from: NodeId::Worker(0),
            to: NodeId::Worker(1),
            round: 0,
            payload: Payload::Decision { share: 0.1 },
        };
        assert_eq!(m.delay(&near), 0.001);
        // Worker 0 -> master (index N): far link.
        assert_eq!(m.delay(&msg(0)), 0.5);
    }

    #[test]
    fn ring_neighbors_beat_master_worker_on_a_ring_fabric() {
        // On a ring-shaped fabric with a far-away coordinator, neighbor-only
        // ring traffic yields a lower control overhead than the star
        // topology despite O(N) hops.
        use crate::master_worker::MasterWorkerSim;
        use crate::ring::RingSim;
        use dolbie_core::environment::StaticLinearEnvironment;
        use dolbie_core::DolbieConfig;
        let n = 6;
        let env = StaticLinearEnvironment::from_slopes((1..=n).map(|i| i as f64).collect());
        // Ring neighbors (`|i − j| = 1 mod n`) are 0.5 ms apart; every
        // other link, the master's included, is 80 ms.
        let delay = |from: usize, to: usize| {
            let d = from.abs_diff(to);
            if from < n && to < n && (d == 1 || d == n - 1) {
                0.0005
            } else {
                0.08
            }
        };
        let topo = || {
            let delays = (0..=n).map(|from| (0..=n).map(|to| delay(from, to)).collect()).collect();
            PerLinkLatency::new(delays, 1e9)
        };
        let mw = MasterWorkerSim::new(env.clone(), DolbieConfig::new(), topo()).run(5);
        let ring = RingSim::new(env, DolbieConfig::new(), topo()).run(5);
        // 4 star phases x 0.08 s vs ~2N neighbor hops at 0.0005 s.
        assert!(
            ring.mean_control_overhead() < mw.mean_control_overhead(),
            "ring {} vs mw {}",
            ring.mean_control_overhead(),
            mw.mean_control_overhead()
        );
        // And, as always, identical decisions.
        for (a, b) in mw.rounds.iter().zip(&ring.rounds) {
            assert!(a.allocation.l2_distance(&b.allocation) < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_delay_matrix_panics() {
        let _ = PerLinkLatency::new(vec![vec![0.0, 1.0], vec![0.0]], 1e9);
    }

    #[test]
    fn boxed_model_works() {
        let mut m: Box<dyn LatencyModel> = Box::new(FixedLatency::instant());
        assert_eq!(m.delay(&msg(0)), 0.0);
    }
}
