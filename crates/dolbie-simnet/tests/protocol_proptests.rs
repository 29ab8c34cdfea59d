//! Property tests: all protocol implementations agree with the sequential
//! engine on randomized time-varying environments, under randomized
//! network conditions.

use dolbie_core::cost::{DynCost, LatencyCost, LinearCost};
use dolbie_core::environment::FnEnvironment;
use dolbie_core::{run_episode, Dolbie, DolbieConfig, EpisodeOptions};
use dolbie_simnet::{FixedLatency, FullyDistributedSim, JitteredLatency, MasterWorkerSim, RingSim};
use proptest::prelude::*;

/// Deterministic, seed-derived per-round latency costs.
fn seeded_costs(seed: u64, round: usize, n: usize) -> Vec<DynCost> {
    (0..n)
        .map(|i| {
            let h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((round as u64) << 24)
                .wrapping_add(i as u64)
                .wrapping_mul(0x2545_F491_4F6C_DD1D);
            if h & 1 == 0 {
                let speed = 50.0 + (h % 2000) as f64;
                let comm = ((h >> 13) % 100) as f64 / 1000.0;
                Box::new(LatencyCost::new(256.0, speed, comm)) as DynCost
            } else {
                let slope = 0.1 + (h % 500) as f64 / 100.0;
                Box::new(LinearCost::new(slope, ((h >> 9) % 5) as f64 * 0.02)) as DynCost
            }
        })
        .collect()
}

fn env_for(seed: u64, n: usize) -> FnEnvironment<impl FnMut(usize) -> Vec<DynCost>> {
    FnEnvironment::new(n, move |round| seeded_costs(seed, round, n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Master-worker, fully-distributed and ring all reproduce the
    /// sequential trajectory on arbitrary environments.
    #[test]
    fn all_protocols_match_sequential(seed in 0u64..u64::MAX, n in 2usize..8) {
        const ROUNDS: usize = 15;
        let mw = MasterWorkerSim::new(env_for(seed, n), DolbieConfig::new(), FixedLatency::lan())
            .run(ROUNDS);
        let fd = FullyDistributedSim::new(env_for(seed, n), DolbieConfig::new(), FixedLatency::lan())
            .run(ROUNDS);
        let ring = RingSim::new(env_for(seed, n), DolbieConfig::new(), FixedLatency::lan())
            .run(ROUNDS);

        let mut sequential = Dolbie::new(n);
        let mut driver = env_for(seed, n);
        let reference = run_episode(&mut sequential, &mut driver, EpisodeOptions::new(ROUNDS));

        for (t, record) in reference.records.iter().enumerate() {
            let r = &record.allocation;
            prop_assert!(mw.rounds[t].allocation.l2_distance(r) < 1e-9, "mw diverged at {t}");
            prop_assert!(fd.rounds[t].allocation.l2_distance(r) < 1e-9, "fd diverged at {t}");
            prop_assert!(ring.rounds[t].allocation.l2_distance(r) < 1e-9, "ring diverged at {t}");
        }
    }

    /// Random network jitter never changes any protocol's decisions.
    #[test]
    fn jitter_invariance(seed in 0u64..u64::MAX, net_seed in 0u64..u64::MAX, n in 2usize..7) {
        const ROUNDS: usize = 10;
        let calm = MasterWorkerSim::new(env_for(seed, n), DolbieConfig::new(), FixedLatency::instant())
            .run(ROUNDS);
        let jitter = JitteredLatency::new(FixedLatency::new(0.02, 1e5), 0.1, net_seed);
        let stormy = MasterWorkerSim::new(env_for(seed, n), DolbieConfig::new(), jitter.clone())
            .run(ROUNDS);
        for (a, b) in calm.rounds.iter().zip(&stormy.rounds) {
            prop_assert!(a.allocation.l2_distance(&b.allocation) < 1e-12);
        }
        let ring_calm = RingSim::new(env_for(seed, n), DolbieConfig::new(), FixedLatency::instant())
            .run(ROUNDS);
        let ring_stormy = RingSim::new(env_for(seed, n), DolbieConfig::new(), jitter).run(ROUNDS);
        for (a, b) in ring_calm.rounds.iter().zip(&ring_stormy.rounds) {
            prop_assert!(a.allocation.l2_distance(&b.allocation) < 1e-12);
        }
    }

    /// Message counts are exactly the §IV-C formulas for every N.
    #[test]
    fn message_counts_are_exact(seed in 0u64..u64::MAX, n in 2usize..10) {
        const ROUNDS: usize = 5;
        let mw = MasterWorkerSim::new(env_for(seed, n), DolbieConfig::new(), FixedLatency::lan())
            .run(ROUNDS);
        prop_assert_eq!(mw.total_messages(), ROUNDS * 3 * n);
        let fd = FullyDistributedSim::new(env_for(seed, n), DolbieConfig::new(), FixedLatency::lan())
            .run(ROUNDS);
        prop_assert_eq!(fd.total_messages(), ROUNDS * (n * n - 1));
        let ring = RingSim::new(env_for(seed, n), DolbieConfig::new(), FixedLatency::lan())
            .run(ROUNDS);
        for r in &ring.rounds {
            prop_assert!(r.messages == 2 * n || r.messages == 2 * n + 1);
        }
    }
}
