//! The shared sequential twin (`dolbie_net::shard::twin_allocations`)
//! against `run_episode`, the reference `shard_parity` compares the TCP
//! tree with: with no epochs the twin must be the plain sequential run,
//! bit for bit, so a parity check written against either agrees.
//!
//! The 300-round horizon crosses the engine's
//! `TOTAL_REFRESH_INTERVAL = 256`, so the periodic Σx refresh is inside
//! the compared trajectory.

use dolbie_core::{run_episode, Allocation, Dolbie, DolbieConfig, EpisodeOptions, LoadBalancer};
use dolbie_net::env::{EnvKind, WireEnvSpec};
use dolbie_net::shard::{twin_allocations, ShardedConfig};

const ROUNDS: usize = 300;

#[test]
fn the_twin_without_epochs_is_the_sequential_episode_bitwise() {
    for (n, m) in [(16, 1), (64, 4), (97, 7)] {
        let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0x7A1E + n as u64 };
        let cfg = ShardedConfig::new(n, m, ROUNDS, env);
        let twin = twin_allocations(&cfg, &[]);

        let mut sequential = Dolbie::with_config(Allocation::uniform(n), DolbieConfig::new());
        let mut driver = env.environment(n);
        let trace = run_episode(&mut sequential, &mut driver, EpisodeOptions::new(ROUNDS));
        let reference: Vec<&Allocation> =
            trace.records.iter().map(|r| &r.allocation).chain([sequential.allocation()]).collect();

        assert_eq!(twin.len(), ROUNDS + 1, "N = {n}, M = {m}: horizon");
        for (t, (flat, expected)) in twin.iter().zip(&reference).enumerate() {
            assert_eq!(flat.len(), n);
            for (i, x) in flat.iter().enumerate() {
                assert_eq!(
                    x.to_bits(),
                    expected.share(i).to_bits(),
                    "N = {n}, M = {m}: round {t}, worker {i} diverged from run_episode"
                );
            }
        }
    }
}
