//! Wire-encodable environments: seeded cost-function streams both sides
//! of a connection can derive independently.
//!
//! A `DynCost` cannot travel over a socket, and sending one would also
//! break the §IV-B privacy property (workers never reveal their cost
//! *functions*, only scalar costs and decisions). Instead the master ships
//! a tiny [`WireEnvSpec`] — a kind code and a seed — in the `Welcome`
//! frame, and every worker derives its own per-round cost function from
//! it with pure hashing. The same spec materializes the full
//! [`Environment`](dolbie_core::Environment) for the sequential
//! reference run, so the wire runtime
//! and the in-process engine are fed bitwise-identical costs.

use dolbie_core::cost::{DynCost, LatencyCost, LinearCost};
use dolbie_core::environment::FnEnvironment;
use dolbie_core::fingerprint::mix64;

/// The family of cost functions a [`WireEnvSpec`] generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvKind {
    /// The chaos-sweep mix: per-(round, worker) hash picks a
    /// `LatencyCost` or a `LinearCost` with hashed parameters — a
    /// time-varying adversary exercising both curvature regimes.
    ChaosMix,
    /// Static heterogeneous linear slopes `1 + ((seed + i) mod 7)`:
    /// a fixed instance on which convergence is easy to eyeball in the
    /// two-terminal demo.
    StaticRamp,
}

/// A seeded environment small enough to live in a handshake frame.
///
/// # Examples
///
/// ```
/// use dolbie_net::env::{EnvKind, WireEnvSpec};
///
/// let spec = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 42 };
/// // A worker derives only its own cost...
/// let mine = spec.cost_for(3, 1);
/// // ...and the reference run derives everyone's; the streams agree.
/// let mut env = spec.environment(4);
/// use dolbie_core::Environment;
/// let all = env.reveal(3);
/// assert_eq!(mine.eval(0.25).to_bits(), all[1].eval(0.25).to_bits());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireEnvSpec {
    /// Which cost family to generate.
    pub kind: EnvKind,
    /// Seed of the per-(round, worker) derivation.
    pub seed: u64,
}

impl WireEnvSpec {
    /// The wire code of this spec's kind.
    pub fn kind_code(&self) -> u8 {
        match self.kind {
            EnvKind::ChaosMix => 0,
            EnvKind::StaticRamp => 1,
        }
    }

    /// Rebuilds a spec from its wire code, or `None` for unknown codes.
    pub fn from_code(code: u8, seed: u64) -> Option<Self> {
        let kind = match code {
            0 => EnvKind::ChaosMix,
            1 => EnvKind::StaticRamp,
            _ => return None,
        };
        Some(Self { kind, seed })
    }

    /// Worker `i`'s cost function for `round` — the only cost a worker
    /// node ever derives.
    pub fn cost_for(&self, round: usize, i: usize) -> DynCost {
        match self.kind {
            EnvKind::ChaosMix => {
                let h = hash(self.seed, chaos_salt(round, i));
                if h & 1 == 0 {
                    let speed = 50.0 + (h % 2000) as f64;
                    let comm = ((h >> 13) % 100) as f64 / 1000.0;
                    Box::new(LatencyCost::new(256.0, speed, comm))
                } else {
                    let slope = 0.1 + (h % 500) as f64 / 100.0;
                    Box::new(LinearCost::new(slope, ((h >> 9) % 5) as f64 * 0.02))
                }
            }
            EnvKind::StaticRamp => {
                let slope = 1.0 + ((self.seed.wrapping_add(i as u64)) % 7) as f64;
                Box::new(LinearCost::new(slope, 0.0))
            }
        }
    }

    /// Materializes the full `n`-worker [`Environment`] — what the
    /// sequential reference run and the master-side simulations consume.
    ///
    /// [`Environment`]: dolbie_core::Environment
    pub fn environment(&self, n: usize) -> FnEnvironment<impl FnMut(usize) -> Vec<DynCost>> {
        let spec = *self;
        FnEnvironment::new(n, move |round| (0..n).map(|i| spec.cost_for(round, i)).collect())
    }
}

/// The per-(round, worker) hash input of [`EnvKind::ChaosMix`]: the
/// round above the low byte of the worker id, and the rest of the id in
/// the top 16 bits, which a round below 2^40 never reaches. Ids below 256
/// keep the original `(round << 8) | i` key bit for bit; without the top
/// bits worker `i ≥ 256` would replay worker `i − 256`'s cost one round
/// later.
fn chaos_salt(round: usize, i: usize) -> u64 {
    ((round as u64) << 8) | (i as u64 & 0xff) | ((i as u64 >> 8) << 48)
}

fn hash(seed: u64, salt: u64) -> u64 {
    mix64(seed ^ mix64(salt))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for kind in [EnvKind::ChaosMix, EnvKind::StaticRamp] {
            let spec = WireEnvSpec { kind, seed: 99 };
            assert_eq!(WireEnvSpec::from_code(spec.kind_code(), 99), Some(spec));
        }
        assert_eq!(WireEnvSpec::from_code(200, 0), None);
    }

    #[test]
    fn derivation_is_deterministic_and_seed_sensitive() {
        let a = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 5 };
        let b = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 6 };
        let probe = |spec: &WireEnvSpec| -> Vec<u64> {
            (0..32).map(|t| spec.cost_for(t, t % 4).eval(0.3).to_bits()).collect()
        };
        assert_eq!(probe(&a), probe(&a));
        assert_ne!(probe(&a), probe(&b));
    }

    /// Worker ids above one byte must not alias a lower id one round
    /// later, and ids below 256 keep their original key.
    #[test]
    fn chaos_keys_do_not_alias_across_the_low_id_byte() {
        for t in [0usize, 1, 7, 499] {
            for i in 256..4096 {
                assert_ne!(chaos_salt(t, i), chaos_salt(t + 1, i - 256), "(t={t}, i={i})");
            }
            for i in 0..256 {
                assert_eq!(chaos_salt(t, i), ((t as u64) << 8) | i as u64);
            }
        }
    }
}
