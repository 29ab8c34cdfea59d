//! One episode whose rounds take every guard path of
//! [`FusedDolbie::step`](dolbie_core::kernel::FusedDolbie::step): rounds
//! the silent bound rules on (one in-place sweep), rounds whose read-only
//! pre-pass finds the guard silent, and rounds whose pre-pass fires it,
//! among them a Σx-refresh round and the first round of a membership
//! epoch.
//!
//! Shared by `kernel_parity`, which checks the episode bit for bit
//! against the split engine, and the kernel's unit tests, which count the
//! rounds per path. Uses only names both import.

use super::{DolbieConfig, DynCost, LatencyCost};

/// Fleet size: two full lane groups and a ragged third.
pub const N: usize = 1031;

/// Rounds played: past the first Σx refresh (round index 255).
pub const ROUNDS: usize = 340;

/// A latency fleet with speeds from a seeded hash, under a step-size
/// floor that keeps `α·N` above every share while all workers compete,
/// so every such round takes a pre-pass. The guard fires on rounds 0–257,
/// the refresh round 255 included, and not on the rounds after.
pub fn fleet() -> (Vec<DynCost>, DolbieConfig) {
    let mut state: u64 = 77;
    let costs = (0..N)
        .map(|_| {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z = z ^ (z >> 31);
            let speed = 64.0 + 448.0 * ((z >> 11) as f64 / (1u64 << 53) as f64);
            Box::new(LatencyCost::new(256.0, speed, 0.05)) as DynCost
        })
        .collect();
    (costs, DolbieConfig::new().with_alpha_floor(0.00146))
}

/// The membership epochs: from round 300 only workers 0–3 compete, so
/// `α·4` is below the straggler's share and the bound rules; from round
/// 320 every worker is back, the joiners at share 0, and the guard fires
/// on the epoch's first four rounds.
pub const EPOCHS: [(usize, usize); 2] = [(300, 4), (320, N)];

/// The membership from `round` on, when an epoch starts there: the first
/// `members` workers.
pub fn epoch(round: usize) -> Option<Vec<bool>> {
    let &(_, members) = EPOCHS.iter().find(|&&(at, _)| at == round)?;
    Some((0..N).map(|i| i < members).collect())
}
