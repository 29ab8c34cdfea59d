//! Simplex-safe re-normalization for elastic worker membership.
//!
//! The paper fixes the worker set for all `T` rounds; this module supplies
//! the two pure functions that let the engine (and, bitwise-identically,
//! the protocol simulators in `dolbie-simnet`) cross an *epoch boundary* —
//! a round at which workers leave or (re)join:
//!
//! - [`renormalize_onto_members`] redistributes departing shares
//!   proportionally over the continuing members with the fixed-shape
//!   compensated sum of [`numeric`](crate::numeric), then pins the
//!   residual onto one deterministic coordinate so `|Σx − 1| < 1e-12`
//!   holds across arbitrarily many epochs. Joiners enter at share exactly
//!   `0.0` and are grown by the ordinary eq. (5)/(6) update afterwards.
//! - [`membership_alpha_cap`] re-derives the eq. (7) feasibility cap
//!   against the *new* active member count `M`.
//!
//! # Why the cap uses the member count and the minimum positive share
//!
//! After a boundary, `Σ_{i active} x_i = 1`, so in a round with straggler
//! `s` the non-stragglers' total eq. (5) gain is at most
//! `α · Σ_{i≠s} (x'_i − x_i) ≤ α (M − 2 + x_s)` — the same algebra as the
//! paper's eq. (7) with `N` replaced by the active count `M`. Requiring
//! the gain to fit inside `x_s` for *whichever* member straggles next
//! means capping with the smallest share a straggler could hold; since
//! `z / (M − 2 + z)` is increasing in `z`, that is the minimum share.
//! Zero-share joiners are excluded from that minimum: a joiner that
//! straggles holds nothing to give, the engine's rescale guard already
//! clamps the total gain to the straggler's share in that case, and
//! including it would collapse `α` to 0 at every join. The boundary rule
//! is `α ← min(α, cap)`, so `α` never increases — the Theorem 1
//! monotonicity invariant survives churn by construction (tested below).

use crate::numeric::pairwise_neumaier_sum;
use crate::step_size::feasibility_cap;

/// Re-normalizes `shares` onto the simplex of the active members.
///
/// Non-members' shares are set to exactly `0.0` (exact, so differently
/// ordered sums over the full slice stay bitwise-consistent downstream).
/// Continuing members keep their mutual proportions: each is scaled by
/// `1 / S` where `S` is the fixed-shape compensated sum of member shares.
/// If no member holds positive share (every member is a fresh joiner),
/// the mass is split uniformly. Finally the residual `1 − Σx` is pinned
/// onto the largest-share member (lowest index on ties), keeping
/// `|Σx − 1|` at the few-ulp level per epoch.
///
/// The function is a pure, order-insensitive map of `(shares, members)`,
/// so every caller — the round engines, the net root, and the three
/// protocol simulators — transitions to bitwise-identical state.
///
/// # Panics
///
/// Panics if the slices differ in length or no worker is a member.
pub fn renormalize_onto_members(shares: &mut [f64], members: &[bool]) {
    assert_eq!(shares.len(), members.len(), "one membership flag per worker");
    let member_count = members.iter().filter(|&&m| m).count();
    assert!(member_count >= 1, "membership must keep at least one worker");

    for (x, &m) in shares.iter_mut().zip(members) {
        if !m {
            *x = 0.0;
        }
    }
    // Non-members contribute exact zeros, so summing the full slice has
    // the same fixed reduction shape every epoch.
    let mass = pairwise_neumaier_sum(shares);
    if mass > 0.0 {
        let scale = 1.0 / mass;
        for (x, &m) in shares.iter_mut().zip(members) {
            if m {
                *x *= scale;
            }
        }
    } else {
        let uniform = 1.0 / member_count as f64;
        for (x, &m) in shares.iter_mut().zip(members) {
            if m {
                *x = uniform;
            }
        }
    }
    // Pin the rounding residual onto one deterministic coordinate: the
    // largest member share, lowest index on ties (strict `>` scan).
    let residual = 1.0 - pairwise_neumaier_sum(shares);
    if residual != 0.0 {
        let mut pin: Option<(usize, f64)> = None;
        for (i, (&x, &m)) in shares.iter().zip(members).enumerate() {
            if m && pin.is_none_or(|(_, best)| x > best) {
                pin = Some((i, x));
            }
        }
        let (i, x) = pin.expect("at least one member");
        shares[i] = (x + residual).max(0.0);
    }
}

/// The eq. (7) feasibility cap re-derived against the active member set:
/// `feasibility_cap(M, z)` where `M` is the member count and `z` the
/// smallest *positive* member share (worst admissible straggler — see the
/// module docs for why zero-share joiners are excluded). Returns `1.0`
/// when `M <= 1` or no member holds positive share, both of which make
/// the cap vacuous.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn membership_alpha_cap(shares: &[f64], members: &[bool]) -> f64 {
    assert_eq!(shares.len(), members.len(), "one membership flag per worker");
    let member_count = members.iter().filter(|&&m| m).count();
    let mut min_positive = f64::INFINITY;
    for (&x, &m) in shares.iter().zip(members) {
        if m && x > 0.0 && x < min_positive {
            min_positive = x;
        }
    }
    if !min_positive.is_finite() {
        return 1.0;
    }
    feasibility_cap(member_count, min_positive)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn departing_share_is_redistributed_proportionally() {
        let mut shares = vec![0.5, 0.3, 0.2];
        let members = vec![true, false, true];
        renormalize_onto_members(&mut shares, &members);
        assert_eq!(shares[1], 0.0, "departed worker holds exactly zero");
        // 0.5 : 0.2 proportions preserved over the remaining mass 0.7.
        assert!((shares[0] - 0.5 / 0.7).abs() < 1e-12);
        assert!((shares[2] - 0.2 / 0.7).abs() < 1e-12);
        let sum: f64 = pairwise_neumaier_sum(&shares);
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn joiner_enters_at_exactly_zero() {
        // Worker 3 rejoins: it was absent (share 0) and stays at 0 until
        // the eq. (5)/(6) update grows it.
        let mut shares = vec![0.6, 0.4, 0.0, 0.0];
        let members = vec![true, true, false, true];
        renormalize_onto_members(&mut shares, &members);
        assert_eq!(shares[3], 0.0);
        assert_eq!(shares[2], 0.0);
        assert!((shares[0] - 0.6).abs() < 1e-12);
        assert!((shares[1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn all_fresh_members_split_uniformly() {
        let mut shares = vec![0.0, 0.0, 0.0, 1.0];
        let members = vec![true, true, false, false];
        renormalize_onto_members(&mut shares, &members);
        assert_eq!(shares, vec![0.5, 0.5, 0.0, 0.0]);
    }

    #[test]
    fn lone_member_takes_everything() {
        let mut shares = vec![0.25, 0.25, 0.25, 0.25];
        let members = vec![false, false, true, false];
        renormalize_onto_members(&mut shares, &members);
        assert_eq!(shares, vec![0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_membership_is_rejected() {
        let mut shares = vec![0.5, 0.5];
        renormalize_onto_members(&mut shares, &[false, false]);
    }

    #[test]
    fn sum_pin_survives_many_random_epochs() {
        // The tentpole numeric claim: |Σx − 1| < 1e-12 across arbitrarily
        // many membership epochs, at a size where naive summation drifts.
        let n = 10_000;
        let mut state = 17u64;
        let mut shares: Vec<f64> = (0..n).map(|_| splitmix(&mut state) + 1e-6).collect();
        let norm: f64 = shares.iter().sum();
        shares.iter_mut().for_each(|x| *x /= norm);
        let mut members = vec![true; n];
        for _epoch in 0..200 {
            // Flip ~10% of memberships, never emptying the set.
            for flag in members.iter_mut() {
                if splitmix(&mut state) < 0.1 {
                    *flag = !*flag;
                }
            }
            if !members.iter().any(|&m| m) {
                members[0] = true;
            }
            renormalize_onto_members(&mut shares, &members);
            let sum = pairwise_neumaier_sum(&shares);
            assert!((sum - 1.0).abs() < 1e-12, "|Σx − 1| = {:e}", (sum - 1.0).abs());
            assert!(shares.iter().all(|&x| x >= 0.0));
            for (i, (&x, &m)) in shares.iter().zip(&members).enumerate() {
                assert!(m || x == 0.0, "non-member {i} holds share {x}");
            }
        }
    }

    #[test]
    fn alpha_cap_uses_member_count_and_min_positive_share() {
        let shares = vec![0.5, 0.0, 0.3, 0.2];
        let members = vec![true, true, true, true];
        // Worker 1 is a zero-share joiner: excluded from the minimum.
        let cap = membership_alpha_cap(&shares, &members);
        assert!((cap - feasibility_cap(4, 0.2)).abs() < 1e-15);
        // Shrinking the member set raises the cap (fewer claimants).
        let fewer = vec![true, false, true, true];
        let mut s = shares.clone();
        renormalize_onto_members(&mut s, &fewer);
        assert!(membership_alpha_cap(&s, &fewer) > cap);
    }

    #[test]
    fn alpha_cap_degenerate_cases() {
        assert_eq!(membership_alpha_cap(&[1.0], &[true]), 1.0);
        assert_eq!(membership_alpha_cap(&[0.0, 0.0], &[true, true]), 1.0);
    }

    #[test]
    fn alpha_never_increases_across_random_epochs() {
        // α ← min(α, cap) at each boundary, interleaved with eq. (7)
        // tightenings: the combined sequence must be non-increasing.
        let mut state = 5u64;
        let n = 64;
        let mut shares: Vec<f64> = vec![1.0 / n as f64; n];
        let mut members = vec![true; n];
        let mut alpha = 1.0f64;
        let mut prev = alpha;
        for _ in 0..500 {
            for flag in members.iter_mut() {
                if splitmix(&mut state) < 0.15 {
                    *flag = !*flag;
                }
            }
            if !members.iter().any(|&m| m) {
                members[7] = true;
            }
            renormalize_onto_members(&mut shares, &members);
            alpha = alpha.min(membership_alpha_cap(&shares, &members));
            assert!(alpha <= prev, "α increased at a boundary: {prev} -> {alpha}");
            prev = alpha;
        }
    }
}
