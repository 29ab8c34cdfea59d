//! The five chaos invariants, defined once.
//!
//! PR 4's chaos sweep and PR 9's net-tier sweep each carried a private
//! copy of the same five machine-checked invariants; the model checker
//! would have been a third. This module is the single definition all
//! three consume:
//!
//! 1. **Simplex feasibility** — every executed allocation sums to 1
//!    within [`SIMPLEX_TOL`] with no negative share.
//! 2. **α monotonicity** — the eq. (7) step size never rises.
//! 3. **No stranded share** — a departed worker holds exactly `0.0` and
//!    is never marked active.
//! 4. **Architecture agreement** — compared pairs of rounds match
//!    *bitwise* ([`rounds_agree_bitwise`]). Which pairs are compared is
//!    policy and stays at the call sites (the chaos sweep's type A/B
//!    split, the net sweep's sequential twin, the model checker's
//!    confluence groups).
//! 5. **Termination** — a run produces exactly the requested number of
//!    rounds (a sim that deadlocks panics instead; harnesses catch the
//!    unwind and report it under this invariant too).
//!
//! Detectors come in two layers: structured predicates (pure logic,
//! callers own the wording — the net sweep's "buried worker" vs the
//! sim sweeps' "departed worker") and the [`check_trace`] convenience
//! that runs invariants 1, 2, 3, and 5 over a whole [`ProtocolTrace`]
//! with the chaos sweep's canonical wording.

use crate::trace::{ProtocolRound, ProtocolTrace};

/// Per-round simplex tolerance shared by every harness (`|Σx − 1| <
/// 1e-9`; the tighter 1e-12 bound applies only at final-state checks,
/// where compensated summation has no in-flight rounding to absorb).
pub const SIMPLEX_TOL: f64 = 1e-9;

/// Invariant 1 violation: the allocation left the probability simplex.
#[derive(Debug, Clone, PartialEq)]
pub enum SimplexViolation {
    /// `Σx` strayed from 1 by at least the tolerance.
    Sum(f64),
    /// A share went negative.
    Negative {
        /// The offending worker.
        worker: usize,
        /// Its (negative) share.
        share: f64,
    },
}

/// Checks invariant 1 over one executed allocation. Checks the sum
/// first, then scans for negative shares in ascending worker order —
/// the detection order both sweeps always used, kept so shrunk
/// reproducers print the same first violation as before the dedup.
#[must_use]
pub fn simplex_violation(shares: &[f64], tol: f64) -> Option<SimplexViolation> {
    let sum: f64 = shares.iter().sum();
    if (sum - 1.0).abs() >= tol {
        return Some(SimplexViolation::Sum(sum));
    }
    shares
        .iter()
        .enumerate()
        .find(|(_, &x)| x < 0.0)
        .map(|(worker, &share)| SimplexViolation::Negative { worker, share })
}

/// Invariant 2 violation: α rose between consecutive rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct AlphaRise {
    /// α before the offending round.
    pub previous: f64,
    /// The (larger) α the round reported.
    pub alpha: f64,
}

/// Running invariant-2 monitor: feed it each round's α in order.
#[derive(Debug, Clone)]
pub struct AlphaMonotone {
    previous: f64,
}

impl AlphaMonotone {
    /// Starts a fresh monitor (any first α is admissible).
    #[must_use]
    pub fn new() -> Self {
        Self { previous: f64::INFINITY }
    }

    /// Observes the next round's α; reports a violation if it rose.
    pub fn observe(&mut self, alpha: f64) -> Option<AlphaRise> {
        if alpha > self.previous {
            return Some(AlphaRise { previous: self.previous, alpha });
        }
        self.previous = alpha;
        None
    }
}

impl Default for AlphaMonotone {
    fn default() -> Self {
        Self::new()
    }
}

/// Invariant 3 violation: state left on a worker outside the membership.
#[derive(Debug, Clone, PartialEq)]
pub enum StrandedShare {
    /// A departed worker still holds a non-zero share.
    Share {
        /// The departed worker.
        worker: usize,
        /// The share stranded on it (must be exactly `0.0`).
        share: f64,
    },
    /// A departed worker was marked active in the decision phase.
    Active {
        /// The departed worker.
        worker: usize,
    },
}

/// Checks invariant 3 for one round: every non-member must hold exactly
/// `0.0` (bitwise — redistribution lands departing shares at a true
/// zero, not a rounding residue) and must not appear in the round's
/// active set. Pass `active = None` when the representation has no
/// per-round activity record (the net sweep's stitched allocations).
#[must_use]
pub fn stranded_violation(
    members: &[bool],
    shares: &[f64],
    active: Option<&[bool]>,
) -> Option<StrandedShare> {
    for (worker, &m) in members.iter().enumerate() {
        if m {
            continue;
        }
        if shares[worker] != 0.0 {
            return Some(StrandedShare::Share { worker, share: shares[worker] });
        }
        if active.is_some_and(|a| a[worker]) {
            return Some(StrandedShare::Active { worker });
        }
    }
    None
}

/// Invariant 4 comparator: two rounds agree *bitwise* — identical
/// allocation (`l2 == 0` exactly), identical straggler, identical α bit
/// pattern. Which rounds must agree is the caller's policy.
#[must_use]
pub fn rounds_agree_bitwise(a: &ProtocolRound, b: &ProtocolRound) -> bool {
    a.allocation.l2_distance(&b.allocation) == 0.0
        && a.straggler == b.straggler
        && a.alpha.to_bits() == b.alpha.to_bits()
}

/// Invariant 5: `produced` rounds must equal `expected`.
#[must_use]
pub fn termination_violation(produced: usize, expected: usize) -> bool {
    produced != expected
}

/// Runs invariants 5, 1, 2, and 3 over a full trace with the chaos
/// sweep's canonical wording and detection order (termination, then per
/// round: simplex sum, negative share, α rise, stranded share, stranded
/// active). `members_at(t)` must return the membership mask in force at
/// round `t`, owned or borrowed.
///
/// Invariant 4 is deliberately absent: it compares *across* runs.
pub fn check_trace<M: AsRef<[bool]>>(
    trace: &ProtocolTrace,
    expected_rounds: usize,
    mut members_at: impl FnMut(usize) -> M,
) -> Result<(), String> {
    if termination_violation(trace.rounds.len(), expected_rounds) {
        return Err(format!(
            "termination: {} produced {} of {} rounds",
            trace.architecture,
            trace.rounds.len(),
            expected_rounds
        ));
    }
    let mut alpha = AlphaMonotone::new();
    for r in &trace.rounds {
        if let Some(v) = simplex_violation(r.allocation.as_slice(), SIMPLEX_TOL) {
            return Err(match v {
                SimplexViolation::Sum(sum) => format!(
                    "feasibility: {} round {} sums to {sum:.12}",
                    trace.architecture, r.round
                ),
                SimplexViolation::Negative { worker, share } => format!(
                    "feasibility: {} round {} gives worker {worker} share {share:e}",
                    trace.architecture, r.round
                ),
            });
        }
        if let Some(rise) = alpha.observe(r.alpha) {
            return Err(format!(
                "alpha: {} round {} raised α {:.12} -> {:.12}",
                trace.architecture, r.round, rise.previous, rise.alpha
            ));
        }
        let members = members_at(r.round);
        let members = members.as_ref();
        if let Some(v) = stranded_violation(members, r.allocation.as_slice(), Some(&r.active)) {
            return Err(match v {
                StrandedShare::Share { worker, share } => format!(
                    "stranded share: {} round {} leaves {share:.3e} on departed worker {worker}",
                    trace.architecture, r.round
                ),
                StrandedShare::Active { worker } => format!(
                    "stranded share: {} round {} marks departed worker {worker} active",
                    trace.architecture, r.round
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simplex_catches_sum_and_negativity_in_that_order() {
        assert_eq!(simplex_violation(&[0.5, 0.5], SIMPLEX_TOL), None);
        assert_eq!(simplex_violation(&[0.7, 0.5], SIMPLEX_TOL), Some(SimplexViolation::Sum(1.2)));
        // Sum is fine, one share negative.
        assert_eq!(
            simplex_violation(&[1.25, -0.25], SIMPLEX_TOL),
            Some(SimplexViolation::Negative { worker: 1, share: -0.25 })
        );
    }

    #[test]
    fn alpha_monotone_allows_flat_and_falling_only() {
        let mut m = AlphaMonotone::new();
        assert_eq!(m.observe(0.5), None);
        assert_eq!(m.observe(0.5), None);
        assert_eq!(m.observe(0.3), None);
        assert_eq!(m.observe(0.4), Some(AlphaRise { previous: 0.3, alpha: 0.4 }));
    }

    #[test]
    fn stranded_checks_share_then_activity() {
        let members = [true, false];
        assert_eq!(stranded_violation(&members, &[1.0, 0.0], None), None);
        assert_eq!(
            stranded_violation(&members, &[0.9, 0.1], None),
            Some(StrandedShare::Share { worker: 1, share: 0.1 })
        );
        assert_eq!(
            stranded_violation(&members, &[1.0, 0.0], Some(&[true, true])),
            Some(StrandedShare::Active { worker: 1 })
        );
        // Exact-zero contract: a subnormal residue is a violation.
        assert!(stranded_violation(&members, &[1.0, f64::MIN_POSITIVE], None).is_some());
    }

    #[test]
    fn termination_is_exact() {
        assert!(!termination_violation(5, 5));
        assert!(termination_violation(4, 5));
        assert!(termination_violation(6, 5));
    }
}
