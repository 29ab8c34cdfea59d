//! Workload allocations on the probability simplex.
//!
//! The decision variable of problem (1) in the paper is a vector
//! `x_t = [x_{1,t}, ..., x_{N,t}]` with `Σ_i x_{i,t} = 1` (constraint (2))
//! and `x_{i,t} >= 0` (constraint (3)). [`Allocation`] encapsulates that
//! invariant: it can only be constructed through validating or normalizing
//! constructors, so every algorithm in this workspace can rely on receiving
//! a feasible point.

use crate::error::AllocationError;
use std::fmt;
use std::ops::Index;

/// Tolerance within which the shares of a *validated* allocation must sum
/// to one.
///
/// Online updates accumulate floating-point error over thousands of rounds;
/// `1e-6` is loose enough to accept honest rounding drift and tight enough
/// to reject genuinely infeasible vectors.
pub const SUM_TOLERANCE: f64 = 1e-6;

/// A feasible workload split over `N` workers: entrywise non-negative and
/// summing to one.
///
/// # Examples
///
/// ```
/// use dolbie_core::Allocation;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Allocation::new(vec![0.5, 0.25, 0.25])?;
/// assert_eq!(x.num_workers(), 3);
/// assert_eq!(x.share(0), 0.5);
///
/// let even = Allocation::uniform(4);
/// assert!((even.share(2) - 0.25).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    shares: Vec<f64>,
}

impl Allocation {
    /// Creates an allocation after validating non-negativity and unit sum.
    ///
    /// # Errors
    ///
    /// Returns [`AllocationError`] if `shares` is empty, contains a negative
    /// or non-finite entry, or does not sum to one within [`SUM_TOLERANCE`].
    ///
    /// # Examples
    ///
    /// ```
    /// use dolbie_core::Allocation;
    ///
    /// assert!(Allocation::new(vec![0.7, 0.3]).is_ok());
    /// assert!(Allocation::new(vec![0.7, 0.7]).is_err());
    /// assert!(Allocation::new(vec![1.5, -0.5]).is_err());
    /// ```
    pub fn new(shares: Vec<f64>) -> Result<Self, AllocationError> {
        if shares.is_empty() {
            return Err(AllocationError::Empty);
        }
        let mut sum = 0.0;
        for (worker, &share) in shares.iter().enumerate() {
            if !share.is_finite() {
                return Err(AllocationError::NonFiniteShare { worker, share });
            }
            if share < 0.0 {
                return Err(AllocationError::NegativeShare { worker, share });
            }
            sum += share;
        }
        if (sum - 1.0).abs() > SUM_TOLERANCE {
            return Err(AllocationError::SumMismatch { sum });
        }
        Ok(Self { shares })
    }

    /// Creates an allocation by rescaling a non-negative weight vector to
    /// sum to one.
    ///
    /// This is the natural constructor for proportional policies such as the
    /// ABS baseline, where weights are throughput estimates rather than
    /// shares.
    ///
    /// # Errors
    ///
    /// Returns [`AllocationError`] if `weights` is empty, contains a negative
    /// or non-finite entry, or sums to zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use dolbie_core::Allocation;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let x = Allocation::from_weights(vec![2.0, 6.0])?;
    /// assert!((x.share(0) - 0.25).abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_weights(weights: Vec<f64>) -> Result<Self, AllocationError> {
        if weights.is_empty() {
            return Err(AllocationError::Empty);
        }
        let mut sum = 0.0;
        for (worker, &w) in weights.iter().enumerate() {
            if !w.is_finite() {
                return Err(AllocationError::NonFiniteShare { worker, share: w });
            }
            if w < 0.0 {
                return Err(AllocationError::NegativeShare { worker, share: w });
            }
            sum += w;
        }
        if sum <= 0.0 {
            return Err(AllocationError::SumMismatch { sum });
        }
        let shares = weights.into_iter().map(|w| w / sum).collect();
        Ok(Self { shares })
    }

    /// Creates the equal split `x_i = 1/N` used to initialize every
    /// algorithm in the paper's experiments.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "allocation requires at least one worker");
        Self { shares: vec![1.0 / n as f64; n] }
    }

    /// Creates an allocation that puts all workload on worker `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n` or `n == 0`.
    pub fn singleton(n: usize, i: usize) -> Self {
        assert!(n > 0, "allocation requires at least one worker");
        assert!(i < n, "worker index {i} out of range for {n} workers");
        let mut shares = vec![0.0; n];
        shares[i] = 1.0;
        Self { shares }
    }

    /// Number of workers `N`.
    pub fn num_workers(&self) -> usize {
        self.shares.len()
    }

    /// The share `x_i` of worker `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn share(&self, i: usize) -> f64 {
        self.shares[i]
    }

    /// View of the shares as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.shares
    }

    /// Mutable view of the shares for in-crate update rules (the SoA
    /// episode engine writes shares in place instead of rebuilding the
    /// vector each round). Callers must restore the simplex invariant
    /// before the allocation is observed again.
    pub(crate) fn shares_mut(&mut self) -> &mut [f64] {
        &mut self.shares
    }

    /// Overwrites this allocation with `other`'s shares, reusing the
    /// existing storage (no heap traffic once the capacity matches —
    /// the allocation-free episode hot path relies on this).
    pub fn copy_from(&mut self, other: &Allocation) {
        self.shares.clear();
        self.shares.extend_from_slice(&other.shares);
    }

    /// Iterator over the shares.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.shares.iter()
    }

    /// Consumes the allocation, returning the underlying share vector.
    pub fn into_inner(self) -> Vec<f64> {
        self.shares
    }

    /// Index of the smallest share (lowest index wins ties).
    pub fn min_index(&self) -> usize {
        let mut best = 0;
        for i in 1..self.shares.len() {
            if self.shares[i] < self.shares[best] {
                best = i;
            }
        }
        best
    }

    /// The smallest share value.
    pub fn min_share(&self) -> f64 {
        self.shares[self.min_index()]
    }

    /// Euclidean (`l2`) distance to another allocation; the building block
    /// of the path length `P_T = Σ_t ||x*_{t-1} - x*_t||_2` in Section V.
    ///
    /// # Panics
    ///
    /// Panics if the two allocations have different lengths.
    pub fn l2_distance(&self, other: &Allocation) -> f64 {
        assert_eq!(
            self.shares.len(),
            other.shares.len(),
            "allocations must cover the same worker set"
        );
        self.shares
            .iter()
            .zip(other.shares.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Rebuilds an allocation from raw shares produced by an in-crate update
    /// rule, snapping tiny negative values (>= `-1e-9`, floating-point dust)
    /// to zero and renormalizing the sum exactly to one.
    ///
    /// This is *not* a projection: shares more negative than `-1e-9` are a
    /// logic error in the caller and are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`AllocationError`] if a share is materially negative or
    /// non-finite, or if the raw sum strays from one by more than `1e-3`
    /// (which would indicate a broken update rule, not rounding).
    pub fn from_update(mut shares: Vec<f64>) -> Result<Self, AllocationError> {
        if shares.is_empty() {
            return Err(AllocationError::Empty);
        }
        for (worker, share) in shares.iter_mut().enumerate() {
            if !share.is_finite() {
                return Err(AllocationError::NonFiniteShare { worker, share: *share });
            }
            if *share < 0.0 {
                if *share < -1e-9 {
                    return Err(AllocationError::NegativeShare { worker, share: *share });
                }
                *share = 0.0;
            }
        }
        let sum: f64 = shares.iter().sum();
        if (sum - 1.0).abs() > 1e-3 {
            return Err(AllocationError::SumMismatch { sum });
        }
        for share in &mut shares {
            *share /= sum;
        }
        Ok(Self { shares })
    }
}

impl Index<usize> for Allocation {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.shares[i]
    }
}

impl AsRef<[f64]> for Allocation {
    fn as_ref(&self) -> &[f64] {
        &self.shares
    }
}

impl<'a> IntoIterator for &'a Allocation {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.shares.iter()
    }
}

impl fmt::Display for Allocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, share) in self.shares.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{share:.4}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_from_matches_clone_and_reuses_storage() {
        let a = Allocation::new(vec![0.5, 0.25, 0.25]).unwrap();
        let mut b = Allocation::uniform(3);
        b.copy_from(&a);
        assert_eq!(a, b);
        // Length changes are handled too.
        let c = Allocation::uniform(5);
        b.copy_from(&c);
        assert_eq!(b, c);
    }

    #[test]
    fn uniform_sums_to_one() {
        for n in 1..50 {
            let x = Allocation::uniform(n);
            let sum: f64 = x.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "n={n} sum={sum}");
        }
    }

    #[test]
    fn new_rejects_negative() {
        let err = Allocation::new(vec![1.2, -0.2]).unwrap_err();
        assert_eq!(err, AllocationError::NegativeShare { worker: 1, share: -0.2 });
    }

    #[test]
    fn new_rejects_bad_sum() {
        assert!(matches!(
            Allocation::new(vec![0.4, 0.4]).unwrap_err(),
            AllocationError::SumMismatch { .. }
        ));
    }

    #[test]
    fn new_rejects_empty_and_nan() {
        assert_eq!(Allocation::new(vec![]).unwrap_err(), AllocationError::Empty);
        assert!(matches!(
            Allocation::new(vec![f64::NAN, 1.0]).unwrap_err(),
            AllocationError::NonFiniteShare { worker: 0, .. }
        ));
    }

    #[test]
    fn new_accepts_rounding_drift() {
        // Off by 1e-9: within tolerance.
        let x = Allocation::new(vec![0.5, 0.5 + 1e-9]).unwrap();
        assert_eq!(x.num_workers(), 2);
    }

    #[test]
    fn from_weights_normalizes() {
        let x = Allocation::from_weights(vec![1.0, 3.0]).unwrap();
        assert!((x.share(0) - 0.25).abs() < 1e-12);
        assert!((x.share(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn from_weights_rejects_zero_sum() {
        assert!(matches!(
            Allocation::from_weights(vec![0.0, 0.0]).unwrap_err(),
            AllocationError::SumMismatch { .. }
        ));
    }

    #[test]
    fn singleton_puts_all_work_on_one_worker() {
        let x = Allocation::singleton(4, 2);
        assert_eq!(x.share(2), 1.0);
        assert_eq!(x.share(0), 0.0);
        assert_eq!(x.min_share(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn singleton_rejects_out_of_range() {
        let _ = Allocation::singleton(3, 3);
    }

    #[test]
    fn min_index_breaks_ties_low() {
        let x = Allocation::new(vec![0.25, 0.25, 0.5]).unwrap();
        assert_eq!(x.min_index(), 0);
    }

    #[test]
    fn distances_are_consistent() {
        let a = Allocation::new(vec![1.0, 0.0]).unwrap();
        let b = Allocation::new(vec![0.0, 1.0]).unwrap();
        assert!((a.l2_distance(&b) - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(a.l2_distance(&a), 0.0);
    }

    #[test]
    fn from_update_snaps_dust_and_renormalizes() {
        let x = Allocation::from_update(vec![0.5, 0.5 + 3e-10, -3e-10]).unwrap();
        assert_eq!(x.share(2), 0.0);
        let sum: f64 = x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-15);
    }

    #[test]
    fn from_update_rejects_material_negatives() {
        assert!(matches!(
            Allocation::from_update(vec![1.001, -0.001]).unwrap_err(),
            AllocationError::NegativeShare { worker: 1, .. }
        ));
    }

    #[test]
    fn from_update_rejects_broken_sum() {
        assert!(matches!(
            Allocation::from_update(vec![0.5, 0.3]).unwrap_err(),
            AllocationError::SumMismatch { .. }
        ));
    }

    #[test]
    fn indexing_and_iteration() {
        let x = Allocation::new(vec![0.2, 0.8]).unwrap();
        assert_eq!(x[1], 0.8);
        let collected: Vec<f64> = (&x).into_iter().copied().collect();
        assert_eq!(collected, vec![0.2, 0.8]);
        assert_eq!(x.as_ref(), &[0.2, 0.8]);
        assert_eq!(x.clone().into_inner(), vec![0.2, 0.8]);
    }

    #[test]
    fn display_is_compact() {
        let x = Allocation::new(vec![0.5, 0.5]).unwrap();
        assert_eq!(x.to_string(), "[0.5000, 0.5000]");
    }
}
