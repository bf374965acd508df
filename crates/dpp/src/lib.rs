//! Determinantal point processes (DPPs) and fixed-cardinality k-DPPs.
//!
//! This crate implements every DPP primitive the paper's LkP criterion rests
//! on, plus the standard inference tooling a DPP library is expected to ship:
//!
//! * [`esp`] — elementary symmetric polynomials over kernel eigenvalues,
//!   including the paper's Algorithm 1 and the leave-one-out variants needed
//!   for gradients.
//! * [`kernel`] — L-ensemble kernels, the quality × diversity decomposition
//!   (`L = Diag(q)·K·Diag(q)`, Eq. 2), and PSD hygiene.
//! * [`kdpp`] — the k-DPP distribution: normalization `Z_k = e_k(λ)` (Eq. 6),
//!   exact log-probabilities (Eq. 4), and brute-force references for tests.
//! * [`grad`] — analytic gradients of `log det(L_S)` and `log e_k(λ(L))`
//!   with respect to the kernel entries (Eq. 12).
//! * [`sampling`] — exact DPP and k-DPP sampling (Kulesza & Taskar).
//! * [`map`] — fast greedy MAP inference (Chen et al., NeurIPS 2018).
//! * [`map_dual`] — the same greedy recursion run directly on a thin row
//!   factor `B` (kernel `B·Bᵀ + ε·I` never materialized): `O(m·d·N)` serving
//!   MAP with a numerical-breakdown guard for dense fallback.
//! * [`lowrank`] — low-rank diversity kernels `K = V·Vᵀ` with log-det
//!   gradients, used to pre-train the paper's diversity kernel (Eq. 3).
//! * [`conditional`] — DPPs conditioned on inclusion/exclusion of item sets
//!   (basket completion, out-of-stock filtering).
//! * [`dual`] — the `d × d` dual representation of low-rank kernels:
//!   catalog-scale normalization and exact k-DPP sampling without ever
//!   forming the `M × M` kernel.
//! * [`workspace`] — the allocation-free per-instance training hot path:
//!   one reusable [`DppWorkspace`] fuses kernel assembly, (dense or dual)
//!   eigendecomposition, ESP normalizer, and gradient chain per instance.

pub mod batch;
pub mod conditional;
pub mod dual;
pub mod esp;
pub mod grad;
pub mod kdpp;
pub mod kernel;
pub mod lowrank;
pub mod map;
pub mod map_dual;
pub mod sampling;
pub mod workspace;

pub use batch::{BatchSlot, DppBatchArena};
pub use dual::DualSpectrum;
pub use kdpp::KDpp;
pub use kernel::DppKernel;
pub use lowrank::LowRankKernel;
pub use map::{greedy_map_with, MapResult, MapWorkspace};
pub use map_dual::{greedy_map_dual_with, DualMapWorkspace, DUAL_BREAKDOWN_GUARD};
pub use workspace::{DppWorkspace, SpectrumPath, TailoredResult};

/// Errors raised by DPP construction and inference.
#[derive(Debug, Clone, PartialEq)]
pub enum DppError {
    /// Underlying linear algebra failure (shape, convergence, ...).
    Linalg(lkp_linalg::LinalgError),
    /// Requested cardinality exceeds the ground-set size (or its rank).
    CardinalityTooLarge { k: usize, ground_size: usize },
    /// A subset index fell outside the ground set.
    IndexOutOfBounds { index: usize, ground_size: usize },
    /// The requested subset does not have the distribution's cardinality.
    WrongSubsetSize { expected: usize, got: usize },
    /// The kernel's spectrum is entirely (numerically) zero, so no k-DPP with
    /// k >= 1 exists.
    DegenerateKernel,
    /// An incremental recursion (the dual greedy MAP) lost numerical footing:
    /// a residual drifted beyond its guard or turned non-finite. The result
    /// is meaningless; callers should fall back to a dense-path computation.
    NumericalBreakdown,
}

impl From<lkp_linalg::LinalgError> for DppError {
    fn from(e: lkp_linalg::LinalgError) -> Self {
        DppError::Linalg(e)
    }
}

impl std::fmt::Display for DppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DppError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            DppError::CardinalityTooLarge { k, ground_size } => {
                write!(f, "cardinality {k} exceeds ground set size {ground_size}")
            }
            DppError::IndexOutOfBounds { index, ground_size } => {
                write!(
                    f,
                    "item index {index} out of bounds for ground set of {ground_size}"
                )
            }
            DppError::WrongSubsetSize { expected, got } => {
                write!(f, "subset has size {got}, the k-DPP requires {expected}")
            }
            DppError::DegenerateKernel => write!(f, "kernel spectrum is numerically zero"),
            DppError::NumericalBreakdown => {
                write!(f, "incremental recursion lost numerical footing")
            }
        }
    }
}

impl std::error::Error for DppError {}

/// Result alias for DPP operations.
pub type Result<T> = std::result::Result<T, DppError>;

/// Enumerates all size-`k` subsets of `0..n` in lexicographic order.
///
/// Intended for tests and tiny ground sets (the per-instance `k+n` sets of
/// the paper, where `C(10, 5) = 252`); the paper's Fig. 4 probe uses this.
pub fn enumerate_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if k > n {
        return out;
    }
    let mut current: Vec<usize> = (0..k).collect();
    loop {
        out.push(current.clone());
        // Advance to the next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if current[i] != i + n - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        current[i] += 1;
        for j in (i + 1)..k {
            current[j] = current[j - 1] + 1;
        }
    }
}

/// Binomial coefficient `C(n, k)` as f64 (sufficient for subset counting).
pub fn binomial(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut result = 1.0;
    for i in 0..k {
        result = result * (n - i) as f64 / (i + 1) as f64;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerate_subsets_counts_match_binomial() {
        for n in 0..=8 {
            for k in 0..=n {
                let subsets = enumerate_subsets(n, k);
                assert_eq!(subsets.len() as f64, binomial(n, k), "n={n} k={k}");
                // All subsets distinct and sorted.
                for s in &subsets {
                    assert!(s.windows(2).all(|w| w[0] < w[1]));
                }
            }
        }
    }

    #[test]
    fn enumerate_subsets_edge_cases() {
        assert_eq!(enumerate_subsets(3, 0), vec![Vec::<usize>::new()]);
        assert_eq!(enumerate_subsets(3, 4), Vec::<Vec<usize>>::new());
        assert_eq!(enumerate_subsets(3, 3), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn binomial_known_values() {
        assert_eq!(binomial(10, 5), 252.0);
        assert_eq!(binomial(5, 0), 1.0);
        assert_eq!(binomial(5, 5), 1.0);
        assert_eq!(binomial(4, 2), 6.0);
        assert_eq!(binomial(3, 7), 0.0);
    }
}
