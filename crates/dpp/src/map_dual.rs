//! Greedy MAP inference in the dual (factored) representation.
//!
//! Serving builds the tailored kernel `L_C = B·Bᵀ + ε·I` from a thin factor
//! `B = Diag(q)·Φ_C` (`m × d`). The dense path materializes `L_C`
//! (`O(m²·d)`) before running the incremental-Cholesky greedy of [`crate::map`];
//! this module runs the *same* greedy recursion without ever forming `L_C`:
//! every off-diagonal entry the update needs is an inner product of two
//! factor rows, computed on demand (`L_ij = ⟨b_i, b_j⟩` for `i ≠ j`,
//! `L_ii = ⟨b_i, b_i⟩ + ε`). One greedy step over `m` candidates costs
//! `O(m·(d + |S|))`, so a full top-`N` list is `O(m·N·(d + N))` — linear in
//! the candidate count, versus `O(m²·d)` for dense assembly alone. This is
//! the dual-representation treatment of the serving path (Kulesza & Taskar
//! §3.3; Gartrell et al.'s low-rank DPP serving); the training side's
//! analogous `d × d` dual spectral path lives in [`crate::workspace`].
//!
//! The recursion subtracts squared Cholesky coefficients from running
//! residual norms, which can cancel catastrophically on near-singular
//! kernels. The dense path reads fresh kernel entries each step and degrades
//! gracefully; here a corrupted residual would silently poison every later
//! gain, so the update *guards* the drift: a residual more negative than
//! `guard · max_initial_gain` (or non-finite) aborts with
//! [`DppError::NumericalBreakdown`], letting callers fall back to the dense
//! path. Setting a negative guard makes the very first update trip — the
//! fault-injection lever the serving tests use to exercise that fallback.

use crate::{DppError, Result};
use lkp_linalg::Matrix;

/// Default relative tolerance for negative residual drift before the dual
/// recursion reports [`DppError::NumericalBreakdown`].
///
/// Residuals are monotonically non-increasing and mathematically non-negative;
/// round-off can push an exhausted candidate slightly below zero. A drift of
/// `1e-8 ×` the largest initial gain is far beyond honest round-off for
/// well-conditioned kernels but far below the gains a usable selection needs.
pub const DUAL_BREAKDOWN_GUARD: f64 = 1e-8;

/// Reusable scratch for [`greedy_map_dual_with`] — the dual serving hot path.
///
/// One workspace per worker thread; buffers grow to the steady-state
/// `(m, d, k)` shape on first use and are clear-and-refilled afterwards, so a
/// steady-state call performs no heap allocation. The selection, per-step
/// gains, and incremental `log det` of the last call stay readable until the
/// next one.
#[derive(Debug, Clone)]
pub struct DualMapWorkspace {
    /// Residual squared norms (marginal gains) per candidate.
    d2: Vec<f64>,
    /// Incremental Cholesky rows, candidate-major: row `i` holds the first
    /// `selected.len()` coefficients of candidate `i`.
    c: Matrix,
    /// Contiguous copy of the newly selected Cholesky row (borrow-splitting
    /// scratch).
    cj: Vec<f64>,
    /// Contiguous copy of the newly selected factor row `b_j`.
    bj: Vec<f64>,
    in_set: Vec<bool>,
    selected: Vec<usize>,
    /// Marginal gain accepted at each greedy step, in selection order.
    gains: Vec<f64>,
    log_det: f64,
    /// Relative negative-drift tolerance (see [`DUAL_BREAKDOWN_GUARD`]).
    /// Negative values trip the breakdown check on the first update —
    /// deterministic fault injection for fallback tests.
    pub guard: f64,
}

impl Default for DualMapWorkspace {
    fn default() -> Self {
        DualMapWorkspace {
            // lint:allow(hotpath-alloc): workspace construction is the cold
            // one-time site; every `Vec::new` below is a buffer that grows
            // once and is reused allocation-free on the hot path.
            d2: Vec::new(),
            c: Matrix::zeros(0, 0),
            cj: Vec::new(),       // lint:allow(hotpath-alloc): one-time construction
            bj: Vec::new(),       // lint:allow(hotpath-alloc): one-time construction
            in_set: Vec::new(),   // lint:allow(hotpath-alloc): one-time construction
            selected: Vec::new(), // lint:allow(hotpath-alloc): one-time construction
            gains: Vec::new(),    // lint:allow(hotpath-alloc): one-time construction
            log_det: 0.0,
            guard: DUAL_BREAKDOWN_GUARD,
        }
    }
}

impl DualMapWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        DualMapWorkspace::default()
    }

    /// Selected row indices of the last [`greedy_map_dual_with`] call, in
    /// selection order.
    pub fn items(&self) -> &[usize] {
        &self.selected
    }

    /// Marginal gain accepted at each step of the last call, in selection
    /// order (`gains()[t]` is the `d²` of the item picked at step `t`).
    pub fn gains(&self) -> &[f64] {
        &self.gains
    }

    /// `log det(L_S)` of the last selection.
    pub fn log_det(&self) -> f64 {
        self.log_det
    }
}

/// Fast greedy MAP on the implicit kernel `B·Bᵀ + jitter·I`, reusing `ws`.
///
/// `b` is the `m × d` row factor (`b_i = q_i·φ_i` in serving); `jitter` is
/// the diagonal regularizer the dense path adds to `L_C` (it never touches
/// off-diagonals, so it appears only in the initial gains). The greedy
/// recursion — argmax tie-breaking, the `gain ≤ 1e-12` rank-exhaustion stop,
/// and the residual update — mirrors [`crate::map::greedy_map_with`] line
/// for line, with the dense read `L_ji` replaced by `⟨b_j, b_i⟩`; on a
/// well-conditioned kernel both paths select identical items (log-det agrees
/// to rounding, not bitwise: the arithmetic reassociates).
///
/// Errors: [`DppError::CardinalityTooLarge`] when `k > m`, and
/// [`DppError::NumericalBreakdown`] when a residual drifts below
/// `-ws.guard × max_initial_gain` or turns non-finite (see module docs) —
/// the workspace selection is meaningless after a breakdown.
pub fn greedy_map_dual_with(
    b: &Matrix,
    jitter: f64,
    k: usize,
    ws: &mut DualMapWorkspace,
) -> Result<()> {
    let m = b.rows();
    let d = b.cols();
    if k > m {
        return Err(DppError::CardinalityTooLarge { k, ground_size: m });
    }
    ws.d2.clear();
    ws.d2
        .extend((0..m).map(|i| lkp_linalg::ops::dot(b.row(i), b.row(i)) + jitter));
    ws.c.reset(m, k.max(1));
    ws.cj.clear();
    ws.cj.resize(k, 0.0);
    ws.bj.clear();
    ws.bj.resize(d, 0.0);
    ws.in_set.clear();
    ws.in_set.resize(m, false);
    ws.selected.clear();
    ws.gains.clear();
    ws.log_det = 0.0;

    // Breakdown scale: residuals start at the diagonal and only shrink, so
    // the largest initial gain bounds every honest residual in the run.
    let scale = ws.d2.iter().cloned().fold(0.0_f64, f64::max);
    let floor = -ws.guard * scale.max(f64::MIN_POSITIVE);

    while ws.selected.len() < k {
        // argmax over remaining candidates — same tie-break as the dense
        // path (first maximum wins).
        let mut best: Option<(usize, f64)> = None;
        for i in 0..m {
            if ws.in_set[i] {
                continue;
            }
            match best {
                Some((_, bd)) if ws.d2[i] <= bd => {}
                _ => best = Some((i, ws.d2[i])),
            }
        }
        let (j, gain) = best.ok_or(DppError::DegenerateKernel)?;
        if !gain.is_finite() {
            return Err(DppError::NumericalBreakdown);
        }
        if gain <= 1e-12 {
            // Kernel rank exhausted: no size-k subset with positive volume
            // extends the current one.
            break;
        }
        let dj = gain.sqrt();
        ws.log_det += gain.ln();
        ws.in_set[j] = true;
        let depth = ws.selected.len();

        // Update residuals of all remaining candidates against the newly
        // selected column j: e_i = (⟨b_j, b_i⟩ − ⟨c_j, c_i⟩) / d_j.
        ws.cj[..depth].copy_from_slice(&ws.c.row(j)[..depth]);
        ws.bj.copy_from_slice(b.row(j));
        for i in 0..m {
            if ws.in_set[i] {
                continue;
            }
            let ci = ws.c.row_mut(i);
            let mut dot = 0.0;
            for (a, bb) in ws.cj[..depth].iter().zip(ci.iter()) {
                dot += a * bb;
            }
            let l_ji = lkp_linalg::ops::dot(&ws.bj, b.row(i));
            let e = (l_ji - dot) / dj;
            ci[depth] = e;
            ws.d2[i] -= e * e;
            if !ws.d2[i].is_finite() || ws.d2[i] < floor {
                return Err(DppError::NumericalBreakdown);
            }
        }
        ws.selected.push(j);
        ws.gains.push(gain);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::{greedy_map_with, MapWorkspace};
    use crate::DppError;

    /// Deterministic pseudo-random `m × d` factor with continuous values
    /// (coarse grids would manufacture exact ties the dense/dual tie-break
    /// comparison can't distinguish from real agreement).
    fn random_factor(m: usize, d: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Matrix::from_fn(m, d, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    /// Dense `B·Bᵀ + jitter·I` for the reference path.
    fn densify(b: &Matrix, jitter: f64) -> Matrix {
        let m = b.rows();
        let mut l = Matrix::from_fn(m, m, |i, j| lkp_linalg::ops::dot(b.row(i), b.row(j)));
        for i in 0..m {
            l[(i, i)] += jitter;
        }
        l
    }

    #[test]
    fn dual_matches_dense_selection_and_gains() {
        let mut dense = MapWorkspace::new();
        let mut dual = DualMapWorkspace::new();
        for seed in 0..8 {
            let b = random_factor(20, 6, seed);
            let l = densify(&b, 1e-6);
            for k in [1, 3, 7, 12] {
                greedy_map_with(&l, k, &mut dense).unwrap();
                greedy_map_dual_with(&b, 1e-6, k, &mut dual).unwrap();
                assert_eq!(dense.items(), dual.items(), "seed={seed} k={k}");
                assert!(
                    (dense.log_det() - dual.log_det()).abs()
                        < 1e-9 * dense.log_det().abs().max(1.0),
                    "seed={seed} k={k}: {} vs {}",
                    dense.log_det(),
                    dual.log_det()
                );
            }
        }
    }

    #[test]
    fn rank_deficient_factor_stops_at_rank() {
        // d = 3 ⇒ kernel rank ≤ 3 (jitter 0): greedy with k = 6 must stop.
        let b = random_factor(10, 3, 5);
        let mut ws = DualMapWorkspace::new();
        greedy_map_dual_with(&b, 0.0, 6, &mut ws).unwrap();
        assert!(ws.items().len() <= 3, "selected {:?}", ws.items());
        assert_eq!(ws.gains().len(), ws.items().len());
    }

    #[test]
    fn workspace_reuse_is_deterministic_across_shapes() {
        let mut ws = DualMapWorkspace::new();
        for (m, d, seed, k) in [(12, 4, 0, 5), (30, 8, 3, 10), (6, 2, 1, 2), (18, 5, 7, 18)] {
            let b = random_factor(m, d, seed);
            greedy_map_dual_with(&b, 1e-6, k, &mut ws).unwrap();
            let mut fresh = DualMapWorkspace::new();
            greedy_map_dual_with(&b, 1e-6, k, &mut fresh).unwrap();
            assert_eq!(ws.items(), fresh.items(), "m={m} d={d}");
            assert_eq!(ws.log_det().to_bits(), fresh.log_det().to_bits());
        }
    }

    #[test]
    fn oversized_k_is_rejected() {
        let b = random_factor(4, 2, 0);
        let mut ws = DualMapWorkspace::new();
        assert!(matches!(
            greedy_map_dual_with(&b, 1e-6, 5, &mut ws),
            Err(DppError::CardinalityTooLarge { .. })
        ));
    }

    #[test]
    fn k_zero_and_empty_factor_are_empty() {
        let mut ws = DualMapWorkspace::new();
        greedy_map_dual_with(&random_factor(4, 2, 0), 1e-6, 0, &mut ws).unwrap();
        assert!(ws.items().is_empty());
        assert_eq!(ws.log_det(), 0.0);
        greedy_map_dual_with(&Matrix::zeros(0, 3), 1e-6, 0, &mut ws).unwrap();
        assert!(ws.items().is_empty());
    }

    #[test]
    fn negative_guard_forces_breakdown() {
        // guard < 0 ⇒ floor > 0 ⇒ every post-update residual (they only
        // shrink) trips the check on the first greedy step.
        let b = random_factor(10, 4, 2);
        let mut ws = DualMapWorkspace::new();
        ws.guard = -1.0;
        assert!(matches!(
            greedy_map_dual_with(&b, 1e-6, 3, &mut ws),
            Err(DppError::NumericalBreakdown)
        ));
        // The same workspace recovers once the guard is sane again.
        ws.guard = DUAL_BREAKDOWN_GUARD;
        greedy_map_dual_with(&b, 1e-6, 3, &mut ws).unwrap();
        assert_eq!(ws.items().len(), 3);
    }

    #[test]
    fn non_finite_factor_is_a_breakdown_not_garbage() {
        let mut b = random_factor(6, 3, 4);
        b[(2, 1)] = f64::NAN;
        let mut ws = DualMapWorkspace::new();
        assert!(matches!(
            greedy_map_dual_with(&b, 1e-6, 3, &mut ws),
            Err(DppError::NumericalBreakdown)
        ));
    }
}
