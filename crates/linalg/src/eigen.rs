//! Symmetric eigendecomposition.
//!
//! The k-DPP normalizer `e_k(λ)` and its gradient both need the full spectrum
//! of the `(k+n) × (k+n)` ground-set kernel (paper Eq. 6 and Eq. 12). We use
//! the classic two-stage approach: Householder reduction to tridiagonal form
//! (`tred2`) followed by the implicit-shift QL iteration (`tql2`), following
//! the well-studied EISPACK formulation. This is exact to round-off for the
//! small symmetric matrices this workspace produces, and has no dependencies.

use crate::{LinalgError, Matrix, Result};

/// Eigendecomposition `A = V · diag(λ) · Vᵀ` of a real symmetric matrix.
#[derive(Debug, Clone, Default)]
pub struct SymmetricEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, stored as the *columns* of this matrix, in
    /// the same order as [`SymmetricEigen::values`].
    pub vectors: Matrix,
}

/// Maximum QL iterations per eigenvalue before giving up.
const MAX_ITER: usize = 64;

/// Reusable scratch for [`SymmetricEigen::compute_into`]: the tridiagonal
/// off-diagonal buffer, kept across calls so a steady-state decomposition
/// performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct EigenScratch {
    /// Off-diagonal workspace of the Householder/QL passes.
    e: Vec<f64>,
}

impl SymmetricEigen {
    /// Computes the full eigendecomposition of a symmetric matrix.
    ///
    /// Only symmetry to a loose tolerance is required; the strictly symmetric
    /// average `(A + Aᵀ)/2` is what actually gets decomposed, which absorbs
    /// round-off asymmetry from upstream kernel assembly.
    pub fn new(a: &Matrix) -> Result<Self> {
        let mut out = SymmetricEigen {
            // lint:allow(hotpath-alloc): one-time construction; steady-state
            // callers hold a `SymmetricEigen` and use `compute_into`.
            values: Vec::new(),
            vectors: Matrix::zeros(0, 0),
        };
        let mut scratch = EigenScratch::default();
        out.compute_into(a, &mut scratch)?;
        Ok(out)
    }

    /// Recomputes the decomposition of `a` in place, reusing this value's
    /// eigenvalue/eigenvector storage and the caller-held `scratch`.
    ///
    /// This is the hot-path entry point: after the first call at a given
    /// dimension, subsequent calls allocate nothing. On error `self` is
    /// **invalidated** ([`SymmetricEigen::invalidate`]): `values` and
    /// `vectors` are cleared so stale spectra can never be mistaken for the
    /// failed computation's result — [`SymmetricEigen::is_valid`] returns
    /// `false`.
    pub fn compute_into(&mut self, a: &Matrix, scratch: &mut EigenScratch) -> Result<()> {
        self.try_compute_into(a, scratch).inspect_err(|_| {
            self.invalidate();
        })
    }

    fn try_compute_into(&mut self, a: &Matrix, scratch: &mut EigenScratch) -> Result<()> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        self.vectors.copy_from(a);
        self.values.clear();
        self.values.resize(n, 0.0);
        if n == 0 {
            return Ok(());
        }
        self.vectors.symmetrize();
        scratch.e.clear();
        scratch.e.resize(n, 0.0);
        let v = &mut self.vectors;
        let d = &mut self.values[..];
        let e = &mut scratch.e[..];
        tred2(v, d, e);
        tql2(v, d, e)?;
        sort_ascending(v, d);
        Ok(())
    }

    /// Clears the decomposition so it can never be reused: `values` and
    /// `vectors` become empty and [`SymmetricEigen::is_valid`] returns
    /// `false`. Called automatically on every `compute_*` error path.
    pub fn invalidate(&mut self) {
        self.values.clear();
        self.vectors.reset(0, 0);
    }

    /// Whether this value holds a usable decomposition: non-empty, with an
    /// eigenvector matrix matching the eigenvalue count. A decomposition of
    /// a `0 × 0` matrix is indistinguishable from an invalidated one and
    /// reports `false`.
    pub fn is_valid(&self) -> bool {
        !self.values.is_empty() && self.vectors.shape() == (self.values.len(), self.values.len())
    }

    /// Dimension of the decomposed matrix.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Reconstructs `V · diag(f(λ)) · Vᵀ` for an arbitrary spectral function.
    ///
    /// This is the workhorse for k-DPP gradients, where
    /// `∇_L log e_k(λ) = V · diag(e_{k-1}(λ₋ᵢ)/e_k(λ)) · Vᵀ`.
    pub fn reconstruct_with(&self, f: impl Fn(usize, f64) -> f64) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.reconstruct_with_into(f, &mut out);
        out
    }

    /// [`SymmetricEigen::reconstruct_with`] writing into `out` (buffer
    /// reused). The accumulation is a sequence of branch-free rank-1 axpy
    /// updates over rows, which auto-vectorizes.
    pub fn reconstruct_with_into(&self, f: impl Fn(usize, f64) -> f64, out: &mut Matrix) {
        let n = self.dim();
        out.reset(n, n);
        for (idx, &lambda) in self.values.iter().enumerate() {
            let w = f(idx, lambda);
            if w == 0.0 {
                continue;
            }
            // out += w * v_idx v_idxᵀ, with v_idx the idx-th column of `vectors`.
            for r in 0..n {
                let coeff = w * self.vectors[(r, idx)];
                let row = out.row_mut(r);
                for (c, slot) in row.iter_mut().enumerate() {
                    *slot += coeff * self.vectors[(c, idx)];
                }
            }
        }
    }

    /// Reconstructs the original matrix (up to round-off).
    pub fn reconstruct(&self) -> Matrix {
        self.reconstruct_with(|_, lambda| lambda)
    }

    /// Eigenvalues clamped below at zero — the PSD projection used for DPP
    /// kernels whose tiny negative eigenvalues are numerical noise.
    pub fn clamped_nonnegative_values(&self) -> Vec<f64> {
        // lint:allow(hotpath-alloc): owned-return convenience wrapper over
        // the `_into` variant used by the hot path.
        let mut out = Vec::new();
        self.clamped_nonnegative_values_into(&mut out);
        out
    }

    /// [`SymmetricEigen::clamped_nonnegative_values`] into a reused buffer.
    pub fn clamped_nonnegative_values_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.values.iter().map(|&l| l.max(0.0)));
    }
}

/// Solves a batch of symmetric eigenproblems back-to-back from one shared
/// [`EigenScratch`] allocation.
///
/// This is the uniform-size dispatch entry point: callers that bucket their
/// work by matrix dimension (e.g. the trainer's size-bucketed instance
/// batches) hand every problem of one dispatch to a single call, so the
/// solver's scratch is sized once and the tridiagonalization/QL inner loops
/// run consecutively over hot buffers instead of interleaving with unrelated
/// per-item work. Each failed decomposition leaves its output **invalidated**
/// (exactly as [`SymmetricEigen::compute_into`] does) without aborting the
/// rest of the batch; the return value counts the failures.
pub fn compute_batch<'a, I>(problems: I, scratch: &mut EigenScratch) -> usize
where
    I: IntoIterator<Item = (&'a Matrix, &'a mut SymmetricEigen)>,
{
    let mut failures = 0;
    for (matrix, out) in problems {
        if out.compute_into(matrix, scratch).is_err() {
            failures += 1;
        }
    }
    failures
}

/// Householder reduction of `v` (symmetric) to tridiagonal form.
///
/// On exit `d` holds the diagonal, `e[1..]` the sub-diagonal, and `v` the
/// accumulated orthogonal transformation. Ported from the public-domain
/// EISPACK/JAMA `tred2`.
fn tred2(v: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for j in 0..n {
        d[j] = v[(n - 1, j)];
    }

    for i in (1..n).rev() {
        // Scale to avoid under/overflow.
        let mut scale = 0.0;
        let mut h = 0.0;
        for item in d.iter().take(i) {
            scale += item.abs();
        }
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = v[(i - 1, j)];
                v[(i, j)] = 0.0;
                v[(j, i)] = 0.0;
            }
        } else {
            // Generate Householder vector.
            for item in d.iter_mut().take(i) {
                *item /= scale;
                h += *item * *item;
            }
            let mut f = d[i - 1];
            let mut g = h.sqrt();
            if f > 0.0 {
                g = -g;
            }
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            for item in e.iter_mut().take(i) {
                *item = 0.0;
            }

            // Apply similarity transformation to remaining columns.
            for j in 0..i {
                f = d[j];
                v[(j, i)] = f;
                g = e[j] + v[(j, j)] * f;
                for k in (j + 1)..i {
                    g += v[(k, j)] * d[k];
                    e[k] += v[(k, j)] * f;
                }
                e[j] = g;
            }
            f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                f = d[j];
                g = e[j];
                for k in j..i {
                    let delta = f * e[k] + g * d[k];
                    v[(k, j)] -= delta;
                }
                d[j] = v[(i - 1, j)];
                v[(i, j)] = 0.0;
            }
        }
        d[i] = h;
    }

    // Accumulate transformations.
    for i in 0..(n - 1) {
        v[(n - 1, i)] = v[(i, i)];
        v[(i, i)] = 1.0;
        let h = d[i + 1];
        if h != 0.0 {
            for k in 0..=i {
                d[k] = v[(k, i + 1)] / h;
            }
            for j in 0..=i {
                let mut g = 0.0;
                for k in 0..=i {
                    g += v[(k, i + 1)] * v[(k, j)];
                }
                for k in 0..=i {
                    let delta = g * d[k];
                    v[(k, j)] -= delta;
                }
            }
        }
        for k in 0..=i {
            v[(k, i + 1)] = 0.0;
        }
    }
    for j in 0..n {
        d[j] = v[(n - 1, j)];
        v[(n - 1, j)] = 0.0;
    }
    v[(n - 1, n - 1)] = 1.0;
    e[0] = 0.0;
}

/// Implicit-shift QL iteration on the tridiagonal form produced by [`tred2`].
///
/// On exit `d` holds the eigenvalues and the columns of `v` the eigenvectors.
fn tql2(v: &mut Matrix, d: &mut [f64], e: &mut [f64]) -> Result<()> {
    let n = d.len();
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    let mut f = 0.0_f64;
    let mut tst1 = 0.0_f64;
    let eps = 2.0_f64.powi(-52);
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n {
            if e[m].abs() <= eps * tst1 {
                break;
            }
            m += 1;
        }
        if m == n {
            m = n - 1;
        }

        if m > l {
            let mut iter = 0;
            loop {
                iter += 1;
                if iter > MAX_ITER {
                    return Err(LinalgError::NoConvergence {
                        iterations: MAX_ITER,
                    });
                }
                // Compute implicit shift.
                let g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = radius(p, 1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let h = g - d[l];
                for item in d.iter_mut().take(n).skip(l + 2) {
                    *item -= h;
                }
                f += h;

                // Implicit QL transformation.
                p = d[m];
                let mut c = 1.0;
                let mut c2 = c;
                let mut c3 = c;
                let el1 = e[l + 1];
                let mut s = 0.0;
                let mut s2 = 0.0;
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    let g = c * e[i];
                    let h = c * p;
                    let r = radius(p, e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);

                    // Accumulate transformation in eigenvector matrix.
                    for k in 0..n {
                        let h = v[(k, i + 1)];
                        v[(k, i + 1)] = s * v[(k, i)] + c * h;
                        v[(k, i)] = c * v[(k, i)] - s * h;
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;

                if e[l].abs() <= eps * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

/// `√(a² + b²)` for the QL rotations. The plain square root is about a
/// rounding error from libm's `hypot` and several times cheaper; `hypot`
/// only runs when `a² + b²` leaves the normal range (overflow, underflow
/// into subnormals, zero or NaN), where squaring would lose the result.
#[inline]
fn radius(a: f64, b: f64) -> f64 {
    let sq = a * a + b * b;
    if sq.is_normal() {
        sq.sqrt()
    } else {
        #[cfg(test)]
        tests::HYPOT_FALLBACKS.with(|n| n.set(n.get() + 1));
        a.hypot(b)
    }
}

/// Sorts eigenvalues ascending, permuting eigenvector columns to match.
fn sort_ascending(v: &mut Matrix, d: &mut [f64]) {
    let n = d.len();
    for i in 0..n.saturating_sub(1) {
        let mut k = i;
        let mut p = d[i];
        for (j, &dj) in d.iter().enumerate().take(n).skip(i + 1) {
            if dj < p {
                k = j;
                p = dj;
            }
        }
        if k != i {
            d.swap(i, k);
            for r in 0..n {
                let tmp = v[(r, i)];
                v[(r, i)] = v[(r, k)];
                v[(r, k)] = tmp;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// How often [`radius`] fell back to `hypot` on this test thread.
        pub(super) static HYPOT_FALLBACKS: Cell<usize> = const { Cell::new(0) };
    }

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let eig = SymmetricEigen::new(&a).unwrap();
        assert_close(eig.values[0], 1.0, 1e-12);
        assert_close(eig.values[1], 2.0, 1e-12);
        assert_close(eig.values[2], 3.0, 1e-12);
    }

    #[test]
    fn two_by_two_known_spectrum() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let eig = SymmetricEigen::new(&a).unwrap();
        assert_close(eig.values[0], 1.0, 1e-12);
        assert_close(eig.values[1], 3.0, 1e-12);
    }

    #[test]
    fn reconstruction_matches_original() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, -0.5, 0.2],
            &[1.0, 3.0, 0.7, -0.1],
            &[-0.5, 0.7, 2.0, 0.3],
            &[0.2, -0.1, 0.3, 1.0],
        ]);
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!(eig.reconstruct().max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[&[2.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 2.0]]);
        let eig = SymmetricEigen::new(&a).unwrap();
        let vtv = eig.vectors.transpose().matmul(&eig.vectors).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(3)) < 1e-12);
    }

    #[test]
    fn trace_and_det_invariants() {
        let a = Matrix::from_rows(&[&[5.0, 2.0, 1.0], &[2.0, 4.0, 0.5], &[1.0, 0.5, 3.0]]);
        let eig = SymmetricEigen::new(&a).unwrap();
        let trace: f64 = eig.values.iter().sum();
        assert_close(trace, a.trace(), 1e-10);
        let det: f64 = eig.values.iter().product();
        assert_close(det, crate::lu::det(&a).unwrap(), 1e-9);
    }

    #[test]
    fn av_equals_lambda_v() {
        let a = Matrix::from_rows(&[&[1.0, 0.3, -0.2], &[0.3, 2.0, 0.4], &[-0.2, 0.4, 1.5]]);
        let eig = SymmetricEigen::new(&a).unwrap();
        for (i, &lambda) in eig.values.iter().enumerate() {
            let v: Vec<f64> = eig.vectors.col(i);
            let av = a.matvec(&v).unwrap();
            for (x, y) in av.iter().zip(&v) {
                assert_close(*x, lambda * y, 1e-10);
            }
        }
    }

    #[test]
    fn handles_repeated_eigenvalues() {
        let a = Matrix::identity(4);
        let eig = SymmetricEigen::new(&a).unwrap();
        for &l in &eig.values {
            assert_close(l, 1.0, 1e-12);
        }
        let vtv = eig.vectors.transpose().matmul(&eig.vectors).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(4)) < 1e-12);
    }

    #[test]
    fn one_by_one_and_empty() {
        let a = Matrix::from_rows(&[&[7.0]]);
        let eig = SymmetricEigen::new(&a).unwrap();
        assert_eq!(eig.values, vec![7.0]);
        let empty = SymmetricEigen::new(&Matrix::zeros(0, 0)).unwrap();
        assert!(empty.values.is_empty());
    }

    #[test]
    fn psd_gram_spectrum_is_nonnegative() {
        // VᵀV is PSD; clamped values should equal values up to round-off.
        let v = Matrix::from_fn(3, 6, |r, c| ((r * 7 + c * 3) % 5) as f64 - 2.0);
        let g = v.gram();
        let eig = SymmetricEigen::new(&g).unwrap();
        for &l in &eig.values {
            assert!(l > -1e-10, "PSD eigenvalue went negative: {l}");
        }
    }

    #[test]
    fn failed_compute_invalidates_the_decomposition() {
        // A NaN entry defeats the QL convergence test deterministically:
        // compute_into must error *and* leave the value invalidated rather
        // than holding the previous (stale) spectrum.
        let good = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let mut eig = SymmetricEigen::new(&good).unwrap();
        assert!(eig.is_valid());
        // The NaN must sit on an off-diagonal: it poisons the QL shift
        // sequence, whose convergence test can then never pass.
        let poisoned = Matrix::from_rows(&[&[1.0, f64::NAN], &[f64::NAN, 1.0]]);
        let mut scratch = EigenScratch::default();
        let err = eig.compute_into(&poisoned, &mut scratch);
        assert!(matches!(err, Err(LinalgError::NoConvergence { .. })));
        assert!(!eig.is_valid(), "error must invalidate the decomposition");
        assert!(eig.values.is_empty());
        // The invalidated value recovers on the next successful compute.
        eig.compute_into(&good, &mut scratch).unwrap();
        assert!(eig.is_valid());
        assert_close(eig.values[0], 1.0, 1e-12);
    }

    #[test]
    fn batched_solve_is_bitwise_the_individual_solves() {
        let mats: Vec<Matrix> = (0..6)
            .map(|s| {
                let mut a = Matrix::from_fn(5, 5, |r, c| {
                    (((r * 3 + c * 7 + s * 11) % 13) as f64) * 0.25 - 1.0
                });
                a.symmetrize();
                a
            })
            .collect();
        let mut batched: Vec<SymmetricEigen> = (0..6).map(|_| SymmetricEigen::default()).collect();
        let mut scratch = EigenScratch::default();
        let failures = compute_batch(mats.iter().zip(batched.iter_mut()), &mut scratch);
        assert_eq!(failures, 0);
        for (a, out) in mats.iter().zip(&batched) {
            let mut solo = SymmetricEigen::default();
            solo.compute_into(a, &mut EigenScratch::default()).unwrap();
            assert_eq!(
                solo.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                out.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            assert!(solo.vectors.max_abs_diff(&out.vectors) == 0.0);
        }
    }

    #[test]
    fn batched_solve_isolates_failures() {
        let good = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let poisoned = Matrix::from_rows(&[&[1.0, f64::NAN], &[f64::NAN, 1.0]]);
        let mats = [good.clone(), poisoned, good.clone()];
        let mut outs: Vec<SymmetricEigen> = (0..3).map(|_| SymmetricEigen::default()).collect();
        let mut scratch = EigenScratch::default();
        let failures = compute_batch(mats.iter().zip(outs.iter_mut()), &mut scratch);
        assert_eq!(failures, 1);
        assert!(outs[0].is_valid());
        assert!(!outs[1].is_valid(), "failed slot must be invalidated");
        assert!(outs[2].is_valid(), "failure must not poison later solves");
        assert_close(outs[2].values[0], 1.0, 1e-12);
        assert_close(outs[2].values[1], 3.0, 1e-12);
    }

    #[test]
    fn reconstruct_with_inverse_gives_matrix_inverse() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let eig = SymmetricEigen::new(&a).unwrap();
        let inv = eig.reconstruct_with(|_, l| 1.0 / l);
        let expected = crate::lu::inverse(&a).unwrap();
        assert!(inv.max_abs_diff(&expected) < 1e-12);
    }

    /// Symmetric test matrix with eigenvalues spread over `spread` decades,
    /// scaled by `scale`.
    fn graded(n: usize, spread: f64, scale: f64) -> Matrix {
        let mut a = Matrix::from_fn(n, n, |r, c| {
            let g = 10f64.powf(-spread * (r.max(c) as f64) / (n - 1) as f64);
            g * ((((r * 5 + c * 3) % 7) as f64) * 0.3 - 0.9)
        });
        for i in 0..n {
            a[(i, i)] += 10f64.powf(-spread * i as f64 / (n - 1) as f64);
        }
        a.symmetrize();
        a.scale(scale);
        a
    }

    #[test]
    fn extreme_scales_take_the_hypot_fallback_and_stay_exact() {
        // At 1e-150 the squared rotation terms of the graded matrices fall
        // below the normal range, so the fallback runs; at 1e150 they stay
        // finite (≈1e302), which checks the plain root near the top end.
        HYPOT_FALLBACKS.with(|n| n.set(0));
        for scale in [1e150, 1e-150] {
            for spread in [0.0, 8.0, 16.0] {
                let a = graded(10, spread, scale);
                let eig = SymmetricEigen::new(&a).unwrap();
                let norm = a.as_slice().iter().fold(0.0_f64, |m, x| m.max(x.abs()));
                let err = eig.reconstruct().max_abs_diff(&a);
                assert!(
                    err <= 1e-12 * norm,
                    "scale {scale:e} spread {spread}: reconstruction {err:e} vs {norm:e}"
                );
                let vtv = eig.vectors.transpose().matmul(&eig.vectors).unwrap();
                assert!(
                    vtv.max_abs_diff(&Matrix::identity(10)) < 1e-12,
                    "scale {scale:e} spread {spread}: eigenvectors not orthonormal"
                );
            }
        }
        let fallbacks = HYPOT_FALLBACKS.with(Cell::get);
        assert!(fallbacks > 0, "no rotation left the normal range");
    }

    #[test]
    fn unit_scale_solves_never_need_the_fallback() {
        HYPOT_FALLBACKS.with(|n| n.set(0));
        for spread in [0.0, 4.0] {
            SymmetricEigen::new(&graded(10, spread, 1.0)).unwrap();
        }
        assert_eq!(HYPOT_FALLBACKS.with(Cell::get), 0);
    }
}
