//! Property-based tests for the linear algebra substrate.
//!
//! Strategy: random well-conditioned matrices are built from random data with
//! bounded magnitude; SPD matrices are built as `G·Gᵀ + αI` so factorizations
//! are exercised away from the singular boundary.

use lkp_linalg::{eigen::SymmetricEigen, lu::Lu, Cholesky, CsrMatrix, Matrix};
use proptest::prelude::*;

/// Random dense matrix with entries in [-2, 2].
fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0..2.0_f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Random SPD matrix `G·Gᵀ + 0.5·I` of the given size.
fn spd_strategy(n: usize) -> impl Strategy<Value = Matrix> {
    matrix_strategy(n, n).prop_map(move |g| {
        let mut a = g.matmul(&g.transpose()).expect("square product");
        for i in 0..n {
            a[(i, i)] += 0.5;
        }
        a
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_is_associative(a in matrix_strategy(3, 4), b in matrix_strategy(4, 2), c in matrix_strategy(2, 5)) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(left.max_abs_diff(&right) < 1e-10);
    }

    #[test]
    fn transpose_of_product_swaps_order(a in matrix_strategy(3, 4), b in matrix_strategy(4, 3)) {
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    #[test]
    fn lu_solve_then_multiply_roundtrips(a in spd_strategy(5), x in proptest::collection::vec(-3.0..3.0_f64, 5)) {
        let b = a.matvec(&x).unwrap();
        let got = Lu::new(&a).unwrap().solve(&b).unwrap();
        for (g, t) in got.iter().zip(&x) {
            prop_assert!((g - t).abs() < 1e-7, "{g} vs {t}");
        }
    }

    #[test]
    fn lu_det_matches_eigenvalue_product(a in spd_strategy(4)) {
        let det = Lu::new(&a).unwrap().det();
        let eig = SymmetricEigen::new(&a).unwrap();
        let prod: f64 = eig.values.iter().product();
        prop_assert!((det - prod).abs() < 1e-8 * det.abs().max(1.0));
    }

    #[test]
    fn cholesky_log_det_matches_lu(a in spd_strategy(6)) {
        let ld = Cholesky::new(&a).unwrap().log_det();
        let (sign, lu_ld) = Lu::new(&a).unwrap().sign_log_det();
        prop_assert!(sign > 0.0);
        prop_assert!((ld - lu_ld).abs() < 1e-8);
    }

    #[test]
    fn eigen_reconstructs_symmetric_input(g in matrix_strategy(5, 5)) {
        let mut a = g;
        a.symmetrize();
        let eig = SymmetricEigen::new(&a).unwrap();
        prop_assert!(eig.reconstruct().max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn eigen_vectors_orthonormal(a in spd_strategy(5)) {
        let eig = SymmetricEigen::new(&a).unwrap();
        let vtv = eig.vectors.transpose().matmul(&eig.vectors).unwrap();
        prop_assert!(vtv.max_abs_diff(&Matrix::identity(5)) < 1e-9);
    }

    #[test]
    fn spd_eigenvalues_positive(a in spd_strategy(4)) {
        let eig = SymmetricEigen::new(&a).unwrap();
        for &l in &eig.values {
            prop_assert!(l > 0.0, "SPD eigenvalue {l} not positive");
        }
    }

    #[test]
    fn csr_spmm_matches_dense(
        triplets in proptest::collection::vec((0usize..6, 0usize..6, -2.0..2.0_f64), 0..20),
        dense in matrix_strategy(6, 3),
    ) {
        let sp = CsrMatrix::from_triplets(6, 6, &triplets).unwrap();
        let got = sp.spmm(&dense).unwrap();
        let expected = sp.to_dense().matmul(&dense).unwrap();
        prop_assert!(got.max_abs_diff(&expected) < 1e-10);
    }

    #[test]
    fn csr_transpose_is_involution(
        triplets in proptest::collection::vec((0usize..5, 0usize..7, -2.0..2.0_f64), 0..15),
    ) {
        let sp = CsrMatrix::from_triplets(5, 7, &triplets).unwrap();
        let back = sp.transpose().transpose();
        prop_assert!(back.to_dense().max_abs_diff(&sp.to_dense()) < 1e-12);
    }

    #[test]
    fn principal_submatrix_of_spd_is_spd(a in spd_strategy(6), idx in proptest::collection::vec(0usize..6, 1..5)) {
        // Principal submatrices of SPD matrices are SPD (interlacing) — they
        // must Cholesky-factorize. Deduplicate indices first.
        let mut idx = idx;
        idx.sort_unstable();
        idx.dedup();
        let sub = a.principal_submatrix(&idx).unwrap();
        prop_assert!(Cholesky::new(&sub).is_ok());
    }

    #[test]
    fn chunked_dot_matches_scalar_within_1e12(
        pairs in proptest::collection::vec((-3.0..3.0_f64, -3.0..3.0_f64), 0..40),
    ) {
        // The 4-lane accumulator only reassociates the sum; for bounded
        // inputs the result must stay within 1e-12 relative of the strict
        // left-to-right scalar reduction.
        let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let chunked = lkp_linalg::ops::dot(&a, &b);
        let scalar = lkp_linalg::ops::dot_scalar(&a, &b);
        prop_assert!(
            (chunked - scalar).abs() <= 1e-12 * scalar.abs().max(1.0),
            "chunked {} vs scalar {}", chunked, scalar
        );
    }

    #[test]
    fn blocked_axpy_matches_scalar_bitwise(
        pairs in proptest::collection::vec((-3.0..3.0_f64, -3.0..3.0_f64), 0..40),
        alpha in -2.0..2.0_f64,
    ) {
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let mut y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let mut y_ref = y.clone();
        lkp_linalg::ops::axpy(alpha, &x, &mut y);
        for (yi, &xi) in y_ref.iter_mut().zip(&x) {
            *yi += alpha * xi;
        }
        for (got, want) in y.iter().zip(&y_ref) {
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }
}
