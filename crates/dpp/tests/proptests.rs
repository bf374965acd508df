//! Property-based tests for the DPP crate: invariants that must hold for any
//! PSD kernel, not just the hand-picked examples in the unit tests.

use lkp_dpp::{
    enumerate_subsets, esp, grad, greedy_map_dual_with, kdpp::KDpp, map, DppError, DppKernel,
    DualMapWorkspace, DUAL_BREAKDOWN_GUARD,
};
use lkp_linalg::Matrix;
use proptest::prelude::*;

/// Random `m × d` row factor with continuous entries (coarse grids would
/// manufacture exact greedy ties that a dense-vs-dual comparison could not
/// tell apart from real agreement).
fn low_rank_factor(m: usize, d: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0..1.0_f64, m * d)
        .prop_map(move |data| Matrix::from_vec(m, d, data))
}

/// Dense `B·Bᵀ + jitter·I` — exactly the kernel the dual path serves implicitly.
fn densify(b: &Matrix, jitter: f64) -> Matrix {
    let m = b.rows();
    let mut l = Matrix::from_fn(m, m, |i, j| lkp_linalg::ops::dot(b.row(i), b.row(j)));
    for i in 0..m {
        l[(i, i)] += jitter;
    }
    l
}

/// Random PSD kernel `GᵀG + 0.2·I` of size n.
fn psd_kernel(n: usize) -> impl Strategy<Value = DppKernel> {
    proptest::collection::vec(-1.5..1.5_f64, n * n).prop_map(move |data| {
        let g = Matrix::from_vec(n, n, data);
        let mut k = g.gram();
        for i in 0..n {
            k[(i, i)] += 0.2;
        }
        DppKernel::new(k).expect("square symmetric kernel")
    })
}

/// Random non-negative eigenvalue vector.
fn eigenvalues(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0..5.0_f64, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn esp_newton_identity_holds(lambda in eigenvalues(6)) {
        // e_1 = power sum p_1; e_2 = (p_1² - p_2)/2 — the first two Newton
        // identities.
        let p1: f64 = lambda.iter().sum();
        let p2: f64 = lambda.iter().map(|l| l * l).sum();
        let e1 = esp::elementary_symmetric(&lambda, 1);
        let e2 = esp::elementary_symmetric(&lambda, 2);
        prop_assert!((e1 - p1).abs() < 1e-9 * p1.abs().max(1.0));
        prop_assert!((e2 - (p1 * p1 - p2) / 2.0).abs() < 1e-9 * e2.abs().max(1.0));
    }

    #[test]
    fn esp_is_monotone_in_eigenvalues(lambda in eigenvalues(5), idx in 0usize..5, bump in 0.1..2.0_f64) {
        // ESPs of non-negative values increase when any value increases.
        let before = esp::elementary_symmetric(&lambda, 3);
        let mut bigger = lambda.clone();
        bigger[idx] += bump;
        let after = esp::elementary_symmetric(&bigger, 3);
        prop_assert!(after >= before - 1e-12);
    }

    #[test]
    fn esp_generating_function_identity(lambda in eigenvalues(5)) {
        // Π (1 + λ_i) = Σ_k e_k(λ).
        let product: f64 = lambda.iter().map(|l| 1.0 + l).product();
        let sum: f64 = (0..=5).map(|k| esp::elementary_symmetric(&lambda, k)).sum();
        prop_assert!((product - sum).abs() < 1e-9 * product.max(1.0));
    }

    #[test]
    fn kdpp_probs_are_normalized(kernel in psd_kernel(5), k in 1usize..=4) {
        let kdpp = KDpp::new(kernel, k).unwrap();
        let total: f64 = kdpp.all_subset_probs().unwrap().iter().map(|(_, p)| p).sum();
        prop_assert!((total - 1.0).abs() < 1e-7, "total {total}");
    }

    #[test]
    fn kdpp_normalizer_equals_subset_sum(kernel in psd_kernel(5), k in 1usize..=4) {
        let brute: f64 = enumerate_subsets(5, k)
            .iter()
            .map(|s| kernel.det_subset(s).unwrap())
            .sum();
        let kdpp = KDpp::new(kernel, k).unwrap();
        let z = kdpp.log_normalizer().exp();
        prop_assert!((z - brute).abs() < 1e-7 * brute.max(1.0), "{z} vs {brute}");
    }

    #[test]
    fn marginals_lie_in_unit_interval_and_sum_to_k(kernel in psd_kernel(6), k in 1usize..=5) {
        let kdpp = KDpp::new(kernel, k).unwrap();
        let mut total = 0.0;
        for i in 0..6 {
            let p = kdpp.inclusion_marginal(i).unwrap();
            prop_assert!((0.0..=1.0).contains(&p));
            total += p;
        }
        prop_assert!((total - k as f64).abs() < 1e-6);
    }

    #[test]
    fn score_identity_expectation_of_gradient_vanishes(kernel in psd_kernel(4), k in 1usize..=3) {
        let kdpp = KDpp::new(kernel, k).unwrap();
        let mut acc = Matrix::zeros(4, 4);
        for (s, p) in kdpp.all_subset_probs().unwrap() {
            let g = grad::grad_log_prob(&kdpp, &s).unwrap();
            acc.add_scaled(p, &g).unwrap();
        }
        prop_assert!(acc.max_abs() < 1e-6, "residual {}", acc.max_abs());
    }

    #[test]
    fn fast_greedy_agrees_with_naive(kernel in psd_kernel(7), k in 1usize..=5) {
        let fast = map::greedy_map(&kernel, k).unwrap();
        let naive = map::greedy_map_naive(&kernel, k).unwrap();
        // Ties can be broken differently only with exactly equal gains, which
        // has measure zero for random kernels; require identical output.
        prop_assert_eq!(fast.items, naive.items);
        prop_assert!((fast.log_det - naive.log_det).abs() < 1e-7);
    }

    #[test]
    fn greedy_never_beats_exhaustive(kernel in psd_kernel(6), k in 1usize..=4) {
        let greedy = map::greedy_map(&kernel, k).unwrap();
        let opt = map::exhaustive_map(&kernel, k).unwrap();
        prop_assert!(greedy.log_det <= opt.log_det + 1e-8);
    }

    #[test]
    fn greedy_vs_exhaustive_on_small_ground_sets(kernel in psd_kernel(12), k in 1usize..=4) {
        // m = 12 is the largest ground set where exhaustive enumeration is
        // still cheap (C(12,4) = 495). Greedy must (a) never beat the
        // optimum, (b) *be* the optimum at k = 1 (both are the diagonal
        // argmax), and (c) select exactly k items on these full-rank kernels.
        let greedy = map::greedy_map(&kernel, k).unwrap();
        let opt = map::exhaustive_map(&kernel, k).unwrap();
        prop_assert!(greedy.log_det <= opt.log_det + 1e-8);
        prop_assert_eq!(greedy.items.len(), k);
        if k == 1 {
            prop_assert_eq!(&greedy.items, &opt.items);
            prop_assert!((greedy.log_det - opt.log_det).abs() < 1e-9);
        }
    }

    #[test]
    fn map_workspace_path_is_bitwise_identical(kernel in psd_kernel(12), k in 1usize..=8) {
        // The serving-side workspace entry point must reproduce the
        // allocating wrapper exactly — same selection, same log_det bits —
        // including when the workspace is reused across differently-shaped
        // calls (the warm-up run below leaves stale state behind).
        let mut ws = map::MapWorkspace::new();
        map::greedy_map_with(kernel.matrix(), (k + 3).min(12), &mut ws).unwrap();
        map::greedy_map_with(kernel.matrix(), k, &mut ws).unwrap();
        let fresh = map::greedy_map(&kernel, k).unwrap();
        prop_assert_eq!(ws.items(), &fresh.items[..]);
        prop_assert_eq!(ws.log_det().to_bits(), fresh.log_det.to_bits());
    }

    #[test]
    fn dual_greedy_matches_dense_greedy_step_for_step(b in low_rank_factor(16, 4), k in 1usize..=10) {
        // The dual recursion reassociates the dense path's arithmetic but
        // must make the same decisions: identical selections and per-step
        // marginal gains within 1e-10 relative.
        let l = densify(&b, 0.05);
        let mut dense = map::MapWorkspace::new();
        map::greedy_map_with(&l, k, &mut dense).unwrap();
        let mut dual = DualMapWorkspace::new();
        greedy_map_dual_with(&b, 0.05, k, &mut dual).unwrap();
        prop_assert_eq!(dense.items(), dual.items());
        prop_assert_eq!(dense.gains().len(), dual.gains().len());
        for (t, (gd, gl)) in dense.gains().iter().zip(dual.gains()).enumerate() {
            prop_assert!(
                (gd - gl).abs() <= 1e-10 * gd.abs().max(1.0),
                "step {t}: dense gain {gd} vs dual {gl}"
            );
        }
    }

    #[test]
    fn dual_greedy_never_beats_exhaustive_on_small_ground_sets(b in low_rank_factor(12, 5), k in 1usize..=4) {
        // m = 12 keeps exhaustive enumeration cheap (C(12,4) = 495). The
        // dual greedy must never beat the optimum, must select exactly k
        // items on these jittered full-rank kernels, and must *be* the
        // optimum at k = 1 (both are the diagonal argmax).
        let kernel = DppKernel::new(densify(&b, 0.2)).unwrap();
        let opt = map::exhaustive_map(&kernel, k).unwrap();
        let mut dual = DualMapWorkspace::new();
        greedy_map_dual_with(&b, 0.2, k, &mut dual).unwrap();
        prop_assert!(dual.log_det() <= opt.log_det + 1e-8,
            "dual {} beats exhaustive {}", dual.log_det(), opt.log_det);
        prop_assert_eq!(dual.items().len(), k);
        if k == 1 {
            prop_assert_eq!(dual.items(), &opt.items[..]);
            prop_assert!((dual.log_det() - opt.log_det).abs() < 1e-9);
        }
    }

    #[test]
    fn dual_breakdown_injection_errors_then_recovers(b in low_rank_factor(10, 6), k in 1usize..=6) {
        // A negative guard makes floor > 0, so the first residual update
        // trips NumericalBreakdown deterministically — the fault-injection
        // lever the serving fallback tests rely on. The same workspace must
        // then serve correctly once the guard is sane again.
        let mut ws = DualMapWorkspace::new();
        ws.guard = -1.0;
        prop_assert!(matches!(
            greedy_map_dual_with(&b, 1e-6, k, &mut ws),
            Err(DppError::NumericalBreakdown)
        ));
        ws.guard = DUAL_BREAKDOWN_GUARD;
        greedy_map_dual_with(&b, 1e-6, k, &mut ws).unwrap();
        prop_assert_eq!(ws.items().len(), k);
        let mut dense = map::MapWorkspace::new();
        map::greedy_map_with(&densify(&b, 1e-6), k, &mut dense).unwrap();
        prop_assert_eq!(dense.items(), ws.items());
    }

    #[test]
    fn standard_dpp_total_probability_is_one(kernel in psd_kernel(5)) {
        let mut total = 0.0;
        for k in 0..=5 {
            for s in enumerate_subsets(5, k) {
                total += kernel.standard_dpp_log_prob(&s).unwrap().exp();
            }
        }
        prop_assert!((total - 1.0).abs() < 1e-7, "total {total}");
    }

    #[test]
    fn fast_leave_one_out_matches_brute_force(lambda in eigenvalues(9), k in 0usize..=8) {
        // The O(m·k) prefix/suffix merge against the O(m²·k) direct
        // recomputation, at ≤1e-10 relative error (acceptance bound).
        let fast = esp::leave_one_out(&lambda, k);
        let naive = esp::leave_one_out_naive(&lambda, k);
        prop_assert_eq!(fast.len(), naive.len());
        for (i, (f, n)) in fast.iter().zip(&naive).enumerate() {
            prop_assert!(
                (f - n).abs() <= 1e-10 * n.abs().max(1.0),
                "i={i} k={k}: fast {f} vs naive {n}"
            );
        }
    }

    #[test]
    fn esp_all_into_matches_the_dp_table_recurrence(
        lambda in eigenvalues(7),
        k in 0usize..=7,
        stale in 0usize..=9,
    ) {
        // The single-pass `_into` recurrence that training and serving call
        // against the paper's Algorithm 1 written out as its full table
        // `E[l][j] = e_l(λ_1..λ_j)`, read at the last column. The buffer
        // starts at a stale length to check that the call resets it.
        let m = lambda.len();
        let mut table = vec![vec![0.0; m + 1]; k + 1];
        table[0].fill(1.0);
        for l in 1..=k {
            for j in 1..=m {
                table[l][j] = table[l][j - 1] + lambda[j - 1] * table[l - 1][j - 1];
            }
        }
        let mut e = vec![f64::NAN; stale];
        esp::elementary_symmetric_all_into(&lambda, k, &mut e);
        prop_assert_eq!(e.len(), k + 1);
        for (l, row) in table.iter().enumerate() {
            let want = row[m];
            prop_assert!(
                (e[l] - want).abs() <= 1e-12 * want.abs().max(1.0),
                "l={l}: into {} vs table {want}", e[l]
            );
        }
    }
}
