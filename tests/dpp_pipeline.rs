//! Integration tests for the DPP toolkit as used by downstream crates:
//! kernels built from real model scores + a trained diversity kernel.

use lkp::dpp::{enumerate_subsets, grad, map};
use lkp::prelude::*;
use rand::SeedableRng;

fn setup() -> (Dataset, LowRankKernel, MatrixFactorization) {
    let data = SyntheticConfig {
        n_users: 50,
        n_items: 100,
        n_categories: 8,
        mean_interactions: 18.0,
        seed: 21,
        ..Default::default()
    }
    .generate();
    let kernel = train_diversity_kernel(
        &data,
        &DiversityKernelConfig {
            epochs: 5,
            pairs_per_epoch: 64,
            dim: 8,
            ..Default::default()
        },
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let model = MatrixFactorization::new(
        data.n_users(),
        data.n_items(),
        16,
        AdamConfig::default(),
        &mut rng,
    );
    (data, kernel, model)
}

/// Builds the per-instance kernel exactly as the LkP objective does.
fn instance_kernel(
    data: &Dataset,
    kernel: &LowRankKernel,
    model: &MatrixFactorization,
    user: usize,
    items: &[usize],
) -> DppKernel {
    let _ = data;
    let scores = model.score_items(user, items);
    let q = lkp::core::objective::quality(&scores);
    let mut k_sub = kernel.normalized().submatrix(items).expect("valid items");
    for i in 0..items.len() {
        k_sub[(i, i)] += lkp::core::KERNEL_JITTER;
    }
    DppKernel::from_quality_diversity(&q, &k_sub).expect("PSD by construction")
}

#[test]
fn realistic_kernels_are_psd_and_normalizable() {
    let (data, kernel, model) = setup();
    let items: Vec<usize> = (0..10).collect();
    for user in 0..10 {
        let kern = instance_kernel(&data, &kernel, &model, user, &items);
        for l in kern.nonneg_eigenvalues().expect("eigen succeeds") {
            assert!(l >= 0.0);
        }
        let kdpp = KDpp::new(kern, 5).expect("normalizable");
        assert!(kdpp.log_normalizer().is_finite());
    }
}

#[test]
fn kdpp_probabilities_over_realistic_kernels_sum_to_one() {
    let (data, kernel, model) = setup();
    let items: Vec<usize> = vec![3, 17, 42, 55, 61, 78];
    let kern = instance_kernel(&data, &kernel, &model, 2, &items);
    let kdpp = KDpp::new(kern, 3).expect("valid");
    let total: f64 = kdpp
        .all_subset_probs()
        .expect("enumerable")
        .iter()
        .map(|(_, p)| p)
        .sum();
    assert!((total - 1.0).abs() < 1e-8, "total probability {total}");
}

#[test]
fn greedy_map_lands_in_the_mode_region_of_the_enumeration() {
    let (data, kernel, model) = setup();
    let items: Vec<usize> = vec![1, 9, 23, 31, 47, 59, 66, 81];
    let kern = instance_kernel(&data, &kernel, &model, 5, &items);

    // Greedy MAP's set should rank in the top quartile of all 3-subsets.
    let map_result = map::greedy_map(&kern, 3).expect("valid kernel");
    let kdpp = KDpp::new(kern, 3).expect("valid");
    let mut sorted: Vec<f64> = enumerate_subsets(8, 3)
        .iter()
        .map(|s| kdpp.prob(s).expect("size matches"))
        .collect();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
    let mut map_items = map_result.items.clone();
    map_items.sort_unstable();
    let map_prob = kdpp.prob(&map_items).expect("size matches");
    assert!(
        map_prob >= sorted[sorted.len() / 4],
        "greedy MAP probability {map_prob} below top quartile"
    );
}

#[test]
fn gradients_on_realistic_kernels_are_finite_and_zero_mean() {
    let (data, kernel, model) = setup();
    let items: Vec<usize> = vec![2, 11, 29, 40, 52, 63];
    let kern = instance_kernel(&data, &kernel, &model, 7, &items);
    let kdpp = KDpp::new(kern, 3).expect("valid");
    let mut acc = lkp::linalg::Matrix::zeros(6, 6);
    for (s, p) in kdpp.all_subset_probs().expect("enumerable") {
        let g = grad::grad_log_prob(&kdpp, &s).expect("gradient exists");
        assert!(g.as_slice().iter().all(|x| x.is_finite()));
        acc.add_scaled(p, &g).expect("same shape");
    }
    assert!(
        acc.max_abs() < 1e-7,
        "score identity residual {}",
        acc.max_abs()
    );
}

#[test]
fn diversity_kernel_prefers_cross_category_sets_on_real_data() {
    let (data, kernel, _) = setup();
    let norm = kernel.normalized();
    // Build one within-category and one cross-category triple.
    let mut by_cat: Vec<Vec<usize>> = vec![Vec::new(); data.n_categories()];
    for item in 0..data.n_items() {
        by_cat[data.category(item)].push(item);
    }
    let same_cat = by_cat
        .iter()
        .find(|v| v.len() >= 3)
        .expect("a category with 3 items");
    let within: Vec<usize> = same_cat[..3].to_vec();
    let mut across = Vec::new();
    for v in by_cat.iter().filter(|v| !v.is_empty()).take(3) {
        across.push(v[0]);
    }
    let ld_within = norm.log_det_jittered(&within, 1e-6).expect("factorizes");
    let ld_across = norm.log_det_jittered(&across, 1e-6).expect("factorizes");
    assert!(
        ld_across > ld_within,
        "cross-category {ld_across:.3} should beat within-category {ld_within:.3}"
    );
}
