//! The `incremental_equivalence` CI gate: `Trainer::update` honors its
//! equivalence contract against `Trainer::fit`.
//!
//! * An **empty delta** is a strict no-op at any pool width — the model is
//!   bitwise untouched and the returned state carries the base plan.
//! * A **full delta** (every user changed) with `update_epochs == epochs`
//!   is bitwise identical to a frozen-negatives
//!   `fit` on the merged dataset: the delta planner consumes the RNG
//!   draw-for-draw like a full resample and the refresh runs the same epoch
//!   engine.
//! * **Random deltas** freeze unchanged users' instances and land within a
//!   small NDCG tolerance of a full retrain on the merged data.

use lkp_core::objective::{LkpKind, LkpObjective};
use lkp_core::{train_diversity_kernel, DiversityKernelConfig, TrainConfig, Trainer};
use lkp_data::{Dataset, DatasetDelta, SamplingPolicy, Split, SyntheticConfig};
use lkp_dpp::LowRankKernel;
use lkp_models::{MatrixFactorization, Recommender};
use lkp_nn::AdamConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn data() -> Dataset {
    lkp_data::synthetic::generate(&SyntheticConfig {
        n_users: 40,
        n_items: 80,
        n_categories: 8,
        mean_interactions: 18.0,
        ..Default::default()
    })
}

fn kernel(data: &Dataset) -> LowRankKernel {
    train_diversity_kernel(
        data,
        &DiversityKernelConfig {
            epochs: 3,
            pairs_per_epoch: 32,
            dim: 8,
            ..Default::default()
        },
    )
}

fn mf(data: &Dataset) -> MatrixFactorization {
    let mut rng = StdRng::seed_from_u64(11);
    MatrixFactorization::new(
        data.n_users(),
        data.n_items(),
        16,
        AdamConfig {
            lr: 0.02,
            ..Default::default()
        },
        &mut rng,
    )
}

fn obj(kernel: &LowRankKernel) -> LkpObjective {
    LkpObjective::new(LkpKind::NegativeAware, kernel.clone())
}

/// Refresh-gate baseline config: frozen negatives (so the base plan is the
/// one every epoch trained on), no validation (exact trajectories).
fn base_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 16,
        k: 4,
        n: 4,
        sampling_policy: SamplingPolicy::FrozenNegatives,
        eval_every: 0,
        patience: 0,
        threads: 2,
        seed: 99,
        ..Default::default()
    }
}

/// Every model parameter that serving reads, as exact bits.
fn score_bits(model: &MatrixFactorization, n_items: usize) -> Vec<u64> {
    let items: Vec<usize> = (0..n_items).collect();
    let mut bits = Vec::new();
    for user in 0..model.n_users() {
        bits.extend(model.score_items(user, &items).iter().map(|s| s.to_bits()));
    }
    bits
}

/// One previously unobserved item per user — a delta touching *every* user.
fn fresh_item_delta(data: &Dataset) -> DatasetDelta {
    let mut delta = DatasetDelta::new();
    for user in 0..data.n_users() {
        for item in 0..data.n_items() {
            if !data.is_observed(user, item) {
                delta.push(user, item);
                break;
            }
        }
    }
    delta
}

fn val_ndcg(model: &MatrixFactorization, data: &Dataset) -> f64 {
    lkp_eval::evaluate_parallel_on(model, data, &[10], Split::Validation, 2)
        .at(10)
        .unwrap()
        .ndcg
}

#[test]
fn empty_delta_update_is_a_bitwise_noop_at_pool_widths_1_2_4() {
    let data = data();
    let kern = kernel(&data);
    let mut model = mf(&data);
    let (_, base) = Trainer::new(base_cfg()).fit_state(&mut model, &mut obj(&kern), &data);
    let baseline = score_bits(&model, data.n_items());
    for width in [1usize, 2, 4] {
        let mut m = model.clone();
        let trainer = Trainer::new(TrainConfig {
            threads: width,
            update_epochs: 2,
            ..base_cfg()
        });
        let rep = trainer.update(&mut m, &mut obj(&kern), &base, &DatasetDelta::new());
        assert!(rep.no_op, "width {width}: empty delta must be a no-op");
        assert_eq!(rep.report.epochs_run, 0);
        assert_eq!(rep.new_interactions, 0);
        assert_eq!(
            score_bits(&m, data.n_items()),
            baseline,
            "width {width}: model moved on an empty delta"
        );
        assert_eq!(rep.state.plan(), base.plan());
        assert_eq!(rep.state.data().n_users(), data.n_users());
    }
}

#[test]
fn duplicate_only_delta_is_also_a_noop() {
    let data = data();
    let kern = kernel(&data);
    let mut model = mf(&data);
    let (_, base) = Trainer::new(base_cfg()).fit_state(&mut model, &mut obj(&kern), &data);
    let baseline = score_bits(&model, data.n_items());
    // Replay interactions the dataset already holds: dedup drops them all.
    let mut delta = DatasetDelta::new();
    for user in 0..5 {
        delta.push_user(user, &data.user_items(user, Split::Train)[..2]);
    }
    let rep = Trainer::new(base_cfg()).update(&mut model, &mut obj(&kern), &base, &delta);
    assert!(rep.no_op);
    assert_eq!(score_bits(&model, data.n_items()), baseline);
}

#[test]
fn full_delta_update_is_bitwise_a_frozen_negatives_fit_on_merged_data() {
    let data = data();
    let kern = kernel(&data);
    let mut warm = mf(&data);
    let (_, base) = Trainer::new(base_cfg()).fit_state(&mut warm, &mut obj(&kern), &data);

    let delta = fresh_item_delta(&data);
    let (merged, summary) = data.merge_delta(&delta);
    assert_eq!(
        summary.changed_users().len(),
        data.n_users(),
        "delta must touch every user"
    );

    // Side A: incremental update from the warm state.
    let mut a = warm.clone();
    let rep = Trainer::new(TrainConfig {
        update_epochs: 3,
        ..base_cfg()
    })
    .update(&mut a, &mut obj(&kern), &base, &delta);
    assert_eq!(rep.frozen_instances, 0, "all users changed: nothing frozen");
    assert!(rep.fresh_instances > 0);
    assert_eq!(rep.report.epochs_run, 3);

    // Side B: cold frozen-negatives fit on the merged dataset from the same
    // warm parameters, same seed, same epoch count.
    let mut b = warm.clone();
    Trainer::new(base_cfg()).fit(&mut b, &mut obj(&kern), &merged);

    assert_eq!(
        score_bits(&a, data.n_items()),
        score_bits(&b, data.n_items()),
        "full-delta update diverged from the equivalent fit"
    );
}

/// Shared warm-start fixture for the property tests: one base fit,
/// reused across every generated delta (the vendored `proptest!` form only
/// supports item-style tests, so the fixture lives in a `OnceLock`).
struct BaseFixture {
    data: Dataset,
    kern: LowRankKernel,
    warm: MatrixFactorization,
    base: lkp_core::TrainedState,
    warm_bits: Vec<u64>,
}

fn fixture() -> &'static BaseFixture {
    static BASE: std::sync::OnceLock<BaseFixture> = std::sync::OnceLock::new();
    BASE.get_or_init(|| {
        let data = data();
        let kern = kernel(&data);
        let mut warm = mf(&data);
        let (_, base) = Trainer::new(base_cfg()).fit_state(&mut warm, &mut obj(&kern), &data);
        let warm_bits = score_bits(&warm, data.n_items());
        BaseFixture {
            data,
            kern,
            warm,
            base,
            warm_bits,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn random_deltas_stay_within_ndcg_tolerance(
        events in proptest::collection::vec((0usize..40, 0usize..80), 1..10),
    ) {
        let fx = fixture();
        let mut delta = DatasetDelta::new();
        for &(user, item) in &events {
            delta.push(user, item);
        }
        let mut m = fx.warm.clone();
        let rep = Trainer::new(TrainConfig {
            update_epochs: 2,
            ..base_cfg()
        })
        .update(&mut m, &mut obj(&fx.kern), &fx.base, &delta);

        if rep.no_op {
            // Every event was a duplicate of an observed interaction.
            prop_assert_eq!(score_bits(&m, fx.data.n_items()), fx.warm_bits.clone());
            return Ok(());
        }
        prop_assert_eq!(
            rep.frozen_instances + rep.fresh_instances,
            rep.state.plan().len()
        );
        // Refresh quality: within ε of a full frozen retrain on merged data.
        let (merged, _) = fx.data.merge_delta(&delta);
        let mut full = fx.warm.clone();
        Trainer::new(base_cfg()).fit(&mut full, &mut obj(&fx.kern), &merged);
        let refreshed = val_ndcg(&m, &merged);
        let retrained = val_ndcg(&full, &merged);
        prop_assert!(
            refreshed + 0.05 >= retrained,
            "refresh NDCG {} fell more than 0.05 below retrain {}",
            refreshed,
            retrained
        );
    }
}
