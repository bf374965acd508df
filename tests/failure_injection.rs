//! Failure-injection tests: the training stack must stay healthy when a
//! model misbehaves (extreme scores, NaN-free guarantees) and when kernels
//! degenerate, rather than poisoning parameters or panicking.

use lkp::prelude::*;
use lkp_linalg::Matrix;
use rand::SeedableRng;

fn dataset() -> Dataset {
    SyntheticConfig {
        n_users: 30,
        n_items: 80,
        n_categories: 6,
        mean_interactions: 16.0,
        seed: 3,
        ..Default::default()
    }
    .generate()
}

/// A model that emits huge scores — exp(score) would overflow without the
/// clamp in `lkp_core::objective::quality`.
#[derive(Clone)]
struct ExtremeModel {
    inner: MatrixFactorization,
    scale: f64,
}

impl Recommender for ExtremeModel {
    fn n_users(&self) -> usize {
        self.inner.n_users()
    }
    fn n_items(&self) -> usize {
        self.inner.n_items()
    }
    fn score_items(&self, user: usize, items: &[usize]) -> Vec<f64> {
        self.inner
            .score_items(user, items)
            .into_iter()
            .map(|s| s * self.scale)
            .collect()
    }
    fn accumulate_score_grads(&mut self, user: usize, items: &[usize], dscores: &[f64]) {
        self.inner.accumulate_score_grads(user, items, dscores);
    }
    fn step(&mut self) {
        self.inner.step();
    }
}

#[test]
fn training_survives_score_explosions() {
    let data = dataset();
    let kernel = train_diversity_kernel(
        &data,
        &DiversityKernelConfig {
            epochs: 2,
            pairs_per_epoch: 32,
            dim: 6,
            ..Default::default()
        },
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let inner = MatrixFactorization::new(
        data.n_users(),
        data.n_items(),
        8,
        AdamConfig::default(),
        &mut rng,
    );
    let mut model = ExtremeModel { inner, scale: 1e6 };
    let mut objective = LkpObjective::new(LkpKind::NegativeAware, kernel);
    let report = Trainer::new(TrainConfig {
        epochs: 2,
        eval_every: 0,
        patience: 0,
        k: 3,
        n: 3,
        ..Default::default()
    })
    .fit(&mut model, &mut objective, &data);
    // Losses must be finite (degenerate instances are skipped at zero loss,
    // never NaN), and the inner parameters must remain finite.
    for stat in &report.history {
        assert!(
            stat.mean_loss.is_finite(),
            "loss went non-finite: {}",
            stat.mean_loss
        );
    }
    let scores = model.score_items(0, &[0, 1, 2]);
    assert!(scores.iter().all(|s| s.is_finite()));
}

#[test]
fn rank_one_diversity_kernel_does_not_poison_training() {
    // A rank-1 kernel makes every K_T singular; the jitter keeps the k-DPP
    // alive and training must proceed with finite losses.
    let data = dataset();
    let rank_one = LowRankKernel::new(Matrix::filled(data.n_items(), 1, 1.0));
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut model = MatrixFactorization::new(
        data.n_users(),
        data.n_items(),
        8,
        AdamConfig::default(),
        &mut rng,
    );
    let mut objective = LkpObjective::new(LkpKind::PositiveOnly, rank_one);
    let report = Trainer::new(TrainConfig {
        epochs: 3,
        eval_every: 0,
        patience: 0,
        k: 3,
        n: 3,
        ..Default::default()
    })
    .fit(&mut model, &mut objective, &data);
    assert!(report.history.iter().all(|e| e.mean_loss.is_finite()));
}

#[test]
fn kdpp_rejects_rather_than_panics_on_degenerate_input() {
    use lkp::dpp::{DppError, DppKernel, KDpp};
    // All-zero kernel.
    let zero = DppKernel::new(Matrix::zeros(4, 4)).unwrap();
    assert!(matches!(
        KDpp::new(zero, 2),
        Err(DppError::DegenerateKernel)
    ));
    // k beyond the ground set.
    let id = DppKernel::new(Matrix::identity(3)).unwrap();
    assert!(matches!(
        KDpp::new(id, 9),
        Err(DppError::CardinalityTooLarge { .. })
    ));
}

#[test]
fn evaluation_handles_models_with_constant_scores() {
    // Ties everywhere: metrics must still be well-defined and bounded.
    #[derive(Clone)]
    struct Constant {
        users: usize,
        items: usize,
    }
    impl Recommender for Constant {
        fn n_users(&self) -> usize {
            self.users
        }
        fn n_items(&self) -> usize {
            self.items
        }
        fn score_items(&self, _: usize, items: &[usize]) -> Vec<f64> {
            vec![0.5; items.len()]
        }
        fn accumulate_score_grads(&mut self, _: usize, _: &[usize], _: &[f64]) {}
        fn step(&mut self) {}
    }
    let data = dataset();
    let model = Constant {
        users: data.n_users(),
        items: data.n_items(),
    };
    let metrics = lkp::eval::evaluate(&model, &data, &[5, 20]);
    for n in [5, 20] {
        let m = metrics.at(n).unwrap();
        assert!(m.ndcg >= 0.0 && m.ndcg <= 1.0);
        assert!(m.category_coverage >= 0.0 && m.category_coverage <= 1.0);
    }
}

#[test]
fn failed_eigendecomposition_invalidates_rather_than_poisons() {
    use lkp_linalg::eigen::{EigenScratch, SymmetricEigen};
    // A NaN on an off-diagonal defeats the QL convergence test: the solver
    // must report NoConvergence AND leave the decomposition invalidated —
    // the documented "unspecified on error" state is a hard cleared state,
    // so no consumer can mistake the stale spectrum for the failed one.
    let good = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]);
    let mut eig = SymmetricEigen::new(&good).unwrap();
    assert!(eig.is_valid());
    let poisoned = Matrix::from_rows(&[&[1.0, f64::NAN], &[f64::NAN, 1.0]]);
    let mut scratch = EigenScratch::default();
    assert!(eig.compute_into(&poisoned, &mut scratch).is_err());
    assert!(
        !eig.is_valid(),
        "failed compute must clear the stale spectrum"
    );
    assert!(eig.values.is_empty());
}

#[test]
fn workspace_recovers_bitwise_after_eigen_failure() {
    use lkp::dpp::{DppWorkspace, LowRankKernel};
    let m = 6;
    let kernel = LowRankKernel::new(Matrix::from_fn(12, 8, |r, c| {
        (((r * 13 + c * 7) % 11) as f64) * 0.2 - 1.0
    }))
    .normalized();
    let items: Vec<usize> = (0..m).collect();
    let scores: Vec<f64> = (0..m).map(|i| (i as f64) * 0.1 - 0.3).collect();

    let mut ws = DppWorkspace::new();
    let call = |ws: &mut DppWorkspace, s: &[f64]| {
        kernel.submatrix_into(&items, &mut ws.k_sub).unwrap();
        kernel
            .gather_rows_into(&items, &mut ws.factor_rows)
            .unwrap();
        ws.tailored_loss_grad_staged(s, 3, false, false, 1e-6, 30.0)
    };

    let first = call(&mut ws, &scores).expect("healthy instance");
    // A NaN-score visit fails the eigen stage (never silently succeeds)…
    assert!(call(&mut ws, &vec![f64::NAN; m]).is_none());
    // …and the next healthy visit on the same workspace is bitwise what it
    // was before the failure.
    let recovered = call(&mut ws, &scores).expect("recovered instance");
    assert_eq!(recovered.loss.to_bits(), first.loss.to_bits());
}

#[test]
fn trainer_with_zero_eval_never_checkpoints_but_still_returns() {
    let data = dataset();
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let mut model = MatrixFactorization::new(
        data.n_users(),
        data.n_items(),
        8,
        AdamConfig::default(),
        &mut rng,
    );
    let report = Trainer::new(TrainConfig {
        epochs: 2,
        eval_every: 0,
        patience: 5,
        ..Default::default()
    })
    .fit(&mut model, &mut lkp::core::baselines::Bpr, &data);
    assert_eq!(report.best_epoch, 0);
    assert_eq!(report.epochs_run, 2);
}
