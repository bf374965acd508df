//! Cold-path training: [`Trainer::fit`] and friends.
//!
//! `fit` is the degenerate "full delta" case of the refresh pipeline — one
//! [`super::PlannerSource`] over the whole dataset, driven through the
//! shared epoch engine — and is bitwise pinned against the historical
//! single-file trainer (`crates/core/tests/parallel_equivalence.rs`).
//! [`Trainer::fit_state`] additionally exports the [`TrainedState`]
//! warm-start token consumed by [`Trainer::update`].

#[cfg(test)]
use super::TrainConfig;
use super::{run_epochs, PlanSource, PlannerSource, TrainReport, TrainedState, Trainer};
use crate::objective::Objective;
use lkp_data::{Dataset, EpochPlanner, InstanceSampler};
use lkp_models::Recommender;
use lkp_runtime::WorkerPool;
use rand::rngs::StdRng;
use rand::SeedableRng;

impl Trainer {
    /// Trains `model` with `objective` on `data`.
    ///
    /// When validation is enabled (`eval_every > 0`), the model state with
    /// the best validation score is checkpointed and **restored** at the end
    /// — the paper reports "the best results of each model by tuning … on a
    /// validation set", not the last epoch's state.
    pub fn fit<M, O>(&self, model: &mut M, objective: &mut O, data: &Dataset) -> TrainReport
    where
        M: Recommender + Clone + Sync,
        O: Objective<M>,
    {
        self.fit_with_callback(model, objective, data, |_, _| {})
    }

    /// Trains with a per-epoch callback `f(epoch, model)`.
    ///
    /// The callback fires once with `epoch = 0` before any update (the
    /// paper's Fig. 4 reads the probability profile at epoch 0) and then
    /// after every completed epoch. Best-validation checkpointing behaves as
    /// in [`Trainer::fit`].
    pub fn fit_with_callback<M, O, F>(
        &self,
        model: &mut M,
        objective: &mut O,
        data: &Dataset,
        mut callback: F,
    ) -> TrainReport
    where
        M: Recommender + Clone + Sync,
        O: Objective<M>,
        F: FnMut(usize, &M),
    {
        let (report, _planner) = self.fit_core(model, objective, data, &mut callback);
        report
    }

    /// Trains like [`Trainer::fit`] and also returns the [`TrainedState`]
    /// warm-start token: the data and the run's final epoch plan, everything
    /// [`Trainer::update`] needs to delta-fit without a cold start.
    pub fn fit_state<M, O>(
        &self,
        model: &mut M,
        objective: &mut O,
        data: &Dataset,
    ) -> (TrainReport, TrainedState)
    where
        M: Recommender + Clone + Sync,
        O: Objective<M>,
    {
        let cfg = &self.config;
        let (k, n) = objective.instance_shape(cfg.k, cfg.n);
        let (report, planner) = self.fit_core(model, objective, data, &mut |_, _| {});
        let state = TrainedState::new(
            data.clone(),
            planner.plan().clone(),
            cfg.batch_size.max(1),
            k,
            n,
            cfg.mode,
            cfg.seed,
        );
        (report, state)
    }

    /// The fit body: epoch engine over a policy-driven planner. Returns the
    /// planner so [`Trainer::fit_state`] can harvest the final plan.
    fn fit_core<M, O, F>(
        &self,
        model: &mut M,
        objective: &mut O,
        data: &Dataset,
        callback: &mut F,
    ) -> (TrainReport, EpochPlanner)
    where
        M: Recommender + Clone + Sync,
        O: Objective<M>,
        F: FnMut(usize, &M),
    {
        let cfg = &self.config;
        let (k, n) = objective.instance_shape(cfg.k, cfg.n);
        let sampler = InstanceSampler::new(k, n, cfg.mode);
        let batch_size = cfg.batch_size.max(1);
        let mut source = PlannerSource {
            planner: EpochPlanner::new(sampler, cfg.sampling_policy, batch_size),
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // One persistent worker pool for the whole run: batch gradient
        // computation and validation passes share it, and each worker keeps
        // its `DppWorkspace` and batch arena in pool state across every batch
        // (steady-state allocation-free, spawn cost paid once instead of per
        // batch).
        let mut pool = WorkerPool::new(cfg.thread_budget());
        let run = run_epochs(
            cfg,
            cfg.epochs,
            model,
            objective,
            data,
            &mut source,
            &mut pool,
            &mut rng,
            callback,
        );
        let report = TrainReport {
            epochs_run: run.epochs_run,
            best_epoch: run.best_epoch,
            best_val_ndcg: run.best_val,
            history: run.history,
            plan: source.stats(),
        };
        (report, source.planner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::Bpr;
    use crate::diversity::{train_diversity_kernel, DiversityKernelConfig};
    use crate::objective::{LkpKind, LkpObjective};
    use lkp_data::SyntheticConfig;
    use lkp_models::MatrixFactorization;
    use lkp_nn::AdamConfig;

    fn data() -> Dataset {
        lkp_data::synthetic::generate(&SyntheticConfig {
            n_users: 50,
            n_items: 100,
            n_categories: 8,
            mean_interactions: 20.0,
            ..Default::default()
        })
    }

    fn mf(data: &Dataset) -> MatrixFactorization {
        let mut rng = StdRng::seed_from_u64(1);
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

    #[test]
    fn bpr_training_improves_validation_ndcg() {
        let data = data();
        let mut model = mf(&data);
        let untrained =
            lkp_eval::evaluate_parallel_on(&model, &data, &[10], lkp_data::Split::Validation, 2)
                .at(10)
                .unwrap()
                .ndcg;
        let trainer = Trainer::new(TrainConfig {
            epochs: 15,
            eval_every: 5,
            patience: 0,
            ..Default::default()
        });
        let report = trainer.fit(&mut model, &mut Bpr, &data);
        assert!(
            report.best_val_ndcg > untrained + 0.02,
            "no learning: {untrained} -> {}",
            report.best_val_ndcg
        );
        assert_eq!(report.epochs_run, 15);
    }

    #[test]
    fn lkp_training_improves_validation_ndcg_and_loss_decreases() {
        let data = data();
        let kernel = train_diversity_kernel(
            &data,
            &DiversityKernelConfig {
                epochs: 4,
                pairs_per_epoch: 48,
                dim: 8,
                ..Default::default()
            },
        );
        let mut model = mf(&data);
        let trainer = Trainer::new(TrainConfig {
            epochs: 10,
            eval_every: 5,
            patience: 0,
            k: 4,
            n: 4,
            ..Default::default()
        });
        let mut obj = LkpObjective::new(LkpKind::NegativeAware, kernel);
        let report = trainer.fit(&mut model, &mut obj, &data);
        let first_loss = report.history.first().unwrap().mean_loss;
        let last_loss = report.history.last().unwrap().mean_loss;
        assert!(last_loss < first_loss, "loss {first_loss} -> {last_loss}");
        assert!(report.best_val_ndcg > 0.0);
    }

    #[test]
    fn early_stopping_halts_before_max_epochs() {
        let data = data();
        let mut model = mf(&data);
        // Zero learning rate: validation can never improve, so patience
        // triggers after the first eval + patience further evals.
        let mut rng = StdRng::seed_from_u64(5);
        let mut frozen = MatrixFactorization::new(
            data.n_users(),
            data.n_items(),
            8,
            AdamConfig {
                lr: 0.0,
                ..Default::default()
            },
            &mut rng,
        );
        let trainer = Trainer::new(TrainConfig {
            epochs: 50,
            eval_every: 1,
            patience: 2,
            ..Default::default()
        });
        let report = trainer.fit(&mut frozen, &mut Bpr, &data);
        assert!(report.epochs_run <= 5, "ran {} epochs", report.epochs_run);
        let _ = &mut model;
    }

    #[test]
    fn callback_fires_at_epoch_zero_and_after_each_epoch() {
        let data = data();
        let mut model = mf(&data);
        let trainer = Trainer::new(TrainConfig {
            epochs: 3,
            eval_every: 0,
            patience: 0,
            ..Default::default()
        });
        let mut seen = Vec::new();
        trainer.fit_with_callback(&mut model, &mut Bpr, &data, |e, _| seen.push(e));
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn objective_shape_override_is_respected() {
        // BPR forces (1,1) instances regardless of config.
        let data = data();
        let mut model = mf(&data);
        let trainer = Trainer::new(TrainConfig {
            epochs: 1,
            k: 5,
            n: 5,
            eval_every: 0,
            ..Default::default()
        });
        // Success here just means no panic inside instance assembly: BPR's
        // debug_asserts verify the (1,1) shape on every instance.
        trainer.fit(&mut model, &mut Bpr, &data);
    }

    #[test]
    fn fit_state_matches_fit_and_captures_the_final_plan() {
        let data = data();
        let mut a = mf(&data);
        let mut b = a.clone();
        let cfg = TrainConfig {
            epochs: 4,
            eval_every: 0,
            patience: 0,
            sampling_policy: lkp_data::SamplingPolicy::FrozenNegatives,
            ..Default::default()
        };
        let trainer = Trainer::new(cfg);
        let plain = trainer.fit(&mut a, &mut Bpr, &data);
        let (report, state) = trainer.fit_state(&mut b, &mut Bpr, &data);
        assert_eq!(plain.epochs_run, report.epochs_run);
        // Same seed, same loop: the trained models are bitwise identical.
        for user in 0..data.n_users() {
            assert_eq!(
                a.score_items(user, &[0, 1, 2]),
                b.score_items(user, &[0, 1, 2])
            );
        }
        // The captured plan is the frozen epoch plan (one record per
        // eligible user) over the same data, with BPR's (1,1) shape.
        assert!(!state.plan().is_empty());
        assert_eq!(state.shape(), (1, 1));
        assert_eq!(state.data().n_users(), data.n_users());
    }
}
