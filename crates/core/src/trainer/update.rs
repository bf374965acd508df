//! Incremental refresh: [`Trainer::update`], the delta-fit pass.
//!
//! An update warm-starts everything a cold fit would rebuild:
//!
//! 1. **Data** — the delta's interactions are merged into the base state's
//!    dataset ([`lkp_data::Dataset::merge_delta`]), yielding the summary of
//!    changed/new users.
//! 2. **Plan** — a [`DeltaPlanner`] freezes the base plan's records for
//!    unchanged users (same instances, same order) and samples fresh ground
//!    sets only for changed users.
//! 3. **Epochs** — the shared epoch engine runs `update_epochs` passes over
//!    the frozen refresh plan.
//!
//! An empty delta (nothing new after dedup) is a strict no-op: the model is
//! not touched and the returned state is the base state, so downstream
//! artifacts rebuilt from it are bitwise identical to the base artifact.

use super::{
    run_epochs, FixedSource, PlanSource, RefreshReport, TrainReport, TrainedState, Trainer,
};
use crate::objective::Objective;
use lkp_data::{DatasetDelta, DeltaPlanner, InstanceSampler};
use lkp_models::Recommender;
use lkp_runtime::WorkerPool;
use rand::rngs::StdRng;
use rand::SeedableRng;

impl Trainer {
    /// Delta-fits `model` — last trained to `base` — against the interaction
    /// `delta`, and returns the refreshed warm-start state for the next
    /// round.
    ///
    /// The model is expected to be the one `base` was produced with (or a
    /// clone); the refresh plan freezes `base`'s ground sets for unchanged
    /// users, which is only meaningful against the same parameters. Epoch
    /// count comes from `TrainConfig::update_epochs` (falling back to
    /// `epochs`).
    ///
    /// Equivalence contract (enforced by
    /// `crates/core/tests/incremental_equivalence.rs`): an empty delta
    /// leaves the model bitwise untouched; a delta touching *every* user
    /// with `update_epochs == epochs` is
    /// bitwise identical to a frozen-negatives [`Trainer::fit`] on the
    /// merged dataset.
    ///
    /// # Panics
    ///
    /// If the objective's instance shape or the target-selection mode does
    /// not match what `base`'s plan was sampled under, or if the delta
    /// references items outside the dataset's catalog.
    pub fn update<M, O>(
        &self,
        model: &mut M,
        objective: &mut O,
        base: &TrainedState,
        delta: &DatasetDelta,
    ) -> RefreshReport
    where
        M: Recommender + Clone + Sync,
        O: Objective<M>,
    {
        let cfg = &self.config;
        let (k, n) = objective.instance_shape(cfg.k, cfg.n);
        assert_eq!(
            (k, n),
            base.shape(),
            "refresh instance shape must match the base plan's"
        );
        assert_eq!(
            cfg.mode,
            base.mode(),
            "refresh target-selection mode must match the base plan's"
        );

        let (merged, summary) = base.data().merge_delta(delta);
        if summary.is_empty() {
            // Nothing survived dedup: keep the base plan; the merged dataset
            // is content-identical to the base dataset.
            return RefreshReport::no_op(TrainedState::new(
                merged,
                base.plan().clone(),
                base.batch_size,
                k,
                n,
                base.mode(),
                base.seed,
            ));
        }

        let batch_size = cfg.batch_size.max(1);
        let sampler = InstanceSampler::new(k, n, cfg.mode);
        let mut planner = DeltaPlanner::new(sampler, batch_size);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (plan, schedule, plan_stats) =
            planner.plan_refresh(&merged, base.plan(), &summary, &mut rng);

        let mut pool = WorkerPool::new(cfg.thread_budget());

        let mut source = FixedSource::new(plan, schedule);
        let run = run_epochs(
            cfg,
            cfg.refresh_epochs(),
            model,
            objective,
            &merged,
            &mut source,
            &mut pool,
            &mut rng,
            &mut |_, _| {},
        );

        let report = TrainReport {
            epochs_run: run.epochs_run,
            best_epoch: run.best_epoch,
            best_val_ndcg: run.best_val,
            history: run.history,
            plan: source.stats(),
        };
        let changed_users = summary.changed_users().len();
        let state = TrainedState::new(
            merged,
            source.into_plan(),
            batch_size,
            k,
            n,
            cfg.mode,
            cfg.seed,
        );
        RefreshReport {
            report,
            state,
            frozen_instances: plan_stats.frozen,
            fresh_instances: plan_stats.fresh,
            changed_users,
            new_users: summary.new_users(),
            new_interactions: summary.new_interactions(),
            no_op: false,
        }
    }
}
