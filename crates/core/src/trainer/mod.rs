//! The epoch/mini-batch training loop shared by every criterion, plus the
//! incremental **refresh pipeline** that warm-starts it from a finished run.
//!
//! Instance generation lives in `lkp-data`'s planning layer: an
//! [`EpochPlanner`] produces each epoch's [`lkp_data::EpochPlan`] — one
//! contiguous flat arena of ground sets — under a [`SamplingPolicy`]
//! ([`lkp_data::SamplingPolicy::ResampleEachEpoch`] reproduces the historical inline
//! sampler draw-for-draw; [`lkp_data::SamplingPolicy::FrozenNegatives`]
//! reuses the first epoch's plan for the whole run). The plan's
//! [`lkp_data::BatchSchedule`] cuts it into optimizer batches and buckets
//! each batch by ground-set size, so every pool dispatch run is uniform-`m`
//! and the objective's batched entry point can solve a run's eigenproblems
//! back-to-back.
//!
//! Mini-batches are **batch-parallel** on a persistent
//! [`lkp_runtime::WorkerPool`] created once per run: within a batch,
//! instance gradients are computed concurrently by the pool's workers, each
//! owning its [`DppWorkspace`] and [`DppBatchArena`] in pool worker state
//! **across batches** (the model is only *read* during this phase). The
//! computed gradients are then accumulated into the model
//! serially, in plan order, before the optimizer step — so the result is
//! **bitwise identical** at any thread count, including the serial
//! `threads = 1` path (which spawns no thread at all). Validation passes
//! run on the *same* pool, so one run spawns its workers exactly once.
//!
//! The module splits along that pipeline:
//!
//! * [`config`] — [`TrainConfig`].
//! * [`fit`] — [`Trainer::fit`] / [`Trainer::fit_with_callback`] (the cold
//!   path) and [`Trainer::fit_state`], which additionally exports the
//!   [`TrainedState`] warm-start token.
//! * [`update`] — [`Trainer::update`]: the delta-fit pass. It merges a
//!   [`lkp_data::DatasetDelta`], freezes unchanged users' plan records, and
//!   runs the *same* epoch engine for a handful of refresh epochs.
//! * [`report`] — [`TrainReport`], [`TrainedState`], [`RefreshReport`].
//!
//! Both `fit` and `update` drive one private epoch engine ([`run_epochs`])
//! over a [`PlanSource`]; `fit` is exactly the full-plan, resampling
//! special case, and stays bitwise identical to the historical single-file
//! trainer.

mod config;
mod fit;
mod report;
mod update;

pub use config::TrainConfig;
pub use report::{EpochStat, RefreshReport, TrainReport, TrainedState};

use crate::objective::{InstanceGrad, Objective};
use lkp_data::{
    BatchSchedule, Dataset, EpochPlan, EpochPlanner, InstanceBlock, PlanStats, ScheduledBatch,
};
use lkp_dpp::{DppBatchArena, DppWorkspace};
use lkp_models::Recommender;
use lkp_runtime::WorkerPool;
use rand::rngs::StdRng;

/// The training loop.
#[derive(Debug, Clone)]
pub struct Trainer {
    /// Loop configuration.
    pub config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }
}

/// Where the epoch engine gets each epoch's plan from.
///
/// `fit` resolves plans through an [`EpochPlanner`] (fresh or reused per the
/// sampling policy); `update` serves one fixed refresh plan for every epoch.
pub(crate) trait PlanSource {
    /// The plan and batch schedule for 1-based `epoch`.
    fn plan_for_epoch(
        &mut self,
        data: &Dataset,
        epoch: usize,
        rng: &mut StdRng,
    ) -> (&EpochPlan, &BatchSchedule);

    /// Plan counters for the run report.
    fn stats(&self) -> PlanStats;
}

/// [`PlanSource`] over a policy-driven [`EpochPlanner`] (the fit path).
pub(crate) struct PlannerSource {
    pub(crate) planner: EpochPlanner,
}

impl PlanSource for PlannerSource {
    fn plan_for_epoch(
        &mut self,
        data: &Dataset,
        epoch: usize,
        rng: &mut StdRng,
    ) -> (&EpochPlan, &BatchSchedule) {
        self.planner.plan_for_epoch(data, epoch, rng)
    }

    fn stats(&self) -> PlanStats {
        self.planner.stats()
    }
}

/// [`PlanSource`] serving one pre-built plan for every epoch (the refresh
/// path: delta plans are sampled once and frozen, like
/// [`lkp_data::SamplingPolicy::FrozenNegatives`]).
pub(crate) struct FixedSource {
    plan: EpochPlan,
    schedule: BatchSchedule,
    resamples: u64,
    reuses: u64,
}

impl FixedSource {
    pub(crate) fn new(plan: EpochPlan, schedule: BatchSchedule) -> Self {
        FixedSource {
            plan,
            schedule,
            resamples: 0,
            reuses: 0,
        }
    }

    /// Hands the plan back once the run is over (it becomes the next
    /// [`TrainedState`]'s frozen plan).
    pub(crate) fn into_plan(self) -> EpochPlan {
        self.plan
    }
}

impl PlanSource for FixedSource {
    fn plan_for_epoch(
        &mut self,
        _data: &Dataset,
        _epoch: usize,
        _rng: &mut StdRng,
    ) -> (&EpochPlan, &BatchSchedule) {
        if self.resamples == 0 {
            self.resamples = 1;
        } else {
            self.reuses += 1;
        }
        (&self.plan, &self.schedule)
    }

    fn stats(&self) -> PlanStats {
        PlanStats {
            resamples: self.resamples,
            reuses: self.reuses,
            instances: self.plan.len(),
            distinct_sizes: self.plan.distinct_sizes(),
        }
    }
}

/// What [`run_epochs`] hands back to its caller.
pub(crate) struct EngineRun {
    pub(crate) epochs_run: usize,
    pub(crate) best_epoch: usize,
    /// Best validation NDCG (0.0 if validation never ran).
    pub(crate) best_val: f64,
    pub(crate) history: Vec<EpochStat>,
}

/// The shared epoch engine: plans, computes, accumulates, steps, validates,
/// early-stops, and restores the best checkpoint. `fit` and `update` differ
/// only in the [`PlanSource`] and the epoch count; this is
/// instruction-for-instruction the historical fit loop, so existing
/// trajectories stay bitwise pinned.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_epochs<M, O, P, F>(
    cfg: &TrainConfig,
    epochs: usize,
    model: &mut M,
    objective: &mut O,
    data: &Dataset,
    source: &mut P,
    pool: &mut WorkerPool,
    rng: &mut StdRng,
    callback: &mut F,
) -> EngineRun
where
    M: Recommender + Clone + Sync,
    O: Objective<M>,
    P: PlanSource,
    F: FnMut(usize, &M),
{
    let batch_size = cfg.batch_size.max(1);
    let mut history = Vec::with_capacity(epochs);
    let mut best_val = f64::NEG_INFINITY;
    let mut best_epoch = 0usize;
    let mut bad_evals = 0usize;
    let mut epochs_run = 0usize;
    let mut best_state: Option<M> = None;
    let mut grads: Vec<InstanceGrad> = (0..batch_size).map(|_| InstanceGrad::default()).collect();

    callback(0, model);

    for epoch in 1..=epochs {
        epochs_run = epoch;
        model.begin_epoch();
        // The plan: fresh or reused per the source.
        let (plan, schedule) = source.plan_for_epoch(data, epoch, rng);

        let mut loss_sum = 0.0;
        let mut count = 0usize;
        let objective_ref: &O = objective;
        for batch in schedule.iter() {
            compute_batch(objective_ref, &*model, plan, batch, pool, &mut grads);
            // Serial accumulation in *plan order* (`slot_of` maps each
            // plan position to its dispatch slot) keeps results
            // independent of both the thread count and the size
            // bucketing (bit-for-bit).
            for &slot in batch.slot_of {
                let grad = &grads[slot];
                loss_sum += grad.loss;
                count += 1;
                objective_ref.accumulate(model, grad);
            }
            model.step();
        }
        let mean_loss = if count > 0 {
            loss_sum / count as f64
        } else {
            0.0
        };

        let mut val_ndcg = None;
        if cfg.eval_every > 0 && epoch % cfg.eval_every == 0 {
            let metrics = lkp_eval::evaluate_with_pool(
                model,
                data,
                &[cfg.eval_cutoff],
                lkp_data::Split::Validation,
                pool,
            );
            let ndcg = metrics.at(cfg.eval_cutoff).map(|m| m.ndcg).unwrap_or(0.0);
            val_ndcg = Some(ndcg);
            if ndcg > best_val + 1e-6 {
                best_val = ndcg;
                best_epoch = epoch;
                bad_evals = 0;
                best_state = Some(model.clone());
            } else {
                bad_evals += 1;
            }
        }
        if cfg.verbose {
            match val_ndcg {
                Some(v) => eprintln!(
                    "[{}] epoch {epoch:>3}: loss {mean_loss:.4}  val-ndcg@{} {v:.4}",
                    objective.name(),
                    cfg.eval_cutoff
                ),
                None => eprintln!(
                    "[{}] epoch {epoch:>3}: loss {mean_loss:.4}",
                    objective.name()
                ),
            }
        }
        history.push(EpochStat {
            epoch,
            mean_loss,
            val_ndcg,
        });
        callback(epoch, model);

        if cfg.patience > 0 && bad_evals >= cfg.patience {
            break;
        }
    }

    if let Some(best) = best_state {
        *model = best;
    }

    EngineRun {
        epochs_run,
        best_epoch,
        best_val: if best_val.is_finite() { best_val } else { 0.0 },
        history,
    }
}

/// Computes one scheduled batch's instance gradients into
/// `grads[..batch.len()]`, indexed by **dispatch slot**.
///
/// The batch's dispatch list (record indices, bucketed so uniform-size runs
/// are contiguous) is cut into contiguous chunks, one pool worker per chunk;
/// the bounded dispatch additionally splits each worker's chunk at size
/// boundaries, so every `f` call sees a uniform-`m` run. Each worker reuses
/// the state held in its persistent pool slots and writes the matching
/// disjoint slice of gradient slots. The model is shared immutably —
/// `compute_*` never mutates it. Because every gradient slot is computed
/// from its instance alone, slot *values* are independent of the pool width
/// and of the bucketing — only wall-clock changes.
///
/// Each uniform run goes through [`Objective::compute_batch_into`], whose
/// LkP override stages the run into the worker's persistent
/// [`DppBatchArena`] and solves its eigenproblems back-to-back — bitwise
/// identical to the historical per-instance loop.
pub(crate) fn compute_batch<M, O>(
    objective: &O,
    model: &M,
    plan: &EpochPlan,
    batch: ScheduledBatch<'_>,
    pool: &mut WorkerPool,
    grads: &mut [InstanceGrad],
) where
    M: Recommender + Sync,
    O: Objective<M>,
{
    let grads = &mut grads[..batch.len()];
    pool.zip_chunks_bounded(
        batch.dispatch,
        grads,
        batch.bounds,
        |_, idx_chunk, grad_chunk, state| {
            let (ws, arena) = state.get_or_default_pair::<DppWorkspace, DppBatchArena>();
            objective.compute_batch_into(
                model,
                InstanceBlock::new(plan, idx_chunk),
                ws,
                arena,
                grad_chunk,
            );
        },
    );
}
