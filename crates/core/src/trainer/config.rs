//! Training-loop configuration: [`TrainConfig`].

use lkp_data::{SamplingPolicy, TargetSelection};

/// Training-loop configuration, shared by [`crate::trainer::Trainer::fit`]
/// and the incremental [`crate::trainer::Trainer::update`] pass.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Instances per optimizer step.
    pub batch_size: usize,
    /// Ground-set target cardinality `k` (objectives may override).
    pub k: usize,
    /// Ground-set negative count `n` (objectives may override).
    pub n: usize,
    /// Target construction (S vs R).
    pub mode: TargetSelection,
    /// When epoch plans are (re)sampled. The default,
    /// [`SamplingPolicy::ResampleEachEpoch`], draws fresh negatives every
    /// epoch and keeps trajectories bitwise identical to the historical
    /// inline sampler. [`SamplingPolicy::FrozenNegatives`] samples once and
    /// reuses the identical plan — same instances, same order — for the
    /// whole run.
    ///
    /// [`crate::trainer::Trainer::update`] ignores this field: a refresh
    /// samples its delta plan once and reuses it for every update epoch
    /// (the frozen-negatives discipline, under which unchanged users keep
    /// their base ground sets).
    pub sampling_policy: SamplingPolicy,
    /// Validate every this many epochs (0 disables validation entirely).
    pub eval_every: usize,
    /// Early-stopping patience: stop after this many non-improving
    /// validations (0 disables early stopping).
    pub patience: usize,
    /// Validation metric cutoff (NDCG@cutoff).
    pub eval_cutoff: usize,
    /// Worker-thread budget for the run's persistent pool, shared by batch
    /// gradient computation and validation passes (1 = fully serial;
    /// values are clamped to ≥ 1).
    ///
    /// Gradient computation and accumulation are **bitwise identical** at
    /// any value. Validation metrics are bitwise reproducible run-to-run
    /// at a fixed value, but their per-chunk merge order follows the pool
    /// width, so across *different* values they can differ in the last ulp
    /// — which near a patience boundary may shift the early-stopping epoch.
    /// Disable validation (`eval_every = 0`) where exact cross-width
    /// trajectory equality matters.
    ///
    /// Unlike `ServeConfig::threads` / `WorkerPool::new`, `0` does **not**
    /// mean host parallelism — it is clamped to 1; pass
    /// `lkp_runtime::resolve_threads(0)` to request host width explicitly.
    pub threads: usize,
    /// Epochs for one incremental [`crate::trainer::Trainer::update`] pass.
    /// `0` (the default) falls back to [`TrainConfig::epochs`]. A refresh
    /// typically needs far fewer epochs than a cold fit — the model starts
    /// at the base optimum and only the delta's users moved — which is
    /// where the refresh-vs-retrain wall-time win comes from.
    pub update_epochs: usize,
    /// Seed for instance sampling.
    pub seed: u64,
    /// Print per-epoch progress to stderr.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 64,
            k: 5,
            n: 5,
            mode: TargetSelection::Sequential,
            sampling_policy: SamplingPolicy::ResampleEachEpoch,
            eval_every: 5,
            patience: 3,
            eval_cutoff: 10,
            threads: 4,
            update_epochs: 0,
            seed: 17,
            verbose: false,
        }
    }
}

impl TrainConfig {
    /// The effective worker-thread budget: [`TrainConfig::threads`] clamped
    /// to at least one worker. (The deprecated `train_threads` /
    /// `eval_threads` per-phase knobs this once deferred to are gone — one
    /// pool serves training, evaluation, and refresh.)
    pub fn thread_budget(&self) -> usize {
        self.threads.max(1)
    }

    /// Epochs one [`crate::trainer::Trainer::update`] pass runs:
    /// [`TrainConfig::update_epochs`] when set, else [`TrainConfig::epochs`].
    pub fn refresh_epochs(&self) -> usize {
        if self.update_epochs > 0 {
            self.update_epochs
        } else {
            self.epochs
        }
    }
}
