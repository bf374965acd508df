//! Run outcomes: per-epoch stats, the fit report, and the refresh-pipeline
//! artifacts ([`TrainedState`] warm-start token, [`RefreshReport`]).

use lkp_data::{Dataset, EpochPlan, PlanStats, TargetSelection};

/// Per-epoch statistics.
#[derive(Debug, Clone)]
pub struct EpochStat {
    /// 1-based epoch index.
    pub epoch: usize,
    /// Mean per-instance loss.
    pub mean_loss: f64,
    /// Validation NDCG@cutoff, when this epoch was evaluated.
    pub val_ndcg: Option<f64>,
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Epochs actually run (≤ configured maximum under early stopping).
    pub epochs_run: usize,
    /// Epoch with the best validation metric (0 if never evaluated).
    pub best_epoch: usize,
    /// Best validation NDCG@cutoff observed.
    pub best_val_ndcg: f64,
    /// Per-epoch history.
    pub history: Vec<EpochStat>,
    /// Epoch-plan counters: resampled vs reused epochs, instances per
    /// epoch, and the number of distinct ground-set sizes the batch
    /// scheduler bucketed by.
    pub plan: PlanStats,
}

impl TrainReport {
    /// The zero-epoch report a no-op refresh returns.
    pub(crate) fn empty() -> Self {
        TrainReport {
            epochs_run: 0,
            best_epoch: 0,
            best_val_ndcg: 0.0,
            history: Vec::new(),
            plan: PlanStats::default(),
        }
    }
}

/// Everything a later [`crate::trainer::Trainer::update`] call needs to
/// warm-start from a finished run: the training data, the final epoch plan
/// (instance identity *and order*) and the sampling shape it was drawn
/// under.
///
/// Produced by [`crate::trainer::Trainer::fit_state`] and by every
/// `update` call (so refreshes chain: fit → update → update → …).
#[derive(Debug, Clone)]
pub struct TrainedState {
    pub(crate) data: Dataset,
    pub(crate) plan: EpochPlan,
    pub(crate) batch_size: usize,
    pub(crate) k: usize,
    pub(crate) n: usize,
    pub(crate) mode: TargetSelection,
    pub(crate) seed: u64,
}

impl TrainedState {
    pub(crate) fn new(
        data: Dataset,
        plan: EpochPlan,
        batch_size: usize,
        k: usize,
        n: usize,
        mode: TargetSelection,
        seed: u64,
    ) -> Self {
        TrainedState {
            data,
            plan,
            batch_size,
            k,
            n,
            mode,
            seed,
        }
    }

    /// The dataset the state was trained on (base data ∪ merged deltas).
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The run's final epoch plan — the instance set and order a refresh
    /// freezes for unchanged users.
    pub fn plan(&self) -> &EpochPlan {
        &self.plan
    }

    /// Per-instance ground-set shape `(k, n)` the plan was sampled under.
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// Target construction mode the plan was sampled under.
    pub fn mode(&self) -> TargetSelection {
        self.mode
    }
}

/// Outcome of one incremental [`crate::trainer::Trainer::update`] pass.
#[derive(Debug, Clone)]
pub struct RefreshReport {
    /// The underlying epoch-loop report for the refresh epochs.
    pub report: TrainReport,
    /// The refreshed warm-start state — feed it to the next `update`.
    pub state: TrainedState,
    /// Plan records carried over verbatim from the base plan (unchanged
    /// users, base order).
    pub frozen_instances: usize,
    /// Plan records freshly sampled for changed/new users.
    pub fresh_instances: usize,
    /// Users whose ground sets were resampled (changed or new).
    pub changed_users: usize,
    /// Users the delta appended to the population.
    pub new_users: usize,
    /// Interactions the merge accepted (duplicates are dropped).
    pub new_interactions: usize,
    /// Whether the delta was empty after dedup: the model was not touched
    /// and `state` is the base state over the (identical) merged data.
    pub no_op: bool,
}

impl RefreshReport {
    /// The report for an empty delta: zero epochs, model untouched.
    pub(crate) fn no_op(state: TrainedState) -> Self {
        RefreshReport {
            report: TrainReport::empty(),
            state,
            frozen_instances: 0,
            fresh_instances: 0,
            changed_users: 0,
            new_users: 0,
            new_interactions: 0,
            no_op: true,
        }
    }
}
