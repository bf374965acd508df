//! Implicit-feedback datasets for the `lkp` workspace.
//!
//! The paper evaluates on Amazon-Beauty, MovieLens-1M and Anime. Those raw
//! datasets are not redistributable here, so this crate provides:
//!
//! * [`dataset::Dataset`] — the in-memory representation the rest of the
//!   workspace consumes: per-user chronological interactions, item→category
//!   assignments, and the paper's 70/10/20 train/validation/test split.
//! * [`synthetic`] — a latent-factor + category-structured generator with
//!   three presets calibrated to the statistics in the paper's Table I
//!   (user/item/interaction/category counts, optionally scaled down). The
//!   generator preserves the properties LkP exploits: personalized relevance
//!   structure, category diversity structure, popularity skew, and sequential
//!   category coherence (which gives the S-vs-R instance-construction
//!   contrast its meaning).
//! * [`instances`] — ground-set samplers: each training instance is a user
//!   plus `k` observed items and `n` sampled unobserved items (Section
//!   III-B1), built either sequentially (S) or randomly (R).
//! * [`plan`] — the epoch planning layer: flat-arena [`plan::EpochPlan`]s
//!   produced under a [`plan::SamplingPolicy`] (resample or frozen
//!   negatives) and cut into size-bucketed
//!   [`plan::BatchSchedule`]s for uniform-size pool dispatches.
//! * [`delta`] — interaction deltas for incremental refresh:
//!   [`delta::DatasetDelta`] events merged by [`dataset::Dataset::merge_delta`]
//!   into the train split, and a [`delta::DeltaPlanner`] that freezes
//!   unchanged users' plan records while sampling changed users fresh.
//! * [`diverse`] — `(T⁺, T⁻)` set pairs for pre-training the diversity
//!   kernel (Eq. 3).
//! * [`stats`] — dataset statistics (Table I).

pub mod dataset;
pub mod delta;
pub mod diverse;
pub mod instances;
pub mod plan;
pub mod stats;
pub mod synthetic;

pub use dataset::{Dataset, NegativeMask, Split};
pub use delta::{DatasetDelta, DeltaPlanner, DeltaSummary, RefreshPlanStats};
pub use instances::{GroundSetInstance, InstanceRef, InstanceSampler, TargetSelection};
pub use plan::{
    BatchSchedule, EpochPlan, EpochPlanner, InstanceBlock, InstanceRecord, PlanStats,
    SamplingPolicy, ScheduledBatch,
};
pub use stats::DatasetStats;
pub use synthetic::{SyntheticConfig, SyntheticPreset};
