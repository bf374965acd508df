//! `lkp-core` — the paper's contribution: the **LkP optimization criterion**.
//!
//! LkP trains a recommendation model by comparing *sets* of items through a
//! tailored k-DPP over each training instance's `k + n` ground set:
//!
//! * [`objective::LkpObjective`] — the criterion with the pre-learned
//!   diversity kernel (the default "P/NP × R/S" variants). `PS` maximizes
//!   the target subset's k-DPP probability (Eq. 7); `NPS` additionally
//!   pushes down the probability of the all-negative subset (Eq. 10).
//! * [`objective::LkpRbfObjective`] — the `E` variants, whose diversity
//!   factor is a Gaussian (RBF) kernel over *trainable* item embeddings and
//!   therefore backpropagates into them.
//! * [`diversity`] — pre-training of the low-rank diversity kernel
//!   `K = V·Vᵀ` from category-diverse vs. contaminated set pairs (Eq. 3).
//! * [`baselines`] — BPR, BCE, SetRank and Set2SetRank under the same
//!   [`objective::Objective`] trait, plus the standard-DPP ablation the
//!   paper discusses (normalizing over all cardinalities instead of k).
//! * [`trainer`] — epoch loop with mini-batch accumulation, validation-based
//!   early stopping, and epoch callbacks (used by the Fig. 2/4 probes);
//!   plus the incremental refresh pipeline (`Trainer::update`) that
//!   delta-fits a trained model from a [`trainer::TrainedState`] warm start.
//! * [`probes`] — the ranking-interpretation diagnostics behind Fig. 4
//!   (k-DPP probability by target count) and the diversity comparison of
//!   Section IV-B2.
//! * [`variants`] — the paper's six-variant naming (PR, PS, NPR, NPS, PSE,
//!   NPSE) mapped onto objective + instance-construction settings.

pub mod baselines;
pub mod diversity;
pub mod objective;
pub mod probes;
pub mod trainer;
pub mod variants;

pub use diversity::{train_diversity_kernel, DiversityKernelConfig};
pub use objective::{LkpObjective, LkpRbfObjective, Objective};
pub use trainer::{RefreshReport, TrainConfig, TrainReport, TrainedState, Trainer};
pub use variants::LkpVariant;

/// Scores are clamped to this magnitude before `exp` when building kernel
/// qualities, keeping `q = exp(ŷ)` finite for any model output.
pub const SCORE_CLAMP: f64 = 30.0;

/// Jitter added to diversity-kernel submatrices before Cholesky, absorbing
/// the rank deficiency of low-rank kernels.
pub const KERNEL_JITTER: f64 = 1e-6;
