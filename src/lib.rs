//! # lkp — Learning k-Determinantal Point Processes for Personalized Ranking
//!
//! A from-scratch Rust implementation of the LkP optimization criterion
//! (Liu, Walder & Xie, ICDE 2024) together with every substrate it needs:
//! dense/sparse linear algebra, a complete DPP/k-DPP toolkit, implicit-
//! feedback datasets, four recommendation models, a metric suite, and the
//! training loop.
//!
//! ## The idea in one paragraph
//!
//! Classic ranking losses compare *items* (BPR compares one pair, SetRank
//! one item against a set). LkP compares *sets*: each training instance is a
//! user with `k` observed items and `n` sampled unobserved ones, and the
//! model is trained so that — under a k-DPP whose kernel combines the
//! model's relevance scores with a pre-learned diversity kernel
//! (`L = Diag(q)·K·Diag(q)`) — the observed subset out-probabilizes every
//! other size-k subset of that ground set. The fixed-cardinality
//! normalization `Z_k = e_k(λ(L))` is what gives the probabilities a ranking
//! interpretation, and it is computed with the paper's `O((k+n)k)`
//! elementary-symmetric-polynomial recursion.
//!
//! ## Quickstart
//!
//! ```
//! use lkp::prelude::*;
//! use rand::SeedableRng;
//!
//! // 1. Data: a synthetic implicit-feedback dataset with item categories.
//! let data = SyntheticConfig { n_users: 60, n_items: 120, n_categories: 8,
//!                              ..Default::default() }.generate();
//!
//! // 2. Pre-train the diversity kernel (paper Eq. 3).
//! let kernel = train_diversity_kernel(
//!     &data,
//!     &DiversityKernelConfig { epochs: 3, pairs_per_epoch: 32, ..Default::default() },
//! );
//!
//! // 3. Model + LkP objective + trainer.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut model = MatrixFactorization::new(
//!     data.n_users(), data.n_items(), 16, AdamConfig::default(), &mut rng);
//! let mut objective = LkpObjective::new(LkpKind::NegativeAware, kernel);
//! let trainer = Trainer::new(TrainConfig { epochs: 3, ..Default::default() });
//! trainer.fit(&mut model, &mut objective, &data);
//!
//! // 4. Evaluate relevance *and* diversity.
//! let metrics = lkp::eval::evaluate(&model, &data, &[10]);
//! let m = metrics.at(10).unwrap();
//! assert!(m.ndcg >= 0.0 && m.category_coverage >= 0.0);
//! ```
//!
//! ## Crate map
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | [`linalg`] | `lkp-linalg` | matrices, LU/Cholesky/eigen, CSR |
//! | [`dpp`] | `lkp-dpp` | ESPs, k-DPPs, gradients, training workspace, greedy MAP |
//! | [`data`] | `lkp-data` | datasets, synthetic presets, ground-set samplers |
//! | [`nn`] | `lkp-nn` | dense layers, embeddings, Adam |
//! | [`models`] | `lkp-models` | MF, GCN, NeuMF, GCMC |
//! | [`eval`] | `lkp-eval` | Recall/NDCG/CC/F/ILD, parallel evaluation |
//! | [`core`] | `lkp-core` | the LkP criterion, baselines, trainer, probes |
//! | [`runtime`] | `lkp-runtime` | persistent worker pool, per-worker state |
//! | [`serve`] | `lkp-serve` | model snapshots, batched top-N MAP serving |

pub use lkp_core as core;
pub use lkp_data as data;
pub use lkp_dpp as dpp;
pub use lkp_eval as eval;
pub use lkp_linalg as linalg;
pub use lkp_models as models;
pub use lkp_nn as nn;
pub use lkp_runtime as runtime;
pub use lkp_serve as serve;

/// The most common imports in one place.
pub mod prelude {
    pub use lkp_core::baselines::{Bce, Bpr, S2SRank, SetRank};
    pub use lkp_core::objective::{
        InstanceGrad, LkpKind, LkpObjective, LkpRbfObjective, Objective,
    };
    pub use lkp_core::{
        train_diversity_kernel, DiversityKernelConfig, LkpVariant, RefreshReport, TrainConfig,
        TrainReport, TrainedState, Trainer,
    };
    pub use lkp_data::{
        Dataset, DatasetDelta, DeltaPlanner, DeltaSummary, EpochPlan, EpochPlanner,
        GroundSetInstance, InstanceRef, InstanceSampler, PlanStats, SamplingPolicy, Split,
        SyntheticConfig, SyntheticPreset, TargetSelection,
    };
    pub use lkp_dpp::{DppBatchArena, DppWorkspace};
    pub use lkp_dpp::{DppKernel, KDpp, LowRankKernel};
    pub use lkp_models::{Gcmc, Gcn, ItemEmbeddings, MatrixFactorization, NeuMf, Recommender};
    pub use lkp_nn::AdamConfig;
    pub use lkp_runtime::WorkerPool;
    pub use lkp_serve::{
        DriverClient, FrontendConfig, FrontendDriver, KernelForm, RankOutcome, RankRequest,
        RankResponse, Ranker, RankingArtifact, ServeConfig, ServeFrontend, SubmitError,
    };

    /// Convenience: generate a synthetic dataset from its config in one call.
    pub trait GenerateExt {
        /// Runs the synthetic generator.
        fn generate(&self) -> Dataset;
    }

    impl GenerateExt for SyntheticConfig {
        fn generate(&self) -> Dataset {
            lkp_data::synthetic::generate(self)
        }
    }
}
