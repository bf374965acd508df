//! `lkp-serve` — the batched top-N serving layer.
//!
//! Training (the paper's contribution) produces a relevance model and a
//! diversity kernel; the *product* is a ranker. This crate turns a trained
//! [`lkp_models::Recommender`] into one:
//!
//! 1. [`RankingArtifact`] snapshots the model + diversity kernel into an
//!    immutable serving artifact (scores and kernel entries can never drift
//!    under a concurrent trainer).
//! 2. [`Ranker`] drives batched [`RankRequest`]s through the shared
//!    [`lkp_runtime::WorkerPool`]: per request it forms the user's tailored
//!    low-rank kernel `L_C = Diag(q)·K_C·Diag(q) + ε·I` over the candidate
//!    set (exactly the kernel the LkP criterion trained against — same
//!    quality map `q = exp(clamp(ŷ))`, same L-space jitter) and runs
//!    incremental-Cholesky greedy MAP to pick the top-N list. Two kernel
//!    forms ([`ServeConfig::kernel_form`]): the **dense** path materializes
//!    `L_C` and runs [`lkp_dpp::greedy_map_with`] — `O(|C|²·d)` assembly +
//!    `O(|C|·N²)` selection; the **low-rank dual** path keeps the factored
//!    `B = Diag(q)·V_C` and runs [`lkp_dpp::greedy_map_dual_with`] directly
//!    on it — `O(|C|·N·(d + N))` total, never materializing `L_C`, with an
//!    automatic dense fallback on numerical breakdown.
//! 3. The dominant kernel work is amortized by a **bounded per-user kernel
//!    cache** private to each pool worker (lock-free; a user's block is
//!    built once per worker that serves them), which [`Ranker::prewarm`]
//!    can fill with popular pairs ahead of traffic. Capacity is a **byte
//!    budget** per worker ([`ServeConfig::kernel_cache_bytes`]): dense
//!    entries cost `O(|C|²)` bytes, dual factor entries `O(|C|·d)` — so the
//!    dual form also multiplies effective cache capacity by ~`|C|/d`.
//! 4. [`ServeFrontend`] accepts individually submitted requests into a
//!    bounded queue and cuts micro-batches of up to `max_batch`
//!    ([`FrontendConfig`]) whenever the ranker is free, so callers that see
//!    one request at a time still ride the batched pool path.
//! 5. The production shell hardens that core: [`FrontendDriver`]'s pump
//!    thread owns the ranker and ranks each batch with no lock held, so
//!    submitters never wait behind a dispatch; admission control sheds overload with
//!    a typed [`SubmitError`]; per-request SLOs expire stale work at cut
//!    time; a degraded mode caps the DPP rerank head under pressure; panics
//!    and numerical failures poison only their own ticket
//!    ([`RankOutcome`]); and [`ServeFrontend::swap_artifact`] replaces the
//!    model between cuts with the new generation's cache prewarmed
//!    ([`StagedSwap`]).
//!
//! Serving results are **identical at any pool width, cold or warm, and
//! through the frontend**: requests are independent, the cache stores
//! bit-exact copies of what a cache miss would recompute, and greedy MAP
//! breaks ties by candidate order. Across kernel *forms* the guarantee is
//! item-for-item list equality on well-conditioned kernels (the dual path
//! reassociates the same arithmetic, so `log_det` agrees to rounding, not
//! bitwise).

mod artifact;
mod cache;
mod frontend;
mod ranker;

pub use artifact::RankingArtifact;
pub use cache::{CacheStats, WorkerCacheStats};
pub use frontend::{
    Clock, DriverClient, FrontendConfig, FrontendDriver, FrontendStats, LatencyHistogram,
    ManualClock, MonotonicClock, ServeFrontend, SubmitError, SwapRecord, SwapReport, Ticket,
    LATENCY_BUCKETS,
};
pub use ranker::{RankOutcome, RankRequest, RankResponse, Ranker, ServeWorkspace, StagedSwap};

/// Which representation of the tailored kernel the ranker serves from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelForm {
    /// Materialize the dense `|C| × |C|` kernel `L_C` and run the dense
    /// incremental-Cholesky greedy MAP (the pre-dual behavior; the
    /// default). Cache hits skip the `O(|C|²·d)` assembly, but the dual form
    /// still serves faster at every measured pool size, down to `|C| = 100`
    /// (see `docs/PERFORMANCE.md`).
    #[default]
    Dense,
    /// Keep the kernel in factored form `B = Diag(q)·V_C` (`|C| × d`) and
    /// run greedy MAP incrementally against `B·Bᵀ` without materializing
    /// `L_C`: `O(|C|·N·(d + N))` per request instead of `O(|C|²·d)`
    /// assembly + `O(|C|·N²)` selection, and `O(|C|·d)`-byte cache entries
    /// instead of `O(|C|²)`. Selected lists match the dense path
    /// item-for-item on well-conditioned kernels; a numerical breakdown in
    /// the dual recursion (guarded by [`ServeConfig::dual_guard`]) falls
    /// back to the dense path for that request, bit-identical to
    /// [`KernelForm::Dense`] serving.
    LowRankDual,
}

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads of the ranker's pool (0 = host parallelism).
    pub threads: usize,
    /// L-space jitter `ε` added to the tailored candidate kernel's diagonal.
    /// Defaults to the training-side [`lkp_core::KERNEL_JITTER`] so served
    /// lists rank by exactly the distribution the model was trained under.
    pub jitter: f64,
    /// Score clamp applied before `exp` in the quality map (defaults to the
    /// training-side [`lkp_core::SCORE_CLAMP`]).
    pub score_clamp: f64,
    /// Kernel-cache budget in **bytes** (0 disables caching).
    ///
    /// Entries are charged their actual size: `8·(|C| + |C|²)` bytes for a
    /// dense entry (~81 KB at `|C| = 100`, ~20 MB at `|C| = 1600`),
    /// `8·(|C| + |C|·d)` for a dual factor entry (~26 KB at `|C| = 100`,
    /// `d = 32`) — so mixed workloads fit ~`|C|/d` more dual entries in the
    /// same budget. Every pool worker owns its own budget of this size
    /// (total resident ≈ `threads ×` this). The default, 20 MiB, holds ~256
    /// dense entries at `|C| = 100` per worker.
    pub kernel_cache_bytes: usize,
    /// Kernel representation served from (default [`KernelForm::Dense`],
    /// the exact pre-dual behavior).
    pub kernel_form: KernelForm,
    /// Relative negative-drift tolerance of the dual MAP recursion before
    /// it abandons a request to the dense fallback (defaults to
    /// [`lkp_dpp::DUAL_BREAKDOWN_GUARD`]). A *negative* guard trips the
    /// breakdown check on the first update — deterministic fault injection
    /// for exercising the fallback in tests. Ignored on the dense path.
    pub dual_guard: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 0,
            jitter: lkp_core::KERNEL_JITTER,
            score_clamp: lkp_core::SCORE_CLAMP,
            kernel_cache_bytes: 20 * 1024 * 1024,
            kernel_form: KernelForm::Dense,
            dual_guard: lkp_dpp::DUAL_BREAKDOWN_GUARD,
        }
    }
}
