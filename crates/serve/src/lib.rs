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
//!    quality map `q = exp(clamp(ŷ))`, same L-space jitter), materializes it
//!    densely and runs incremental-Cholesky greedy MAP
//!    ([`lkp_dpp::greedy_map_with`]) to pick the top-N list: `O(|C|²·d)`
//!    assembly of `K_C` + `O(|C|·N²)` selection.
//! 3. The `O(|C|²·d)` assembly of `K_C` is amortized by a **bounded per-user
//!    kernel cache** private to each pool worker (lock-free; a user's block
//!    is built once per worker that serves them), which [`Ranker::prewarm`]
//!    can fill with popular pairs ahead of traffic. Capacity is a **byte
//!    budget** per worker ([`ServeConfig::kernel_cache_bytes`]); an entry
//!    costs `8·(|C| + |C|²)` bytes.
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
//! breaks ties by candidate order.

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
    /// Entries are charged their actual size, `8·(|C| + |C|²)` bytes: the
    /// candidate list plus the `|C| × |C|` block `K_C` (~81 KB at
    /// `|C| = 100`, ~20 MB at `|C| = 1600`). Every pool worker owns its own
    /// budget of this size (total resident ≈ `threads ×` this). The
    /// default, 20 MiB, holds ~256 entries at `|C| = 100` per worker.
    pub kernel_cache_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 0,
            jitter: lkp_core::KERNEL_JITTER,
            score_clamp: lkp_core::SCORE_CLAMP,
            kernel_cache_bytes: 20 * 1024 * 1024,
        }
    }
}
