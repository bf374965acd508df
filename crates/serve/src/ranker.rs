//! The batched ranker: requests in, diversified top-N lists out.

use crate::cache::{CacheEntry, CacheStats, EntryForm, KernelCache, WorkerCacheStats};
use crate::{KernelForm, RankingArtifact, ServeConfig};
use lkp_dpp::{greedy_map_dual_with, greedy_map_with, DualMapWorkspace, MapWorkspace};
use lkp_linalg::Matrix;
use lkp_models::Recommender;
use lkp_runtime::WorkerPool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// One top-N request: rank `candidates` for `user` and keep the best
/// `top_n` under the tailored k-DPP MAP objective.
#[derive(Debug, Clone)]
pub struct RankRequest {
    /// Requesting user.
    pub user: usize,
    /// Candidate item ids (typically a few hundred from a retrieval stage).
    pub candidates: Vec<usize>,
    /// List length to produce (clamped to the candidate count).
    pub top_n: usize,
    /// Optional latency budget. The frontend sheds a request still queued
    /// past its SLO at cut time with [`RankOutcome::Expired`] instead of
    /// serving it late. It does not cut earlier for it: cuts already happen
    /// whenever the ranker is free. `None` (the default) never expires.
    pub slo: Option<Duration>,
    /// DPP rerank head: `0` (the default) runs greedy MAP over the full
    /// candidate set; a non-zero value reranks only the `rerank_head`
    /// highest-quality candidates — the degraded mode the frontend switches
    /// on under overload, trading list optimality for `O(head²)` instead of
    /// `O(|C|²)` kernel work.
    pub rerank_head: usize,
}

impl RankRequest {
    /// A request over an explicit candidate list.
    pub fn new(user: usize, candidates: Vec<usize>, top_n: usize) -> Self {
        RankRequest {
            user,
            candidates,
            top_n,
            slo: None,
            rerank_head: 0,
        }
    }

    /// A request ranking the full catalog (small catalogs / offline use).
    pub fn full_catalog(user: usize, n_items: usize, top_n: usize) -> Self {
        // lint:allow(hotpath-alloc): request-construction convenience for
        // small catalogs and offline use, not the serving loop.
        RankRequest::new(user, (0..n_items).collect(), top_n)
    }

    /// Attaches a latency budget (see [`RankRequest::slo`]).
    pub fn with_slo(mut self, slo: Duration) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Caps the DPP rerank head (see [`RankRequest::rerank_head`]).
    pub fn with_rerank_head(mut self, head: usize) -> Self {
        self.rerank_head = head;
        self
    }
}

/// What happened to a request, stamped on its [`RankResponse`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RankOutcome {
    /// A list was produced (possibly empty for `top_n = 0`).
    #[default]
    Served,
    /// The request was malformed: no candidates, unknown user, or an
    /// out-of-catalog candidate id. Deterministic — retrying cannot help.
    Invalid,
    /// A numerical failure poisoned this request only: NaN quality scores,
    /// a degenerate/NaN kernel, or a failed MAP factorization.
    Failed,
    /// The request's closure panicked; the panic was contained to this
    /// ticket (the batch, pool, and pump thread are unaffected).
    Panicked,
    /// Still queued past the request's SLO at cut time; shed unserved.
    Expired,
}

/// One served list.
///
/// `items` is in greedy selection order (position 1 first), which is also
/// the presentation order: each item maximizes the marginal determinant
/// gain given everything above it. Empty unless `outcome` is
/// [`RankOutcome::Served`] (and then still empty for `top_n = 0`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankResponse {
    /// Requesting user (copied from the request).
    pub user: usize,
    /// Selected items, best-first.
    pub items: Vec<usize>,
    /// `log det(L_S)` of the selected set under the tailored kernel.
    pub log_det: f64,
    /// Whether the kernel block (`K_C` or `V_C`) came from the serving
    /// worker's kernel cache.
    pub cache_hit: bool,
    /// What happened to the request (served / invalid / failed / panicked /
    /// expired).
    pub outcome: RankOutcome,
    /// Whether the list was produced with a truncated rerank head
    /// ([`RankRequest::rerank_head`], set by the request or by the
    /// frontend's overload policy).
    pub degraded: bool,
    /// The artifact generation that produced this response (bumped by every
    /// [`Ranker::commit_swap`]; the first artifact is generation 1).
    pub generation: u64,
}

/// Per-worker serving scratch, persisted in pool worker state across
/// batches: reused score/quality buffers, the assembled kernel, the MAP
/// workspace, and the bounded per-user kernel cache. Steady-state serving
/// of a fixed request shape allocates only on cache insertions.
#[derive(Default)]
pub struct ServeWorkspace {
    scores: Vec<f64>,
    q: Vec<f64>,
    l: Matrix,
    map: MapWorkspace,
    cache: KernelCache,
    /// Factor rows `V_C` for the dual path: the degraded-head gather target
    /// and the dense-fallback re-gather.
    vc: Matrix,
    /// The dual factor `B = Diag(q)·V_C` fed to the dual MAP.
    b: Matrix,
    dual_map: DualMapWorkspace,
    /// Requests this worker abandoned to the dense fallback after a dual
    /// numerical breakdown.
    dual_fallbacks: u64,
    /// Duplicate-candidate scratch: index permutation sorted by
    /// `(item, position)`, per-position duplicate mask, and the rebuilt
    /// first-occurrence list when duplicates are present.
    order: Vec<u32>,
    dup: Vec<bool>,
    dedup: Vec<usize>,
    /// Degraded-mode scratch: the quality-sorted head selection and its
    /// directly-assembled kernel (degraded requests bypass the cache so a
    /// transient overload cannot churn the warm set).
    head_order: Vec<u32>,
    head_cands: Vec<usize>,
    head_q: Vec<f64>,
    head_sub: Matrix,
}

/// The serving engine: an immutable [`RankingArtifact`] plus a persistent
/// worker pool. Batches are cut into contiguous per-worker chunks
/// (`O(batch/threads)` requests each); every response slot is written by
/// exactly one worker, so the output order matches the request order and
/// the served lists are identical at any pool width.
pub struct Ranker<M> {
    artifact: RankingArtifact<M>,
    pool: WorkerPool,
    config: ServeConfig,
    /// Artifact generation, stamped on every response and bumped by
    /// [`Ranker::commit_swap`].
    generation: u64,
}

/// A new artifact with its generation cache pre-assembled — the expensive
/// half of a hot swap, built *off* the serving path (no pool, no frontend
/// lock) via [`StagedSwap::prepare`], then installed by the cheap
/// [`Ranker::commit_swap`].
pub struct StagedSwap<M> {
    artifact: RankingArtifact<M>,
    /// One template cache, assembled once; commit clones it into every
    /// worker (the same warm set everywhere, exactly like a plain prewarm).
    cache: KernelCache,
    warmed: usize,
}

impl<M: Recommender> StagedSwap<M> {
    /// Stages `artifact` with `plan`'s `(user, candidate-set)` pairs
    /// prewarmed into a fresh template cache. The config must be the
    /// serving ranker's own (capacity and kernel form decide what is
    /// staged); plan pairs follow the same validation, dedup, and
    /// monotone-fill rules as [`Ranker::prewarm`].
    pub fn prepare(
        config: &ServeConfig,
        artifact: RankingArtifact<M>,
        plan: &[(usize, Vec<usize>)],
    ) -> Self {
        // Staging runs off the serving path — the live ranker keeps serving
        // until the atomic swap — so a throwaway workspace holds the
        // template cache and the dedup scratch.
        let mut ws = ServeWorkspace::default();
        let warmed = prewarm_into(&mut ws, config, &artifact, plan, &plan_blocks(plan));
        StagedSwap {
            artifact,
            cache: ws.cache,
            warmed,
        }
    }
}

impl<M: Recommender + Sync> Ranker<M> {
    /// Builds a ranker (spawning the pool) from a frozen artifact.
    pub fn new(artifact: RankingArtifact<M>, config: ServeConfig) -> Self {
        let pool = WorkerPool::new(config.threads);
        Ranker {
            artifact,
            pool,
            config,
            generation: 1,
        }
    }

    /// The frozen artifact this ranker serves.
    pub fn artifact(&self) -> &RankingArtifact<M> {
        &self.artifact
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The current artifact generation (starts at 1, bumped by every
    /// [`Ranker::commit_swap`]). Stamped on each response.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Worker threads in the serving pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Serves one batch of requests, one response per request in request
    /// order.
    pub fn rank_batch(&mut self, requests: &[RankRequest]) -> Vec<RankResponse> {
        // lint:allow(hotpath-alloc): owned-return convenience wrapper; the
        // zero-alloc serving path is `rank_batch_into` with reused buffers.
        let mut out = Vec::new();
        self.rank_batch_into(requests, &mut out);
        out
    }

    /// [`Ranker::rank_batch`] into a reused response buffer (cleared and
    /// refilled; response-internal buffers are recycled across batches).
    ///
    /// Failures are isolated per request: a panicking or numerically-failed
    /// request poisons only its own response slot
    /// ([`RankOutcome::Panicked`] / [`RankOutcome::Failed`]) — sibling
    /// requests in the same batch, the pool barrier, and later batches are
    /// untouched and bit-exact.
    pub fn rank_batch_into(&mut self, requests: &[RankRequest], out: &mut Vec<RankResponse>) {
        out.resize_with(requests.len(), RankResponse::default);
        let artifact = &self.artifact;
        let config = &self.config;
        let generation = self.generation;
        self.pool
            .zip_chunks(requests, out, |_, reqs, resps, state| {
                let ws = state.get_or_default::<ServeWorkspace>();
                for (req, resp) in reqs.iter().zip(resps.iter_mut()) {
                    serve_request(artifact, config, ws, req, resp, generation);
                }
            });
    }

    /// Serves a single request on the caller thread (no pool dispatch) —
    /// the low-latency path for un-batched traffic. Panic/failure isolation
    /// matches [`Ranker::rank_batch_into`].
    pub fn rank_one(&mut self, request: &RankRequest) -> RankResponse {
        let mut resp = RankResponse::default();
        let generation = self.generation;
        let ws = self.pool.caller_state().get_or_default::<ServeWorkspace>();
        serve_request(
            &self.artifact,
            &self.config,
            ws,
            request,
            &mut resp,
            generation,
        );
        resp
    }

    /// Atomically installs a staged artifact between batches. In-flight
    /// semantics are the caller's (the frontend swaps only between cuts, so
    /// no batch ever sees two artifacts); every response carries the
    /// generation that produced it. Old-generation cache entries are
    /// retired wholesale — they were assembled from the old kernel — while
    /// lifetime traffic counters carry over. Returns
    /// `(pairs warm in the new generation's cache, entries retired)`.
    pub fn commit_swap(&mut self, staged: StagedSwap<M>) -> (usize, usize) {
        let StagedSwap {
            artifact,
            cache,
            warmed,
        } = staged;
        assert_eq!(
            artifact.n_items(),
            self.artifact.n_items(),
            "swap must keep the catalog size (candidate ids would dangle)"
        );
        let retired = AtomicUsize::new(0);
        self.pool.run(|_, state| {
            let ws = state.get_or_default::<ServeWorkspace>();
            retired.fetch_add(ws.cache.adopt(&cache), Ordering::Relaxed);
        });
        self.artifact = artifact;
        self.generation += 1;
        (warmed, retired.into_inner())
    }

    /// Builds popular `(user, candidates)` pairs into the kernel cache
    /// before traffic, so their first request already hits. Candidate lists
    /// are deduplicated exactly like the serving path, and each entry is
    /// built in the form the serving path will look up
    /// ([`ServeConfig::kernel_form`]); pairs with unknown users or
    /// out-of-catalog items are skipped, and a disabled cache
    /// (`kernel_cache_bytes = 0`) warms nothing.
    ///
    /// Every pool worker gets every pair into its own cache — chunk
    /// assignment depends on future batch shapes, so all workers must hold
    /// a pair for its first request to be a guaranteed hit. Each pair is
    /// assembled once, by the first worker that accepts it, and cloned into
    /// every other worker that accepts it (the same build-once rule as
    /// [`StagedSwap::prepare`]). Each worker's copy is counted as
    /// `prewarmed` in [`Ranker::cache_stats_detailed`], never as a miss.
    ///
    /// Prewarming is strictly *monotone*: it fills empty cache budget
    /// and never evicts or overwrites a resident entry. A full cache
    /// refuses further pairs rather than churning earlier ones — the
    /// prospective entry is sized in bytes *before* assembly — and a user
    /// already resident with a different candidate pool keeps that pool
    /// (the new pool refreshes via its first, missing, request). Plans
    /// larger than `kernel_cache_bytes` therefore warm only a prefix;
    /// compare the returned count against `pairs.len()` to detect that.
    /// Warm entries stay warm as long as the working set fits the budget —
    /// *traffic* eviction is still plain LRU, so if enough cold-user
    /// misses land between prewarm and a warm pair's first request, that
    /// pair can be evicted before it hits; size the budget for the
    /// prewarm plan plus the expected cold interleave.
    ///
    /// Returns the number of pairs that are warm (resident with exactly
    /// the requested pool) when the call returns — whether built now or
    /// already resident — taking the minimum across workers: the number of
    /// pairs guaranteed warm on *every* worker.
    pub fn prewarm(&mut self, pairs: &[(usize, Vec<usize>)]) -> usize {
        if self.config.kernel_cache_bytes == 0 {
            return 0;
        }
        let artifact = &self.artifact;
        let config = &self.config;
        // Workers can disagree (earlier traffic left different residents),
        // so report the minimum: pairs warm everywhere.
        let warmed = AtomicUsize::new(usize::MAX);
        let blocks = plan_blocks(pairs);
        self.pool.run(|_, state| {
            let ws = state.get_or_default::<ServeWorkspace>();
            let n = prewarm_into(ws, config, artifact, pairs, &blocks);
            warmed.fetch_min(n, Ordering::Relaxed);
        });
        warmed.into_inner()
    }

    /// Aggregate `(hits, misses)` of the kernel cache, summed over workers.
    /// Disabled-cache passthroughs (`kernel_cache_bytes = 0`) are **not**
    /// misses — they are counted separately in [`Ranker::cache_bypasses`],
    /// so a hit rate derived from this pair reflects only lookups the cache
    /// was allowed to serve.
    /// Reading stats never materializes serving state on idle workers.
    pub fn cache_stats(&mut self) -> (u64, u64) {
        let stats = self.cache_stats_detailed();
        (stats.aggregate.hits, stats.aggregate.misses)
    }

    /// Aggregate count of kernel builds that deliberately bypassed the
    /// cache because it was disabled (`kernel_cache_bytes = 0`).
    pub fn cache_bypasses(&mut self) -> u64 {
        self.cache_stats_detailed().aggregate.bypasses
    }

    /// How many requests fell back from the dual MAP path to the dense one
    /// after a numerical breakdown (summed across workers; always 0 in
    /// [`KernelForm::Dense`] mode). Fallback responses are bit-identical to
    /// what dense-mode serving would have produced, so a non-zero count is
    /// a performance signal, not a correctness one.
    pub fn dual_fallbacks(&mut self) -> u64 {
        // The caller is worker 0, so `run` also covers the un-batched
        // `rank_one` path (which serves from the caller's state).
        let count = std::sync::atomic::AtomicU64::new(0);
        self.pool.run(|_, state| {
            if let Some(ws) = state.get_mut::<ServeWorkspace>() {
                count.fetch_add(ws.dual_fallbacks, Ordering::Relaxed);
            }
        });
        count.into_inner()
    }

    /// Full per-worker + aggregate kernel-cache counters: `per_worker[i]`
    /// is worker `i`'s cache (a worker that never served a request reports
    /// a zero row — the read uses the pool's optional-state accessor and
    /// does not create workspaces).
    pub fn cache_stats_detailed(&mut self) -> CacheStats {
        // lint:allow(hotpath-alloc): observability endpoint, called by
        // operators — not on the request path.
        let rows = std::sync::Mutex::new(vec![WorkerCacheStats::default(); self.pool.threads()]);
        self.pool.run(|worker, state| {
            // Optional accessor: idle workers stay untouched instead of
            // materializing an empty workspace (and its cache) just to
            // report zeros.
            if let Some(ws) = state.get_mut::<ServeWorkspace>() {
                rows.lock().expect("stats lock")[worker] = ws.cache.stats();
            }
        });
        CacheStats::from_workers(rows.into_inner().expect("stats lock"))
    }

    /// How many pool workers currently hold a materialized
    /// [`ServeWorkspace`] — observability for the invariant that stats
    /// reads leave idle workers untouched.
    pub fn resident_workspaces(&mut self) -> usize {
        let count = AtomicUsize::new(0);
        self.pool.run(|_, state| {
            if state.contains::<ServeWorkspace>() {
                count.fetch_add(1, Ordering::Relaxed);
            }
        });
        count.into_inner()
    }
}

impl<M> std::fmt::Debug for Ranker<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ranker")
            .field("threads", &self.pool.threads())
            .field("kernel_form", &self.config.kernel_form)
            .field("generation", &self.generation)
            .finish()
    }
}

/// Which cache-entry/kernel form the configured [`KernelForm`] selects.
fn entry_form(config: &ServeConfig) -> EntryForm {
    match config.kernel_form {
        KernelForm::Dense => EntryForm::Dense,
        KernelForm::LowRankDual => EntryForm::Factor,
    }
}

/// One build slot per plan pair, shared by every cache the plan warms.
fn plan_blocks(plan: &[(usize, Vec<usize>)]) -> Vec<OnceLock<CacheEntry>> {
    // lint:allow(hotpath-alloc): one slot per prewarm pair, per prewarm
    // call — a set-up step, not the request path.
    plan.iter().map(|_| OnceLock::new()).collect()
}

/// Warms `plan`'s servable pairs into `ws`'s cache (see [`Ranker::prewarm`])
/// and returns how many are warm afterwards. An accepted pair's block is
/// taken from its slot in `blocks`, which the first cache to accept the
/// pair fills; later caches clone it.
fn prewarm_into<M: Recommender>(
    ws: &mut ServeWorkspace,
    config: &ServeConfig,
    artifact: &RankingArtifact<M>,
    plan: &[(usize, Vec<usize>)],
    blocks: &[OnceLock<CacheEntry>],
) -> usize {
    let budget = config.kernel_cache_bytes;
    let form = entry_form(config);
    let kernel = artifact.kernel();
    let mut warmed = 0;
    for ((user, candidates), block) in plan.iter().zip(blocks) {
        if !prewarmable(artifact, *user, candidates) {
            continue;
        }
        let key = dedup_first_occurrence(candidates, &mut ws.order, &mut ws.dup, &mut ws.dedup);
        let fill = |entry: &mut CacheEntry| {
            entry.clone_from(block.get_or_init(|| {
                let mut built = CacheEntry::empty();
                built.fill(key, kernel, form, 0);
                built
            }));
        };
        if ws
            .cache
            .prewarm_with(*user, key, kernel.dim(), budget, form, fill)
        {
            warmed += 1;
        }
    }
    warmed
}

/// Assembles the tailored dense kernel `L = Diag(q)·K_C·Diag(q) + ε·I` into
/// `l` from factor rows `vc` (`m × d`), computing each `K_C` entry as the
/// factor-row dot product. This is bit-identical to assembling from a
/// materialized `K_C` block ([`lkp_dpp::LowRankKernel::submatrix_into`]
/// computes the same dot on the same rows), which makes the dual path's
/// dense *fallback* indistinguishable from dense-mode serving.
fn tailored_from_factor(vc: &Matrix, q: &[f64], jitter: f64, l: &mut Matrix) {
    let m = vc.rows();
    l.reset(m, m);
    for i in 0..m {
        let qi = q[i];
        l[(i, i)] = qi * lkp_linalg::ops::dot(vc.row(i), vc.row(i)) * qi + jitter;
        for j in (i + 1)..m {
            let qj = q[j];
            let kij = lkp_linalg::ops::dot(vc.row(i), vc.row(j));
            let avg = 0.5 * (qi * kij * qj + qj * kij * qi);
            l[(i, j)] = avg;
            l[(j, i)] = avg;
        }
    }
}

/// Whether a prewarm pair is servable (mirrors `serve_one`'s validation).
fn prewarmable<M: Recommender>(
    artifact: &RankingArtifact<M>,
    user: usize,
    candidates: &[usize],
) -> bool {
    !candidates.is_empty()
        && user < artifact.n_users()
        && candidates.iter().all(|&i| i < artifact.n_items())
}

/// Returns `candidates` with second and later occurrences of each item
/// removed, preserving first-occurrence order. Sorting an index permutation
/// by `(item, position)` finds duplicates and rebuilds the deduplicated
/// list in `O(|C| log |C|)`; the clean common case pays one sort and no
/// rebuild (the input slice is returned untouched).
fn dedup_first_occurrence<'a>(
    candidates: &'a [usize],
    order: &mut Vec<u32>,
    dup: &mut Vec<bool>,
    dedup: &'a mut Vec<usize>,
) -> &'a [usize] {
    order.clear();
    order.extend(0..candidates.len() as u32);
    order.sort_unstable_by_key(|&i| (candidates[i as usize], i));
    dup.clear();
    dup.resize(candidates.len(), false);
    let mut any = false;
    // Within a run of equal items the permutation ascends by position, so
    // the run's first element is the first occurrence; mark the rest.
    for w in order.windows(2) {
        if candidates[w[0] as usize] == candidates[w[1] as usize] {
            dup[w[1] as usize] = true;
            any = true;
        }
    }
    if !any {
        return candidates;
    }
    dedup.clear();
    dedup.extend(
        candidates
            .iter()
            .zip(dup.iter())
            .filter(|&(_, &d)| !d)
            .map(|(&item, _)| item),
    );
    dedup
}

/// [`serve_one`] behind a per-request panic shield: a panicking request
/// poisons only its own response slot ([`RankOutcome::Panicked`]), never
/// the batch, the pool barrier, or the pump thread. The workspace is safe
/// to reuse afterwards — every scratch buffer is clear-and-refill.
fn serve_request<M: Recommender>(
    artifact: &RankingArtifact<M>,
    config: &ServeConfig,
    ws: &mut ServeWorkspace,
    req: &RankRequest,
    resp: &mut RankResponse,
    generation: u64,
) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        serve_one(artifact, config, ws, req, resp, generation);
    }));
    if result.is_err() {
        resp.user = req.user;
        resp.items.clear();
        resp.log_det = 0.0;
        resp.cache_hit = false;
        resp.degraded = false;
        resp.generation = generation;
        resp.outcome = RankOutcome::Panicked;
    }
}

/// Serves one request into `resp` using the worker's scratch.
fn serve_one<M: Recommender>(
    artifact: &RankingArtifact<M>,
    config: &ServeConfig,
    ws: &mut ServeWorkspace,
    req: &RankRequest,
    resp: &mut RankResponse,
    generation: u64,
) {
    resp.user = req.user;
    resp.items.clear();
    resp.log_det = 0.0;
    resp.cache_hit = false;
    resp.outcome = RankOutcome::Served;
    resp.degraded = false;
    resp.generation = generation;

    let n_items = artifact.n_items();
    if req.candidates.is_empty()
        || req.user >= artifact.n_users()
        || req.candidates.iter().any(|&i| i >= n_items)
    {
        resp.outcome = RankOutcome::Invalid;
        return;
    }
    if req.top_n == 0 {
        return;
    }

    // Duplicate candidate ids would let greedy MAP pick the same item
    // twice (a duplicate row's residual decays only to the jitter floor,
    // above the rank cutoff). Deduplicate, keeping first occurrences.
    let candidates =
        dedup_first_occurrence(&req.candidates, &mut ws.order, &mut ws.dup, &mut ws.dedup);
    let c = candidates.len();

    // Scores → quality, exactly the training-side map q = exp(clamp(ŷ)).
    artifact
        .model()
        .score_items_into(req.user, candidates, &mut ws.scores);
    if ws.scores.iter().any(|s| s.is_nan()) {
        resp.outcome = RankOutcome::Failed;
        return;
    }
    ws.q.clear();
    ws.q.extend(
        ws.scores
            .iter()
            .map(|&s| s.clamp(-config.score_clamp, config.score_clamp).exp()),
    );

    // Degraded mode: rerank only the `head` highest-quality candidates
    // (quality-sorting the full set is `O(|C| log |C|)`; only the head pays
    // kernel work). Ordering is by (score desc, position asc) via
    // `total_cmp`, then the survivors are re-sorted back into candidate
    // order so greedy-MAP tie-breaks match what the same head would produce
    // as a direct request. The head's kernel block is built directly —
    // bypassing the cache — so a transient overload cannot churn the warm
    // set keyed on full candidate pools.
    let degraded = req.rerank_head > 0 && req.rerank_head < c;
    if degraded {
        ws.head_order.clear();
        ws.head_order.extend(0..c as u32);
        ws.head_order.sort_unstable_by(|&a, &b| {
            ws.scores[b as usize]
                .total_cmp(&ws.scores[a as usize])
                .then(a.cmp(&b))
        });
        ws.head_order.truncate(req.rerank_head);
        ws.head_order.sort_unstable();
        ws.head_cands.clear();
        ws.head_q.clear();
        for &i in &ws.head_order {
            ws.head_cands.push(candidates[i as usize]);
            ws.head_q.push(ws.q[i as usize]);
        }
        resp.degraded = true;
    }

    // Effective reranked set: the head for degraded requests, the full
    // deduplicated pool otherwise.
    let (cands_used, q_used): (&[usize], &[f64]) = if degraded {
        (&ws.head_cands, &ws.head_q)
    } else {
        (candidates, &ws.q)
    };
    let m = cands_used.len();
    let k = req.top_n.min(m);
    let budget = config.kernel_cache_bytes;

    if entry_form(config) == EntryForm::Factor {
        // Dual path: fetch the factor rows V_C (cached per user, or
        // gathered directly for a degraded head), scale into
        // B = Diag(q)·V_C, and run greedy MAP against B·Bᵀ without ever
        // materializing L_C — O(m·N·(d + N)) instead of O(m²·d) assembly.
        let (v_c, hit): (&Matrix, bool) = if degraded {
            artifact
                .kernel()
                .gather_rows_into(cands_used, &mut ws.vc)
                .expect("candidates validated above");
            (&ws.vc, false)
        } else {
            ws.cache.get_or_build(
                req.user,
                cands_used,
                artifact.kernel(),
                budget,
                EntryForm::Factor,
            )
        };
        resp.cache_hit = hit;
        let d = v_c.cols();
        ws.b.reset(m, d);
        for (i, &qi) in q_used.iter().enumerate() {
            for (o, &v) in ws.b.row_mut(i).iter_mut().zip(v_c.row(i)) {
                *o = qi * v;
            }
        }
        ws.dual_map.guard = config.dual_guard;
        match greedy_map_dual_with(&ws.b, config.jitter, k, &mut ws.dual_map) {
            Ok(()) => {
                if !ws.dual_map.log_det().is_finite() {
                    resp.items.clear();
                    resp.outcome = RankOutcome::Failed;
                    return;
                }
                resp.items
                    .extend(ws.dual_map.items().iter().map(|&idx| cands_used[idx]));
                resp.log_det = ws.dual_map.log_det();
                return;
            }
            Err(_) => {
                // Numerical breakdown: abandon the dual recursion for this
                // request and serve it on the dense path. L is assembled
                // from freshly gathered factor rows with the dense path's
                // exact arithmetic, so the fallback response is
                // bit-identical to dense-mode serving (the factor cache
                // entry, if any, stays resident — the kernel didn't change,
                // the recursion did).
                ws.dual_fallbacks += 1;
                artifact
                    .kernel()
                    .gather_rows_into(cands_used, &mut ws.vc)
                    .expect("candidates validated above");
                tailored_from_factor(&ws.vc, q_used, config.jitter, &mut ws.l);
            }
        }
    } else {
        // Dense path: diversity submatrix K_C (cached per user in the
        // worker's cache; built directly for a degraded head), then the
        // tailored kernel L = Diag(q)·K_C·Diag(q) + ε·I assembled into the
        // reused buffer.
        // The off-diagonal entries average the two factorization orders —
        // the same arithmetic as `DppKernel::from_quality_diversity` +
        // `symmetrize` — so the serve-side kernel matches the offline
        // `lkp_core::objective::tailored_kernel` bit for bit, not merely up
        // to round-off. The cache stores bit-exact copies of what a miss
        // recomputes, so a hit can never change a served list.
        let (k_sub, hit): (&Matrix, bool) = if degraded {
            artifact
                .kernel()
                .submatrix_into(cands_used, &mut ws.head_sub)
                .expect("candidates validated above");
            (&ws.head_sub, false)
        } else {
            ws.cache.get_or_build(
                req.user,
                cands_used,
                artifact.kernel(),
                budget,
                EntryForm::Dense,
            )
        };
        resp.cache_hit = hit;
        ws.l.reset(m, m);
        for i in 0..m {
            let qi = q_used[i];
            ws.l[(i, i)] = qi * k_sub[(i, i)] * qi + config.jitter;
            for j in (i + 1)..m {
                let qj = q_used[j];
                let kij = k_sub[(i, j)];
                let avg = 0.5 * (qi * kij * qj + qj * kij * qi);
                ws.l[(i, j)] = avg;
                ws.l[(j, i)] = avg;
            }
        }
    }

    // Dense greedy MAP under the tailored kernel — the dense path and the
    // dual path's breakdown fallback both land here; selection order is the
    // list. A factorization error or a non-finite objective (a
    // NaN/degenerate diversity block) fails this request only.
    if greedy_map_with(&ws.l, k, &mut ws.map).is_err() {
        resp.outcome = RankOutcome::Failed;
        return;
    }
    if !ws.map.log_det().is_finite() {
        resp.items.clear();
        resp.outcome = RankOutcome::Failed;
        return;
    }
    resp.items
        .extend(ws.map.items().iter().map(|&idx| cands_used[idx]));
    resp.log_det = ws.map.log_det();
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkp_dpp::LowRankKernel;
    use lkp_models::MatrixFactorization;
    use lkp_nn::AdamConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn prewarm_builds_each_pair_once_and_clones_it_into_later_caches() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = MatrixFactorization::new(4, 12, 3, AdamConfig::default(), &mut rng);
        let v = Matrix::from_fn(12, 3, |r, c| (((r * 5 + c * 3) % 7) as f64) * 0.3 - 1.0);
        let kernel = LowRankKernel::new(v).normalized();
        let artifact = RankingArtifact::snapshot(&model, &kernel);
        let kernel = artifact.kernel();
        let config = ServeConfig::default();
        let plan = vec![(0, vec![1, 2, 3]), (1, vec![4, 5]), (9, vec![1])];
        let mut blocks = plan_blocks(&plan);

        let mut first = ServeWorkspace::default();
        assert_eq!(
            prewarm_into(&mut first, &config, &artifact, &plan, &blocks),
            2
        );
        assert!(
            blocks[2].get().is_none(),
            "an unservable pair is never built"
        );
        // Mark the shared builds: a cache that clones them shows the mark,
        // one that assembled its own copy would not.
        for block in blocks.iter_mut().filter_map(OnceLock::get_mut) {
            block.block.scale(-1.0);
        }
        let mut second = ServeWorkspace::default();
        assert_eq!(
            prewarm_into(&mut second, &config, &artifact, &plan, &blocks),
            2
        );
        let budget = config.kernel_cache_bytes;
        let form = entry_form(&config);
        for (user, candidates) in &plan[..2] {
            let fresh = kernel.submatrix(candidates).unwrap();
            let (got, hit) = second
                .cache
                .get_or_build(*user, candidates, kernel, budget, form);
            assert!(hit, "user {user} prewarmed");
            let marked: Vec<f64> = fresh.as_slice().iter().map(|x| -x).collect();
            assert_eq!(got.as_slice(), &marked[..], "user {user} cloned");
            let (own, _) = first
                .cache
                .get_or_build(*user, candidates, kernel, budget, form);
            assert_eq!(
                own.as_slice(),
                fresh.as_slice(),
                "user {user} built exactly"
            );
        }
        assert_eq!(second.cache.stats().prewarmed, 2);
    }
}
