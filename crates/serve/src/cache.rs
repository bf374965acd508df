//! The bounded per-worker cache of per-candidate-set kernel blocks.
//!
//! The per-request kernel work that depends only on the candidate set is
//! the diversity submatrix `K_C = V_C·V_Cᵀ`, so for the common serving
//! shape (each user's candidate pool is stable across requests) it is worth
//! paying once and amortizing. Every pool worker owns a private
//! [`per_worker::KernelCache`] (no locks); a user's block is built once
//! *per worker* that serves them.
//!
//! An entry holds the candidate list and the `|C|×|C|` block, so its size
//! grows with `|C|²` and capacity is a **byte budget**, not an entry count:
//! eviction shrinks the resident set oldest-first until it fits the budget
//! in bytes, so one 1600-candidate entry is charged what it occupies rather
//! than the same slot as a 100-candidate one.
//!
//! Entries are bit-exact copies of what a miss recomputes
//! ([`lkp_dpp::LowRankKernel::submatrix_into`] is deterministic), so cache
//! hits — on any worker, at any pool width — can never change a served
//! list.

pub(crate) mod per_worker;

pub(crate) use per_worker::KernelCache;

use lkp_dpp::LowRankKernel;
use lkp_linalg::Matrix;
use std::collections::HashMap;

/// Bytes an entry occupies for `c` candidates: the candidate list plus the
/// `c × c` block, both 8-byte elements. Used to size prospective entries
/// *before* paying the assembly (prewarm refusal).
pub(crate) fn entry_bytes(c: usize) -> usize {
    8 * (c + c * c)
}

/// One cached `(user, candidate-set)` block. Entries are keyed by user and
/// validated against the exact candidate list: a changed pool replaces the
/// entry instead of serving a stale block.
#[derive(Clone)]
pub(crate) struct CacheEntry {
    pub(crate) candidates: Vec<usize>,
    /// `K_C`.
    pub(crate) block: Matrix,
    pub(crate) last_used: u64,
}

impl CacheEntry {
    pub(crate) fn empty() -> Self {
        CacheEntry {
            // lint:allow(hotpath-alloc): empty placeholder built once per
            // cache slot; refills reuse the buffer via `fill`.
            candidates: Vec::new(),
            block: Matrix::zeros(0, 0),
            last_used: 0,
        }
    }

    /// Resident bytes of this entry (candidate list + block).
    pub(crate) fn bytes(&self) -> usize {
        8 * (self.candidates.len() + self.block.rows() * self.block.cols())
    }

    /// (Re)fills the entry for `candidates`, building into the reused
    /// matrix buffer.
    pub(crate) fn fill(&mut self, candidates: &[usize], kernel: &LowRankKernel, tick: u64) {
        self.candidates.clear();
        self.candidates.extend_from_slice(candidates);
        kernel
            .submatrix_into(candidates, &mut self.block)
            .expect("candidates validated by caller");
        self.last_used = tick;
    }
}

/// Evicts least-recently-used entries until the resident set fits `bound`
/// bytes — in one pass over the map, not one scan per eviction. All
/// `(last_used, user)` pairs are collected into `scratch`, sorted ascending
/// (ticks are unique per cache, so the order is total), and removed
/// oldest-first until `*bytes ≤ bound` — except the single newest entry,
/// which always survives: the hit path touches an entry and then re-reads it
/// after the shrink, so the freshest tick must stay resident even when one
/// entry alone exceeds the budget. After the call `scratch` holds the
/// evicted pairs in eviction order (oldest first) and `*bytes` the resident
/// total.
pub(crate) fn evict_lru(
    entries: &mut HashMap<usize, CacheEntry>,
    bytes: &mut usize,
    bound: usize,
    scratch: &mut Vec<(u64, usize)>,
) {
    scratch.clear();
    if *bytes <= bound {
        return;
    }
    scratch.extend(entries.iter().map(|(&user, e)| (e.last_used, user)));
    scratch.sort_unstable();
    let mut removed = 0;
    for &(_, user) in scratch.iter() {
        if *bytes <= bound || entries.len() == 1 {
            break;
        }
        let entry = entries.remove(&user).expect("listed resident entry");
        *bytes -= entry.bytes();
        removed += 1;
    }
    scratch.truncate(removed);
}

/// Counters of one pool worker's kernel cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that paid the kernel-block build.
    pub misses: u64,
    /// Builds that deliberately bypassed a disabled cache
    /// (`kernel_cache_bytes = 0`) — counted separately so they cannot
    /// skew hit-rate reporting.
    pub bypasses: u64,
    /// Entries inserted by [`crate::Ranker::prewarm`] (not misses: the
    /// assembly was requested ahead of traffic, not forced by it).
    pub prewarmed: u64,
    /// Entries currently resident.
    pub resident: usize,
    /// Bytes currently resident (candidate lists + blocks); an entry costs
    /// `O(|C|²)`.
    pub resident_bytes: usize,
}

impl WorkerCacheStats {
    pub(crate) fn absorb(&mut self, other: &WorkerCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.bypasses += other.bypasses;
        self.prewarmed += other.prewarmed;
        self.resident += other.resident;
        self.resident_bytes += other.resident_bytes;
    }
}

/// Kernel-cache counters, per worker plus aggregate, as reported by
/// [`crate::Ranker::cache_stats_detailed`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// One row per pool worker (index = worker index; idle workers report a
    /// zero row without being materialized).
    pub per_worker: Vec<WorkerCacheStats>,
    /// Sum over `per_worker`.
    pub aggregate: WorkerCacheStats,
}

impl CacheStats {
    pub(crate) fn from_workers(per_worker: Vec<WorkerCacheStats>) -> Self {
        let mut aggregate = WorkerCacheStats::default();
        for s in &per_worker {
            aggregate.absorb(s);
        }
        CacheStats {
            per_worker,
            aggregate,
        }
    }

    /// `hits / (hits + misses)` over all workers (0 when no lookups ran).
    pub fn hit_rate(&self) -> f64 {
        let looked = self.aggregate.hits + self.aggregate.misses;
        if looked == 0 {
            0.0
        } else {
            self.aggregate.hits as f64 / looked as f64
        }
    }
}
