//! The per-worker (lock-free) kernel cache.

use super::{entry_bytes, evict_lru, CacheEntry, WorkerCacheStats};
use lkp_dpp::LowRankKernel;
use lkp_linalg::Matrix;
use std::collections::HashMap;

/// A bounded per-user cache of candidate-set kernel blocks `K_C`, owned by
/// one pool worker (no locks).
///
/// Eviction is least-recently-used over a **byte** budget, and every call
/// shrinks the cache **down to** the current `budget` — so lowering the
/// budget of a long-lived cache takes effect on the next access instead of
/// leaving it permanently over its bound.
#[derive(Default)]
pub(crate) struct KernelCache {
    entries: HashMap<usize, CacheEntry>,
    /// Resident bytes across `entries` (kept in lockstep by fill/evict).
    bytes: usize,
    /// Build target when caching is disabled (`budget == 0`).
    uncached: Matrix,
    /// Eviction scratch: reused by [`evict_lru`], retains the pairs evicted
    /// by the most recent shrink (oldest first).
    evicted: Vec<(u64, usize)>,
    tick: u64,
    hits: u64,
    misses: u64,
    /// `budget == 0` passthrough builds — deliberate cache bypasses,
    /// counted separately so they cannot skew hit-rate reporting.
    bypasses: u64,
    /// Entries inserted by prewarming (not misses).
    prewarmed: u64,
}

impl KernelCache {
    /// Returns the kernel block for `(user, candidates)` and whether it was
    /// served from cache. `budget` is this worker's byte budget.
    pub(crate) fn get_or_build(
        &mut self,
        user: usize,
        candidates: &[usize],
        kernel: &LowRankKernel,
        budget: usize,
    ) -> (&Matrix, bool) {
        self.tick += 1;
        if budget == 0 {
            // Caching disabled: a deliberate bypass, not a miss — entries
            // from an earlier non-zero budget are dropped eagerly.
            self.bypasses += 1;
            self.entries.clear();
            self.bytes = 0;
            kernel
                .submatrix_into(candidates, &mut self.uncached)
                .expect("candidates validated by caller");
            return (&self.uncached, false);
        }
        if let Some(entry) = self.entries.get_mut(&user) {
            if entry.candidates == candidates {
                entry.last_used = self.tick;
                self.hits += 1;
                // The hit has the newest tick, so it survives the shrink at
                // any budget even if the budget was just lowered.
                evict_lru(
                    &mut self.entries,
                    &mut self.bytes,
                    budget,
                    &mut self.evicted,
                );
                let entry = &self.entries[&user];
                return (&entry.block, true);
            }
        }
        self.misses += 1;
        self.fill_entry(user, candidates, kernel);
        evict_lru(
            &mut self.entries,
            &mut self.bytes,
            budget,
            &mut self.evicted,
        );
        (&self.entries[&user].block, false)
    }

    /// (Re)builds `user`'s entry, keeping the byte ledger in lockstep.
    fn fill_entry(&mut self, user: usize, candidates: &[usize], kernel: &LowRankKernel) {
        let tick = self.tick;
        let entry = self.entries.entry(user).or_insert_with(CacheEntry::empty);
        let old = entry.bytes();
        entry.fill(candidates, kernel, tick);
        let new = entry.bytes();
        self.bytes = self.bytes - old + new;
    }

    /// Inserts `(user, candidates)` ahead of traffic. Counts as a prewarm,
    /// not a miss, and is strictly *monotone*: it only fills empty budget
    /// (touching an already-resident matching entry), never evicting or
    /// overwriting a resident entry — a full cache refuses new users and a
    /// resident user with a different pool keeps its pool. Anything else
    /// would silently break the "first request hits" guarantee for a pair
    /// an earlier prewarm already reported warmed. The prospective entry is
    /// sized *before* assembly, so a refusal costs `O(1)`; only an accepted
    /// pair calls `fill`, which must leave the entry holding `candidates`'
    /// block. Returns whether the pair is warm (resident with exactly these
    /// candidates) when the call returns — built now or already resident;
    /// only fresh insertions bump the `prewarmed` counter.
    pub(crate) fn prewarm_with(
        &mut self,
        user: usize,
        candidates: &[usize],
        budget: usize,
        fill: impl FnOnce(&mut CacheEntry),
    ) -> bool {
        if budget == 0 {
            return false;
        }
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&user) {
            if entry.candidates == candidates {
                entry.last_used = self.tick;
                return true;
            }
            return false;
        }
        if self.bytes + entry_bytes(candidates.len()) > budget {
            return false;
        }
        self.prewarmed += 1;
        let entry = self.entries.entry(user).or_insert_with(CacheEntry::empty);
        fill(entry);
        entry.last_used = self.tick;
        self.bytes += entry.bytes();
        true
    }

    /// [`KernelCache::prewarm_with`] assembling the block itself.
    #[cfg(test)]
    pub(crate) fn prewarm(
        &mut self,
        user: usize,
        candidates: &[usize],
        kernel: &LowRankKernel,
        budget: usize,
    ) -> bool {
        self.prewarm_with(user, candidates, budget, |entry| {
            entry.fill(candidates, kernel, 0)
        })
    }

    /// Replaces this worker's resident set with a clone of `staged` (the
    /// prewarmed template of a new artifact generation), retiring every
    /// old-generation entry. Traffic counters (`hits`/`misses`/`bypasses`)
    /// survive the swap — they describe the worker's lifetime, not one
    /// generation — while `prewarmed` absorbs the template's count once per
    /// worker (each worker really does hold its own warm copy). The tick
    /// clock only moves forward so adopted `last_used` stamps stay ordered
    /// against future accesses. Returns how many entries were retired.
    pub(crate) fn adopt(&mut self, staged: &KernelCache) -> usize {
        let retired = self.entries.len();
        self.entries.clear();
        for (&user, entry) in &staged.entries {
            self.entries.insert(user, entry.clone());
        }
        self.bytes = staged.bytes;
        self.tick = self.tick.max(staged.tick);
        self.prewarmed += staged.prewarmed;
        retired
    }

    /// Full counter row for aggregate reporting. Disabled-cache
    /// passthroughs (`budget == 0`) are counted as `bypasses`, not
    /// misses, so a hit rate derived from the row reflects only lookups the
    /// cache was actually allowed to serve.
    pub(crate) fn stats(&self) -> WorkerCacheStats {
        WorkerCacheStats {
            hits: self.hits,
            misses: self.misses,
            bypasses: self.bypasses,
            prewarmed: self.prewarmed,
            resident: self.entries.len(),
            resident_bytes: self.bytes,
        }
    }

    /// Resident users.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The `(last_used, user)` pairs evicted by the most recent shrink, in
    /// eviction order (oldest first).
    #[cfg(test)]
    pub(crate) fn last_evicted(&self) -> &[(u64, usize)] {
        &self.evicted
    }

    /// Whether `user` is resident (any candidate list).
    #[cfg(test)]
    pub(crate) fn contains(&self, user: usize) -> bool {
        self.entries.contains_key(&user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> LowRankKernel {
        let v = Matrix::from_fn(300, 3, |r, c| (((r * 7 + c * 5) % 9) as f64) * 0.3 - 1.0);
        LowRankKernel::new(v).normalized()
    }

    /// Byte budget that fits exactly `n` dense entries of `c` candidates.
    fn dense_budget(n: usize, c: usize) -> usize {
        n * entry_bytes(c)
    }

    #[test]
    fn hit_returns_bit_exact_matrix() {
        let kern = kernel();
        let mut cache = KernelCache::default();
        let cands = vec![1, 4, 7];
        let budget = dense_budget(4, 3);
        let (first, hit1) = cache.get_or_build(0, &cands, &kern, budget);
        let first = first.clone();
        assert!(!hit1);
        let (second, hit2) = cache.get_or_build(0, &cands, &kern, budget);
        assert!(hit2);
        assert_eq!(first.as_slice(), second.as_slice());
        let fresh = kern.submatrix(&cands).unwrap();
        assert_eq!(first.as_slice(), fresh.as_slice());
    }

    #[test]
    fn changed_candidates_invalidate_entry() {
        let kern = kernel();
        let mut cache = KernelCache::default();
        let budget = dense_budget(4, 2);
        cache.get_or_build(0, &[1, 2], &kern, budget);
        let (m, hit) = cache.get_or_build(0, &[2, 3], &kern, budget);
        assert!(!hit);
        assert_eq!(m.as_slice(), kern.submatrix(&[2, 3]).unwrap().as_slice());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_keeps_cache_bounded_and_lru() {
        let kern = kernel();
        let mut cache = KernelCache::default();
        let budget = dense_budget(2, 1);
        cache.get_or_build(0, &[1], &kern, budget);
        cache.get_or_build(1, &[2], &kern, budget);
        // Touch user 0 so user 1 is the LRU.
        cache.get_or_build(0, &[1], &kern, budget);
        cache.get_or_build(2, &[3], &kern, budget);
        assert_eq!(cache.len(), 2);
        let (_, hit_user0) = cache.get_or_build(0, &[1], &kern, budget);
        assert!(hit_user0, "recently used entry must survive eviction");
        let (_, hit_user1) = cache.get_or_build(1, &[2], &kern, budget);
        assert!(!hit_user1, "LRU entry must have been evicted");
    }

    #[test]
    fn zero_budget_disables_caching() {
        let kern = kernel();
        let mut cache = KernelCache::default();
        let (_, hit1) = cache.get_or_build(0, &[1, 2], &kern, 0);
        let (_, hit2) = cache.get_or_build(0, &[1, 2], &kern, 0);
        assert!(!hit1 && !hit2);
        assert_eq!(cache.len(), 0);
        // Deliberate bypasses must not read as misses in hit-rate stats.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        assert_eq!(stats.bypasses, 2);
        assert_eq!(stats.resident_bytes, 0);
    }

    #[test]
    fn lowering_budget_shrinks_an_over_full_cache() {
        let kern = kernel();
        let mut cache = KernelCache::default();
        let big = dense_budget(4, 2);
        let small = dense_budget(1, 2);
        for u in 0..4 {
            cache.get_or_build(u, &[u, u + 1], &kern, big);
        }
        assert_eq!(cache.len(), 4);
        // Budget lowered between calls: the next access (here a hit on
        // user 3) must evict down to the new bound, keeping the hit entry.
        let (_, hit) = cache.get_or_build(3, &[3, 4], &kern, small);
        assert!(hit, "the touched entry survives the shrink");
        assert_eq!(cache.len(), 1, "cache must come down to budget");
        // And a miss-path access under the lowered bound also stays bounded.
        cache.get_or_build(7, &[7, 8], &kern, small);
        assert_eq!(cache.len(), 1);
        let (_, hit7) = cache.get_or_build(7, &[7, 8], &kern, small);
        assert!(hit7, "the freshly inserted entry is the resident one");
    }

    #[test]
    fn sharp_budget_drop_evicts_in_one_pass_oldest_first() {
        // Regression: shrink used to rescan all entries once per eviction —
        // O(entries²) when the budget drops sharply. The one-pass path
        // must keep exactly the newest entries and report the evicted set
        // oldest-first. 256 entries → 4 is the shape from the bug report.
        let kern = kernel();
        let mut cache = KernelCache::default();
        let big = dense_budget(256, 1);
        for u in 0..256 {
            cache.get_or_build(u, &[u], &kern, big);
        }
        assert_eq!(cache.len(), 256);
        // The shrink happens on the next access; touch user 255 (a hit, so
        // it carries the newest tick) under the new bound.
        let (_, hit) = cache.get_or_build(255, &[255], &kern, dense_budget(4, 1));
        assert!(hit);
        assert_eq!(cache.len(), 4);
        // Survivors: the 4 newest ticks = users 253, 254, 255 (touched
        // twice) and 252 — insertion ticks were 1..=256, the touch is 257.
        for survivor in [252, 253, 254, 255] {
            assert!(cache.contains(survivor), "user {survivor} must survive");
        }
        // Eviction order: strictly ascending last_used ticks, i.e. users
        // 0, 1, …, 251 in insertion order.
        let evicted = cache.last_evicted().to_vec();
        assert_eq!(evicted.len(), 252);
        assert!(
            evicted.windows(2).all(|w| w[0].0 < w[1].0),
            "evictions must run oldest-first"
        );
        assert_eq!(
            evicted.iter().map(|&(_, u)| u).collect::<Vec<_>>(),
            (0..252).collect::<Vec<_>>()
        );
    }

    #[test]
    fn oversized_single_entry_stays_resident() {
        // One entry bigger than the whole budget: the newest entry is never
        // evicted (the hit path re-reads it after the shrink), so it stays —
        // alone — and the next distinct user displaces it.
        let kern = kernel();
        let mut cache = KernelCache::default();
        let tiny = 16; // smaller than any entry
        let (_, hit) = cache.get_or_build(0, &[1, 2, 3], &kern, tiny);
        assert!(!hit);
        assert_eq!(cache.len(), 1);
        let (_, hit0) = cache.get_or_build(0, &[1, 2, 3], &kern, tiny);
        assert!(hit0, "sole oversized entry still serves hits");
        cache.get_or_build(1, &[4, 5, 6], &kern, tiny);
        assert_eq!(cache.len(), 1, "newest entry displaced the oversized one");
        assert!(cache.contains(1));
    }

    #[test]
    fn toggling_budget_to_zero_drops_residents() {
        let kern = kernel();
        let mut cache = KernelCache::default();
        let budget = dense_budget(4, 2);
        cache.get_or_build(0, &[1, 2], &kern, budget);
        assert_eq!(cache.len(), 1);
        cache.get_or_build(0, &[1, 2], &kern, 0);
        assert_eq!(cache.len(), 0, "disabled cache must not retain entries");
        // Re-enabling starts cold.
        let (_, hit) = cache.get_or_build(0, &[1, 2], &kern, budget);
        assert!(!hit);
    }

    #[test]
    fn prewarm_inserts_without_counting_misses() {
        let kern = kernel();
        let mut cache = KernelCache::default();
        let budget = dense_budget(4, 2);
        assert!(cache.prewarm(3, &[1, 4], &kern, budget));
        // Re-prewarming a resident pair reports it warm without a second
        // assembly, and a resident user is never overwritten by a
        // different pool.
        assert!(cache.prewarm(3, &[1, 4], &kern, budget));
        assert!(!cache.prewarm(3, &[2, 6], &kern, budget));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        assert_eq!(stats.prewarmed, 1);
        // Traffic on the prewarmed pair is a pure hit.
        let (m, hit) = cache.get_or_build(3, &[1, 4], &kern, budget);
        assert!(hit);
        assert_eq!(m.as_slice(), kern.submatrix(&[1, 4]).unwrap().as_slice());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
        // Disabled cache ignores prewarm.
        assert!(!cache.prewarm(9, &[2], &kern, 0));
    }

    #[test]
    fn prewarm_overflow_refuses_instead_of_evicting() {
        // A plan larger than the budget must warm a prefix and keep it —
        // not churn the warm set so that *no* pair survives.
        let kern = kernel();
        let mut cache = KernelCache::default();
        let budget = dense_budget(3, 2);
        let warmed = (0..8)
            .filter(|&u| cache.prewarm(u, &[u, u + 1], &kern, budget))
            .count();
        assert_eq!(warmed, 3, "only the first `budget / entry` pairs fit");
        assert_eq!(cache.len(), 3);
        for u in 0..3 {
            let (_, hit) = cache.get_or_build(u, &[u, u + 1], &kern, budget);
            assert!(hit, "accepted pair {u} must keep its first-request hit");
        }
    }

    #[test]
    fn prewarm_refusal_is_sized_before_assembly() {
        // The byte check sizes the prospective entry before assembling it:
        // one byte-element short of a 20-candidate entry refuses, the exact
        // size accepts.
        let kern = kernel();
        let cands: Vec<usize> = (0..20).collect();
        let mut short = KernelCache::default();
        assert!(!short.prewarm(0, &cands, &kern, entry_bytes(20) - 8));
        assert_eq!(short.len(), 0);
        let mut exact = KernelCache::default();
        assert!(exact.prewarm(0, &cands, &kern, entry_bytes(20)));
        assert_eq!(exact.len(), 1);
        assert_eq!(exact.stats().resident_bytes, entry_bytes(20));
    }
}
