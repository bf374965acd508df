//! The per-worker (lock-free) kernel cache.

use super::{entry_bytes, evict_lru, CacheEntry, EntryForm, WorkerCacheStats};
use lkp_dpp::LowRankKernel;
use lkp_linalg::Matrix;
use std::collections::HashMap;

/// A bounded per-user cache of candidate-set kernel blocks (dense `K_C` or
/// factor `V_C`, see [`EntryForm`]), owned by one pool worker (no locks).
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
    /// Returns the kernel block for `(user, candidates)` in `form` and
    /// whether it was served from cache. `budget` is this worker's byte
    /// budget.
    pub(crate) fn get_or_build(
        &mut self,
        user: usize,
        candidates: &[usize],
        kernel: &LowRankKernel,
        budget: usize,
        form: EntryForm,
    ) -> (&Matrix, bool) {
        self.tick += 1;
        if budget == 0 {
            // Caching disabled: a deliberate bypass, not a miss — entries
            // from an earlier non-zero budget are dropped eagerly.
            self.bypasses += 1;
            self.entries.clear();
            self.bytes = 0;
            match form {
                EntryForm::Dense => kernel.submatrix_into(candidates, &mut self.uncached),
                EntryForm::Factor => kernel.gather_rows_into(candidates, &mut self.uncached),
            }
            .expect("candidates validated by caller");
            return (&self.uncached, false);
        }
        if let Some(entry) = self.entries.get_mut(&user) {
            if entry.candidates == candidates && entry.form == form {
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
        self.fill_entry(user, candidates, kernel, form);
        evict_lru(
            &mut self.entries,
            &mut self.bytes,
            budget,
            &mut self.evicted,
        );
        (&self.entries[&user].block, false)
    }

    /// (Re)builds `user`'s entry, keeping the byte ledger in lockstep.
    fn fill_entry(
        &mut self,
        user: usize,
        candidates: &[usize],
        kernel: &LowRankKernel,
        form: EntryForm,
    ) {
        let tick = self.tick;
        let entry = self.entries.entry(user).or_insert_with(CacheEntry::empty);
        let old = entry.bytes();
        entry.fill(candidates, kernel, form, tick);
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
    /// sized *before* assembly (`d` is the kernel rank), so a refusal costs
    /// `O(1)`; only an accepted pair calls `fill`, which must leave the
    /// entry holding `candidates`' block in `form`. Returns whether the pair
    /// is warm (resident with exactly these candidates in `form`) when the
    /// call returns — built now or already resident; only fresh insertions
    /// bump the `prewarmed` counter.
    pub(crate) fn prewarm_with(
        &mut self,
        user: usize,
        candidates: &[usize],
        d: usize,
        budget: usize,
        form: EntryForm,
        fill: impl FnOnce(&mut CacheEntry),
    ) -> bool {
        if budget == 0 {
            return false;
        }
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&user) {
            if entry.candidates == candidates && entry.form == form {
                entry.last_used = self.tick;
                return true;
            }
            return false;
        }
        if self.bytes + entry_bytes(form, candidates.len(), d) > budget {
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
        form: EntryForm,
    ) -> bool {
        self.prewarm_with(user, candidates, kernel.dim(), budget, form, |entry| {
            entry.fill(candidates, kernel, form, 0)
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

    /// Resident bytes.
    #[cfg(test)]
    pub(crate) fn resident_bytes(&self) -> usize {
        self.bytes
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
        n * entry_bytes(EntryForm::Dense, c, 0)
    }

    #[test]
    fn hit_returns_bit_exact_matrix() {
        let kern = kernel();
        let mut cache = KernelCache::default();
        let cands = vec![1, 4, 7];
        let budget = dense_budget(4, 3);
        let (first, hit1) = cache.get_or_build(0, &cands, &kern, budget, EntryForm::Dense);
        let first = first.clone();
        assert!(!hit1);
        let (second, hit2) = cache.get_or_build(0, &cands, &kern, budget, EntryForm::Dense);
        assert!(hit2);
        assert_eq!(first.as_slice(), second.as_slice());
        let fresh = kern.submatrix(&cands).unwrap();
        assert_eq!(first.as_slice(), fresh.as_slice());
    }

    #[test]
    fn factor_hit_returns_bit_exact_rows() {
        let kern = kernel();
        let mut cache = KernelCache::default();
        let cands = vec![2, 9, 31, 4];
        let budget = 1 << 20;
        let (first, hit1) = cache.get_or_build(0, &cands, &kern, budget, EntryForm::Factor);
        assert!(!hit1);
        assert_eq!((first.rows(), first.cols()), (4, kern.dim()));
        let first = first.clone();
        let (second, hit2) = cache.get_or_build(0, &cands, &kern, budget, EntryForm::Factor);
        assert!(hit2);
        assert_eq!(first.as_slice(), second.as_slice());
        for (r, &i) in cands.iter().enumerate() {
            assert_eq!(first.row(r), kern.factor().row(i));
        }
    }

    #[test]
    fn form_flip_invalidates_entry() {
        // Same user, same candidates, other form: must rebuild, not serve
        // the wrong-shaped block.
        let kern = kernel();
        let mut cache = KernelCache::default();
        let cands = vec![1, 2, 3];
        let budget = 1 << 20;
        cache.get_or_build(0, &cands, &kern, budget, EntryForm::Dense);
        let (m, hit) = cache.get_or_build(0, &cands, &kern, budget, EntryForm::Factor);
        assert!(!hit);
        assert_eq!((m.rows(), m.cols()), (3, kern.dim()));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn changed_candidates_invalidate_entry() {
        let kern = kernel();
        let mut cache = KernelCache::default();
        let budget = dense_budget(4, 2);
        cache.get_or_build(0, &[1, 2], &kern, budget, EntryForm::Dense);
        let (m, hit) = cache.get_or_build(0, &[2, 3], &kern, budget, EntryForm::Dense);
        assert!(!hit);
        assert_eq!(m.as_slice(), kern.submatrix(&[2, 3]).unwrap().as_slice());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_keeps_cache_bounded_and_lru() {
        let kern = kernel();
        let mut cache = KernelCache::default();
        let budget = dense_budget(2, 1);
        cache.get_or_build(0, &[1], &kern, budget, EntryForm::Dense);
        cache.get_or_build(1, &[2], &kern, budget, EntryForm::Dense);
        // Touch user 0 so user 1 is the LRU.
        cache.get_or_build(0, &[1], &kern, budget, EntryForm::Dense);
        cache.get_or_build(2, &[3], &kern, budget, EntryForm::Dense);
        assert_eq!(cache.len(), 2);
        let (_, hit_user0) = cache.get_or_build(0, &[1], &kern, budget, EntryForm::Dense);
        assert!(hit_user0, "recently used entry must survive eviction");
        let (_, hit_user1) = cache.get_or_build(1, &[2], &kern, budget, EntryForm::Dense);
        assert!(!hit_user1, "LRU entry must have been evicted");
    }

    #[test]
    fn byte_budget_holds_more_factor_than_dense_entries() {
        // The satellite regression: with entry-count capacity a |C|×d factor
        // entry used to cost a |C|×|C| dense-entry slot. Under a byte budget
        // sized for 2 dense entries of 20 candidates, the same budget must
        // hold many 20×3 factor entries (3360 vs 544 bytes here).
        let kern = kernel();
        let budget = dense_budget(2, 20);
        let pool = |u: usize| -> Vec<usize> { (0..20).map(|i| (u * 20 + i) % 300).collect() };

        let mut dense = KernelCache::default();
        for u in 0..4 {
            dense.get_or_build(u, &pool(u), &kern, budget, EntryForm::Dense);
        }
        assert_eq!(dense.len(), 2, "budget fits exactly 2 dense entries");
        assert!(dense.resident_bytes() <= budget);

        let fits = budget / entry_bytes(EntryForm::Factor, 20, kern.dim());
        assert_eq!(fits, 10, "this budget holds 10 factor entries (vs 2 dense)");
        let mut factor = KernelCache::default();
        for u in 0..fits {
            factor.get_or_build(u, &pool(u), &kern, budget, EntryForm::Factor);
        }
        assert_eq!(
            factor.len(),
            fits,
            "no factor entry evicted under the budget"
        );
        assert!(factor.resident_bytes() <= budget);
        // All still hit — none was charged a dense-entry slot.
        for u in 0..fits {
            let (_, hit) = factor.get_or_build(u, &pool(u), &kern, budget, EntryForm::Factor);
            assert!(hit, "factor entry {u} must still be resident");
        }

        // Mixed residency: a dense entry coexists with factor entries as
        // long as the *bytes* fit, and evicting it frees its full size.
        let mut mixed = KernelCache::default();
        mixed.get_or_build(0, &pool(0), &kern, budget, EntryForm::Dense);
        let before = mixed.resident_bytes();
        for u in 1..=3 {
            mixed.get_or_build(u, &pool(u), &kern, budget, EntryForm::Factor);
        }
        assert_eq!(mixed.len(), 4, "dense + 3 factor fit the 2-dense budget");
        assert_eq!(
            mixed.resident_bytes(),
            before + 3 * entry_bytes(EntryForm::Factor, 20, kern.dim())
        );
    }

    #[test]
    fn zero_budget_disables_caching() {
        let kern = kernel();
        let mut cache = KernelCache::default();
        let (_, hit1) = cache.get_or_build(0, &[1, 2], &kern, 0, EntryForm::Dense);
        let (_, hit2) = cache.get_or_build(0, &[1, 2], &kern, 0, EntryForm::Dense);
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
            cache.get_or_build(u, &[u, u + 1], &kern, big, EntryForm::Dense);
        }
        assert_eq!(cache.len(), 4);
        // Budget lowered between calls: the next access (here a hit on
        // user 3) must evict down to the new bound, keeping the hit entry.
        let (_, hit) = cache.get_or_build(3, &[3, 4], &kern, small, EntryForm::Dense);
        assert!(hit, "the touched entry survives the shrink");
        assert_eq!(cache.len(), 1, "cache must come down to budget");
        // And a miss-path access under the lowered bound also stays bounded.
        cache.get_or_build(7, &[7, 8], &kern, small, EntryForm::Dense);
        assert_eq!(cache.len(), 1);
        let (_, hit7) = cache.get_or_build(7, &[7, 8], &kern, small, EntryForm::Dense);
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
            cache.get_or_build(u, &[u], &kern, big, EntryForm::Dense);
        }
        assert_eq!(cache.len(), 256);
        // The shrink happens on the next access; touch user 255 (a hit, so
        // it carries the newest tick) under the new bound.
        let (_, hit) = cache.get_or_build(255, &[255], &kern, dense_budget(4, 1), EntryForm::Dense);
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
        let (_, hit) = cache.get_or_build(0, &[1, 2, 3], &kern, tiny, EntryForm::Dense);
        assert!(!hit);
        assert_eq!(cache.len(), 1);
        let (_, hit0) = cache.get_or_build(0, &[1, 2, 3], &kern, tiny, EntryForm::Dense);
        assert!(hit0, "sole oversized entry still serves hits");
        cache.get_or_build(1, &[4, 5, 6], &kern, tiny, EntryForm::Dense);
        assert_eq!(cache.len(), 1, "newest entry displaced the oversized one");
        assert!(cache.contains(1));
    }

    #[test]
    fn toggling_budget_to_zero_drops_residents() {
        let kern = kernel();
        let mut cache = KernelCache::default();
        let budget = dense_budget(4, 2);
        cache.get_or_build(0, &[1, 2], &kern, budget, EntryForm::Dense);
        assert_eq!(cache.len(), 1);
        cache.get_or_build(0, &[1, 2], &kern, 0, EntryForm::Dense);
        assert_eq!(cache.len(), 0, "disabled cache must not retain entries");
        // Re-enabling starts cold.
        let (_, hit) = cache.get_or_build(0, &[1, 2], &kern, budget, EntryForm::Dense);
        assert!(!hit);
    }

    #[test]
    fn prewarm_inserts_without_counting_misses() {
        let kern = kernel();
        let mut cache = KernelCache::default();
        let budget = dense_budget(4, 2);
        assert!(cache.prewarm(3, &[1, 4], &kern, budget, EntryForm::Dense));
        // Re-prewarming a resident pair reports it warm without a second
        // assembly, and a resident user is never overwritten by a
        // different pool.
        assert!(cache.prewarm(3, &[1, 4], &kern, budget, EntryForm::Dense));
        assert!(!cache.prewarm(3, &[2, 6], &kern, budget, EntryForm::Dense));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        assert_eq!(stats.prewarmed, 1);
        // Traffic on the prewarmed pair is a pure hit.
        let (m, hit) = cache.get_or_build(3, &[1, 4], &kern, budget, EntryForm::Dense);
        assert!(hit);
        assert_eq!(m.as_slice(), kern.submatrix(&[1, 4]).unwrap().as_slice());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
        // Disabled cache ignores prewarm.
        assert!(!cache.prewarm(9, &[2], &kern, 0, EntryForm::Dense));
    }

    #[test]
    fn prewarm_overflow_refuses_instead_of_evicting() {
        // A plan larger than the budget must warm a prefix and keep it —
        // not churn the warm set so that *no* pair survives.
        let kern = kernel();
        let mut cache = KernelCache::default();
        let budget = dense_budget(3, 2);
        let warmed = (0..8)
            .filter(|&u| cache.prewarm(u, &[u, u + 1], &kern, budget, EntryForm::Dense))
            .count();
        assert_eq!(warmed, 3, "only the first `budget / entry` pairs fit");
        assert_eq!(cache.len(), 3);
        for u in 0..3 {
            let (_, hit) = cache.get_or_build(u, &[u, u + 1], &kern, budget, EntryForm::Dense);
            assert!(hit, "accepted pair {u} must keep its first-request hit");
        }
    }

    #[test]
    fn prewarm_refusal_is_sized_before_assembly() {
        // A factor prewarm fits where a dense one refuses: the byte check
        // uses the prospective entry's form.
        let kern = kernel();
        let mut cache = KernelCache::default();
        let cands: Vec<usize> = (0..20).collect();
        let budget = entry_bytes(EntryForm::Factor, 20, kern.dim()) + 8;
        assert!(!cache.prewarm(0, &cands, &kern, budget, EntryForm::Dense));
        assert!(cache.prewarm(0, &cands, &kern, budget, EntryForm::Factor));
        assert_eq!(cache.len(), 1);
    }
}
