//! The in-memory implicit-feedback dataset.

use rand::seq::SliceRandom;
use rand::Rng;

/// Which of the three per-user interaction partitions to address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// 70% of each user's interactions (chronological order preserved).
    Train,
    /// 10% held out for hyperparameter selection / early stopping.
    Validation,
    /// 20% held out as ranking ground truth.
    Test,
}

/// An implicit-feedback dataset with item categories and a per-user
/// train/validation/test split.
///
/// Items and users are dense `usize` ids. Train interactions preserve the
/// order in which they occurred, which the S-mode instance sampler relies on.
#[derive(Debug, Clone)]
pub struct Dataset {
    n_users: usize,
    n_items: usize,
    n_categories: usize,
    item_category: Vec<usize>,
    train: Vec<Vec<usize>>,
    validation: Vec<Vec<usize>>,
    test: Vec<Vec<usize>>,
    /// All observed items per user (train ∪ validation ∪ test), sorted, for
    /// O(log) membership tests during negative sampling.
    observed_sorted: Vec<Vec<usize>>,
}

impl Dataset {
    /// Builds a dataset from per-user chronological interaction lists and an
    /// item→category map, applying the paper's random 70/10/20 split.
    ///
    /// Duplicated items within a user's list are dropped (implicit feedback
    /// is binary). Users keep their chronological order within the train
    /// partition even though the partition membership is random, matching
    /// "randomly select 20% … for testing" while the sliding-window sampler
    /// still sees items "in the order they occurred".
    pub fn from_interactions<R: Rng + ?Sized>(
        interactions: Vec<Vec<usize>>,
        item_category: Vec<usize>,
        n_categories: usize,
        rng: &mut R,
    ) -> Self {
        let n_users = interactions.len();
        let n_items = item_category.len();
        for cats in &item_category {
            assert!(*cats < n_categories, "item category out of range");
        }
        let mut train = Vec::with_capacity(n_users);
        let mut validation = Vec::with_capacity(n_users);
        let mut test = Vec::with_capacity(n_users);
        let mut observed_sorted = Vec::with_capacity(n_users);
        for items in interactions {
            // Deduplicate, preserving first-occurrence order.
            let mut seen = vec![];
            let mut uniq = Vec::with_capacity(items.len());
            for i in items {
                assert!(i < n_items, "interaction references unknown item {i}");
                if !seen.contains(&i) {
                    seen.push(i);
                    uniq.push(i);
                }
            }
            let n = uniq.len();
            // Random partition of positions: 20% test, 10% validation, rest train.
            let mut positions: Vec<usize> = (0..n).collect();
            positions.shuffle(rng);
            let n_test = (n as f64 * 0.2).round() as usize;
            let n_val = (n as f64 * 0.1).round() as usize;
            let mut is_test = vec![false; n];
            let mut is_val = vec![false; n];
            for &p in positions.iter().take(n_test) {
                is_test[p] = true;
            }
            for &p in positions.iter().skip(n_test).take(n_val) {
                is_val[p] = true;
            }
            let mut tr = Vec::with_capacity(n - n_test - n_val);
            let mut va = Vec::with_capacity(n_val);
            let mut te = Vec::with_capacity(n_test);
            for (pos, &item) in uniq.iter().enumerate() {
                if is_test[pos] {
                    te.push(item);
                } else if is_val[pos] {
                    va.push(item);
                } else {
                    tr.push(item);
                }
            }
            let mut all = uniq.clone();
            all.sort_unstable();
            train.push(tr);
            validation.push(va);
            test.push(te);
            observed_sorted.push(all);
        }
        Dataset {
            n_users,
            n_items,
            n_categories,
            item_category,
            train,
            validation,
            test,
            observed_sorted,
        }
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of items.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of item categories.
    pub fn n_categories(&self) -> usize {
        self.n_categories
    }

    /// Category of an item.
    pub fn category(&self, item: usize) -> usize {
        self.item_category[item]
    }

    /// A user's interactions in the given split (train is chronological).
    pub fn user_items(&self, user: usize, split: Split) -> &[usize] {
        match split {
            Split::Train => &self.train[user],
            Split::Validation => &self.validation[user],
            Split::Test => &self.test[user],
        }
    }

    /// Whether `item` was observed by `user` in *any* split.
    pub fn is_observed(&self, user: usize, item: usize) -> bool {
        self.observed_sorted[user].binary_search(&item).is_ok()
    }

    /// Whether `item` is in the user's train or validation split — the
    /// exclusion set when ranking for test-time evaluation.
    pub fn is_seen_before_test(&self, user: usize, item: usize) -> bool {
        self.train[user].contains(&item) || self.validation[user].contains(&item)
    }

    /// Total interaction count across all splits.
    pub fn n_interactions(&self) -> usize {
        self.observed_sorted.iter().map(|v| v.len()).sum()
    }

    /// All `(user, item)` train edges — the graph GCN/GCMC propagate over.
    pub fn train_edges(&self) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for (u, items) in self.train.iter().enumerate() {
            for &i in items {
                edges.push((u, i));
            }
        }
        edges
    }

    /// Samples an item the user has never interacted with (uniformly).
    ///
    /// Panics if the user has observed every item (cannot happen for real
    /// configurations; guarded in debug builds).
    pub fn sample_negative<R: Rng + ?Sized>(&self, user: usize, rng: &mut R) -> usize {
        debug_assert!(
            self.observed_sorted[user].len() < self.n_items,
            "user {user} observed the whole catalog"
        );
        loop {
            let item = rng.random_range(0..self.n_items);
            if !self.is_observed(user, item) {
                return item;
            }
        }
    }

    /// Samples `n` distinct unobserved items for the user.
    ///
    /// Convenience wrapper that builds a fresh [`NegativeMask`] per call;
    /// hot loops (the epoch planner, samplers) should hold a mask and use
    /// [`Dataset::sample_negatives_avoiding_into`] so the membership
    /// structure is reused across instances.
    pub fn sample_negatives<R: Rng + ?Sized>(
        &self,
        user: usize,
        n: usize,
        rng: &mut R,
    ) -> Vec<usize> {
        let mut out = Vec::with_capacity(n);
        let mut mask = NegativeMask::default();
        self.sample_negatives_avoiding_into(user, n, &[], rng, &mut mask, &mut out);
        out
    }

    /// Appends `n` distinct unobserved items for `user` to `out`, also
    /// avoiding everything in `avoid` (typically the instance's positives).
    ///
    /// Membership of already-drawn candidates is tracked in the caller's
    /// reusable [`NegativeMask`] — an `O(1)` bitset test per draw — so large
    /// ground sets cost `O(n)` expected draws instead of the `O(n²)`
    /// rejection scan a `Vec::contains` check degrades to. The draw sequence
    /// (and therefore the RNG stream) is identical to the historical scan:
    /// a candidate is rejected exactly when it is already drawn or avoided.
    pub fn sample_negatives_avoiding_into<R: Rng + ?Sized>(
        &self,
        user: usize,
        n: usize,
        avoid: &[usize],
        rng: &mut R,
        mask: &mut NegativeMask,
        out: &mut Vec<usize>,
    ) {
        mask.prepare(self.n_items);
        for &item in avoid {
            mask.mark(item);
        }
        self.sample_negatives_masked_into(user, n, rng, mask, out);
    }

    /// Appends `n` distinct unobserved items to `out`, rejecting anything
    /// already marked in `mask` (and marking each accepted draw). The caller
    /// must have [`NegativeMask::prepare`]d the mask and marked the items to
    /// avoid — this low-level form lets the epoch planner sample straight
    /// into a flat arena whose earlier entries can't be re-borrowed.
    pub fn sample_negatives_masked_into<R: Rng + ?Sized>(
        &self,
        user: usize,
        n: usize,
        rng: &mut R,
        mask: &mut NegativeMask,
        out: &mut Vec<usize>,
    ) {
        let mut drawn = 0;
        while drawn < n {
            let cand = self.sample_negative(user, rng);
            if mask.mark(cand) {
                out.push(cand);
                drawn += 1;
            }
        }
    }

    /// Applies a [`crate::delta::DatasetDelta`], returning the merged
    /// dataset and a [`crate::delta::DeltaSummary`] of what changed.
    ///
    /// Accepted events append to the **train split only**, in arrival order
    /// (the sliding-window sampler keeps seeing interactions "in the order
    /// they occurred"); validation and test stay frozen so metrics computed
    /// before and after a refresh rank the same held-out items. Events whose
    /// item the user already observed in *any* split are dropped — implicit
    /// feedback is binary. User ids past the current population extend it
    /// (ids in a gap become empty users); the item catalog is fixed because
    /// the serving artifact's kernel shape must survive the refresh.
    ///
    /// # Panics
    /// If an event references an item outside the catalog.
    pub fn merge_delta(
        &self,
        delta: &crate::delta::DatasetDelta,
    ) -> (Dataset, crate::delta::DeltaSummary) {
        let mut merged = self.clone();
        let mut changed: Vec<usize> = Vec::new();
        let mut accepted = 0usize;
        if let Some(max_user) = delta.events().iter().map(|&(u, _)| u).max() {
            while merged.n_users <= max_user {
                merged.train.push(Vec::new());
                merged.validation.push(Vec::new());
                merged.test.push(Vec::new());
                merged.observed_sorted.push(Vec::new());
                merged.n_users += 1;
            }
        }
        let new_users = merged.n_users - self.n_users;
        for &(user, item) in delta.events() {
            assert!(
                item < merged.n_items,
                "delta references item {item} outside the catalog of {} — the refresh \
                 pipeline preserves the artifact's catalog shape",
                merged.n_items
            );
            let observed = &mut merged.observed_sorted[user];
            if let Err(pos) = observed.binary_search(&item) {
                observed.insert(pos, item);
                merged.train[user].push(item);
                accepted += 1;
                changed.push(user);
            }
        }
        changed.extend(self.n_users..merged.n_users);
        changed.sort_unstable();
        changed.dedup();
        (
            merged,
            crate::delta::DeltaSummary::from_parts(changed, new_users, accepted),
        )
    }

    /// Number of distinct categories covered by a set of items.
    pub fn category_coverage(&self, items: &[usize]) -> usize {
        let mut seen = vec![false; self.n_categories];
        let mut count = 0;
        for &i in items {
            let c = self.item_category[i];
            if !seen[c] {
                seen[c] = true;
                count += 1;
            }
        }
        count
    }
}

/// Reusable bitset over item ids for rejection-free membership tests during
/// negative sampling.
///
/// Clearing is `O(touched)` — only the words actually written since the last
/// [`NegativeMask::prepare`] are zeroed — so per-instance reuse costs
/// `O(k + n)` regardless of catalog size, while the one-time backing
/// allocation is `n_items / 8` bytes.
#[derive(Debug, Clone, Default)]
pub struct NegativeMask {
    words: Vec<u64>,
    /// Indices of words with at least one set bit (cleared lazily).
    touched: Vec<usize>,
}

impl NegativeMask {
    /// Creates an empty mask (backing storage grows on first `prepare`).
    pub fn new() -> Self {
        NegativeMask::default()
    }

    /// Sizes the mask for a catalog of `n_items` and clears every mark.
    pub fn prepare(&mut self, n_items: usize) {
        let words = n_items.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
        for &w in &self.touched {
            self.words[w] = 0;
        }
        self.touched.clear();
    }

    /// Marks `item`; returns `true` when it was not already marked.
    pub fn mark(&mut self, item: usize) -> bool {
        let (word, bit) = (item / 64, 1u64 << (item % 64));
        let slot = &mut self.words[word];
        if *slot & bit != 0 {
            return false;
        }
        if *slot == 0 {
            self.touched.push(word);
        }
        *slot |= bit;
        true
    }

    /// Whether `item` is currently marked.
    pub fn contains(&self, item: usize) -> bool {
        self.words
            .get(item / 64)
            .is_some_and(|w| w & (1 << (item % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_dataset() -> Dataset {
        let mut rng = StdRng::seed_from_u64(5);
        // 3 users over 10 items in 3 categories.
        let interactions = vec![
            vec![0, 1, 2, 3, 4, 5, 6, 7],
            vec![2, 3, 9, 8],
            vec![0, 5, 9, 1, 2, 6],
        ];
        let cats = vec![0, 0, 1, 1, 1, 2, 2, 2, 0, 1];
        Dataset::from_interactions(interactions, cats, 3, &mut rng)
    }

    #[test]
    fn split_partitions_each_user() {
        let d = tiny_dataset();
        for u in 0..d.n_users() {
            let tr = d.user_items(u, Split::Train);
            let va = d.user_items(u, Split::Validation);
            let te = d.user_items(u, Split::Test);
            let total = tr.len() + va.len() + te.len();
            let mut all: Vec<usize> = tr.iter().chain(va).chain(te).copied().collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), total, "splits overlap for user {u}");
            // Every item in a split is observed.
            for &i in &all {
                assert!(d.is_observed(u, i));
            }
        }
    }

    #[test]
    fn split_ratios_are_approximately_70_10_20() {
        let mut rng = StdRng::seed_from_u64(1);
        let interactions = vec![(0..100).collect::<Vec<_>>()];
        let cats = vec![0; 100];
        let d = Dataset::from_interactions(interactions, cats, 1, &mut rng);
        assert_eq!(d.user_items(0, Split::Test).len(), 20);
        assert_eq!(d.user_items(0, Split::Validation).len(), 10);
        assert_eq!(d.user_items(0, Split::Train).len(), 70);
    }

    #[test]
    fn train_preserves_chronological_order() {
        let mut rng = StdRng::seed_from_u64(2);
        let items: Vec<usize> = (0..50).collect();
        let d = Dataset::from_interactions(vec![items], vec![0; 50], 1, &mut rng);
        let tr = d.user_items(0, Split::Train);
        assert!(
            tr.windows(2).all(|w| w[0] < w[1]),
            "order scrambled: {tr:?}"
        );
    }

    #[test]
    fn duplicates_are_dropped() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = Dataset::from_interactions(vec![vec![1, 1, 2, 1, 2]], vec![0; 3], 1, &mut rng);
        assert_eq!(d.n_interactions(), 2);
    }

    #[test]
    fn negative_sampling_avoids_observed() {
        let d = tiny_dataset();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let neg = d.sample_negative(0, &mut rng);
            assert!(!d.is_observed(0, neg));
        }
        let negs = d.sample_negatives(1, 3, &mut rng);
        assert_eq!(negs.len(), 3);
        let mut sorted = negs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "negatives must be distinct");
    }

    #[test]
    fn masked_sampling_matches_the_historical_rejection_scan() {
        // The bitset path must consume the *identical* RNG stream as the
        // retired `out.contains` scan: same accept/reject decision per draw.
        let d = tiny_dataset();
        let naive = |user: usize, n: usize, avoid: &[usize], rng: &mut StdRng| {
            let mut out: Vec<usize> = Vec::new();
            while out.len() < n {
                let cand = d.sample_negative(user, rng);
                if !out.contains(&cand) && !avoid.contains(&cand) {
                    out.push(cand);
                }
            }
            out
        };
        let mut mask = NegativeMask::new();
        // (user, n, avoid) chosen so enough unobserved items remain.
        for (user, n, avoid) in [
            (0usize, 2usize, vec![]),
            (1, 3, vec![0, 5]),
            (2, 2, vec![3]),
        ] {
            let mut rng_a = StdRng::seed_from_u64(7 + user as u64);
            let mut rng_b = StdRng::seed_from_u64(7 + user as u64);
            let reference = naive(user, n, &avoid, &mut rng_a);
            let mut fast = Vec::new();
            d.sample_negatives_avoiding_into(user, n, &avoid, &mut rng_b, &mut mask, &mut fast);
            assert_eq!(reference, fast, "user {user}");
            // Both RNGs must end in the same state.
            assert_eq!(rng_a.random_range(0..1000), rng_b.random_range(0..1000));
        }
    }

    #[test]
    fn negative_mask_marks_and_clears() {
        let mut mask = NegativeMask::new();
        mask.prepare(200);
        assert!(mask.mark(3));
        assert!(mask.mark(130));
        assert!(!mask.mark(3), "double mark must report already-present");
        assert!(mask.contains(130));
        assert!(!mask.contains(64));
        // prepare clears only touched words but all marks are gone.
        mask.prepare(200);
        assert!(!mask.contains(3));
        assert!(!mask.contains(130));
        assert!(mask.mark(3));
    }

    #[test]
    fn category_coverage_counts_distinct() {
        let d = tiny_dataset();
        assert_eq!(d.category_coverage(&[0, 1]), 1);
        assert_eq!(d.category_coverage(&[0, 2, 5]), 3);
        assert_eq!(d.category_coverage(&[]), 0);
    }

    #[test]
    fn train_edges_match_train_split() {
        let d = tiny_dataset();
        let edges = d.train_edges();
        let expected: usize = (0..d.n_users())
            .map(|u| d.user_items(u, Split::Train).len())
            .sum();
        assert_eq!(edges.len(), expected);
    }
}
