//! Interaction deltas and the refresh-plan builder behind incremental
//! training.
//!
//! A production ranker is retrained from a *delta* — the interactions that
//! arrived since the last fit — not from scratch. This module provides the
//! data half of that loop:
//!
//! * [`DatasetDelta`] — an ordered batch of new `(user, item)` interaction
//!   events. Users may be new (ids past the base population extend it); the
//!   item catalog is fixed, because the serving artifact's kernel shape must
//!   survive the refresh (`Dataset::merge_delta` asserts this).
//! * [`Dataset::merge_delta`] — applies a delta to a base dataset,
//!   appending accepted events to the **train split only** (validation and
//!   test stay frozen, so refresh-vs-retrain metric comparisons are
//!   apples-to-apples) and reporting which users changed in a
//!   [`DeltaSummary`].
//! * [`DeltaPlanner`] — builds the refresh [`EpochPlan`]: records of
//!   **unchanged** users are copied from the base plan in base order (their
//!   ground sets are byte-identical), and only changed/new users are
//!   sampled fresh. The fresh tail is shuffled
//!   with the trainer's historical Fisher–Yates; the frozen head keeps its
//!   order.
//!
//! **Degenerate full-delta case** — when *every* user changed, the frozen
//! head is empty and [`DeltaPlanner::plan_refresh`] consumes the RNG
//! draw-for-draw as `EpochPlanner`'s full resample: per-user windows and
//! negatives in user order, then one shuffle over all records. This is the
//! pin that lets `Trainer::update` on a full delta reproduce `Trainer::fit`
//! bitwise (`crates/core/tests/incremental_equivalence.rs`).

use crate::dataset::{Dataset, NegativeMask, Split};
use crate::instances::{random_chunks_into, InstanceSampler};
use crate::plan::{push_window, BatchSchedule, EpochPlan};
use crate::TargetSelection;
use rand::Rng;

/// An ordered batch of new implicit-feedback events to fold into a dataset.
#[derive(Debug, Clone, Default)]
pub struct DatasetDelta {
    events: Vec<(usize, usize)>,
}

impl DatasetDelta {
    /// Creates an empty delta.
    pub fn new() -> Self {
        DatasetDelta::default()
    }

    /// Appends one `(user, item)` interaction event. Order is preserved —
    /// train splits stay chronological through a merge.
    pub fn push(&mut self, user: usize, item: usize) {
        self.events.push((user, item));
    }

    /// Appends one user's new interactions in order.
    pub fn push_user(&mut self, user: usize, items: &[usize]) {
        for &item in items {
            self.events.push((user, item));
        }
    }

    /// Number of events in the delta (before dedup against the base).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the delta holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The raw events in arrival order.
    pub fn events(&self) -> &[(usize, usize)] {
        &self.events
    }
}

/// What a [`Dataset::merge_delta`] actually changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaSummary {
    /// Users whose train split changed or who are new — sorted, deduped.
    changed_users: Vec<usize>,
    /// Users appended past the base population.
    new_users: usize,
    /// Events accepted into the train split (duplicates of already-observed
    /// interactions are dropped; implicit feedback is binary).
    new_interactions: usize,
}

impl DeltaSummary {
    pub(crate) fn from_parts(
        changed_users: Vec<usize>,
        new_users: usize,
        new_interactions: usize,
    ) -> Self {
        debug_assert!(changed_users.windows(2).all(|w| w[0] < w[1]));
        DeltaSummary {
            changed_users,
            new_users,
            new_interactions,
        }
    }

    /// Whether the merge was a no-op: nothing accepted, nobody new. An
    /// empty-summary refresh must leave the model — and therefore the
    /// serving artifact — bitwise untouched.
    pub fn is_empty(&self) -> bool {
        self.new_interactions == 0 && self.new_users == 0
    }

    /// Whether `user`'s train split changed (or the user is new).
    pub fn is_changed(&self, user: usize) -> bool {
        self.changed_users.binary_search(&user).is_ok()
    }

    /// The changed/new users, ascending.
    pub fn changed_users(&self) -> &[usize] {
        &self.changed_users
    }

    /// Users appended past the base population.
    pub fn new_users(&self) -> usize {
        self.new_users
    }

    /// Events accepted into the train split.
    pub fn new_interactions(&self) -> usize {
        self.new_interactions
    }
}

/// How a refresh plan was assembled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshPlanStats {
    /// Records copied verbatim from the base plan (unchanged users).
    pub frozen: usize,
    /// Records freshly sampled for changed/new users.
    pub fresh: usize,
}

/// Builds refresh plans: frozen records for unchanged users, fresh samples
/// for changed ones. Owns the sampling scratch so repeated refreshes are
/// steady-state allocation-free.
#[derive(Debug)]
pub struct DeltaPlanner {
    sampler: InstanceSampler,
    batch_size: usize,
    mask: NegativeMask,
    windows: Vec<usize>,
}

impl DeltaPlanner {
    /// Creates a planner. `batch_size` fixes the optimizer-batch cut
    /// (clamped to ≥ 1), matching `EpochPlanner::new`.
    pub fn new(sampler: InstanceSampler, batch_size: usize) -> Self {
        DeltaPlanner {
            sampler,
            batch_size: batch_size.max(1),
            mask: NegativeMask::default(),
            // lint:allow(hotpath-alloc): one-time planner construction.
            windows: Vec::default(),
        }
    }

    /// Builds the refresh plan for `merged` (the post-merge dataset):
    ///
    /// 1. every base record whose user is **unchanged** is copied in base
    ///    order — byte-identical ground sets, no RNG consumed;
    /// 2. every **changed/new** user is sampled fresh, in ascending user
    ///    order, exactly as a full resample samples them (same windows, same
    ///    negative draws);
    /// 3. the fresh tail alone is shuffled with the trainer's historical
    ///    Fisher–Yates.
    ///
    /// With every user changed this degenerates — draw for draw — to
    /// `EpochPlanner`'s full resample of `merged`, which is what pins
    /// `Trainer::update` on a full delta to `Trainer::fit` bitwise.
    pub fn plan_refresh<R: Rng + ?Sized>(
        &mut self,
        merged: &Dataset,
        base: &EpochPlan,
        summary: &DeltaSummary,
        rng: &mut R,
    ) -> (EpochPlan, BatchSchedule, RefreshPlanStats) {
        // lint:allow(hotpath-alloc): plan assembly runs once per refresh,
        // off the per-instance gradient path.
        let mut plan = EpochPlan::new();
        for idx in 0..base.len() {
            let inst = base.instance(idx);
            if summary.is_changed(inst.user) {
                continue;
            }
            plan.push_instance(inst.user, inst.positives, inst.negatives);
        }
        let frozen = plan.len();
        let (k, n) = (self.sampler.k, self.sampler.n);
        for &user in summary.changed_users() {
            let train = merged.user_items(user, Split::Train);
            if train.len() < k {
                continue;
            }
            match self.sampler.mode {
                TargetSelection::Sequential => {
                    for start in 0..=train.len() - k {
                        push_window(
                            &mut plan,
                            merged,
                            user,
                            &train[start..start + k],
                            n,
                            rng,
                            &mut self.mask,
                        );
                    }
                }
                TargetSelection::Random => {
                    // All of the user's chunks draw before any negative —
                    // the order the nested sampler consumes the RNG in.
                    random_chunks_into(train, k, rng, &mut self.windows);
                    for chunk in self.windows.chunks_exact(k) {
                        push_window(&mut plan, merged, user, chunk, n, rng, &mut self.mask);
                    }
                }
            }
        }
        let fresh = plan.len() - frozen;
        plan.shuffle_records_from(frozen, rng);
        let schedule = BatchSchedule::build(&plan, self.batch_size);
        (plan, schedule, RefreshPlanStats { frozen, fresh })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{EpochPlanner, SamplingPolicy};
    use crate::synthetic::{generate, SyntheticConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_data() -> Dataset {
        generate(&SyntheticConfig {
            n_users: 25,
            n_items: 100,
            n_categories: 6,
            mean_interactions: 16.0,
            ..Default::default()
        })
    }

    #[test]
    fn merge_appends_to_train_only_and_reports_changes() {
        let data = small_data();
        let mut delta = DatasetDelta::new();
        // Two fresh items for user 3, one duplicate for user 5.
        let fresh: Vec<usize> = (0..data.n_items())
            .filter(|&i| !data.is_observed(3, i))
            .take(2)
            .collect();
        delta.push_user(3, &fresh);
        let dup = data.user_items(5, Split::Train)[0];
        delta.push(5, dup);
        let (merged, summary) = data.merge_delta(&delta);
        assert_eq!(summary.new_interactions(), 2);
        assert_eq!(summary.new_users(), 0);
        assert_eq!(summary.changed_users(), &[3]);
        assert!(summary.is_changed(3) && !summary.is_changed(5));
        // Train grew by exactly the accepted events, in arrival order.
        let base_train = data.user_items(3, Split::Train);
        let new_train = merged.user_items(3, Split::Train);
        assert_eq!(new_train.len(), base_train.len() + 2);
        assert_eq!(&new_train[..base_train.len()], base_train);
        assert_eq!(&new_train[base_train.len()..], &fresh[..]);
        // Validation/test frozen for everyone.
        for u in 0..data.n_users() {
            assert_eq!(
                data.user_items(u, Split::Validation),
                merged.user_items(u, Split::Validation)
            );
            assert_eq!(
                data.user_items(u, Split::Test),
                merged.user_items(u, Split::Test)
            );
        }
        // Observed set updated (negative sampling must avoid the new items).
        assert!(merged.is_observed(3, fresh[0]) && merged.is_observed(3, fresh[1]));
    }

    #[test]
    fn merge_extends_the_user_population() {
        let data = small_data();
        let mut delta = DatasetDelta::new();
        delta.push_user(data.n_users() + 1, &[0, 4, 9]);
        let (merged, summary) = data.merge_delta(&delta);
        assert_eq!(merged.n_users(), data.n_users() + 2);
        assert_eq!(summary.new_users(), 2);
        assert_eq!(summary.new_interactions(), 3);
        // The gap user exists but is empty; the delta user trains on its items.
        assert!(merged.user_items(data.n_users(), Split::Train).is_empty());
        assert_eq!(
            merged.user_items(data.n_users() + 1, Split::Train),
            &[0, 4, 9]
        );
        assert!(summary.is_changed(data.n_users()) && summary.is_changed(data.n_users() + 1));
    }

    #[test]
    fn empty_delta_merge_is_a_noop() {
        let data = small_data();
        let delta = DatasetDelta::new();
        let (merged, summary) = data.merge_delta(&delta);
        assert!(summary.is_empty());
        assert_eq!(merged.n_users(), data.n_users());
        assert_eq!(merged.n_interactions(), data.n_interactions());
    }

    #[test]
    #[should_panic(expected = "catalog")]
    fn merge_rejects_unknown_items() {
        let data = small_data();
        let mut delta = DatasetDelta::new();
        delta.push(0, data.n_items());
        let _ = data.merge_delta(&delta);
    }

    #[test]
    fn full_delta_refresh_plan_is_bitwise_a_full_resample() {
        // When every user changed, plan_refresh must consume the RNG
        // draw-for-draw as EpochPlanner's resample of the merged data — the
        // pin behind update ≡ fit on a full delta. Checked for both target
        // modes and a shape that exercises negative rejection.
        let data = small_data();
        for mode in [TargetSelection::Sequential, TargetSelection::Random] {
            let sampler = InstanceSampler::new(3, 3, mode);
            // Touch every user with one fresh interaction.
            let mut delta = DatasetDelta::new();
            for u in 0..data.n_users() {
                let fresh = (0..data.n_items())
                    .find(|&i| !data.is_observed(u, i))
                    .unwrap();
                delta.push(u, fresh);
            }
            let (merged, summary) = data.merge_delta(&delta);
            assert_eq!(summary.changed_users().len(), data.n_users());

            let mut planner = DeltaPlanner::new(sampler.clone(), 32);
            let mut rng_delta = StdRng::seed_from_u64(41);
            let base = EpochPlan::new();
            let (plan, _, stats) = planner.plan_refresh(&merged, &base, &summary, &mut rng_delta);
            assert_eq!(stats.frozen, 0);

            let mut full = EpochPlanner::new(sampler, SamplingPolicy::FrozenNegatives, 32);
            let mut rng_full = StdRng::seed_from_u64(41);
            let (want, _) = full.plan_for_epoch(&merged, 1, &mut rng_full);
            assert_eq!(
                &plan, want,
                "mode {mode:?}: refresh plan drifted from resample"
            );
            // Both RNGs sit at the same stream position afterwards.
            assert_eq!(
                rng_delta.random_range(0..u64::MAX),
                rng_full.random_range(0..u64::MAX)
            );
        }
    }

    #[test]
    fn partial_delta_freezes_unchanged_users_in_base_order() {
        let data = small_data();
        let sampler = InstanceSampler::new(3, 3, TargetSelection::Sequential);
        let mut base_planner =
            EpochPlanner::new(sampler.clone(), SamplingPolicy::FrozenNegatives, 16);
        let mut rng = StdRng::seed_from_u64(9);
        let base = base_planner.plan_for_epoch(&data, 1, &mut rng).0.clone();

        let mut delta = DatasetDelta::new();
        for u in [2usize, 7, 11] {
            let fresh = (0..data.n_items())
                .find(|&i| !data.is_observed(u, i))
                .unwrap();
            delta.push(u, fresh);
        }
        let (merged, summary) = data.merge_delta(&delta);
        let mut planner = DeltaPlanner::new(sampler, 16);
        let mut rng = StdRng::seed_from_u64(9);
        let (plan, schedule, stats) = planner.plan_refresh(&merged, &base, &summary, &mut rng);

        // The frozen head is exactly the base plan's unchanged-user records,
        // in base order, byte-identical ground sets.
        let mut at = 0usize;
        for idx in 0..base.len() {
            let want = base.instance(idx);
            if summary.is_changed(want.user) {
                continue;
            }
            let got = plan.instance(at);
            assert_eq!(got.user, want.user);
            assert_eq!(got.positives, want.positives);
            assert_eq!(got.negatives, want.negatives);
            at += 1;
        }
        assert_eq!(at, stats.frozen);
        assert!(stats.fresh > 0, "changed users must be resampled");
        assert_eq!(plan.len(), stats.frozen + stats.fresh);
        // The fresh tail covers exactly the changed users.
        for idx in stats.frozen..plan.len() {
            assert!(summary.is_changed(plan.instance(idx).user));
        }
        // Schedule covers the whole plan.
        let dispatched: usize = schedule.iter().map(|b| b.len()).sum();
        assert_eq!(dispatched, plan.len());
    }
}
