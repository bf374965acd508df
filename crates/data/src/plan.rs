//! Epoch planning: persistent instance arenas, sampling policies, and the
//! size-bucketed batch schedule.
//!
//! Instance generation is a planning layer of its own, so the trainer
//! neither allocates per-instance `Vec`s every epoch nor hard-codes *resample
//! every epoch*:
//!
//! * [`EpochPlan`] — one epoch's instances in a single contiguous flat arena
//!   (an items buffer plus per-instance `(user, k, offset, len)`
//!   [`InstanceRecord`]s). Instances resolve to zero-copy
//!   [`InstanceRef`]s.
//! * [`SamplingPolicy`] — when plans are rebuilt:
//!   [`SamplingPolicy::ResampleEachEpoch`] (the stock behavior, bitwise
//!   identical trajectories to the historical inline sampler) and
//!   [`SamplingPolicy::FrozenNegatives`] (sample once, reuse every epoch —
//!   the discipline the refresh pipeline freezes unchanged users under).
//! * [`EpochPlanner`] — drives an [`InstanceSampler`] under a policy,
//!   owning the plan, its [`BatchSchedule`], and the sampling scratch
//!   (negative-mask bitset, window buffer) across epochs.
//! * [`BatchSchedule`] — cuts the (shuffled) plan into optimizer batches
//!   and, within each batch, buckets instances by ground-set size
//!   `m = k + n` so every pool dispatch run is uniform-`m` (the shape the
//!   batched eigen path needs). Scheduling reorders *computation* only:
//!   gradients are written to per-instance slots and accumulated in plan
//!   order, so results are bitwise independent of the bucketing.

use crate::dataset::{Dataset, NegativeMask, Split};
use crate::instances::{random_chunks_into, GroundSetInstance, InstanceRef, InstanceSampler};
use crate::TargetSelection;
use rand::Rng;

/// When an epoch's instances are (re)sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingPolicy {
    /// Draw a fresh plan every epoch — the paper's stock behavior and the
    /// default. Trajectories are bitwise identical to the historical inline
    /// sampler.
    #[default]
    ResampleEachEpoch,
    /// Sample once at the first epoch and reuse the identical plan (same
    /// instances, same order) for the whole run.
    FrozenNegatives,
}

impl SamplingPolicy {
    /// Whether a plan sampled at some earlier epoch should be resampled for
    /// `epoch` (1-based). The first epoch always samples.
    pub fn resamples_at(&self, epoch: usize) -> bool {
        match *self {
            SamplingPolicy::ResampleEachEpoch => true,
            SamplingPolicy::FrozenNegatives => epoch <= 1,
        }
    }
}

/// Locator of one instance inside an [`EpochPlan`]'s flat arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceRecord {
    /// The user this ground set belongs to.
    pub user: usize,
    /// Target-set cardinality: arena positions `offset..offset + k` are the
    /// positives, the rest of the instance's span the negatives.
    pub k: usize,
    /// Start of the instance's span in the items arena.
    pub offset: usize,
    /// Ground-set size `m = k + n` (the span's length).
    pub len: usize,
}

/// One epoch's training instances in a single contiguous arena.
///
/// All ground sets live back-to-back in one items buffer; per-instance
/// [`InstanceRecord`]s carry `(user, k, offset, len)`. Shuffling permutes
/// the records only — the arena is written once per (re)sample.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochPlan {
    items: Vec<usize>,
    records: Vec<InstanceRecord>,
}

impl EpochPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        EpochPlan::default()
    }

    /// Builds a plan holding copies of the given owned instances, in order
    /// (test/builder convenience; training plans come from [`EpochPlanner`]).
    pub fn from_instances(instances: &[GroundSetInstance]) -> Self {
        let mut plan = EpochPlan::new();
        for inst in instances {
            plan.push_instance(inst.user, &inst.positives, &inst.negatives);
        }
        plan
    }

    /// Appends one instance to the arena.
    pub fn push_instance(&mut self, user: usize, positives: &[usize], negatives: &[usize]) {
        let offset = self.items.len();
        self.items.extend_from_slice(positives);
        self.items.extend_from_slice(negatives);
        self.records.push(InstanceRecord {
            user,
            k: positives.len(),
            offset,
            len: positives.len() + negatives.len(),
        });
    }

    /// Drops every instance (arena capacity retained).
    pub fn clear(&mut self) {
        self.items.clear();
        self.records.clear();
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the plan holds no instances.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The per-instance records, in plan (iteration) order.
    pub fn records(&self) -> &[InstanceRecord] {
        &self.records
    }

    /// The full ground set of instance `idx` — positives then negatives, as
    /// one contiguous arena span.
    pub fn ground_set(&self, idx: usize) -> &[usize] {
        let rec = self.records[idx];
        &self.items[rec.offset..rec.offset + rec.len]
    }

    /// Shuffles the record tail `[from..]` with the trainer's historical
    /// Fisher–Yates. With `from = 0` this is exactly the full-plan epoch
    /// shuffle; the delta planner uses it to shuffle only freshly sampled
    /// records while frozen records keep their base order.
    pub(crate) fn shuffle_records_from<R: Rng + ?Sized>(&mut self, from: usize, rng: &mut R) {
        shuffle(&mut self.records[from..], rng);
    }

    /// Resolves instance `idx` to a zero-copy view over the arena.
    pub fn instance(&self, idx: usize) -> InstanceRef<'_> {
        let rec = self.records[idx];
        let span = &self.items[rec.offset..rec.offset + rec.len];
        InstanceRef {
            user: rec.user,
            positives: &span[..rec.k],
            negatives: &span[rec.k..],
        }
    }

    /// Iterates the plan's instances in order.
    pub fn iter(&self) -> impl Iterator<Item = InstanceRef<'_>> {
        (0..self.len()).map(|i| self.instance(i))
    }

    /// Number of distinct ground-set sizes `m` across the plan.
    pub fn distinct_sizes(&self) -> usize {
        let mut sizes: Vec<usize> = self.records.iter().map(|r| r.len).collect();
        sizes.sort_unstable();
        sizes.dedup();
        sizes.len()
    }
}

/// A contiguous slice of plan instances addressed by record indices — the
/// unit handed to `Objective::compute_batch_into`. Every instance in a block
/// produced by [`BatchSchedule`] has the same ground-set size.
#[derive(Debug, Clone, Copy)]
pub struct InstanceBlock<'a> {
    plan: &'a EpochPlan,
    indices: &'a [usize],
}

impl<'a> InstanceBlock<'a> {
    /// Wraps a plan and a list of record indices.
    pub fn new(plan: &'a EpochPlan, indices: &'a [usize]) -> Self {
        InstanceBlock { plan, indices }
    }

    /// Number of instances in the block.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Resolves the block's `i`-th instance.
    pub fn get(&self, i: usize) -> InstanceRef<'a> {
        self.plan.instance(self.indices[i])
    }
}

/// Per-batch dispatch layout produced by [`BatchSchedule`].
#[derive(Debug, Clone, Copy)]
pub struct ScheduledBatch<'a> {
    /// Record indices in dispatch order: uniform-`m` runs are contiguous.
    pub dispatch: &'a [usize],
    /// Split points (relative to `dispatch`, exclusive of `0` and `len`)
    /// between uniform-`m` runs. Empty when the whole batch shares one size.
    pub bounds: &'a [usize],
    /// For each *plan-order* position in the batch, its slot in `dispatch` —
    /// accumulation walks plan order through this map, so bucketing never
    /// changes the order gradients are applied in.
    pub slot_of: &'a [usize],
}

impl ScheduledBatch<'_> {
    /// Instances in the batch.
    pub fn len(&self) -> usize {
        self.dispatch.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.dispatch.is_empty()
    }
}

/// Optimizer-step batches over an [`EpochPlan`], each bucketed into
/// uniform-`m` dispatch runs.
///
/// Batches are the plan's records cut every `batch_size` in plan order —
/// exactly the historical `chunks(batch_size)` — and bucketing happens
/// *within* a batch only: the dispatch order groups a batch's instances by
/// ground-set size (ascending, stable), while [`ScheduledBatch::slot_of`]
/// preserves plan-order accumulation. Gradient values are pure functions of
/// their instance, so the bucketed schedule produces bitwise the results of
/// the unbucketed order.
#[derive(Debug, Clone, Default)]
pub struct BatchSchedule {
    dispatch: Vec<usize>,
    slot_of: Vec<usize>,
    bounds: Vec<usize>,
    /// Per batch: `(dispatch_start, dispatch_end, bounds_start, bounds_end)`.
    batches: Vec<(usize, usize, usize, usize)>,
}

impl BatchSchedule {
    /// Rebuilds the schedule for `plan` at the given batch size, reusing the
    /// schedule's buffers.
    pub fn rebuild(&mut self, plan: &EpochPlan, batch_size: usize) {
        let batch_size = batch_size.max(1);
        self.dispatch.clear();
        self.slot_of.clear();
        self.bounds.clear();
        self.batches.clear();
        let records = plan.records();
        let mut start = 0;
        while start < records.len() {
            let end = (start + batch_size).min(records.len());
            let d0 = self.dispatch.len();
            let b0 = self.bounds.len();
            let batch = &records[start..end];
            let uniform = batch.windows(2).all(|w| w[0].len == w[1].len);
            if uniform {
                // Fast path: dispatch order is plan order, no bounds.
                self.dispatch.extend(start..end);
                self.slot_of.extend(0..end - start);
            } else {
                // Distinct sizes ascending; stable within each size.
                let mut sizes: Vec<usize> = batch.iter().map(|r| r.len).collect();
                sizes.sort_unstable();
                sizes.dedup();
                self.slot_of.resize(self.slot_of.len() + batch.len(), 0);
                let slot_base = self.slot_of.len() - batch.len();
                for (si, &size) in sizes.iter().enumerate() {
                    if si > 0 {
                        self.bounds.push(self.dispatch.len() - d0);
                    }
                    for (pos, rec) in batch.iter().enumerate() {
                        if rec.len == size {
                            self.slot_of[slot_base + pos] = self.dispatch.len() - d0;
                            self.dispatch.push(start + pos);
                        }
                    }
                }
            }
            self.batches
                .push((d0, self.dispatch.len(), b0, self.bounds.len()));
            start = end;
        }
    }

    /// Builds a fresh schedule (see [`BatchSchedule::rebuild`]).
    pub fn build(plan: &EpochPlan, batch_size: usize) -> Self {
        let mut schedule = BatchSchedule::default();
        schedule.rebuild(plan, batch_size);
        schedule
    }

    /// Number of optimizer batches.
    pub fn n_batches(&self) -> usize {
        self.batches.len()
    }

    /// The `b`-th batch's dispatch layout.
    pub fn batch(&self, b: usize) -> ScheduledBatch<'_> {
        let (d0, d1, b0, b1) = self.batches[b];
        ScheduledBatch {
            dispatch: &self.dispatch[d0..d1],
            bounds: &self.bounds[b0..b1],
            slot_of: &self.slot_of[d0..d1],
        }
    }

    /// Iterates the batches in optimizer order.
    pub fn iter(&self) -> impl Iterator<Item = ScheduledBatch<'_>> {
        (0..self.n_batches()).map(|b| self.batch(b))
    }
}

/// Counters describing how an [`EpochPlanner`] resolved a run's epochs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Epochs that sampled a fresh plan.
    pub resamples: u64,
    /// Epochs that reused the frozen plan (no RNG consumed, identical
    /// instances and order).
    pub reuses: u64,
    /// Instances per epoch in the most recent plan.
    pub instances: usize,
    /// Distinct ground-set sizes in the most recent plan (1 for the stock
    /// uniform sampler — every batch is a single dispatch run).
    pub distinct_sizes: usize,
}

/// Sampling scratch shared across a planner's lifetime.
#[derive(Debug, Default)]
struct PlanScratch {
    mask: NegativeMask,
    windows: Vec<usize>,
}

/// Drives an [`InstanceSampler`] under a [`SamplingPolicy`], owning the
/// epoch plan, its batch schedule, and the sampling scratch across epochs.
#[derive(Debug)]
pub struct EpochPlanner {
    sampler: InstanceSampler,
    policy: SamplingPolicy,
    batch_size: usize,
    plan: EpochPlan,
    schedule: BatchSchedule,
    scratch: PlanScratch,
    planned: bool,
    resamples: u64,
    reuses: u64,
}

impl EpochPlanner {
    /// Creates a planner. `batch_size` fixes the optimizer-batch cut used by
    /// the schedule (clamped to ≥ 1).
    pub fn new(sampler: InstanceSampler, policy: SamplingPolicy, batch_size: usize) -> Self {
        EpochPlanner {
            sampler,
            policy,
            batch_size: batch_size.max(1),
            plan: EpochPlan::new(),
            schedule: BatchSchedule::default(),
            scratch: PlanScratch::default(),
            planned: false,
            resamples: 0,
            reuses: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> SamplingPolicy {
        self.policy
    }

    /// Returns the plan and schedule for `epoch` (1-based), resampling when
    /// the policy calls for it and reusing the frozen plan (consuming no RNG)
    /// otherwise.
    ///
    /// Under [`SamplingPolicy::ResampleEachEpoch`] the produced instance
    /// sequence — including the epoch shuffle — consumes the RNG exactly as
    /// the historical `InstanceSampler::epoch_instances` + Fisher–Yates
    /// trainer path did, so trajectories built on the plan are bitwise
    /// identical to the inline sampler's.
    pub fn plan_for_epoch<R: Rng + ?Sized>(
        &mut self,
        data: &Dataset,
        epoch: usize,
        rng: &mut R,
    ) -> (&EpochPlan, &BatchSchedule) {
        if !self.planned || self.policy.resamples_at(epoch) {
            self.resample(data, rng);
            self.planned = true;
            self.resamples += 1;
        } else {
            self.reuses += 1;
        }
        (&self.plan, &self.schedule)
    }

    /// The most recent plan (empty until the first
    /// [`EpochPlanner::plan_for_epoch`] call). `Trainer::fit_state` snapshots
    /// this as the frozen base a later delta refresh replays.
    pub fn plan(&self) -> &EpochPlan {
        &self.plan
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> PlanStats {
        PlanStats {
            resamples: self.resamples,
            reuses: self.reuses,
            instances: self.plan.len(),
            distinct_sizes: self.plan.distinct_sizes(),
        }
    }

    fn resample<R: Rng + ?Sized>(&mut self, data: &Dataset, rng: &mut R) {
        let (k, n) = (self.sampler.k, self.sampler.n);
        self.plan.clear();
        for user in 0..data.n_users() {
            let train = data.user_items(user, Split::Train);
            if train.len() < k {
                continue;
            }
            match self.sampler.mode {
                TargetSelection::Sequential => {
                    for start in 0..=train.len() - k {
                        push_window(
                            &mut self.plan,
                            data,
                            user,
                            &train[start..start + k],
                            n,
                            rng,
                            &mut self.scratch.mask,
                        );
                    }
                }
                TargetSelection::Random => {
                    // All of the user's chunks draw before any negative —
                    // the order the nested sampler consumes the RNG in.
                    random_chunks_into(train, k, rng, &mut self.scratch.windows);
                    for chunk in self.scratch.windows.chunks_exact(k) {
                        push_window(
                            &mut self.plan,
                            data,
                            user,
                            chunk,
                            n,
                            rng,
                            &mut self.scratch.mask,
                        );
                    }
                }
            }
        }
        shuffle(&mut self.plan.records, rng);
        self.schedule.rebuild(&self.plan, self.batch_size);
    }
}

/// Appends one `(window, fresh negatives)` instance to the plan, sampling
/// the negatives straight into the arena tail. Shared with the delta
/// planner, whose fresh-user path must consume the RNG draw-for-draw as a
/// full resample does.
pub(crate) fn push_window<R: Rng + ?Sized>(
    plan: &mut EpochPlan,
    data: &Dataset,
    user: usize,
    window: &[usize],
    n: usize,
    rng: &mut R,
    mask: &mut NegativeMask,
) {
    let offset = plan.items.len();
    mask.prepare(data.n_items());
    for &p in window {
        mask.mark(p);
    }
    plan.items.extend_from_slice(window);
    data.sample_negatives_masked_into(user, n, rng, mask, &mut plan.items);
    plan.records.push(InstanceRecord {
        user,
        k: window.len(),
        offset,
        len: plan.items.len() - offset,
    });
}

/// Backwards Fisher–Yates — byte-for-byte the shuffle the trainer has always
/// run on its epoch instances (the RNG stream must not move).
pub(crate) fn shuffle<T, R: Rng + ?Sized>(v: &mut [T], rng: &mut R) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.random_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, SyntheticConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_data() -> Dataset {
        generate(&SyntheticConfig {
            n_users: 30,
            n_items: 120,
            n_categories: 8,
            mean_interactions: 18.0,
            ..Default::default()
        })
    }

    /// The historical epoch pipeline: nested sampler + trainer shuffle.
    fn reference_epoch(
        data: &Dataset,
        sampler: &InstanceSampler,
        rng: &mut StdRng,
    ) -> Vec<GroundSetInstance> {
        let mut instances = sampler.epoch_instances(data, rng);
        shuffle(&mut instances, rng);
        instances
    }

    fn assert_plan_matches(plan: &EpochPlan, reference: &[GroundSetInstance]) {
        assert_eq!(plan.len(), reference.len());
        for (inst, want) in plan.iter().zip(reference) {
            assert_eq!(inst.user, want.user);
            assert_eq!(inst.positives, &want.positives[..]);
            assert_eq!(inst.negatives, &want.negatives[..]);
        }
    }

    #[test]
    fn planned_epoch_is_draw_identical_to_the_inline_sampler() {
        // Arena filling + record shuffle must consume the RNG exactly as
        // `epoch_instances` + Fisher–Yates did, for both target modes, over
        // several consecutive epochs (stream alignment compounds).
        let data = small_data();
        for mode in [TargetSelection::Sequential, TargetSelection::Random] {
            let sampler = InstanceSampler::new(4, 4, mode);
            let mut planner =
                EpochPlanner::new(sampler.clone(), SamplingPolicy::ResampleEachEpoch, 32);
            let mut rng_plan = StdRng::seed_from_u64(99);
            let mut rng_ref = StdRng::seed_from_u64(99);
            for epoch in 1..=3 {
                let (plan, _) = planner.plan_for_epoch(&data, epoch, &mut rng_plan);
                let reference = reference_epoch(&data, &sampler, &mut rng_ref);
                assert_plan_matches(plan, &reference);
            }
        }
    }

    #[test]
    fn frozen_plans_are_identical_across_epochs_and_consume_no_rng() {
        let data = small_data();
        let sampler = InstanceSampler::new(4, 4, TargetSelection::Sequential);
        let mut planner = EpochPlanner::new(sampler, SamplingPolicy::FrozenNegatives, 32);
        let mut rng = StdRng::seed_from_u64(7);
        let first = {
            let (plan, _) = planner.plan_for_epoch(&data, 1, &mut rng);
            plan.clone()
        };
        let probe_after_first: u64 = rng.random_range(0..u64::MAX);
        let mut rng = StdRng::seed_from_u64(7);
        let mut planner2 =
            EpochPlanner::new(planner.sampler.clone(), SamplingPolicy::FrozenNegatives, 32);
        for epoch in 1..=5 {
            let (plan, _) = planner2.plan_for_epoch(&data, epoch, &mut rng);
            assert_eq!(*plan, first, "epoch {epoch} drifted from the frozen plan");
        }
        // Epochs 2..=5 consumed no RNG: the stream sits where it sat after
        // epoch 1.
        assert_eq!(rng.random_range(0..u64::MAX), probe_after_first);
        let stats = planner2.stats();
        assert_eq!((stats.resamples, stats.reuses), (1, 4));
    }

    #[test]
    fn frozen_plans_are_deterministic_under_a_fixed_seed() {
        let data = small_data();
        let build = || {
            let sampler = InstanceSampler::new(3, 3, TargetSelection::Sequential);
            let mut planner = EpochPlanner::new(sampler, SamplingPolicy::FrozenNegatives, 16);
            let mut rng = StdRng::seed_from_u64(123);
            planner.plan_for_epoch(&data, 1, &mut rng).0.clone()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn resamples_at_covers_the_policy_table() {
        let resample = SamplingPolicy::ResampleEachEpoch;
        let frozen = SamplingPolicy::FrozenNegatives;
        for epoch in 1..=6 {
            assert!(resample.resamples_at(epoch));
            assert_eq!(frozen.resamples_at(epoch), epoch == 1);
        }
    }

    #[test]
    fn uniform_plans_schedule_to_plan_order_single_runs() {
        let data = small_data();
        let sampler = InstanceSampler::new(3, 3, TargetSelection::Sequential);
        let mut planner = EpochPlanner::new(sampler, SamplingPolicy::ResampleEachEpoch, 10);
        let mut rng = StdRng::seed_from_u64(2);
        let (plan, schedule) = planner.plan_for_epoch(&data, 1, &mut rng);
        assert_eq!(
            schedule.n_batches(),
            plan.len().div_ceil(10),
            "chunks(batch_size) cut"
        );
        let mut seen = 0;
        for batch in schedule.iter() {
            assert!(batch.bounds.is_empty(), "uniform batch needs no bounds");
            for (pos, (&rec, &slot)) in batch.dispatch.iter().zip(batch.slot_of).enumerate() {
                assert_eq!(rec, seen + pos, "dispatch order is plan order");
                assert_eq!(slot, pos, "slot map is the identity");
            }
            seen += batch.len();
        }
        assert_eq!(seen, plan.len());
    }

    #[test]
    fn mixed_size_batches_bucket_into_uniform_runs() {
        // Hand-built plan with sizes 4 and 6 interleaved.
        let mut instances = Vec::new();
        for i in 0..10usize {
            let (k, n) = if i % 2 == 0 { (2, 2) } else { (3, 3) };
            instances.push(GroundSetInstance {
                user: i,
                positives: (0..k).map(|j| i * 10 + j).collect(),
                negatives: (0..n).map(|j| 100 + i * 10 + j).collect(),
            });
        }
        let plan = EpochPlan::from_instances(&instances);
        assert_eq!(plan.distinct_sizes(), 2);
        let schedule = BatchSchedule::build(&plan, 6);
        assert_eq!(schedule.n_batches(), 2);
        for batch in schedule.iter() {
            // Runs are uniform-m and split exactly at the bounds.
            let mut run_start = 0;
            let runs: Vec<(usize, usize)> = batch
                .bounds
                .iter()
                .copied()
                .chain([batch.len()])
                .map(|b| {
                    let r = (run_start, b);
                    run_start = b;
                    r
                })
                .collect();
            for &(lo, hi) in &runs {
                assert!(lo < hi);
                let m0 = plan.instance(batch.dispatch[lo]).m();
                for &idx in &batch.dispatch[lo..hi] {
                    assert_eq!(plan.instance(idx).m(), m0, "run not uniform");
                }
            }
            // slot_of inverts the dispatch permutation: walking plan order
            // through it visits every slot exactly once, and sizes ascend
            // across runs.
            let mut visited = vec![false; batch.len()];
            for &slot in batch.slot_of {
                assert!(!visited[slot], "slot visited twice");
                visited[slot] = true;
            }
            let sizes: Vec<usize> = runs
                .iter()
                .map(|&(lo, _)| plan.instance(batch.dispatch[lo]).m())
                .collect();
            assert!(sizes.windows(2).all(|w| w[0] < w[1]), "sizes ascend");
        }
        // Every record dispatched exactly once across the schedule.
        let mut all: Vec<usize> = schedule
            .iter()
            .flat_map(|b| b.dispatch.iter().copied())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..plan.len()).collect::<Vec<_>>());
    }

    #[test]
    fn slot_of_maps_plan_positions_to_their_dispatch_slots() {
        let mut instances = Vec::new();
        for i in 0..5usize {
            let (k, n) = if i < 2 { (3, 3) } else { (2, 2) };
            instances.push(GroundSetInstance {
                user: i,
                positives: (0..k).map(|j| i * 10 + j).collect(),
                negatives: (0..n).map(|j| 100 + i * 10 + j).collect(),
            });
        }
        let plan = EpochPlan::from_instances(&instances);
        let schedule = BatchSchedule::build(&plan, 5);
        let batch = schedule.batch(0);
        // Sizes ascend: the three (2,2) instances dispatch first.
        assert_eq!(batch.dispatch, &[2, 3, 4, 0, 1]);
        assert_eq!(batch.bounds, &[3]);
        // Plan positions 0..5 map to where they landed in dispatch order.
        assert_eq!(batch.slot_of, &[3, 4, 0, 1, 2]);
        for pos in 0..5 {
            assert_eq!(batch.dispatch[batch.slot_of[pos]], pos);
        }
    }

    #[test]
    fn instance_refs_resolve_the_arena_spans() {
        let mut plan = EpochPlan::new();
        plan.push_instance(3, &[10, 11], &[90, 91, 92]);
        plan.push_instance(5, &[20, 21, 22], &[80]);
        assert_eq!(plan.len(), 2);
        let a = plan.instance(0);
        assert_eq!((a.user, a.k(), a.n(), a.m()), (3, 2, 3, 5));
        assert_eq!(a.positives, &[10, 11]);
        assert_eq!(a.negatives, &[90, 91, 92]);
        let b = plan.instance(1);
        assert_eq!((b.user, b.k(), b.n()), (5, 3, 1));
        assert_eq!(b.positives, &[20, 21, 22]);
        assert_eq!(b.negatives, &[80]);
    }
}
