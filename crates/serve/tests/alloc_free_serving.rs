//! Asserts the serving warm path performs **zero heap allocations** per
//! batch: once the kernel cache holds every requested `(user, candidates)`
//! block and the reused response buffers have grown to steady-state size,
//! `rank_batch_into` must not touch the allocator.
//!
//! This is the serving-side complement of `crates/core/tests/alloc_free.rs`
//! (training) and the dynamic complement of the static `hotpath-alloc` lint
//! in `crates/lint` (see `docs/LINTS.md`): the lint proves no allocating
//! calls exist on the hot path; this test proves the calls that remain
//! (behind reasoned `lint:allow`s) really are off the warm path.

use lkp_core::objective::{LkpKind, LkpObjective};
use lkp_core::{train_diversity_kernel, DiversityKernelConfig, TrainConfig, Trainer};
use lkp_data::{Dataset, SyntheticConfig};
use lkp_dpp::LowRankKernel;
use lkp_models::MatrixFactorization;
use lkp_nn::AdamConfig;
use lkp_serve::{RankRequest, RankResponse, Ranker, RankingArtifact, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Counts every allocation/reallocation routed through the global allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counter increment has no allocator-visible
// side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: contract (layout validity) is forwarded unchanged to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: contract (ptr/layout pairing) is forwarded unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by `System.alloc` with this `layout`,
        // because `alloc`/`realloc` above never substitute pointers.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: contract (ptr/layout/new_size validity) is forwarded unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same pass-through argument as `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// The counter is process-wide, so a test thread running beside a measured
/// section would be counted as that section's allocations. Every test holds
/// this lock for its whole body, set-up included; a poisoned lock (an
/// earlier test failed) is still usable.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn data() -> Dataset {
    lkp_data::synthetic::generate(&SyntheticConfig {
        n_users: 24,
        n_items: 60,
        n_categories: 6,
        mean_interactions: 14.0,
        ..Default::default()
    })
}

fn trained(data: &Dataset) -> (MatrixFactorization, LowRankKernel) {
    let kernel = train_diversity_kernel(
        data,
        &DiversityKernelConfig {
            epochs: 2,
            pairs_per_epoch: 32,
            dim: 5,
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(23);
    let mut model = MatrixFactorization::new(
        data.n_users(),
        data.n_items(),
        8,
        AdamConfig {
            lr: 0.02,
            ..Default::default()
        },
        &mut rng,
    );
    let mut obj = LkpObjective::new(LkpKind::NegativeAware, kernel.clone());
    let trainer = Trainer::new(TrainConfig {
        epochs: 2,
        eval_every: 0,
        patience: 0,
        k: 3,
        n: 3,
        threads: 1,
        ..Default::default()
    });
    trainer.fit(&mut model, &mut obj, data);
    (model, kernel)
}

/// A fixed request mix: several users, overlapping candidate pools, so the
/// warm cache serves every request from a resident block.
fn requests(data: &Dataset) -> Vec<RankRequest> {
    (0..6)
        .map(|u| {
            let candidates: Vec<usize> =
                (0..30).map(|i| (u * 7 + i * 2) % data.n_items()).collect();
            RankRequest::new(u % data.n_users(), dedup(candidates), 5)
        })
        .collect()
}

fn dedup(mut xs: Vec<usize>) -> Vec<usize> {
    let mut seen = vec![false; 1 + xs.iter().copied().max().unwrap_or(0)];
    xs.retain(|&x| !std::mem::replace(&mut seen[x], true));
    xs
}

#[test]
fn warm_dense_serving_does_not_allocate() {
    let _serial = serial();
    let data = data();
    let (model, kernel) = trained(&data);
    // threads: 1 → the caller is the only worker; dispatch is inline with
    // no cross-thread machinery, so every allocation we count is serving's.
    let mut ranker = Ranker::new(
        RankingArtifact::snapshot(&model, &kernel),
        ServeConfig {
            threads: 1,
            ..Default::default()
        },
    );
    let reqs = requests(&data);
    let mut out: Vec<RankResponse> = Vec::new();

    // Warm-up: fills the kernel cache, grows every workspace and response
    // buffer to steady state.
    for _ in 0..4 {
        ranker.rank_batch_into(&reqs, &mut out);
    }
    let reference: Vec<Vec<usize>> = out.iter().map(|r| r.items.clone()).collect();

    let before = allocation_count();
    for _ in 0..8 {
        ranker.rank_batch_into(&reqs, &mut out);
    }
    let after = allocation_count();
    assert_eq!(after - before, 0, "warm serving batches must not allocate");

    // The alloc-free batches must still serve the exact same lists.
    for (resp, want) in out.iter().zip(&reference) {
        assert_eq!(&resp.items, want, "warm result drifted");
    }
}
