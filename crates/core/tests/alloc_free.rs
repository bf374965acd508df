//! Asserts the steady-state LkP apply path performs **zero heap
//! allocations** per instance.
//!
//! This test binary installs a counting global allocator (scoped to this
//! binary only — integration tests link their own executables, so the rest
//! of the suite is unaffected). After a warm-up phase that grows every
//! reusable buffer to its steady-state size, the full per-instance pipeline
//! — score → kernel staging → eigendecomposition → ESP normalizer →
//! gradients → accumulate → optimizer step — must not touch the allocator.

use lkp_core::objective::{InstanceGrad, LkpKind, LkpObjective};
use lkp_core::{train_diversity_kernel, DiversityKernelConfig, Objective};
use lkp_data::{GroundSetInstance, SyntheticConfig};
use lkp_dpp::DppWorkspace;
use lkp_models::{MatrixFactorization, Recommender};
use lkp_nn::AdamConfig;
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

#[test]
fn steady_state_lkp_apply_path_does_not_allocate() {
    let _serial = serial();
    let data = lkp_data::synthetic::generate(&SyntheticConfig {
        n_users: 40,
        n_items: 120,
        n_categories: 8,
        mean_interactions: 18.0,
        ..Default::default()
    });
    let kernel = train_diversity_kernel(
        &data,
        &DiversityKernelConfig {
            epochs: 2,
            pairs_per_epoch: 32,
            dim: 8,
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(11);
    let mut model = MatrixFactorization::new(
        data.n_users(),
        data.n_items(),
        16,
        AdamConfig::default(),
        &mut rng,
    );
    // Two instances with different users/items so the warm-up exercises the
    // sparse-gradient buffer pool beyond a single row set.
    let instances = [
        GroundSetInstance {
            user: 3,
            positives: vec![0, 5, 9, 14, 20],
            negatives: vec![50, 61, 72, 83, 94],
        },
        GroundSetInstance {
            user: 7,
            positives: vec![2, 8, 13, 40, 21],
            negatives: vec![55, 66, 77, 88, 99],
        },
    ];

    for kind in [LkpKind::PositiveOnly, LkpKind::NegativeAware] {
        let obj = LkpObjective::new(kind, kernel.clone());
        let mut ws = DppWorkspace::new();
        let mut out = InstanceGrad::default();

        // Warm-up: grow every buffer (workspace, grad slots, the model's
        // pending-gradient pool, Adam rows) to steady-state capacity.
        for _ in 0..20 {
            for inst in &instances {
                obj.compute_into(&model, inst.as_ref(), &mut ws, &mut out);
                obj.accumulate(&mut model, &out);
                model.step();
            }
        }

        let before = allocation_count();
        for _ in 0..100 {
            for inst in &instances {
                obj.compute_into(&model, inst.as_ref(), &mut ws, &mut out);
                assert!(!out.dscores.is_empty(), "instance unexpectedly skipped");
                obj.accumulate(&mut model, &out);
                model.step();
            }
        }
        let delta = allocation_count() - before;
        assert_eq!(
            delta, 0,
            "{kind:?}: steady-state apply path performed {delta} heap allocations over 200 instances"
        );
    }
}

#[test]
fn first_instance_allocates_then_reuse_kicks_in() {
    // Sanity check on the counter itself: the very first pass must allocate
    // (buffers grow from empty), otherwise the zero-delta assertion above
    // would be vacuous.
    let _serial = serial();
    let data = lkp_data::synthetic::generate(&SyntheticConfig {
        n_users: 20,
        n_items: 60,
        n_categories: 6,
        mean_interactions: 15.0,
        ..Default::default()
    });
    let kernel = train_diversity_kernel(
        &data,
        &DiversityKernelConfig {
            epochs: 1,
            pairs_per_epoch: 16,
            dim: 4,
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(2);
    let mut model = MatrixFactorization::new(
        data.n_users(),
        data.n_items(),
        8,
        AdamConfig::default(),
        &mut rng,
    );
    let inst = GroundSetInstance {
        user: 1,
        positives: vec![0, 3, 6],
        negatives: vec![30, 41, 52],
    };
    let obj = LkpObjective::new(LkpKind::PositiveOnly, kernel);
    let mut ws = DppWorkspace::new();
    let mut out = InstanceGrad::default();

    let before = allocation_count();
    obj.compute_into(&model, inst.as_ref(), &mut ws, &mut out);
    obj.accumulate(&mut model, &out);
    model.step();
    assert!(
        allocation_count() > before,
        "cold pass should allocate buffers"
    );
}
