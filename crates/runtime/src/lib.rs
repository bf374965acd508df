//! `lkp-runtime` — the shared execution substrate for every parallel phase.
//!
//! Before this crate, each parallel consumer (trainer mini-batches, the
//! evaluation harness) spawned fresh `std::thread::scope` workers per call.
//! That is correct but re-pays thread spawn/join on every mini-batch, caps
//! scaling on many-core hosts, and leaves no persistent execution layer a
//! request-serving path could sit on. This crate extracts the pattern into
//! one [`WorkerPool`]:
//!
//! * **Persistent** — worker threads are spawned once and parked on a
//!   condvar between jobs; a fork-join dispatch costs one mutex round-trip
//!   instead of `n` thread spawns.
//! * **Per-worker reusable state** — every worker owns a [`WorkerState`]
//!   (a typed slot map) that survives across jobs, so consumers keep their
//!   scratch buffers (`DppWorkspace`, score vectors, kernel caches, …) warm
//!   for the whole lifetime of the pool instead of per batch.
//! * **Deterministic fork-join** — [`WorkerPool::run`] executes one closure
//!   per worker over statically partitioned chunks and does not return until
//!   every worker finished, exactly like `std::thread::scope`. Consumers
//!   that accumulate results in chunk order therefore produce results
//!   **identical at any thread count**, including 1 (where no thread other
//!   than the caller ever runs).
//!
//! The caller participates as worker 0, so a pool of `n` threads spawns only
//! `n − 1` background workers and a single-threaded pool spawns none — the
//! serial path stays a plain inline loop.

mod pool;
mod state;

pub use pool::WorkerPool;
pub use state::WorkerState;

/// Resolves a requested thread budget: `0` means "use the host parallelism",
/// anything else is taken literally (clamped to at least 1).
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threads_zero_is_host_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
