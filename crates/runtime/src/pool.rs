//! The persistent fork-join worker pool.

use crate::WorkerState;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A type-erased pointer to the job closure of the current dispatch.
///
/// `data` points at the caller's closure (a `&F` on [`WorkerPool::run`]'s
/// stack frame); `call` is the monomorphized trampoline that casts it back.
/// The pointer is only dereferenced between job publication and the
/// completion barrier inside `run`, which outlives neither the closure nor
/// anything it borrows.
#[derive(Clone, Copy)]
struct JobPtr {
    data: *const (),
    // SAFETY: callers of `call` must pass a `data` created from a live `&F`
    // whose `F` matches the trampoline's monomorphization (see `call_job`).
    call: unsafe fn(*const (), usize, &mut WorkerState),
}

// SAFETY: the pointee is `Sync` (enforced by `run`'s bounds), and the
// pointer's lifetime is bracketed by the dispatch barrier, so sending the
// pointer to worker threads cannot outlive the closure it points at.
unsafe impl Send for JobPtr {}

// SAFETY: contract — `data` must point at a live `F`; upheld by `run`,
// which builds the pair and blocks until every worker has finished.
unsafe fn call_job<F: Fn(usize, &mut WorkerState) + Sync>(
    data: *const (),
    worker: usize,
    state: &mut WorkerState,
) {
    // SAFETY: `data` was created from a live `&F` by `run`, which blocks
    // until every worker has finished with it.
    unsafe { (*(data as *const F))(worker, state) }
}

struct PoolState {
    /// The published job of the current dispatch generation.
    job: Option<JobPtr>,
    /// Dispatch generation counter; bumped once per `run`.
    epoch: u64,
    /// Spawned workers still executing the current job.
    remaining: usize,
    /// Spawned workers whose job closure panicked this dispatch.
    panicked: usize,
    /// The first panic payload captured from a spawned worker this
    /// dispatch, resumed on the caller after the barrier so the original
    /// panic message survives the pool boundary.
    payload: Option<Box<dyn std::any::Any + Send>>,
    /// Tells workers to exit their loop.
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signaled when a new job is published (or on shutdown).
    start: Condvar,
    /// Signaled when the last spawned worker finishes the current job.
    done: Condvar,
}

/// A persistent pool of `n` fork-join workers (the caller is worker 0, so
/// `n − 1` threads are spawned; `n = 1` spawns none and runs inline).
///
/// [`WorkerPool::run`] is the primitive: it executes `job(worker_index,
/// &mut WorkerState)` once per worker and returns when all are done — a
/// drop-in replacement for the per-call `std::thread::scope` fork-join, with
/// the spawn cost paid once per pool instead of once per call. The safe
/// helpers [`WorkerPool::zip_chunks`] and [`WorkerPool::map_chunks`] cover
/// the two shapes every consumer in this workspace needs: disjoint
/// input/output chunk processing (trainer batches, serving batches) and
/// per-chunk result collection in chunk order (evaluation merge).
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Worker 0's (the caller's) persistent state.
    caller_state: WorkerState,
    threads: usize,
}

impl WorkerPool {
    /// Creates a pool with `threads` workers (0 resolves to the host's
    /// available parallelism). Spawns `threads − 1` background threads.
    pub fn new(threads: usize) -> Self {
        let threads = crate::resolve_threads(threads);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                remaining: 0,
                panicked: 0,
                payload: None,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lkp-pool-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            caller_state: WorkerState::new(),
            threads,
        }
    }

    /// The pool's worker count (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job(worker_index, state)` once on every worker and blocks until
    /// all have finished. Worker indices are `0..threads()`; the caller runs
    /// index 0 inline. Panics in any worker propagate to the caller after
    /// the barrier (the pool itself stays usable).
    pub fn run<F>(&mut self, job: F)
    where
        F: Fn(usize, &mut WorkerState) + Sync,
    {
        let spawned = self.handles.len();
        if spawned > 0 {
            let ptr = JobPtr {
                data: &job as *const F as *const (),
                call: call_job::<F>,
            };
            let mut guard = self.shared.state.lock().expect("pool lock");
            guard.job = Some(ptr);
            guard.epoch += 1;
            guard.remaining = spawned;
            guard.panicked = 0;
            guard.payload = None;
            drop(guard);
            self.shared.start.notify_all();
        }

        // The caller is worker 0. Even if its share panics, we must reach
        // the barrier first — returning early would free `job` while
        // spawned workers still hold a pointer into this frame.
        let caller_result = catch_unwind(AssertUnwindSafe(|| job(0, &mut self.caller_state)));

        let (worker_panics, worker_payload) = if spawned > 0 {
            let mut guard = self.shared.state.lock().expect("pool lock");
            while guard.remaining > 0 {
                guard = self.shared.done.wait(guard).expect("pool lock");
            }
            guard.job = None;
            (guard.panicked, guard.payload.take())
        } else {
            (0, None)
        };

        // Caller-side panics take precedence (they already carry the
        // original payload); otherwise re-raise the first spawned worker's
        // payload so the message is not lost at the pool boundary.
        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_payload {
            resume_unwind(payload);
        }
        if worker_panics > 0 {
            panic!("{worker_panics} pool worker(s) panicked");
        }
    }

    /// Splits `input` and `out` into the same contiguous per-worker chunks
    /// and runs `f(chunk_offset, input_chunk, out_chunk, state)` on each
    /// non-empty pair. Chunk boundaries depend only on `input.len()` and the
    /// pool width; each output element is written by exactly one worker, so
    /// element values are independent of the thread count.
    pub fn zip_chunks<T, U, F>(&mut self, input: &[T], out: &mut [U], f: F)
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &[T], &mut [U], &mut WorkerState) + Sync,
    {
        self.zip_chunks_bounded(input, out, &[], f);
    }

    /// [`WorkerPool::zip_chunks`] with uniform-run dispatch: `bounds` are
    /// ascending split points strictly inside `(0, input.len())`, and `f` is
    /// invoked once per maximal sub-run of a worker's chunk that crosses no
    /// bound — so when bounds separate groups of like-shaped work (e.g.
    /// instances bucketed by ground-set size), every `f` call sees a slice
    /// drawn from exactly one group and can take a batched fast path over
    /// it. One pool dispatch covers all groups; with `bounds` empty this is
    /// exactly [`WorkerPool::zip_chunks`].
    ///
    /// Chunk boundaries (and therefore which worker computes which element)
    /// depend only on `input.len()` and the pool width, never on `bounds`,
    /// and each output element is still written by exactly one worker —
    /// element values remain independent of both the thread count and the
    /// grouping.
    pub fn zip_chunks_bounded<T, U, F>(
        &mut self,
        input: &[T],
        out: &mut [U],
        bounds: &[usize],
        f: F,
    ) where
        T: Sync,
        U: Send,
        F: Fn(usize, &[T], &mut [U], &mut WorkerState) + Sync,
    {
        assert_eq!(
            input.len(),
            out.len(),
            "zip_chunks input/output lengths differ"
        );
        debug_assert!(
            bounds.windows(2).all(|w| w[0] <= w[1]) && bounds.iter().all(|&b| b < input.len()),
            "bounds must ascend within (0, len)"
        );
        let len = input.len();
        let chunk = len.div_ceil(self.threads).max(1);
        let out_ptr = SendPtr(out.as_mut_ptr());
        self.run(move |worker, state| {
            let start = (worker * chunk).min(len);
            let end = ((worker + 1) * chunk).min(len);
            if start >= end {
                return;
            }
            let mut next_bound = bounds.partition_point(|&b| b <= start);
            let mut run_start = start;
            while run_start < end {
                while next_bound < bounds.len() && bounds[next_bound] <= run_start {
                    next_bound += 1;
                }
                let run_end = if next_bound < bounds.len() {
                    bounds[next_bound].min(end)
                } else {
                    end
                };
                // SAFETY: [run_start, run_end) sub-ranges are disjoint both
                // across workers (chunks) and within a worker (runs), and
                // `run` does not return before every worker is done, so each
                // sub-slice is exclusively borrowed for the dispatch.
                let out_chunk = unsafe {
                    std::slice::from_raw_parts_mut(
                        out_ptr.get().add(run_start),
                        run_end - run_start,
                    )
                };
                f(run_start, &input[run_start..run_end], out_chunk, state);
                run_start = run_end;
            }
        });
    }

    /// Splits `input` into contiguous per-worker chunks, runs
    /// `f(chunk_offset, input_chunk, state)` on each non-empty one, and
    /// returns the per-chunk results **in chunk order** (worker 0's chunk
    /// first). Empty chunks (when `input.len() < threads()`) yield no entry.
    pub fn map_chunks<T, R, F>(&mut self, input: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T], &mut WorkerState) -> R + Sync,
    {
        let len = input.len();
        let chunk = len.div_ceil(self.threads).max(1);
        let mut results: Vec<Option<R>> = (0..self.threads).map(|_| None).collect();
        let res_ptr = SendPtr(results.as_mut_ptr());
        self.run(move |worker, state| {
            let start = (worker * chunk).min(len);
            let end = ((worker + 1) * chunk).min(len);
            if start >= end {
                return;
            }
            let value = f(start, &input[start..end], state);
            // SAFETY: each worker writes only its own pre-allocated slot.
            unsafe { *res_ptr.get().add(worker) = Some(value) };
        });
        results.into_iter().flatten().collect()
    }

    /// Borrows the caller's (worker 0's) persistent state — useful for
    /// consumers that also run work outside pool dispatches and want to
    /// share the same scratch.
    pub fn caller_state(&mut self) -> &mut WorkerState {
        &mut self.caller_state
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut guard = self.shared.state.lock().expect("pool lock");
            guard.shutdown = true;
        }
        self.shared.start.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

/// Raw-pointer wrapper that may cross the dispatch boundary. Soundness is
/// argued at each construction site (disjoint ranges / exclusive slots).
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: the wrapped pointer is only dereferenced at construction-site
// argued disjoint offsets, never concurrently at the same location.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: shared references to the wrapper expose only the raw pointer
// value; all dereferences go through the per-site disjointness arguments.
unsafe impl<T> Sync for SendPtr<T> {}

fn worker_loop(shared: &Shared, index: usize) {
    let mut state = WorkerState::new();
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut guard = shared.state.lock().expect("pool lock");
            loop {
                if guard.shutdown {
                    return;
                }
                if guard.epoch != seen_epoch {
                    if let Some(job) = guard.job {
                        seen_epoch = guard.epoch;
                        break job;
                    }
                }
                guard = shared.start.wait(guard).expect("pool lock");
            }
        };
        // SAFETY: the job pointer stays valid until `run`'s barrier, which
        // cannot pass before the `remaining` decrement below.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe {
            (job.call)(job.data, index, &mut state)
        }));
        let mut guard = shared.state.lock().expect("pool lock");
        if let Err(payload) = result {
            guard.panicked += 1;
            if guard.payload.is_none() {
                guard.payload = Some(payload);
            }
        }
        guard.remaining -= 1;
        if guard.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_executes_once_per_worker() {
        for threads in [1, 2, 4, 7] {
            let mut pool = WorkerPool::new(threads);
            let count = AtomicUsize::new(0);
            let seen = Mutex::new(Vec::new());
            pool.run(|w, _| {
                count.fetch_add(1, Ordering::SeqCst);
                seen.lock().unwrap().push(w);
            });
            assert_eq!(count.load(Ordering::SeqCst), threads);
            let mut ids = seen.into_inner().unwrap();
            ids.sort_unstable();
            assert_eq!(ids, (0..threads).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_state_persists_across_dispatches() {
        let mut pool = WorkerPool::new(4);
        for round in 1..=5usize {
            pool.run(|_, state| {
                *state.get_or_default::<usize>() += 1;
            });
            let counts = Mutex::new(Vec::new());
            pool.run(|_, state| {
                counts
                    .lock()
                    .unwrap()
                    .push(*state.get_or_default::<usize>());
            });
            let counts = counts.into_inner().unwrap();
            assert_eq!(counts, vec![round; 4], "round {round}");
        }
    }

    #[test]
    fn zip_chunks_covers_every_element_exactly_once() {
        for threads in [1, 2, 3, 4, 7] {
            for len in [0usize, 1, 5, 16, 33] {
                let input: Vec<usize> = (0..len).collect();
                let mut out = vec![usize::MAX; len];
                let mut pool = WorkerPool::new(threads);
                pool.zip_chunks(&input, &mut out, |offset, inp, outp, _| {
                    assert_eq!(inp[0], offset, "offset is the chunk's global start");
                    for (slot, &v) in outp.iter_mut().zip(inp) {
                        *slot = v * 10;
                    }
                });
                assert_eq!(
                    out,
                    input.iter().map(|v| v * 10).collect::<Vec<_>>(),
                    "threads={threads} len={len}"
                );
            }
        }
    }

    #[test]
    fn bounded_zip_runs_never_straddle_bounds_and_cover_once() {
        for threads in [1usize, 2, 3, 4, 7] {
            for len in [1usize, 5, 16, 33] {
                let input: Vec<usize> = (0..len).collect();
                let bounds: Vec<usize> = (1..len).filter(|b| b % 5 == 0).collect();
                let mut out = vec![usize::MAX; len];
                let mut pool = WorkerPool::new(threads);
                pool.zip_chunks_bounded(&input, &mut out, &bounds, |offset, inp, outp, _| {
                    assert_eq!(inp[0], offset);
                    // The run crosses no bound: all elements in one segment.
                    let seg = |i: usize| bounds.partition_point(|&b| b <= i);
                    assert!(
                        inp.iter().all(|&i| seg(i) == seg(offset)),
                        "run {offset}..{} straddles bounds {bounds:?}",
                        offset + inp.len()
                    );
                    for (slot, &v) in outp.iter_mut().zip(inp) {
                        *slot = v * 3 + 1;
                    }
                });
                assert_eq!(
                    out,
                    input.iter().map(|v| v * 3 + 1).collect::<Vec<_>>(),
                    "threads={threads} len={len}"
                );
            }
        }
    }

    #[test]
    fn bounded_zip_with_empty_bounds_equals_zip_chunks() {
        // zip_chunks delegates to the bounded form; the f-call pattern must
        // be one call per worker chunk in both spellings.
        let input: Vec<usize> = (0..20).collect();
        for threads in [1usize, 3, 4] {
            let mut pool = WorkerPool::new(threads);
            let mut out_a = vec![0usize; 20];
            let calls_a = Mutex::new(Vec::new());
            pool.zip_chunks(&input, &mut out_a, |offset, inp, outp, _| {
                calls_a.lock().unwrap().push((offset, inp.len()));
                for (slot, &v) in outp.iter_mut().zip(inp) {
                    *slot = v + 7;
                }
            });
            let mut out_b = vec![0usize; 20];
            let calls_b = Mutex::new(Vec::new());
            pool.zip_chunks_bounded(&input, &mut out_b, &[], |offset, inp, outp, _| {
                calls_b.lock().unwrap().push((offset, inp.len()));
                for (slot, &v) in outp.iter_mut().zip(inp) {
                    *slot = v + 7;
                }
            });
            assert_eq!(out_a, out_b);
            let mut a = calls_a.into_inner().unwrap();
            let mut b = calls_b.into_inner().unwrap();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "threads={threads}");
        }
    }

    #[test]
    fn bounded_zip_tolerates_duplicate_bounds() {
        let input: Vec<usize> = (0..10).collect();
        let mut out = vec![0usize; 10];
        let mut pool = WorkerPool::new(2);
        pool.zip_chunks_bounded(&input, &mut out, &[4, 4, 7], |_, inp, outp, _| {
            assert!(!inp.is_empty(), "no empty runs");
            for (slot, &v) in outp.iter_mut().zip(inp) {
                *slot = v * 2;
            }
        });
        assert_eq!(out, input.iter().map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_chunks_returns_results_in_chunk_order() {
        let input: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 4, 7] {
            let mut pool = WorkerPool::new(threads);
            let sums = pool.map_chunks(&input, |_, chunk, _| chunk.iter().sum::<usize>());
            assert_eq!(sums.iter().sum::<usize>(), 4950, "threads={threads}");
            // Chunk order: offsets strictly increase, so partial sums of the
            // contiguous chunks reconstruct the prefix structure.
            let offsets = pool.map_chunks(&input, |offset, _, _| offset);
            let mut sorted = offsets.clone();
            sorted.sort_unstable();
            assert_eq!(offsets, sorted);
        }
    }

    #[test]
    fn pool_survives_worker_panics() {
        let mut pool = WorkerPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(|w, _| {
                if w == 2 {
                    panic!("worker boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool is still usable after a panic.
        let count = AtomicUsize::new(0);
        pool.run(|_, _| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn caller_panic_still_joins_barrier() {
        let mut pool = WorkerPool::new(3);
        let done = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(|w, _| {
                if w == 0 {
                    panic!("caller boom");
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(result.is_err());
        assert_eq!(done.load(Ordering::SeqCst), 2);
        pool.run(|_, _| {});
    }

    #[test]
    fn borrowed_data_is_visible_to_workers() {
        // The whole point of the scope-compatible API: jobs may borrow from
        // the caller's stack.
        let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let mut pool = WorkerPool::new(4);
        let total = Mutex::new(0.0);
        pool.run(|w, _| {
            let chunk = data.len().div_ceil(4);
            let start = (w * chunk).min(data.len());
            let end = ((w + 1) * chunk).min(data.len());
            let local: f64 = data[start..end].iter().sum();
            *total.lock().unwrap() += local;
        });
        assert_eq!(*total.lock().unwrap(), 499_500.0);
    }
}
