//! L2 fixture: seeded lock-scope violations. `tests/engine.rs` asserts the
//! exact `line` of every finding — renumbering this file breaks that test.

use std::sync::Mutex;

pub struct Cache {
    inner: Mutex<Vec<f64>>,
}

fn assemble_kernel(n: usize) -> Vec<f64> {
    vec![0.0; n * n]
}

fn compute_scores(n: usize) -> f64 {
    n as f64
}

impl Cache {
    /// Violation: kernel assembly while the guard is live.
    pub fn bad_fill(&self, n: usize) {
        let mut guard = self.inner.lock().unwrap(); // guard taken line 21
        let block = assemble_kernel(n); // line 22: finding
        *guard = block;
    }

    /// Violation: expensive call under a guard even in a nested block.
    pub fn bad_nested(&self, n: usize) -> f64 {
        let guard = self.inner.lock().unwrap(); // guard taken line 28
        if guard.len() > n {
            return compute_scores(n); // line 30: finding
        }
        0.0
    }

    /// OK: the work happens before the lock (build-outside-lock idiom).
    pub fn good_fill(&self, n: usize) {
        let block = assemble_kernel(n);
        let mut guard = self.inner.lock().unwrap();
        *guard = block;
    }

    /// OK: the guard is dropped before the expensive call.
    pub fn good_drop(&self, n: usize) -> f64 {
        let guard = self.inner.lock().unwrap();
        let len = guard.len();
        drop(guard);
        compute_scores(len + n)
    }

    /// OK: a temporary guard lives only on its own line.
    pub fn good_temporary(&self, n: usize) -> f64 {
        let len = self.inner.lock().unwrap().len();
        compute_scores(len + n)
    }
}

fn rank_batch_into(n: usize) -> f64 {
    n as f64
}

impl Cache {
    /// Violation: ranking a batch while the guard is live.
    pub fn bad_rank(&self, n: usize) -> f64 {
        let guard = self.inner.lock().unwrap(); // guard taken line 64
        rank_batch_into(guard.len() + n) // line 65: finding
    }
}
