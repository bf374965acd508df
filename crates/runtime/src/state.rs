//! Per-worker reusable state: a typed slot map that lives as long as its
//! worker thread.

use std::any::{Any, TypeId};
use std::collections::HashMap;

/// A typed slot map owned by one pool worker.
///
/// Consumers key their scratch by type: the trainer keeps a `DppWorkspace`
/// per worker, the evaluator a score buffer, the serving layer its kernel
/// cache — all in the same state object, none visible to the others. Slots
/// are created on first access and then reused across every subsequent job
/// the worker runs, which is what makes pool execution steady-state
/// allocation-free for consumers that pre-size their scratch.
#[derive(Default)]
pub struct WorkerState {
    slots: HashMap<TypeId, Box<dyn Any + Send>>,
}

impl WorkerState {
    /// Creates an empty state (slots materialize on first access).
    pub fn new() -> Self {
        WorkerState::default()
    }

    /// Borrows the worker's `T` slot, creating it with `init` on first use.
    pub fn get_or_insert_with<T: Any + Send, F: FnOnce() -> T>(&mut self, init: F) -> &mut T {
        self.slots
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Box::new(init()))
            .downcast_mut::<T>()
            .expect("slot type is keyed by TypeId")
    }

    /// Borrows the worker's `T` slot, creating it with `T::default()` on
    /// first use.
    pub fn get_or_default<T: Any + Send + Default>(&mut self) -> &mut T {
        self.get_or_insert_with(T::default)
    }

    /// Borrows two *distinct* slots simultaneously, creating either with its
    /// `Default` on first use — the shape consumers need when one job
    /// threads two pieces of persistent state through the same call (e.g.
    /// the trainer's `DppWorkspace` plus its `DppBatchArena`).
    ///
    /// Panics if `A` and `B` are the same type (one slot cannot be borrowed
    /// mutably twice).
    pub fn get_or_default_pair<A, B>(&mut self) -> (&mut A, &mut B)
    where
        A: Any + Send + Default,
        B: Any + Send + Default,
    {
        let (ka, kb) = (TypeId::of::<A>(), TypeId::of::<B>());
        assert_ne!(ka, kb, "get_or_default_pair requires two distinct types");
        self.slots
            .entry(ka)
            .or_insert_with(|| Box::new(A::default()));
        self.slots
            .entry(kb)
            .or_insert_with(|| Box::new(B::default()));
        let [a, b] = self.slots.get_disjoint_mut([&ka, &kb]);
        (
            a.expect("slot A just ensured")
                .downcast_mut::<A>()
                .expect("slot type is keyed by TypeId"),
            b.expect("slot B just ensured")
                .downcast_mut::<B>()
                .expect("slot type is keyed by TypeId"),
        )
    }

    /// Borrows the worker's `T` slot if some earlier job created it —
    /// without materializing one. Used by post-run aggregation (e.g.
    /// collecting per-worker cache statistics) where creating empty state on
    /// workers that never ran the consumer would be misleading.
    pub fn get_mut<T: Any + Send>(&mut self) -> Option<&mut T> {
        self.slots
            .get_mut(&TypeId::of::<T>())
            .map(|b| b.downcast_mut::<T>().expect("slot type is keyed by TypeId"))
    }

    /// Whether a `T` slot already exists (i.e. some earlier job created it).
    pub fn contains<T: Any + Send>(&self) -> bool {
        self.slots.contains_key(&TypeId::of::<T>())
    }
}

impl std::fmt::Debug for WorkerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerState")
            .field("slots", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_persist_and_are_typed() {
        let mut s = WorkerState::new();
        assert!(!s.contains::<Vec<f64>>());
        s.get_or_default::<Vec<f64>>().push(1.0);
        s.get_or_default::<Vec<f64>>().push(2.0);
        assert_eq!(s.get_or_default::<Vec<f64>>().len(), 2);
        // A different type gets its own slot.
        *s.get_or_insert_with::<usize, _>(|| 7) += 1;
        assert_eq!(*s.get_or_default::<usize>(), 8);
        assert!(s.contains::<Vec<f64>>());
    }

    #[test]
    fn pair_accessor_borrows_two_slots_at_once() {
        let mut s = WorkerState::new();
        // Creation on first use, both slots at once.
        let (v, n) = s.get_or_default_pair::<Vec<f64>, usize>();
        v.push(1.5);
        *n = 3;
        // Both survive and stay consistent with the single accessors.
        assert_eq!(s.get_or_default::<Vec<f64>>(), &vec![1.5]);
        assert_eq!(*s.get_or_default::<usize>(), 3);
        // Order of the type parameters does not matter.
        let (n, v) = s.get_or_default_pair::<usize, Vec<f64>>();
        *n += 1;
        v.push(2.5);
        assert_eq!(*s.get_or_default::<usize>(), 4);
        assert_eq!(s.get_or_default::<Vec<f64>>().len(), 2);
    }

    #[test]
    #[should_panic(expected = "distinct types")]
    fn pair_accessor_rejects_identical_types() {
        let mut s = WorkerState::new();
        let _ = s.get_or_default_pair::<usize, usize>();
    }

    #[test]
    fn get_mut_does_not_materialize_slots() {
        let mut s = WorkerState::new();
        assert!(s.get_mut::<Vec<f64>>().is_none());
        assert!(!s.contains::<Vec<f64>>());
        s.get_or_default::<Vec<f64>>().push(9.0);
        assert_eq!(s.get_mut::<Vec<f64>>().unwrap().len(), 1);
    }
}
