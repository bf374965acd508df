//! The threaded pump shell: a spawned driver thread owns the pump loop
//! against the real [`super::core::MonotonicClock`] (or any injected
//! clock), so the deterministic frontend core needs no caller-side pump
//! discipline to meet its deadlines.
//!
//! [`FrontendDriver::spawn`] moves a [`ServeFrontend`] behind a mutex,
//! starts the pump thread, and hands out cloneable [`DriverClient`]s.
//! Submitters go through [`DriverClient::submit`] (admission-checked, never
//! cuts inline — the pump thread owns batch dispatch) and claim responses
//! by ticket; the pump thread sleeps exactly until the next deadline cut is
//! due and is woken early by every submission. The driver is a thin shell:
//! all cut/SLO/degrade/swap semantics live in the deterministic core, which
//! is what the bitwise-equivalence tests pin.

use super::admission::{FrontendStats, SubmitError};
use super::core::{ServeFrontend, Ticket};
use super::swap::SwapReport;
use crate::{RankRequest, RankResponse, RankingArtifact, StagedSwap};
use lkp_models::Recommender;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Floor for the pump thread's sleep until the next deadline cut, so a zero
/// `max_wait` cannot spin a core; submissions still wake the thread
/// immediately.
const MIN_CUT_SLEEP: Duration = Duration::from_micros(200);

/// The pump thread's sleep when nothing is queued. Submissions wake it at
/// once, so this only bounds how late a TTL sweep of unclaimed responses
/// ([`crate::FrontendConfig::response_ttl`]) runs on a quiet queue.
const IDLE_SLEEP: Duration = Duration::from_millis(5);

struct DriverShared<M> {
    frontend: Mutex<ServeFrontend<M>>,
    /// Signaled on every submission (and shutdown) to wake the pump thread.
    wake: Condvar,
    /// Signaled after every pump that completed requests, for
    /// [`DriverClient::take_deadline`] waiters.
    served: Condvar,
    shutdown: AtomicBool,
}

impl<M> DriverShared<M> {
    fn lock(&self) -> MutexGuard<'_, ServeFrontend<M>> {
        // A panicking request is contained inside the ranker
        // (`RankOutcome::Panicked`), so a poisoned frontend mutex means a
        // bug in the frontend bookkeeping itself; the state is still
        // consistent enough to drain, so recover rather than wedge every
        // client.
        self.frontend
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Owner handle of the pump thread. Dropping it (or calling
/// [`FrontendDriver::shutdown`]) stops the pump after a final flush, so no
/// accepted ticket is ever lost.
pub struct FrontendDriver<M: Recommender + Send + Sync + 'static> {
    shared: Option<Arc<DriverShared<M>>>,
    pump: Option<JoinHandle<()>>,
}

/// A cloneable submission/redemption handle to a driven frontend. All
/// methods take brief locks; none blocks behind a ranking dispatch except
/// [`DriverClient::take_deadline`], which waits on a condvar.
pub struct DriverClient<M: Recommender + Send + Sync + 'static> {
    shared: Arc<DriverShared<M>>,
}

impl<M: Recommender + Send + Sync + 'static> Clone for DriverClient<M> {
    fn clone(&self) -> Self {
        DriverClient {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<M: Recommender + Send + Sync + 'static> FrontendDriver<M> {
    /// Moves `frontend` behind the driver's lock and spawns the pump
    /// thread. The frontend keeps whatever clock it was built with —
    /// production uses the default [`super::core::MonotonicClock`]; tests
    /// can drive a [`super::core::ManualClock`] handle they kept.
    pub fn spawn(frontend: ServeFrontend<M>) -> Self {
        let shared = Arc::new(DriverShared {
            frontend: Mutex::new(frontend),
            wake: Condvar::new(),
            served: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let pump_shared = Arc::clone(&shared);
        let pump = std::thread::Builder::new()
            .name("lkp-frontend-pump".into())
            .spawn(move || pump_loop(&pump_shared))
            .expect("spawn frontend pump thread");
        FrontendDriver {
            shared: Some(shared),
            pump: Some(pump),
        }
    }

    /// A new submission/redemption handle.
    pub fn client(&self) -> DriverClient<M> {
        DriverClient {
            shared: Arc::clone(self.shared.as_ref().expect("driver is running")),
        }
    }

    /// Stops accepting submissions, flushes everything pending, joins the
    /// pump thread, and returns the frontend — unless clients still hold
    /// handles, in which case `None` is returned and the frontend lives on
    /// behind the surviving clients (they can keep redeeming tickets;
    /// submissions keep failing with [`SubmitError::ShuttingDown`]).
    pub fn shutdown(mut self) -> Option<ServeFrontend<M>> {
        self.stop_pump();
        let shared = self.shared.take()?;
        Arc::try_unwrap(shared)
            .ok()
            .map(|s| s.frontend.into_inner().unwrap_or_else(|p| p.into_inner()))
    }

    fn stop_pump(&mut self) {
        if let Some(shared) = &self.shared {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.wake.notify_all();
        }
        if let Some(handle) = self.pump.take() {
            let _ = handle.join();
        }
    }
}

impl<M: Recommender + Send + Sync + 'static> Drop for FrontendDriver<M> {
    fn drop(&mut self) {
        self.stop_pump();
    }
}

impl<M: Recommender + Send + Sync + 'static> std::fmt::Debug for FrontendDriver<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontendDriver")
            .field("running", &self.pump.is_some())
            .finish()
    }
}

impl<M: Recommender + Send + Sync + 'static> DriverClient<M> {
    /// Admission-checked submission (see [`ServeFrontend::try_submit`]);
    /// wakes the pump thread so a newly-due batch is cut without waiting
    /// out the idle sleep.
    pub fn submit(&self, request: RankRequest) -> Result<Ticket, SubmitError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        let result = self.shared.lock().try_submit(request);
        if result.is_ok() {
            self.shared.wake.notify_all();
        }
        result
    }

    /// Claims the response for `ticket` if its batch has been cut.
    pub fn try_take(&self, ticket: Ticket) -> Option<RankResponse> {
        self.shared.lock().try_take(ticket)
    }

    /// Waits up to `timeout` for `ticket`'s response. Returns `None` on
    /// timeout (the ticket stays redeemable later).
    pub fn take_deadline(&self, ticket: Ticket, timeout: Duration) -> Option<RankResponse> {
        let deadline = std::time::Instant::now() + timeout;
        let mut guard = self.shared.lock();
        loop {
            if let Some(resp) = guard.try_take(ticket) {
                return Some(resp);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (g, _) = self
                .shared
                .served
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            guard = g;
        }
    }

    /// Abandons a ticket (see [`ServeFrontend::discard`]).
    pub fn discard(&self, ticket: Ticket) -> bool {
        self.shared.lock().discard(ticket)
    }

    /// Traffic counters of the driven frontend.
    pub fn stats(&self) -> FrontendStats {
        self.shared.lock().stats()
    }

    /// The current artifact generation.
    pub fn generation(&self) -> u64 {
        self.shared.lock().generation()
    }

    /// Requests pending + responses completed-but-unclaimed right now.
    pub fn depths(&self) -> (usize, usize) {
        let guard = self.shared.lock();
        (guard.pending_len(), guard.completed_len())
    }

    /// Hot-swaps the served artifact under live traffic. The expensive
    /// staging (building + prewarming the new generation's cache) runs
    /// *off* the frontend lock; only the cheap commit — pointer installs —
    /// happens under it, so concurrent submitters wait microseconds, not
    /// the prewarm time.
    pub fn swap_artifact(
        &self,
        artifact: RankingArtifact<M>,
        prewarm_plan: &[(usize, Vec<usize>)],
    ) -> SwapReport {
        let config = self.shared.lock().ranker().config().clone();
        let staged = StagedSwap::prepare(&config, artifact, prewarm_plan);
        let report = self.shared.lock().commit_swap(staged);
        // Post-swap deadlines may have moved; let the pump re-evaluate.
        self.shared.wake.notify_all();
        report
    }
}

impl<M: Recommender + Send + Sync + 'static> std::fmt::Debug for DriverClient<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriverClient").finish()
    }
}

/// The pump thread: sleep until the next deadline cut is due (woken early
/// by submissions), pump, repeat; on shutdown, flush and exit. The lock is
/// released for the whole sleep (condvar wait), so submitters and
/// redeemers are never blocked by an idle pump.
fn pump_loop<M: Recommender + Send + Sync + 'static>(shared: &DriverShared<M>) {
    let mut guard = shared.lock();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            guard.flush();
            shared.served.notify_all();
            return;
        }
        if guard.pump() > 0 {
            shared.served.notify_all();
        }
        // Sleep until the next deadline cut, or for `IDLE_SLEEP` with
        // nothing queued so TTL sweeps keep running.
        let sleep = guard
            .time_to_next_cut()
            .unwrap_or(IDLE_SLEEP)
            .max(MIN_CUT_SLEEP);
        let (g, _) = shared
            .wake
            .wait_timeout(guard, sleep)
            .unwrap_or_else(|p| p.into_inner());
        guard = g;
    }
}
