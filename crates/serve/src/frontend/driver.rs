//! The threaded pump shell: a spawned thread owns the [`Ranker`] and cuts a
//! batch whenever it is free.
//!
//! [`FrontendDriver::spawn`] splits a [`ServeFrontend`]: its queue goes
//! behind the driver's mutex, its ranker to the pump thread, and cloneable
//! [`DriverClient`]s submit, redeem and swap from any thread. The mutex
//! guards bookkeeping only — the queue, completed responses, counters and
//! staged swaps. The pump takes up to `max_batch` pending requests under
//! it, ranks them with no guard held, and publishes the responses under it
//! again, so a submitter never waits behind a ranking dispatch; staged swaps
//! commit between batches. All cut/SLO/degrade semantics live in the
//! deterministic core, which is what the bitwise-equivalence tests pin.

use super::admission::{FrontendStats, SubmitError};
use super::core::{Batch, Queue, ServeFrontend, Ticket};
use super::swap::{commit, SwapReport};
use crate::{RankRequest, RankResponse, Ranker, RankingArtifact, ServeConfig, StagedSwap};
use lkp_models::Recommender;
use std::collections::VecDeque;
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// The pump thread's sleep when nothing is queued. Submissions wake it at
/// once, so this only bounds how late a TTL sweep of unclaimed responses
/// ([`crate::FrontendConfig::response_ttl`]) runs on a quiet queue.
const IDLE_SLEEP: Duration = Duration::from_millis(5);

/// Everything the driver's mutex guards.
struct State<M> {
    queue: Queue,
    /// Swaps staged by clients, committed by the pump in order; each
    /// report goes back on its channel.
    staged: VecDeque<(StagedSwap<M>, SyncSender<SwapReport>)>,
    /// The generation of the last commit.
    generation: u64,
    /// Set once by shutdown; the pump exits when nothing is left to serve.
    shutdown: bool,
}

struct DriverShared<M> {
    state: Mutex<State<M>>,
    /// The pump ranker's config, for staging swaps off the lock.
    config: ServeConfig,
    /// Signaled on every submission, staged swap and shutdown to wake the
    /// pump thread.
    wake: Condvar,
    /// Signaled after every published batch, for
    /// [`DriverClient::take_deadline`] waiters.
    served: Condvar,
}

impl<M> DriverShared<M> {
    fn lock(&self) -> MutexGuard<'_, State<M>> {
        // A panicking request is contained inside the ranker
        // (`RankOutcome::Panicked`), so a poisoned mutex means a bug in the
        // bookkeeping itself; the state is still consistent enough to
        // drain, so recover rather than wedge every client.
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Owner handle of the pump thread. Dropping it (or calling
/// [`FrontendDriver::shutdown`]) stops the pump once everything pending is
/// served, so no accepted ticket is ever lost.
pub struct FrontendDriver<M: Recommender + Send + Sync + 'static> {
    shared: Option<Arc<DriverShared<M>>>,
    pump: Option<JoinHandle<Ranker<M>>>,
}

/// A cloneable submission/redemption handle to a driven frontend. All
/// methods take brief locks; none blocks behind a ranking dispatch.
/// [`DriverClient::take_deadline`] and [`DriverClient::swap_artifact`]
/// wait on a condvar.
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
    /// Moves `frontend`'s queue behind the driver's lock and its ranker to
    /// a new pump thread. The queue keeps whatever clock it was built
    /// with — production uses the default [`super::core::MonotonicClock`];
    /// tests can drive a [`super::core::ManualClock`] handle they kept.
    pub fn spawn(frontend: ServeFrontend<M>) -> Self {
        let ServeFrontend {
            mut ranker, queue, ..
        } = frontend;
        let shared = Arc::new(DriverShared {
            config: ranker.config().clone(),
            state: Mutex::new(State {
                generation: ranker.generation(),
                queue,
                staged: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            served: Condvar::new(),
        });
        let pump_shared = Arc::clone(&shared);
        let pump = std::thread::Builder::new()
            .name("lkp-frontend-pump".into())
            .spawn(move || {
                pump_loop(&pump_shared, &mut ranker);
                ranker
            })
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

    /// Stops accepting submissions, serves everything pending, joins the
    /// pump thread, and returns the frontend — unless clients still hold
    /// handles, in which case `None` is returned and the queue lives on
    /// behind the surviving clients (they can keep redeeming tickets;
    /// submissions keep failing with [`SubmitError::ShuttingDown`]).
    pub fn shutdown(mut self) -> Option<ServeFrontend<M>> {
        let ranker = self.stop_pump()?;
        let shared = Arc::try_unwrap(self.shared.take()?).ok()?;
        let state = shared.state.into_inner().unwrap_or_else(|p| p.into_inner());
        Some(ServeFrontend {
            ranker,
            queue: state.queue,
            batch: Batch::default(),
        })
    }

    /// Signals shutdown and joins the pump, returning its ranker (`None`
    /// once already joined, or if the pump thread panicked).
    fn stop_pump(&mut self) -> Option<Ranker<M>> {
        if let Some(shared) = &self.shared {
            shared.lock().shutdown = true;
            shared.wake.notify_all();
        }
        self.pump.take()?.join().ok()
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
    /// wakes the pump thread, which cuts at once if its ranker is free.
    pub fn submit(&self, request: RankRequest) -> Result<Ticket, SubmitError> {
        let mut state = self.shared.lock();
        // The pump exits only under this lock, with the flag set and the
        // queue empty, so an admitted request is always served.
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let result = state.queue.try_submit(request);
        drop(state);
        if result.is_ok() {
            self.shared.wake.notify_all();
        }
        result
    }

    /// Waits up to `timeout` for `ticket`'s response (a zero timeout just
    /// polls). Returns `None` on timeout (the ticket stays redeemable
    /// later).
    pub fn take_deadline(&self, ticket: Ticket, timeout: Duration) -> Option<RankResponse> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.shared.lock();
        loop {
            if let Some(resp) = state.queue.try_take(ticket) {
                return Some(resp);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            state = self
                .shared
                .served
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }

    /// Abandons a ticket (see [`ServeFrontend::discard`]); a ticket whose
    /// batch is being ranked has its response dropped at publish.
    pub fn discard(&self, ticket: Ticket) -> bool {
        self.shared.lock().queue.discard(ticket)
    }

    /// Traffic counters of the driven frontend.
    pub fn stats(&self) -> FrontendStats {
        self.shared.lock().queue.stats
    }

    /// The generation of the last committed swap.
    pub fn generation(&self) -> u64 {
        self.shared.lock().generation
    }

    /// Hot-swaps the served artifact under live traffic. Staging (building
    /// and prewarming the new generation's cache) runs on the calling
    /// thread with no guard held; the pump commits the staged swap between
    /// batches, and this returns once it has, with
    /// [`DriverClient::generation`] already reporting the new generation.
    ///
    /// # Panics
    /// If the driver has shut down (no pump is left to commit).
    pub fn swap_artifact(
        &self,
        artifact: RankingArtifact<M>,
        prewarm_plan: &[(usize, Vec<usize>)],
    ) -> SwapReport {
        let staged = StagedSwap::prepare(&self.shared.config, artifact, prewarm_plan);
        let mut state = self.shared.lock();
        assert!(
            !state.shutdown,
            "swap_artifact on a driver that has shut down"
        );
        let (reply, committed) = mpsc::sync_channel(1);
        state.staged.push_back((staged, reply));
        drop(state);
        self.shared.wake.notify_all();
        committed
            .recv()
            .expect("the pump commits every staged swap")
    }
}

impl<M: Recommender + Send + Sync + 'static> std::fmt::Debug for DriverClient<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriverClient").finish()
    }
}

/// The pump thread. Under the lock it waits for work, then takes a staged
/// swap or cuts up to `max_batch` pending requests; with the guard dropped
/// it commits or ranks; it then publishes under the lock again. On
/// shutdown it exits once nothing is pending or staged.
fn pump_loop<M: Recommender + Send + Sync + 'static>(
    shared: &DriverShared<M>,
    ranker: &mut Ranker<M>,
) {
    let mut batch = Batch::default();
    loop {
        let staged = {
            let mut state = shared.lock();
            loop {
                state.queue.sweep_responses();
                if !state.staged.is_empty() || state.queue.pending_len() > 0 {
                    break;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .wake
                    .wait_timeout(state, IDLE_SLEEP)
                    .unwrap_or_else(|p| p.into_inner())
                    .0;
            }
            let staged = state.staged.pop_front();
            if staged.is_none() {
                state.queue.cut(ranker.generation(), &mut batch);
            }
            staged
        };
        match staged {
            Some((staged, reply)) => {
                let report = commit(ranker, staged);
                let mut state = shared.lock();
                state.queue.record_swap(report);
                state.generation = report.generation;
                let _ = reply.send(report);
            }
            None => {
                batch.rank(ranker);
                shared.lock().queue.publish(&mut batch);
                shared.served.notify_all();
            }
        }
    }
}
