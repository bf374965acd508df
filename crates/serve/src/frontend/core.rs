//! The deterministic frontend core: clocks, the cut rule, admission, and
//! ticket redemption. Everything here is driven by an injected [`Clock`]
//! and owns no threads — the threaded shell lives in
//! [`super::driver::FrontendDriver`].
//!
//! A cut is three steps — `Queue::cut`, `Batch::rank`, `Queue::publish` —
//! so the driver can hold its lock for the cheap first and last and rank
//! with no guard held.

use super::admission::{FrontendStats, SubmitError};
use super::swap::{SwapRecord, SwapReport};
use crate::{RankOutcome, RankRequest, RankResponse, Ranker};
use lkp_models::Recommender;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic time source for SLO expiry, queue-wait latency and the
/// response TTL.
///
/// Implementations report elapsed time since an arbitrary fixed origin;
/// the frontend only ever compares differences.
pub trait Clock: Send {
    /// Time since the clock's origin.
    fn now(&self) -> Duration;
}

/// Wall-clock [`Clock`] backed by [`Instant`] (the production default).
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    origin: Instant,
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock {
            // lint:allow(determinism): this IS the injected clock — the one
            // sanctioned wall-clock read; core logic only sees `Clock::now`.
            origin: Instant::now(),
        }
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// A hand-advanced [`Clock`] for deterministic tests: clone a handle, give
/// one clone to the frontend, and drive time with [`ManualClock::advance`].
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    nanos: Arc<AtomicU64>,
}

impl ManualClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Moves the clock forward by `by`.
    pub fn advance(&self, by: Duration) {
        self.nanos.fetch_add(by.as_nanos() as u64, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::SeqCst))
    }
}

/// Micro-batch cut and admission policy of a [`ServeFrontend`].
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// The largest batch a cut takes off the queue front (clamped to ≥ 1).
    /// [`ServeFrontend::submit`] cuts inline once this many are pending;
    /// a free ranker cuts whatever is pending, up to this many.
    pub max_batch: usize,
    /// Admission bound for [`ServeFrontend::try_submit`]: with this many
    /// requests already pending, further submissions are shed with
    /// [`SubmitError::QueueFull`] (`0` disables shedding; the infallible
    /// [`ServeFrontend::submit`] path never sheds).
    pub queue_capacity: usize,
    /// How long an unclaimed completed response is kept before the TTL
    /// sweep drops it ([`Duration::ZERO`], the default, keeps responses
    /// forever — the pre-TTL behavior). Swept responses count as
    /// `ttl_expired` in [`FrontendStats`].
    pub response_ttl: Duration,
    /// Overload watermark for the degraded mode: when a batch is cut with
    /// at least this many requests pending, the batch is served with its
    /// DPP rerank head capped at [`FrontendConfig::degraded_head`]
    /// (`0`, the default, disables degradation).
    pub degrade_watermark: usize,
    /// The rerank-head cap applied under overload (clamped to ≥ 1 when
    /// degradation is enabled). Requests already carrying a tighter
    /// [`RankRequest::rerank_head`] keep their own.
    pub degraded_head: usize,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            max_batch: 64,
            queue_capacity: 1024,
            response_ttl: Duration::ZERO,
            degrade_watermark: 0,
            degraded_head: 32,
        }
    }
}

/// Handle to one submitted request; claim the response with
/// [`ServeFrontend::try_take`] after the batch containing it was cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(u64);

struct Pending {
    ticket: Ticket,
    request: RankRequest,
    submitted: Duration,
}

/// A completed response plus when it completed (for the TTL sweep).
struct Done {
    resp: RankResponse,
    at: Duration,
}

/// The bookkeeping half of a frontend: pending requests, completed
/// responses, counters and the swap log. Every operation on it is cheap —
/// this is all the driver's mutex guards.
pub(super) struct Queue {
    config: FrontendConfig,
    clock: Box<dyn Clock>,
    pending: VecDeque<Pending>,
    /// The last cut's requests until publish, with their queue waits; the
    /// ticket is `None` once discarded mid-ranking.
    in_flight: Vec<(Option<Ticket>, Duration)>,
    /// Completed responses awaiting [`ServeFrontend::try_take`]. Unclaimed
    /// responses accumulate here — callers own ticket redemption, and must
    /// [`ServeFrontend::discard`] tickets they stop waiting on (or set
    /// [`FrontendConfig::response_ttl`] to bound the leak).
    done: HashMap<u64, Done>,
    next_ticket: u64,
    pub(super) stats: FrontendStats,
    pub(super) swap_log: Vec<SwapRecord>,
}

/// The requests of one cut and their responses; buffers are reused across
/// cuts.
#[derive(Default)]
pub(super) struct Batch {
    requests: Vec<RankRequest>,
    out: Vec<RankResponse>,
}

impl Batch {
    /// Ranks the cut requests — the one expensive step of a cut, which the
    /// driver runs with no guard held.
    pub(super) fn rank<M: Recommender + Sync>(&mut self, ranker: &mut Ranker<M>) {
        if !self.requests.is_empty() {
            ranker.rank_batch_into(&self.requests, &mut self.out);
        }
    }
}

impl Queue {
    fn new(mut config: FrontendConfig, clock: Box<dyn Clock>) -> Self {
        config.max_batch = config.max_batch.max(1);
        if config.degrade_watermark > 0 {
            config.degraded_head = config.degraded_head.max(1);
        }
        Queue {
            config,
            clock,
            pending: VecDeque::new(),
            in_flight: Vec::new(),
            done: HashMap::new(),
            next_ticket: 0,
            stats: FrontendStats::default(),
            swap_log: Vec::new(),
        }
    }

    pub(super) fn try_submit(&mut self, request: RankRequest) -> Result<Ticket, SubmitError> {
        let capacity = self.config.queue_capacity;
        if capacity > 0 && self.pending.len() >= capacity {
            self.stats.shed += 1;
            return Err(SubmitError::QueueFull { capacity });
        }
        Ok(self.enqueue(request))
    }

    fn enqueue(&mut self, request: RankRequest) -> Ticket {
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.pending.push_back(Pending {
            ticket,
            request,
            submitted: self.clock.now(),
        });
        self.stats.submitted += 1;
        ticket
    }

    pub(super) fn sweep_responses(&mut self) -> usize {
        let ttl = self.config.response_ttl;
        if ttl.is_zero() || self.done.is_empty() {
            return 0;
        }
        let now = self.clock.now();
        let before = self.done.len();
        // lint:allow(determinism): the retain predicate is per-entry (age vs
        // TTL) — the surviving set is identical whatever the visit order.
        self.done.retain(|_, d| now.saturating_sub(d.at) < ttl);
        let swept = before - self.done.len();
        self.stats.ttl_expired += swept as u64;
        swept
    }

    pub(super) fn try_take(&mut self, ticket: Ticket) -> Option<RankResponse> {
        self.done.remove(&ticket.0).map(|d| d.resp)
    }

    pub(super) fn discard(&mut self, ticket: Ticket) -> bool {
        let found = self.done.remove(&ticket.0).is_some()
            || self
                .pending
                .iter()
                .position(|p| p.ticket == ticket)
                .map(|at| self.pending.remove(at))
                .is_some()
            || self
                .in_flight
                .iter_mut()
                .find(|(t, _)| *t == Some(ticket))
                .map(|(t, _)| *t = None)
                .is_some();
        self.stats.discarded += found as u64;
        found
    }

    pub(super) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Appends a committed swap to the log, stamped with the clock.
    pub(super) fn record_swap(&mut self, report: SwapReport) {
        self.stats.swaps += 1;
        self.swap_log.push(SwapRecord {
            at: self.clock.now(),
            report,
        });
    }

    /// Cuts up to `max_batch` requests off the queue front (submission
    /// order) into `batch`. Requests past their SLO complete here as
    /// [`RankOutcome::Expired`], stamped `generation`, and never reach the
    /// ranker; when the cut happens with `degrade_watermark` or more
    /// requests pending, the batch runs with its rerank head capped.
    /// Returns the number expired.
    pub(super) fn cut(&mut self, generation: u64, batch: &mut Batch) -> usize {
        let n = self.pending.len().min(self.config.max_batch);
        let now = self.clock.now();
        // Overload is measured at cut time, on queue depth: the batch about
        // to be served plus everything that will still be waiting after it.
        let degraded_cut = self.config.degrade_watermark > 0
            && self.pending.len() >= self.config.degrade_watermark;
        batch.requests.clear();
        let mut expired = 0usize;
        for p in self.pending.drain(..n) {
            let waited = now.saturating_sub(p.submitted);
            if p.request.slo.is_some_and(|slo| waited > slo) {
                // Past-deadline at cut time: complete unserved with an
                // explicit outcome instead of burning pool time on a
                // response nobody can use.
                self.stats.expired += 1;
                expired += 1;
                let resp = RankResponse {
                    user: p.request.user,
                    outcome: RankOutcome::Expired,
                    generation,
                    ..RankResponse::default()
                };
                self.done.insert(p.ticket.0, Done { resp, at: now });
                continue;
            }
            let mut request = p.request;
            if degraded_cut
                && (request.rerank_head == 0 || request.rerank_head > self.config.degraded_head)
            {
                request.rerank_head = self.config.degraded_head;
            }
            self.in_flight.push((Some(p.ticket), waited));
            batch.requests.push(request);
        }
        self.stats.batches += 1;
        if n == self.config.max_batch {
            self.stats.cuts_full += 1;
        } else {
            self.stats.cuts_deadline += 1;
        }
        expired
    }

    /// Files the ranked responses of the last cut under their tickets.
    /// Returns the number served.
    pub(super) fn publish(&mut self, batch: &mut Batch) -> usize {
        let now = self.clock.now();
        let served = self.in_flight.len();
        for ((ticket, waited), resp) in self.in_flight.drain(..).zip(batch.out.drain(..)) {
            match resp.outcome {
                RankOutcome::Failed => self.stats.failed += 1,
                RankOutcome::Panicked => self.stats.panicked += 1,
                _ => {}
            }
            self.stats.degraded += resp.degraded as u64;
            self.stats.latency.record(waited);
            if let Some(ticket) = ticket {
                self.done.insert(ticket.0, Done { resp, at: now });
            }
        }
        self.stats.served += served as u64;
        served
    }
}

/// The serving frontend: a bounded submission queue over a [`Ranker`],
/// cutting micro-batches of up to `max_batch` in submission order. See the
/// module docs for the lifecycle.
pub struct ServeFrontend<M> {
    pub(super) ranker: Ranker<M>,
    pub(super) queue: Queue,
    pub(super) batch: Batch,
}

impl<M: Recommender + Sync> ServeFrontend<M> {
    /// Wraps a ranker with the wall-clock [`MonotonicClock`].
    pub fn new(ranker: Ranker<M>, config: FrontendConfig) -> Self {
        ServeFrontend::with_clock(ranker, config, Box::new(MonotonicClock::default()))
    }

    /// Wraps a ranker with an injected clock (tests use [`ManualClock`]).
    pub fn with_clock(ranker: Ranker<M>, config: FrontendConfig, clock: Box<dyn Clock>) -> Self {
        ServeFrontend {
            ranker,
            queue: Queue::new(config, clock),
            batch: Batch::default(),
        }
    }

    /// Enqueues one request and returns its ticket. Cuts a micro-batch
    /// inline when the queue reaches `max_batch` — so the queue holds at
    /// most `max_batch − 1` requests between calls and submission is never
    /// an error: backpressure shows up as inline served latency, not as
    /// drops or unbounded growth.
    pub fn submit(&mut self, request: RankRequest) -> Ticket {
        let ticket = self.queue.enqueue(request);
        if self.queue.pending.len() >= self.queue.config.max_batch {
            self.cut_batch();
        }
        ticket
    }

    /// Admission-checked submission for pump-driven serving: sheds with
    /// [`SubmitError::QueueFull`] once `queue_capacity` requests are
    /// pending, and never cuts inline — the pump owner (typically a
    /// [`super::driver::FrontendDriver`], whose pump thread cuts whenever
    /// its ranker is free) decides when batches run.
    pub fn try_submit(&mut self, request: RankRequest) -> Result<Ticket, SubmitError> {
        self.queue.try_submit(request)
    }

    /// Sweeps TTL-expired unclaimed responses, then serves everything
    /// pending, `max_batch` at a time in submission order. Returns the
    /// number of requests completed (served or expired — SLOs apply at
    /// cut time).
    pub fn pump(&mut self) -> usize {
        self.queue.sweep_responses();
        let mut completed = 0;
        while !self.queue.pending.is_empty() {
            completed += self.cut_batch();
        }
        completed
    }

    /// Drops unclaimed completed responses older than
    /// [`FrontendConfig::response_ttl`] (no-op when the TTL is zero).
    /// Returns how many were dropped; they count as `ttl_expired`, not
    /// `discarded`.
    pub fn sweep_responses(&mut self) -> usize {
        self.queue.sweep_responses()
    }

    /// Claims the response for `ticket`, if its batch has been served.
    /// Each ticket redeems at most once.
    pub fn try_take(&mut self, ticket: Ticket) -> Option<RankResponse> {
        self.queue.try_take(ticket)
    }

    /// Peeks at the response for `ticket` without claiming it.
    pub fn peek(&self, ticket: Ticket) -> Option<&RankResponse> {
        self.queue.done.get(&ticket.0).map(|d| &d.resp)
    }

    /// Abandons a ticket the caller stopped waiting on (e.g. its request
    /// timed out upstream): drops the completed response if the batch was
    /// already served, or pulls the request out of the pending queue if
    /// not — without this, responses for dropped tickets would accumulate
    /// in the completed map for the frontend's lifetime. Returns whether
    /// the ticket was found (`false`: already taken, already discarded, or
    /// never issued).
    pub fn discard(&mut self, ticket: Ticket) -> bool {
        self.queue.discard(ticket)
    }

    /// Pre-warms the ranker's kernel cache with popular pairs (see
    /// [`Ranker::prewarm`]); their first served request then skips the
    /// kernel-block build entirely. Returns the number of pairs warm on
    /// *every* pool worker when the call returns, counting pairs that were
    /// already resident (compare it against `pairs.len()`).
    pub fn prewarm(&mut self, pairs: &[(usize, Vec<usize>)]) -> usize {
        self.ranker.prewarm(pairs)
    }

    /// Requests submitted but not yet served.
    pub fn pending_len(&self) -> usize {
        self.queue.pending_len()
    }

    /// Responses served but not yet claimed.
    pub fn completed_len(&self) -> usize {
        self.queue.done.len()
    }

    /// Traffic counters since construction.
    pub fn stats(&self) -> FrontendStats {
        self.queue.stats
    }

    /// The current artifact generation (see [`Ranker::generation`]).
    pub fn generation(&self) -> u64 {
        self.ranker.generation()
    }

    /// Every committed swap, in commit order.
    pub fn swap_log(&self) -> &[SwapRecord] {
        &self.queue.swap_log
    }

    /// The wrapped ranker (cache stats, prewarm, direct batches).
    pub fn ranker(&mut self) -> &mut Ranker<M> {
        &mut self.ranker
    }

    /// Cuts, ranks and publishes one batch. Returns the number of requests
    /// completed (served + expired).
    fn cut_batch(&mut self) -> usize {
        let expired = self.queue.cut(self.ranker.generation(), &mut self.batch);
        self.batch.rank(&mut self.ranker);
        expired + self.queue.publish(&mut self.batch)
    }
}

impl<M> std::fmt::Debug for ServeFrontend<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeFrontend")
            .field("pending", &self.queue.pending.len())
            .field("completed", &self.queue.done.len())
            .field("stats", &self.queue.stats)
            .finish()
    }
}
