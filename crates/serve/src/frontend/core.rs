//! The deterministic frontend core: clocks, the cut policy, admission, and
//! ticket redemption. Everything here is driven by an injected [`Clock`]
//! and owns no threads — the threaded shell lives in
//! [`super::driver::FrontendDriver`].

use super::admission::{FrontendStats, SubmitError};
use super::swap::SwapRecord;
use crate::{RankOutcome, RankRequest, RankResponse, Ranker};
use lkp_models::Recommender;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic time source for micro-batch deadlines.
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
    /// Cut a batch as soon as this many requests are pending (clamped to
    /// ≥ 1). Also the size of every non-final batch, so per-batch pool
    /// dispatch overhead is amortized over exactly this many requests.
    pub max_batch: usize,
    /// Cut a batch (of whatever is pending) once the oldest pending request
    /// has waited this long. Deadlines are checked by
    /// [`ServeFrontend::pump`] against the injected [`Clock`]; a request
    /// with a tighter [`RankRequest::slo`] is due at its SLO instead.
    pub max_wait: Duration,
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
            max_wait: Duration::from_millis(2),
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

enum CutReason {
    Full,
    Deadline,
    Flush,
}

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

/// The async serving frontend: a bounded submission queue over a
/// [`Ranker`], cutting micro-batches by size and deadline. See the module
/// docs for the lifecycle.
pub struct ServeFrontend<M> {
    ranker: Ranker<M>,
    config: FrontendConfig,
    clock: Box<dyn Clock>,
    pending: VecDeque<Pending>,
    /// Completed responses awaiting [`ServeFrontend::try_take`]. Unclaimed
    /// responses accumulate here — callers own ticket redemption, and must
    /// [`ServeFrontend::discard`] tickets they stop waiting on (or set
    /// [`FrontendConfig::response_ttl`] to bound the leak).
    done: HashMap<u64, Done>,
    /// Batch-cut scratch, reused across cuts.
    batch_requests: Vec<RankRequest>,
    batch_tickets: Vec<Ticket>,
    batch_waits: Vec<Duration>,
    batch_out: Vec<RankResponse>,
    next_ticket: u64,
    stats: FrontendStats,
    swap_log: Vec<SwapRecord>,
}

impl<M: Recommender + Sync> ServeFrontend<M> {
    /// Wraps a ranker with the wall-clock [`MonotonicClock`].
    pub fn new(ranker: Ranker<M>, config: FrontendConfig) -> Self {
        ServeFrontend::with_clock(ranker, config, Box::new(MonotonicClock::default()))
    }

    /// Wraps a ranker with an injected clock (tests use [`ManualClock`]).
    pub fn with_clock(
        ranker: Ranker<M>,
        mut config: FrontendConfig,
        clock: Box<dyn Clock>,
    ) -> Self {
        config.max_batch = config.max_batch.max(1);
        if config.degrade_watermark > 0 {
            config.degraded_head = config.degraded_head.max(1);
        }
        ServeFrontend {
            ranker,
            config,
            clock,
            pending: VecDeque::new(),
            done: HashMap::new(),
            batch_requests: Vec::new(),
            batch_tickets: Vec::new(),
            batch_waits: Vec::new(),
            batch_out: Vec::new(),
            next_ticket: 0,
            stats: FrontendStats::default(),
            swap_log: Vec::new(),
        }
    }

    /// Enqueues one request and returns its ticket. Cuts a micro-batch
    /// inline when the queue reaches `max_batch` — so the queue holds at
    /// most `max_batch − 1` requests between calls and submission is never
    /// an error: backpressure shows up as inline served latency, not as
    /// drops or unbounded growth.
    pub fn submit(&mut self, request: RankRequest) -> Ticket {
        let ticket = self.enqueue(request);
        if self.pending.len() >= self.config.max_batch {
            self.cut_batch(CutReason::Full);
        }
        ticket
    }

    /// Admission-checked submission for pump-driven serving: sheds with
    /// [`SubmitError::QueueFull`] once `queue_capacity` requests are
    /// pending, and never cuts inline — the pump owner (typically a
    /// [`super::driver::FrontendDriver`]) decides when batches run, so
    /// submitters are never blocked behind a ranking dispatch.
    pub fn try_submit(&mut self, request: RankRequest) -> Result<Ticket, SubmitError> {
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

    /// Cuts every due micro-batch — full batches first, then a partial
    /// batch once the oldest pending deadline (`max_wait`, or a tighter
    /// per-request SLO) has passed — and sweeps TTL-expired unclaimed
    /// responses. Returns the number of requests completed (served or
    /// expired). Call this from the serving loop whenever the clock may
    /// have crossed a deadline.
    pub fn pump(&mut self) -> usize {
        self.sweep_responses();
        let mut completed = 0;
        loop {
            let full = self.pending.len() >= self.config.max_batch;
            let overdue = !full
                && self
                    .earliest_due()
                    .is_some_and(|due| self.clock.now() >= due);
            if !full && !overdue {
                return completed;
            }
            completed += self.cut_batch(if full {
                CutReason::Full
            } else {
                CutReason::Deadline
            });
        }
    }

    /// Serves everything pending regardless of deadlines (shutdown /
    /// end-of-stream). Returns the number of requests completed (served or
    /// expired — SLOs still apply at cut time).
    pub fn flush(&mut self) -> usize {
        let mut completed = 0;
        while !self.pending.is_empty() {
            completed += self.cut_batch(CutReason::Flush);
        }
        completed
    }

    /// When the next deadline cut is due, relative to now (`None` with
    /// nothing pending, [`Duration::ZERO`] when already overdue) — the
    /// sleep bound for a pump-owning driver thread.
    pub fn time_to_next_cut(&self) -> Option<Duration> {
        let now = self.clock.now();
        self.earliest_due().map(|due| due.saturating_sub(now))
    }

    /// The earliest absolute instant any pending request is due: its
    /// submission time plus `max_wait`, or plus its SLO when tighter —
    /// cutting at a tight SLO serves the request just in time instead of
    /// letting it expire in the queue.
    fn earliest_due(&self) -> Option<Duration> {
        let max_wait = self.config.max_wait;
        self.pending
            .iter()
            .map(|p| {
                p.submitted
                    + match p.request.slo {
                        Some(slo) => slo.min(max_wait),
                        None => max_wait,
                    }
            })
            .min()
    }

    /// Drops unclaimed completed responses older than
    /// [`FrontendConfig::response_ttl`] (no-op when the TTL is zero).
    /// Returns how many were dropped; they count as `ttl_expired`, not
    /// `discarded`.
    pub fn sweep_responses(&mut self) -> usize {
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

    /// Claims the response for `ticket`, if its batch has been cut. Each
    /// ticket redeems at most once.
    pub fn try_take(&mut self, ticket: Ticket) -> Option<RankResponse> {
        self.done.remove(&ticket.0).map(|d| d.resp)
    }

    /// Peeks at the response for `ticket` without claiming it.
    pub fn peek(&self, ticket: Ticket) -> Option<&RankResponse> {
        self.done.get(&ticket.0).map(|d| &d.resp)
    }

    /// Abandons a ticket the caller stopped waiting on (e.g. its request
    /// timed out upstream): drops the completed response if the batch was
    /// already cut, or pulls the request out of the pending queue if not —
    /// without this, responses for dropped tickets would accumulate in the
    /// completed map for the frontend's lifetime. Returns whether the
    /// ticket was found (`false`: already taken, already discarded, or
    /// never issued).
    pub fn discard(&mut self, ticket: Ticket) -> bool {
        let found = self.done.remove(&ticket.0).is_some()
            || self
                .pending
                .iter()
                .position(|p| p.ticket == ticket)
                .map(|at| self.pending.remove(at))
                .is_some();
        self.stats.discarded += found as u64;
        found
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
        self.pending.len()
    }

    /// Responses served but not yet claimed.
    pub fn completed_len(&self) -> usize {
        self.done.len()
    }

    /// Traffic counters since construction.
    pub fn stats(&self) -> FrontendStats {
        self.stats
    }

    /// The current artifact generation (see [`Ranker::generation`]).
    pub fn generation(&self) -> u64 {
        self.ranker.generation()
    }

    /// Every committed swap, in commit order.
    pub fn swap_log(&self) -> &[SwapRecord] {
        &self.swap_log
    }

    /// The wrapped ranker (cache stats, prewarm, direct batches).
    pub fn ranker(&mut self) -> &mut Ranker<M> {
        &mut self.ranker
    }

    /// Unwraps the frontend, dropping any unserved submissions and
    /// unclaimed responses.
    pub fn into_ranker(self) -> Ranker<M> {
        self.ranker
    }

    /// Appends a committed swap to the log (called by the swap layer).
    pub(crate) fn record_swap(&mut self, record: SwapRecord) {
        self.stats.swaps += 1;
        self.swap_log.push(record);
    }

    /// The frontend's clock reading (for swap timestamps).
    pub(crate) fn clock_now(&self) -> Duration {
        self.clock.now()
    }

    /// Cuts one micro-batch of up to `max_batch` requests off the queue
    /// front (submission order) and serves it on the pool. Requests past
    /// their SLO complete as [`RankOutcome::Expired`] without touching the
    /// pool; when the cut happens with `degrade_watermark` or more requests
    /// pending, the batch runs with its rerank head capped. Returns the
    /// number of requests completed (served + expired).
    fn cut_batch(&mut self, reason: CutReason) -> usize {
        let n = self.pending.len().min(self.config.max_batch);
        if n == 0 {
            return 0;
        }
        let now = self.clock.now();
        let generation = self.ranker.generation();
        // Overload is measured at cut time, on queue depth: the batch about
        // to be served plus everything that will still be waiting after it.
        let degraded_cut = self.config.degrade_watermark > 0
            && self.pending.len() >= self.config.degrade_watermark;
        self.batch_requests.clear();
        self.batch_tickets.clear();
        self.batch_waits.clear();
        let mut expired = 0usize;
        for _ in 0..n {
            let p = self.pending.pop_front().expect("n ≤ pending");
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
            self.batch_tickets.push(p.ticket);
            self.batch_waits.push(waited);
            self.batch_requests.push(request);
        }
        let served = self.batch_requests.len();
        if served > 0 {
            self.ranker
                .rank_batch_into(&self.batch_requests, &mut self.batch_out);
            for ((ticket, resp), &waited) in self
                .batch_tickets
                .drain(..)
                .zip(self.batch_out.drain(..))
                .zip(self.batch_waits.iter())
            {
                match resp.outcome {
                    RankOutcome::Failed => self.stats.failed += 1,
                    RankOutcome::Panicked => self.stats.panicked += 1,
                    _ => {}
                }
                self.stats.degraded += resp.degraded as u64;
                self.stats.latency.record(waited);
                self.done.insert(ticket.0, Done { resp, at: now });
            }
            self.stats.served += served as u64;
        }
        self.stats.batches += 1;
        match reason {
            CutReason::Full => self.stats.cuts_full += 1,
            CutReason::Deadline => self.stats.cuts_deadline += 1,
            CutReason::Flush => self.stats.cuts_flush += 1,
        }
        served + expired
    }
}

impl<M> std::fmt::Debug for ServeFrontend<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeFrontend")
            .field("pending", &self.pending.len())
            .field("completed", &self.done.len())
            .field("stats", &self.stats)
            .finish()
    }
}
