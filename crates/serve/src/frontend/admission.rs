//! Admission control and observability: typed submission errors, the
//! fixed-bucket latency histogram, and the frontend's counter block.

use std::time::Duration;

/// Why [`crate::ServeFrontend::try_submit`] refused a request. Admission is
/// decided before a ticket is issued, so a refused request holds no
/// frontend state at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The pending queue is at [`crate::FrontendConfig::queue_capacity`].
    /// Load is arriving faster than the pump drains it; shedding here keeps
    /// queueing delay bounded instead of serving everyone late.
    QueueFull {
        /// The capacity that was hit.
        capacity: usize,
    },
    /// The owning [`crate::FrontendDriver`] is shutting down and no longer
    /// accepts work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "pending queue full (capacity {capacity})")
            }
            SubmitError::ShuttingDown => write!(f, "frontend driver is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Number of log₂ latency buckets: bucket `i` covers `[2^i, 2^{i+1})`
/// nanoseconds, so 40 buckets span 1 ns to ~18 minutes.
pub const LATENCY_BUCKETS: usize = 40;

/// A fixed log₂-bucket latency histogram: recording is an increment into a
/// `[u64; 40]` (no allocation, no sort — safe on the cut path), quantiles
/// are read as the upper bound of the bucket containing the requested rank
/// (an at-most-2× overestimate, which is the right bias for SLO checks).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKETS],
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; LATENCY_BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHistogram {
    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        let ns = latency.as_nanos().min(u64::MAX as u128) as u64;
        let bucket = (63 - ns.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.counts[bucket] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Raw bucket counts; bucket `i` covers `[2^i, 2^{i+1})` ns (the last
    /// bucket is open-ended).
    pub fn buckets(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.counts
    }

    /// The latency at quantile `q ∈ [0, 1]`, reported as the upper bound of
    /// the bucket holding that rank (zero when nothing was recorded).
    pub fn quantile(&self, q: f64) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= target {
                return Duration::from_nanos(1u64 << (bucket + 1));
            }
        }
        Duration::from_nanos(1u64 << LATENCY_BUCKETS)
    }

    /// Median served latency (bucket upper bound).
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 95th-percentile served latency (bucket upper bound).
    pub fn p95(&self) -> Duration {
        self.quantile(0.95)
    }

    /// 99th-percentile served latency (bucket upper bound).
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.total)
            .field("p50", &self.p50())
            .field("p95", &self.p95())
            .field("p99", &self.p99())
            .finish()
    }
}

/// Frontend traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Requests accepted ([`crate::ServeFrontend::submit`] +
    /// [`crate::ServeFrontend::try_submit`]).
    pub submitted: u64,
    /// Requests served (moved to completed responses; includes per-request
    /// failures and contained panics — the pipeline processed them).
    pub served: u64,
    /// Micro-batches cut.
    pub batches: u64,
    /// Batches of exactly `max_batch` requests.
    pub cuts_full: u64,
    /// Batches smaller than `max_batch`: a free ranker took everything
    /// pending. (The name predates the work-conserving cut, when these were
    /// deadline cuts.)
    pub cuts_deadline: u64,
    /// Tickets abandoned via [`crate::ServeFrontend::discard`] (pending
    /// requests dropped before serving plus completed responses dropped
    /// unclaimed).
    pub discarded: u64,
    /// Requests refused at admission ([`SubmitError::QueueFull`]).
    pub shed: u64,
    /// Requests past their SLO at cut time, completed unserved with
    /// [`crate::RankOutcome::Expired`].
    pub expired: u64,
    /// Responses produced with a truncated rerank head (the overload
    /// degraded mode, or a caller-set [`crate::RankRequest::rerank_head`]).
    pub degraded: u64,
    /// Responses with [`crate::RankOutcome::Failed`] (numerical failure
    /// isolated to their own ticket).
    pub failed: u64,
    /// Responses with [`crate::RankOutcome::Panicked`] (request panic
    /// contained to its own ticket).
    pub panicked: u64,
    /// Unclaimed completed responses dropped by the TTL sweep
    /// ([`crate::FrontendConfig::response_ttl`]).
    pub ttl_expired: u64,
    /// Artifact swaps committed ([`crate::ServeFrontend::swap_artifact`]).
    pub swaps: u64,
    /// Queue-wait latency of served requests (submit → batch cut), recorded
    /// at publish with no allocation.
    pub latency: LatencyHistogram,
}
