//! The request frontend: individually submitted requests, micro-batched
//! onto the pool — plus the production shell around that core.
//!
//! Production traffic arrives one request at a time, but the pool path is
//! batched. [`ServeFrontend`] bridges the two: [`ServeFrontend::submit`]
//! (or the admission-checked [`ServeFrontend::try_submit`]) enqueues a
//! request and returns a [`Ticket`] immediately. Batches are cut
//! work-conserving: whenever the ranker is free, it takes up to
//! [`FrontendConfig::max_batch`] pending requests in submission order and
//! serves them through [`crate::Ranker::rank_batch_into`] — there is no
//! batching timer. [`ServeFrontend::submit`] also cuts inline once
//! `max_batch` requests are pending, and [`ServeFrontend::pump`] serves
//! everything pending. Responses are claimed by ticket.
//!
//! Time is read through an injected [`Clock`] — SLO expiry, queue-wait
//! latency and the response TTL — so those are deterministic in tests
//! ([`ManualClock`]) and wall-clock in production ([`MonotonicClock`], the
//! default). Batch composition never affects served lists — requests are
//! independent — so frontend output is bitwise identical to a direct
//! [`crate::Ranker::rank_batch`] over the same requests, in any
//! submission/pump interleaving.
//!
//! The module splits along the production concerns:
//!
//! * `core` — the deterministic frontend above: clocks, the cut, SLO
//!   expiry, degraded mode, TTL sweep, ticket redemption.
//! * `admission` — [`SubmitError`], the fixed-bucket [`LatencyHistogram`],
//!   and the [`FrontendStats`] counter block.
//! * `swap` — zero-downtime artifact replacement:
//!   [`ServeFrontend::swap_artifact`],
//!   [`SwapReport`], and the swap log.
//! * `driver` — the threaded shell: [`FrontendDriver`]'s pump thread owns
//!   the ranker and ranks each cut with no lock held; [`DriverClient`]
//!   handles submit/redeem/swap from any thread.

mod admission;
mod core;
mod driver;
mod swap;

pub use self::admission::{FrontendStats, LatencyHistogram, SubmitError, LATENCY_BUCKETS};
pub use self::core::{Clock, FrontendConfig, ManualClock, MonotonicClock, ServeFrontend, Ticket};
pub use self::driver::{DriverClient, FrontendDriver};
pub use self::swap::{SwapRecord, SwapReport};
