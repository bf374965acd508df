//! Zero-downtime artifact swap: replace the served model between cuts,
//! with the new generation's kernel cache prewarmed before the commit.
//!
//! The swap is two-phase. [`crate::StagedSwap::prepare`] does the expensive
//! work — building and prewarming the new generation's cache — with no
//! claim on the frontend, so a driver can stage off its lock while traffic
//! keeps flowing. [`crate::Ranker::commit_swap`] then installs the staged
//! generation between cuts — inside [`ServeFrontend::swap_artifact`], or on
//! a driver's pump thread: batches already cut finish on the old artifact,
//! queued requests serve on the new one, and every response carries the
//! generation that produced it. Because batches are cut FIFO, response
//! generations are non-decreasing in ticket order.

use super::core::ServeFrontend;
use crate::{Ranker, RankingArtifact, StagedSwap};
use lkp_models::Recommender;
use std::time::{Duration, Instant};

/// What one committed swap did, returned by
/// [`ServeFrontend::swap_artifact`] and kept in the swap log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapReport {
    /// The generation now serving (the old generation plus one).
    pub generation: u64,
    /// `(user, candidate-set)` pairs warm in the new generation's cache at
    /// commit time.
    pub warmed: usize,
    /// Old-generation cache entries retired by the commit.
    pub retired: usize,
    /// Wall-clock duration of the commit itself — the only window during
    /// which the ranker was not serving. Staging time is deliberately
    /// excluded: it runs off the serving path.
    pub commit_pause: Duration,
}

/// A [`SwapReport`] plus when (frontend clock) the commit happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapRecord {
    /// Frontend clock reading at commit.
    pub at: Duration,
    /// The committed swap.
    pub report: SwapReport,
}

/// Installs `staged` on `ranker` and reports the commit (the caller logs
/// it).
pub(super) fn commit<M: Recommender + Sync>(
    ranker: &mut Ranker<M>,
    staged: StagedSwap<M>,
) -> SwapReport {
    let start = Instant::now();
    let (warmed, retired) = ranker.commit_swap(staged);
    SwapReport {
        generation: ranker.generation(),
        warmed,
        retired,
        commit_pause: start.elapsed(),
    }
}

impl<M: Recommender + Sync> ServeFrontend<M> {
    /// Stages `artifact` (prewarming `prewarm_plan` into the new
    /// generation's cache) and installs it between cuts. Pending requests
    /// stay queued and serve on the new artifact at their normal cut;
    /// completed responses keep their old-generation stamps. A
    /// [`super::driver::DriverClient`] stages off its lock instead, so live
    /// traffic never waits for the prewarm.
    pub fn swap_artifact(
        &mut self,
        artifact: RankingArtifact<M>,
        prewarm_plan: &[(usize, Vec<usize>)],
    ) -> SwapReport {
        let staged = StagedSwap::prepare(self.ranker.config(), artifact, prewarm_plan);
        let report = commit(&mut self.ranker, staged);
        self.queue.record_swap(report);
        report
    }
}
