//! Zero-downtime artifact swap: replace the served model between cuts,
//! with the new generation's kernel cache prewarmed before the commit.
//!
//! The swap is two-phase. [`crate::StagedSwap::prepare`] (or
//! [`crate::Ranker::stage_swap`]) does the expensive work — building and
//! prewarming the new generation's cache — with no claim on the frontend,
//! so a driver can stage off the serving lock while traffic keeps flowing.
//! [`ServeFrontend::commit_swap`] then installs the staged generation
//! between cuts: in-flight batches already finished on the old artifact,
//! queued requests serve on the new one, and every response carries the
//! generation that produced it. Because batches are cut FIFO, response
//! generations are non-decreasing in ticket order.

use super::core::ServeFrontend;
use crate::{RankingArtifact, StagedSwap};
use lkp_models::Recommender;
use std::time::{Duration, Instant};

/// What one committed swap did, returned by
/// [`ServeFrontend::commit_swap`] and kept in the swap log.
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
    /// which the frontend was neither serving nor cutting. Staging time is
    /// deliberately excluded: it runs off the serving path.
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

impl<M: Recommender + Sync> ServeFrontend<M> {
    /// Installs a staged artifact generation between cuts. Pending
    /// requests stay queued and serve on the new artifact at their normal
    /// cut; completed responses keep their old-generation stamps. The
    /// commit is cheap — pointer installs plus cloning the staged warm
    /// template into each worker's cache — because the
    /// expensive prewarm already happened in [`crate::StagedSwap::prepare`].
    pub fn commit_swap(&mut self, staged: StagedSwap<M>) -> SwapReport {
        let start = Instant::now();
        let (warmed, retired) = self.ranker().commit_swap(staged);
        let commit_pause = start.elapsed();
        let report = SwapReport {
            generation: self.generation(),
            warmed,
            retired,
            commit_pause,
        };
        self.record_swap(SwapRecord {
            at: self.clock_now(),
            report,
        });
        report
    }

    /// Stages `artifact` (prewarming `prewarm_plan` into the new
    /// generation's cache) and commits it in one call. Single-threaded
    /// callers use this directly; a [`super::driver::DriverClient`] stages
    /// off the lock first so live traffic only ever waits for the commit.
    pub fn swap_artifact(
        &mut self,
        artifact: RankingArtifact<M>,
        prewarm_plan: &[(usize, Vec<usize>)],
    ) -> SwapReport {
        let staged = self.ranker().stage_swap(artifact, prewarm_plan);
        self.commit_swap(staged)
    }
}
