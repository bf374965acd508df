//! Immutable serving artifacts snapshotted from trained state.

use lkp_dpp::LowRankKernel;
use lkp_models::Recommender;

/// An immutable snapshot of everything the serving path reads: the trained
/// relevance model and the (row-normalized) low-rank diversity kernel.
///
/// The artifact owns its state, so a `Ranker` built from it is decoupled
/// from any trainer that keeps mutating the live model — the standard
/// train/serve split. The kernel is normalized on construction to match
/// what [`lkp_core::LkpObjective`] trains against (unit diagonal; quality
/// lives entirely in `q`).
#[derive(Debug, Clone)]
pub struct RankingArtifact<M> {
    model: M,
    kernel: LowRankKernel,
}

impl<M: Recommender> RankingArtifact<M> {
    /// Freezes an owned model + kernel into an artifact, normalizing the
    /// kernel.
    ///
    /// # Panics
    /// If the kernel's item count differs from the model's.
    pub fn new(model: M, kernel: LowRankKernel) -> Self {
        RankingArtifact::verbatim(model, kernel.normalized())
    }

    /// Freezes a kernel that is already normalized, bit for bit.
    fn verbatim(model: M, kernel: LowRankKernel) -> Self {
        assert_eq!(
            kernel.num_items(),
            model.n_items(),
            "diversity kernel and model disagree on catalog size"
        );
        RankingArtifact { model, kernel }
    }

    /// Snapshots (clones) a live model + kernel into an artifact.
    pub fn snapshot(model: &M, kernel: &LowRankKernel) -> Self
    where
        M: Clone,
    {
        RankingArtifact::new(model.clone(), kernel.clone())
    }

    /// Snapshots a model trained with an [`lkp_core::LkpObjective`], reusing
    /// the objective's diversity kernel verbatim: the objective normalized
    /// it on construction, so serving ranks with the exact bits training
    /// used.
    pub fn from_trained(model: &M, objective: &lkp_core::LkpObjective) -> Self
    where
        M: Clone,
    {
        RankingArtifact::verbatim(model.clone(), objective.kernel().clone())
    }

    /// Rebuilds the artifact around a refreshed model, **reusing this
    /// artifact's kernel** — the delta-fit serving handoff.
    ///
    /// An incremental `lkp_core::Trainer::update` pass moves the relevance
    /// model but leaves the pre-trained diversity kernel untouched, so the
    /// refreshed artifact clones the already-normalized kernel verbatim
    /// instead of re-normalizing: a refresh from an *unchanged* model is
    /// bitwise identical to this artifact, and per-user kernel-cache
    /// contents (keyed on candidate sets over `K`) stay valid across the
    /// swap.
    ///
    /// # Panics
    /// If the refreshed model's catalog size differs from this artifact's
    /// (the refresh pipeline preserves catalog shape; see
    /// `Dataset::merge_delta`).
    pub fn refresh_from(&self, model: &M) -> Self
    where
        M: Clone,
    {
        RankingArtifact::verbatim(model.clone(), self.kernel.clone())
    }

    /// The frozen relevance model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The frozen (normalized) diversity kernel.
    pub fn kernel(&self) -> &LowRankKernel {
        &self.kernel
    }

    /// Catalog size served by this artifact.
    pub fn n_items(&self) -> usize {
        self.model.n_items()
    }

    /// User population served by this artifact.
    pub fn n_users(&self) -> usize {
        self.model.n_users()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkp_core::objective::{LkpKind, LkpObjective};
    use lkp_linalg::Matrix;
    use lkp_models::MatrixFactorization;
    use lkp_nn::AdamConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_trained_serves_the_objective_kernel_bitwise() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = MatrixFactorization::new(4, 12, 3, AdamConfig::default(), &mut rng);
        let v = Matrix::from_fn(12, 3, |r, c| (((r * 5 + c * 3) % 7) as f64) * 0.3 - 1.0);
        let objective = LkpObjective::new(LkpKind::NegativeAware, LowRankKernel::new(v));
        let artifact = RankingArtifact::from_trained(&model, &objective);
        let bits = |k: &LowRankKernel| -> Vec<u64> {
            k.factor().as_slice().iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(artifact.kernel()), bits(objective.kernel()));
    }
}
