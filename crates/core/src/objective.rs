//! The LkP objectives (paper Eq. 7 and Eq. 10) and the objective trait all
//! criteria implement.
//!
//! The trait splits per-instance work into two phases:
//!
//! * [`Objective::compute_into`] — **immutable** with respect to both the
//!   objective and the model: reads scores, runs the tailored-k-DPP pipeline
//!   inside a caller-provided [`DppWorkspace`], and writes the instance's
//!   loss and gradients into a reusable [`InstanceGrad`]. Because it takes
//!   `&self`/`&M`, mini-batches parallelize freely across instances.
//!   Instances arrive as borrowed [`InstanceRef`] views, resolved either
//!   from owned [`lkp_data::GroundSetInstance`]s or zero-copy from an
//!   [`lkp_data::EpochPlan`]'s flat arena.
//! * [`Objective::accumulate`] — pushes one computed [`InstanceGrad`] into
//!   the model's parameter gradients. The trainer calls it serially, in
//!   instance order, so batch results are bitwise identical at any thread
//!   count.
//!
//! [`Objective::compute_batch_into`] is the dispatch-level entry point: the
//! trainer hands each uniform-size run of a scheduled batch to it, and
//! criteria whose cost is dominated by the kernel eigendecomposition
//! (the frozen-kernel LkP objectives) override it to stage every instance
//! into a [`DppBatchArena`] and solve the run's eigenproblems back-to-back
//! from one scratch allocation. The default loops [`Objective::compute_into`].
//!
//! [`Objective::apply`] composes compute + accumulate with a scratch
//! workspace for callers that process single instances (tests, probes,
//! examples).

use crate::{KERNEL_JITTER, SCORE_CLAMP};
use lkp_data::{InstanceBlock, InstanceRef};
use lkp_dpp::{DppBatchArena, DppWorkspace, LowRankKernel};
use lkp_linalg::Matrix;
use lkp_models::{ItemEmbeddings, Recommender};

/// One instance's computed contribution: loss plus every gradient the model
/// needs, in reusable buffers (clear-and-refill; no steady-state allocation).
#[derive(Debug, Clone, Default)]
pub struct InstanceGrad {
    /// The instance's user.
    pub user: usize,
    /// The ground set (targets then negatives).
    pub items: Vec<usize>,
    /// Model scores over `items` (kept for diagnostics and chaining).
    pub scores: Vec<f64>,
    /// `∂loss/∂score` per ground-set item; empty when the instance was
    /// skipped (degenerate kernel) and nothing should be accumulated.
    pub dscores: Vec<f64>,
    /// The instance's loss (0 for skipped instances).
    pub loss: f64,
    /// Items with embedding gradients (E-type objectives), parallel to
    /// `embed_grads` chunks of length `embed_dim`.
    pub embed_items: Vec<usize>,
    /// Flattened `∂loss/∂embedding` rows.
    pub embed_grads: Vec<f64>,
    /// Embedding dimensionality of `embed_grads` rows.
    pub embed_dim: usize,
}

impl InstanceGrad {
    /// Resets the buffers for a new instance (capacity retained).
    pub fn reset_for(&mut self, instance: InstanceRef<'_>) {
        self.user = instance.user;
        self.items.clear();
        self.items.extend_from_slice(instance.positives);
        self.items.extend_from_slice(instance.negatives);
        self.scores.clear();
        self.dscores.clear();
        self.loss = 0.0;
        self.embed_items.clear();
        self.embed_grads.clear();
        self.embed_dim = 0;
    }

    /// Marks the instance skipped (degenerate kernel): zero loss, no grads.
    pub fn mark_skipped(&mut self) {
        self.loss = 0.0;
        self.dscores.clear();
        self.embed_items.clear();
        self.embed_grads.clear();
    }
}

/// A per-instance training criterion.
///
/// Implementors provide the immutable [`Objective::compute_into`]; the
/// default [`Objective::accumulate`] pushes score gradients (override to add
/// embedding gradients), and the default [`Objective::apply`] chains the two
/// for one-off callers. `Sync` is required so the trainer can share the
/// objective across worker threads.
pub trait Objective<M: Recommender>: Sync {
    /// Computes one instance's loss and gradients into `out`, using `ws` as
    /// scratch. Must not mutate shared state: the trainer calls this
    /// concurrently from several threads with per-thread `ws`/`out`.
    fn compute_into(
        &self,
        model: &M,
        instance: InstanceRef<'_>,
        ws: &mut DppWorkspace,
        out: &mut InstanceGrad,
    );

    /// Computes a uniform-size run of plan instances into
    /// `outs[..block.len()]` — the dispatch-level entry point the trainer
    /// routes every scheduled run through.
    ///
    /// The default loops [`Objective::compute_into`] and touches neither the
    /// arena nor any batching machinery, so pointwise/pairwise baselines are
    /// unaffected. Criteria dominated by the eigen stage override this to
    /// stage all of the run's kernels into the [`DppBatchArena`] and solve
    /// the eigenproblems back-to-back from the arena's shared scratch
    /// (`lkp_linalg::eigen::compute_batch`). Overrides must produce results
    /// **bitwise identical** to the default loop — batching may reorder
    /// work, never arithmetic.
    fn compute_batch_into(
        &self,
        model: &M,
        block: InstanceBlock<'_>,
        ws: &mut DppWorkspace,
        arena: &mut DppBatchArena,
        outs: &mut [InstanceGrad],
    ) {
        let _ = arena;
        debug_assert_eq!(block.len(), outs.len());
        for (i, out) in outs.iter_mut().enumerate() {
            self.compute_into(model, block.get(i), ws, out);
        }
    }

    /// Accumulates a computed gradient into the model.
    fn accumulate(&self, model: &mut M, grad: &InstanceGrad) {
        if !grad.dscores.is_empty() {
            model.accumulate_score_grads(grad.user, &grad.items, &grad.dscores);
        }
    }

    /// Convenience single-instance path: compute + accumulate with scratch
    /// buffers. Allocates; hot loops should hold their own workspace and use
    /// the two-phase API directly.
    fn apply(&mut self, model: &mut M, instance: InstanceRef<'_>) -> f64 {
        let mut ws = DppWorkspace::new();
        let mut out = InstanceGrad::default();
        self.compute_into(model, instance, &mut ws, &mut out);
        self.accumulate(model, &out);
        out.loss
    }

    /// The `(k, n)` ground-set shape this criterion trains on, given the
    /// experiment's configured shape. Pointwise/pairwise baselines override
    /// this (BPR wants `(1, 1)` regardless of the experiment's `k`).
    fn instance_shape(&self, k: usize, n: usize) -> (usize, usize) {
        (k, n)
    }

    /// Short name for logs and table rows.
    fn name(&self) -> &'static str;
}

/// Which of the two LkP formulations to optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LkpKind {
    /// Eq. 7 — maximize `log P_k(S⁺)` (inclusion of the target subset).
    PositiveOnly,
    /// Eq. 10 — maximize `log P_k(S⁺) + log(1 − P_k(S⁻))` (inclusion of the
    /// target subset and exclusion of the all-negative subset; needs n = k).
    NegativeAware,
}

/// The LkP criterion with the **pre-learned** diversity kernel (paper
/// default). Holds a shared low-rank `K`; per instance it assembles
/// `L = Diag(q)·K_T·Diag(q) + ε·I` with `q = exp(ŷ)` and differentiates the
/// tailored k-DPP log-probability back into the model scores. When the
/// kernel's rank `d` is smaller than the ground set, the spectrum goes
/// through the `d × d` dual Gram instead of the `m × m` kernel.
pub struct LkpObjective {
    kind: LkpKind,
    kernel: LowRankKernel,
}

impl LkpObjective {
    /// Creates the objective. The kernel is row-normalized on entry so its
    /// diagonal is exactly 1 (pure-diversity factor; quality lives in `q`).
    pub fn new(kind: LkpKind, kernel: LowRankKernel) -> Self {
        LkpObjective {
            kind,
            kernel: kernel.normalized(),
        }
    }

    /// Borrow the diversity kernel.
    pub fn kernel(&self) -> &LowRankKernel {
        &self.kernel
    }

    /// The LkP formulation in use.
    pub fn kind(&self) -> LkpKind {
        self.kind
    }

    /// Gathers the ground set's factor rows `V_T` into the workspace when
    /// the dual path will read them, i.e. when the kernel rank `d` is below
    /// the ground-set size `m`; returns whether it did. Routing depends on
    /// `d` vs `m` alone, so rows left in the workspace by an earlier
    /// instance are never read.
    fn stage_factor(&self, items: &[usize], ws: &mut DppWorkspace) -> bool {
        let use_factor = self.kernel.dim() < items.len();
        if use_factor {
            self.kernel
                .gather_rows_into(items, &mut ws.factor_rows)
                .expect("ground items in kernel range");
        }
        use_factor
    }

    /// Shared prologue of the per-instance path: resets `out`, scores the
    /// ground set, and stages the kernel inputs in the workspace. Returns
    /// whether the dual path's factor rows were staged.
    fn stage<M: Recommender>(
        &self,
        model: &M,
        instance: InstanceRef<'_>,
        ws: &mut DppWorkspace,
        out: &mut InstanceGrad,
    ) -> bool {
        out.reset_for(instance);
        model.score_items_into(instance.user, &out.items, &mut out.scores);
        self.kernel
            .submatrix_into(&out.items, &mut ws.k_sub)
            .expect("ground items in kernel range");
        self.stage_factor(&out.items, ws)
    }

    /// Shared epilogue: copies the workspace result into `out`, or marks the
    /// instance skipped when the kernel degenerated.
    fn collect(ws: &DppWorkspace, result: Option<lkp_dpp::TailoredResult>, out: &mut InstanceGrad) {
        match result {
            Some(result) => {
                out.loss = result.loss;
                out.dscores.extend_from_slice(ws.dscores());
            }
            None => out.mark_skipped(),
        }
    }
}

impl<M: Recommender> Objective<M> for LkpObjective {
    fn compute_into(
        &self,
        model: &M,
        instance: InstanceRef<'_>,
        ws: &mut DppWorkspace,
        out: &mut InstanceGrad,
    ) {
        let use_factor = self.stage(model, instance, ws, out);
        let result = ws.tailored_loss_grad_staged(
            &out.scores,
            instance.k(),
            self.kind == LkpKind::NegativeAware,
            use_factor,
            KERNEL_JITTER,
            SCORE_CLAMP,
        );
        Self::collect(ws, result, out);
    }

    /// Batched dispatch path: stage every instance's staged kernel into an
    /// arena slot, solve the run's eigenproblems back-to-back from the
    /// arena's shared scratch, then walk the gradient tails. Each phase is a
    /// pure function of its instance's inputs, so the results are bitwise
    /// the default per-instance loop's — the batching only tightens the
    /// eigen stage's inner loop.
    fn compute_batch_into(
        &self,
        model: &M,
        block: InstanceBlock<'_>,
        ws: &mut DppWorkspace,
        arena: &mut DppBatchArena,
        outs: &mut [InstanceGrad],
    ) {
        let n = block.len();
        debug_assert_eq!(n, outs.len());
        let negative_aware = self.kind == LkpKind::NegativeAware;
        arena.begin(n);
        for (i, out) in outs.iter_mut().enumerate() {
            let instance = block.get(i);
            out.reset_for(instance);
            model.score_items_into(instance.user, &out.items, &mut out.scores);
            let use_factor = self.stage_factor(&out.items, ws);
            let slot = arena.slot_mut(i);
            self.kernel
                .submatrix_into(&out.items, &mut slot.k_sub)
                .expect("ground items in kernel range");
            ws.stage_slot(
                slot,
                &out.scores,
                instance.k(),
                negative_aware,
                use_factor,
                KERNEL_JITTER,
                SCORE_CLAMP,
            );
        }
        arena.solve_all();
        for (i, out) in outs.iter_mut().enumerate() {
            let result = ws.finish_slot(arena.slot(i), negative_aware, KERNEL_JITTER);
            Self::collect(ws, result, out);
        }
    }

    fn name(&self) -> &'static str {
        match self.kind {
            LkpKind::PositiveOnly => "LkP-PS",
            LkpKind::NegativeAware => "LkP-NPS",
        }
    }
}

/// The `E`-type LkP criterion: the diversity factor is an RBF kernel over
/// the model's *trainable* item embeddings, so the gradient additionally
/// flows into the embeddings through the kernel entries (the paper's PSE /
/// NPSE variants).
pub struct LkpRbfObjective {
    kind: LkpKind,
    /// RBF bandwidth σ.
    pub sigma: f64,
}

impl LkpRbfObjective {
    /// Creates the E-type objective with bandwidth `sigma`.
    pub fn new(kind: LkpKind, sigma: f64) -> Self {
        assert!(sigma > 0.0);
        LkpRbfObjective { kind, sigma }
    }
}

impl<M: Recommender + ItemEmbeddings> Objective<M> for LkpRbfObjective {
    fn compute_into(
        &self,
        model: &M,
        instance: InstanceRef<'_>,
        ws: &mut DppWorkspace,
        out: &mut InstanceGrad,
    ) {
        out.reset_for(instance);
        let m = out.items.len();
        model.score_items_into(instance.user, &out.items, &mut out.scores);
        // Assemble the RBF diversity kernel from current item embeddings,
        // staging the feature rows in the workspace's factor buffer (the
        // RBF kernel is full-rank, so the dual path is not offered).
        let dim = model.item_dim();
        ws.factor_rows.reset(m, dim);
        for (row, &item) in out.items.iter().enumerate() {
            ws.factor_rows
                .row_mut(row)
                .copy_from_slice(model.item_embedding(item));
        }
        {
            // Detach feats from `ws` while writing `ws.k_sub` (disjoint
            // staging buffers, but the borrow checker sees one `ws`).
            let feats = std::mem::take(&mut ws.factor_rows);
            lkp_dpp::lowrank::rbf_kernel_into(&feats, self.sigma, &mut ws.k_sub);
            ws.factor_rows = feats;
        }
        let negative_aware = self.kind == LkpKind::NegativeAware;
        let Some(result) = ws.tailored_loss_grad_staged(
            &out.scores,
            instance.k(),
            negative_aware,
            false,
            KERNEL_JITTER,
            SCORE_CLAMP,
        ) else {
            out.mark_skipped();
            return;
        };
        out.loss = result.loss;
        out.dscores.extend_from_slice(ws.dscores());

        // Chain ∂loss/∂L into K entries, then into embeddings:
        // ∂K_ij/∂e_i = K_ij·(e_j − e_i)/σ², and
        // ∂loss/∂K_ij = G_ij·q_i·q_j with G = ∂loss/∂L.
        let g_l = ws.grad_l();
        let q = ws.quality();
        let feats = &ws.factor_rows;
        let k_sub = &ws.k_sub;
        let sigma2 = self.sigma * self.sigma;
        out.embed_dim = dim;
        for i in 0..m {
            out.embed_items.push(out.items[i]);
            let base = out.embed_grads.len();
            out.embed_grads.resize(base + dim, 0.0);
            for j in 0..m {
                if i == j {
                    continue;
                }
                let dk_ij = g_l[(i, j)] * q[i] * q[j];
                let dk_ji = g_l[(j, i)] * q[j] * q[i];
                let coeff = (dk_ij + dk_ji) * k_sub[(i, j)] / sigma2;
                if coeff == 0.0 {
                    continue;
                }
                let fi = feats.row(i);
                let fj = feats.row(j);
                let de = &mut out.embed_grads[base..base + dim];
                for ((slot, &a), &b) in de.iter_mut().zip(fj).zip(fi) {
                    *slot += coeff * (a - b);
                }
            }
        }
    }

    fn accumulate(&self, model: &mut M, grad: &InstanceGrad) {
        if grad.dscores.is_empty() {
            return;
        }
        model.accumulate_score_grads(grad.user, &grad.items, &grad.dscores);
        for (chunk, &item) in grad
            .embed_grads
            .chunks_exact(grad.embed_dim)
            .zip(&grad.embed_items)
        {
            model.accumulate_item_embedding_grad(item, chunk);
        }
    }

    fn name(&self) -> &'static str {
        match self.kind {
            LkpKind::PositiveOnly => "LkP-PSE",
            LkpKind::NegativeAware => "LkP-NPSE",
        }
    }
}

/// Quality vector `q_i = exp(clamp(ŷ_i))` — the positive relevance factor of
/// the kernel decomposition (paper Eq. 13). Public so that diagnostics and
/// case studies can assemble the same kernels the objectives train with.
pub fn quality(scores: &[f64]) -> Vec<f64> {
    scores
        .iter()
        .map(|&s| s.clamp(-SCORE_CLAMP, SCORE_CLAMP).exp())
        .collect()
}

/// Assembles exactly the tailored kernel the objectives train with:
/// `L = Diag(q)·K_T·Diag(q) + ε·I` with `q = quality(scores)` and the
/// workspace's L-space jitter. Diagnostics, probes, and case studies should
/// go through this instead of jittering `K_T` themselves, so their subset
/// probabilities match the training distribution bit for bit.
pub fn tailored_kernel(scores: &[f64], k_sub: &Matrix) -> Option<lkp_dpp::DppKernel> {
    let q = quality(scores);
    let mut l = lkp_dpp::DppKernel::from_quality_diversity(&q, k_sub)
        .ok()?
        .into_matrix();
    for i in 0..l.rows() {
        l[(i, i)] += KERNEL_JITTER;
    }
    lkp_dpp::DppKernel::new(l).ok()
}

/// Test-only re-export of the objective core, so external property tests can
/// exercise the raw `(loss, ∂loss/∂scores, ∂loss/∂L)` computation without a
/// model in the loop.
#[doc(hidden)]
pub fn lkp_core_apply_for_tests(
    kind: LkpKind,
    scores: &[f64],
    k_sub: &Matrix,
    k: usize,
) -> Option<(f64, Vec<f64>, Matrix)> {
    let mut ws = DppWorkspace::new();
    let result = ws.tailored_loss_grad(
        scores,
        k_sub,
        None,
        k,
        kind == LkpKind::NegativeAware,
        KERNEL_JITTER,
        SCORE_CLAMP,
    )?;
    let g_l = ws.grad_l().clone();
    Some((result.loss, ws.dscores().to_vec(), g_l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkp_data::GroundSetInstance;
    use lkp_dpp::{grad, DppKernel, KDpp};
    use lkp_nn::AdamConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn kernel(n_items: usize, dim: usize) -> LowRankKernel {
        let v = Matrix::from_fn(n_items, dim, |r, c| {
            (((r * 13 + c * 7) % 11) as f64) * 0.2 - 1.0
        });
        LowRankKernel::new(v).normalized()
    }

    fn mf(n_users: usize, n_items: usize) -> lkp_models::MatrixFactorization {
        let mut rng = StdRng::seed_from_u64(3);
        lkp_models::MatrixFactorization::new(
            n_users,
            n_items,
            8,
            AdamConfig {
                lr: 0.05,
                weight_decay: 0.0,
                ..Default::default()
            },
            &mut rng,
        )
    }

    fn instance() -> GroundSetInstance {
        GroundSetInstance {
            user: 0,
            positives: vec![0, 1, 2],
            negatives: vec![5, 6, 7],
        }
    }

    /// `lkp_core_apply_for_tests` with the dense path forced — shorthand.
    fn core_apply(
        kind: LkpKind,
        scores: &[f64],
        ksub: &Matrix,
        k: usize,
    ) -> Option<(f64, Vec<f64>, Matrix)> {
        lkp_core_apply_for_tests(kind, scores, ksub, k)
    }

    #[test]
    fn core_apply_loss_is_negative_log_prob() {
        let scores = vec![0.5, 0.2, -0.1, 0.0, -0.3, 0.4];
        let ksub = kernel(6, 4).full_matrix();
        let (loss, _, _) = core_apply(LkpKind::PositiveOnly, &scores, &ksub, 3).unwrap();
        // Recompute directly through the cold path with the same L-space
        // jitter: L = Diag(q)·K·Diag(q) + ε·I.
        let q = quality(&scores);
        let mut l = Matrix::zeros(6, 6);
        for i in 0..6 {
            for j in 0..6 {
                l[(i, j)] = q[i] * ksub[(i, j)] * q[j];
            }
            l[(i, i)] += KERNEL_JITTER;
        }
        let kdpp = KDpp::new(DppKernel::new(l).unwrap(), 3).unwrap();
        let expected = -kdpp.log_prob(&[0, 1, 2]).unwrap();
        assert!((loss - expected).abs() < 1e-10);
    }

    #[test]
    fn score_gradients_match_finite_difference_ps() {
        score_grad_check(LkpKind::PositiveOnly);
    }

    #[test]
    fn score_gradients_match_finite_difference_nps() {
        score_grad_check(LkpKind::NegativeAware);
    }

    fn score_grad_check(kind: LkpKind) {
        let scores = vec![0.4, -0.2, 0.1, 0.3, -0.5, 0.0];
        let ksub = kernel(6, 4).full_matrix();
        let (_, dscores, _) = core_apply(kind, &scores, &ksub, 3).unwrap();
        let h = 1e-6;
        for i in 0..6 {
            let mut plus = scores.clone();
            plus[i] += h;
            let mut minus = scores.clone();
            minus[i] -= h;
            let lp = core_apply(kind, &plus, &ksub, 3).unwrap().0;
            let lm = core_apply(kind, &minus, &ksub, 3).unwrap().0;
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (fd - dscores[i]).abs() < 1e-5,
                "{kind:?} dim {i}: fd {fd} vs analytic {}",
                dscores[i]
            );
        }
    }

    #[test]
    fn raising_positive_scores_lowers_the_loss() {
        // The gradient on positives should be negative (descending the loss
        // raises their scores) on average, and positive on negatives.
        let scores = vec![0.0; 6];
        let ksub = kernel(6, 4).full_matrix();
        for kind in [LkpKind::PositiveOnly, LkpKind::NegativeAware] {
            let (_, ds, _) = core_apply(kind, &scores, &ksub, 3).unwrap();
            let pos_mean: f64 = ds[..3].iter().sum::<f64>() / 3.0;
            let neg_mean: f64 = ds[3..].iter().sum::<f64>() / 3.0;
            assert!(pos_mean < 0.0, "{kind:?}: positives gradient {pos_mean}");
            assert!(neg_mean > 0.0, "{kind:?}: negatives gradient {neg_mean}");
        }
    }

    #[test]
    fn training_lifts_targets_above_negatives() {
        let mut model = mf(2, 10);
        let mut obj = LkpObjective::new(LkpKind::NegativeAware, kernel(10, 4));
        let inst = instance();
        for _ in 0..200 {
            obj.apply(&mut model, inst.as_ref());
            model.step();
        }
        let ground = inst.ground_set();
        let s = model.score_items(0, &ground);
        let pos_min = s[..3].iter().cloned().fold(f64::INFINITY, f64::min);
        let neg_max = s[3..].iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            pos_min > neg_max,
            "positives {:?} should dominate negatives {:?}",
            &s[..3],
            &s[3..]
        );
    }

    #[test]
    fn nps_loss_exceeds_ps_loss_for_same_state() {
        // NPS adds a non-negative exclusion term.
        let scores = vec![0.2, -0.1, 0.4, 0.0, 0.1, -0.2];
        let ksub = kernel(6, 4).full_matrix();
        let ps = core_apply(LkpKind::PositiveOnly, &scores, &ksub, 3)
            .unwrap()
            .0;
        let nps = core_apply(LkpKind::NegativeAware, &scores, &ksub, 3)
            .unwrap()
            .0;
        assert!(nps >= ps);
    }

    #[test]
    fn compute_then_accumulate_equals_apply() {
        // The two-phase API and the one-shot `apply` must walk the model
        // through identical updates.
        let inst = instance();
        let mut model_a = mf(2, 10);
        let mut model_b = mf(2, 10); // same seed → identical weights
        let mut obj = LkpObjective::new(LkpKind::NegativeAware, kernel(10, 4));

        let mut ws = DppWorkspace::new();
        let mut out = InstanceGrad::default();
        for _ in 0..5 {
            let loss_a = obj.apply(&mut model_a, inst.as_ref());
            model_a.step();
            <LkpObjective as Objective<lkp_models::MatrixFactorization>>::compute_into(
                &obj,
                &model_b,
                inst.as_ref(),
                &mut ws,
                &mut out,
            );
            <LkpObjective as Objective<lkp_models::MatrixFactorization>>::accumulate(
                &obj,
                &mut model_b,
                &out,
            );
            model_b.step();
            assert_eq!(loss_a.to_bits(), out.loss.to_bits());
        }
        let ground = inst.ground_set();
        assert_eq!(
            model_a.score_items(0, &ground),
            model_b.score_items(0, &ground)
        );
    }

    #[test]
    fn lkp_objective_uses_dual_path_for_thin_kernels() {
        // d = 4 < m = 6: the staged call must route through the dual Gram.
        let obj = LkpObjective::new(LkpKind::PositiveOnly, kernel(10, 4));
        let model = mf(2, 10);
        let inst = GroundSetInstance {
            user: 0,
            positives: vec![0, 1, 2],
            negatives: vec![5, 6, 7],
        };
        let mut ws = DppWorkspace::new();
        let mut out = InstanceGrad::default();
        out.reset_for(inst.as_ref());
        model.score_items_into(inst.user, &out.items, &mut out.scores);
        obj.kernel()
            .submatrix_into(&out.items, &mut ws.k_sub)
            .unwrap();
        obj.kernel()
            .gather_rows_into(&out.items, &mut ws.factor_rows)
            .unwrap();
        let res = ws
            .tailored_loss_grad_staged(&out.scores, 3, false, true, KERNEL_JITTER, SCORE_CLAMP)
            .unwrap();
        assert_eq!(res.path, lkp_dpp::SpectrumPath::Dual);
    }

    #[test]
    fn dense_route_skips_the_gather_and_ignores_stale_factor_rows() {
        // A thin kernel (d = 4 < m = 6) leaves its 6 × 4 factor rows in the
        // workspace; a full-rank one (d = 8 ≥ m) on the same workspace must
        // neither gather nor read them, and match a fresh workspace bitwise.
        let thin = LkpObjective::new(LkpKind::PositiveOnly, kernel(10, 4));
        let full = LkpObjective::new(LkpKind::PositiveOnly, kernel(10, 8));
        let model = mf(2, 10);
        let inst = instance();
        let mut ws = DppWorkspace::new();
        let mut out = InstanceGrad::default();
        thin.compute_into(&model, inst.as_ref(), &mut ws, &mut out);
        let stale = ws.factor_rows.clone();
        assert_eq!(stale.shape(), (6, 4));
        full.compute_into(&model, inst.as_ref(), &mut ws, &mut out);
        assert_eq!(ws.factor_rows.as_slice(), stale.as_slice(), "no gather");

        let mut fresh_out = InstanceGrad::default();
        full.compute_into(
            &model,
            inst.as_ref(),
            &mut DppWorkspace::new(),
            &mut fresh_out,
        );
        assert_eq!(out.loss.to_bits(), fresh_out.loss.to_bits());
        assert_eq!(out.dscores, fresh_out.dscores);
    }

    #[test]
    fn rbf_objective_embedding_gradients_match_finite_difference() {
        // End-to-end check through the MF model: perturb an item embedding
        // entry, the loss change must match the computed gradient.
        let model = mf(2, 10);
        let inst = instance();
        let sigma = 0.9;
        let kind = LkpKind::PositiveOnly;
        let ground = inst.ground_set();
        let obj = LkpRbfObjective::new(kind, sigma);

        let loss_of = |m: &lkp_models::MatrixFactorization| {
            let mut ws = DppWorkspace::new();
            let mut out = InstanceGrad::default();
            obj.compute_into(m, inst.as_ref(), &mut ws, &mut out);
            out.loss
        };

        // Analytic embedding gradient for ground index 1 via compute_into.
        let mut ws = DppWorkspace::new();
        let mut out = InstanceGrad::default();
        obj.compute_into(&model, inst.as_ref(), &mut ws, &mut out);
        let dim = out.embed_dim;
        let i = 1;
        let de = &out.embed_grads[i * dim..(i + 1) * dim];
        let dscores = out.dscores.clone();

        // Finite difference on embedding dims 0..3. The *score* also depends
        // on the item embedding (s = <p,q>), so FD sees both paths; subtract
        // the score path to isolate the kernel path.
        let h = 1e-6;
        let mut bumped = mf(2, 10); // same seed → identical weights
        for d in 0..3 {
            let item = ground[i];
            let orig = bumped.item_embedding(item)[d];
            let p_u = bumped.user_embedding(inst.user).to_vec();
            let score_path = dscores[i] * p_u[d];
            set_item_dim(&mut bumped, item, d, orig + h);
            let lp = loss_of(&bumped);
            set_item_dim(&mut bumped, item, d, orig - h);
            let lm = loss_of(&bumped);
            set_item_dim(&mut bumped, item, d, orig);
            let fd = (lp - lm) / (2.0 * h);
            let kernel_path_fd = fd - score_path;
            assert!(
                (kernel_path_fd - de[d]).abs() < 1e-5,
                "dim {d}: kernel-path fd {kernel_path_fd} vs analytic {}",
                de[d]
            );
        }
    }

    #[test]
    fn grad_l_supports_diversity_chain() {
        // chain_to_diversity over the exposed ∂loss/∂L must match FD w.r.t.
        // symmetric kernel-entry perturbations (the E-type chain rule input).
        let scores = vec![0.3, -0.2, 0.5, 0.1];
        let ksub = kernel(4, 6).full_matrix();
        let k = 2;
        let (_, _, g_l) = core_apply(LkpKind::PositiveOnly, &scores, &ksub, k).unwrap();
        let q = quality(&scores);
        let dk = grad::chain_to_diversity(&g_l, &q);
        let h = 1e-6;
        for i in 0..4 {
            for j in i..4 {
                let mut plus = ksub.clone();
                let mut minus = ksub.clone();
                plus[(i, j)] += h;
                minus[(i, j)] -= h;
                if i != j {
                    plus[(j, i)] += h;
                    minus[(j, i)] -= h;
                }
                let lp = core_apply(LkpKind::PositiveOnly, &scores, &plus, k)
                    .unwrap()
                    .0;
                let lm = core_apply(LkpKind::PositiveOnly, &scores, &minus, k)
                    .unwrap()
                    .0;
                let fd = (lp - lm) / (2.0 * h);
                let analytic = if i == j {
                    dk[(i, i)]
                } else {
                    dk[(i, j)] + dk[(j, i)]
                };
                assert!(
                    (fd - analytic).abs() < 1e-5,
                    "({i},{j}): fd {fd} vs {analytic}"
                );
            }
        }
    }

    fn set_item_dim(m: &mut lkp_models::MatrixFactorization, item: usize, d: usize, v: f64) {
        let mut row = m.item_embedding(item).to_vec();
        row[d] = v;
        m.set_item_embedding_for_tests(item, &row);
    }
}
