//! Allocation-free per-instance k-DPP workspace — the training hot path.
//!
//! The LkP criterion processes one ground-set instance as: assemble
//! `L = Diag(q)·K_T·Diag(q) + ε·I`, eigendecompose it, evaluate the ESP
//! normalizer `Z_k = e_k(λ)` (paper Eq. 6) and its leave-one-out gradient
//! weights (Eq. 12–15), invert the target submatrix, and chain everything
//! back into per-item score gradients. The cold-path types ([`crate::KDpp`],
//! [`crate::grad`]) allocate every intermediate per call; this module holds
//! all of them in one reusable [`DppWorkspace`] so a steady-state train step
//! performs **zero heap allocations**, and fuses the whole pipeline into one
//! pass per instance.
//!
//! Two execution paths produce identical results (up to eigen-solver
//! round-off):
//!
//! * **dense** — eigendecompose the `m × m` kernel directly (`O(m³)`);
//! * **dual** — when the diversity kernel is low-rank `K = V·Vᵀ` with
//!   `d < m`, eigendecompose the `d × d` dual Gram `BᵀB` of `B = Diag(q)·V_T`
//!   instead (Gartrell et al.'s dual-space trick), recover item-space
//!   eigenvectors as `v̂_j = B·w_j/√µ_j`, and complete the flat `ε`
//!   eigenspace with a projector — `O(d³ + m·d²)` for the spectrum.
//!
//! The dual path is exact because the jitter enters in **L-space**
//! (`L = Diag(q)·K_T·Diag(q) + ε·I`): adding `ε·I` shifts every eigenvalue
//! by exactly `ε` and leaves eigenvectors untouched, so the dual spectrum
//! `µ_j` maps to `λ_j = µ_j + ε` with no approximation. (A jitter applied to
//! `K_T` before the congruence — the historical formulation — has no such
//! correspondence, which is why the workspace defines the tailored kernel
//! this way.)

use crate::batch::{BatchSlot, SlotState};
use crate::esp::{self, LeaveOneOutScratch};
use lkp_linalg::{cholesky, eigen::EigenScratch, Matrix, SymmetricEigen};
use std::cell::{Cell, Ref, RefCell};

/// Relative threshold below which dual eigenvalues are folded into the flat
/// `ε` eigenspace (they carry no probability mass at `f64` precision).
const DUAL_RANK_TOL: f64 = 1e-12;

/// Reusable scratch buffers for the per-instance tailored k-DPP pipeline.
///
/// Create once per worker thread and thread through every instance; all
/// buffers grow to the steady-state `(m, k, d)` shape on first use and are
/// reused afterwards.
#[derive(Debug, Clone, Default)]
pub struct DppWorkspace {
    // --- caller-staged kernel inputs ---
    /// Staging buffer for the diversity submatrix `K_T` (`m × m`); callers
    /// fill it (e.g. via [`crate::LowRankKernel::submatrix_into`]) before
    /// [`DppWorkspace::tailored_loss_grad_staged`].
    pub k_sub: Matrix,
    /// Staging buffer for the gathered low-rank factor rows `V_T` (`m × d`),
    /// or per-item feature rows for kernels assembled from embeddings.
    pub factor_rows: Matrix,
    // --- kernel assembly ---
    q: Vec<f64>,
    l: Matrix,
    // --- spectrum (dense path) ---
    eigen: SymmetricEigen,
    eig_scratch: EigenScratch,
    // --- spectrum (dual path) ---
    b: Matrix,
    dual: Matrix,
    dual_eigen: SymmetricEigen,
    item_vectors: Matrix,
    retained_idx: Vec<usize>,
    // --- shared spectral data ---
    lambda: Vec<f64>,
    scaled: Vec<f64>,
    esp_buf: Vec<f64>,
    loo: Vec<f64>,
    loo_scratch: LeaveOneOutScratch,
    // --- determinant gradients ---
    sub: Matrix,
    chol: Matrix,
    /// `(L_{S⁺})⁻¹` of the target block, kept for [`DppWorkspace::grad_l`].
    inv_pos: Matrix,
    /// `(L_{S⁻})⁻¹` of the exclusion block (negative-aware only).
    inv_neg: Matrix,
    col: Vec<f64>,
    /// Whether `chol` holds a valid factor of the last `sub` (vs. the LU
    /// fallback having run).
    chol_valid: bool,
    // --- outputs ---
    /// How the last successful call's `∂loss/∂L` splits into its terms.
    tail: TailWeights,
    /// Per-item subset terms `(G_S·(L − εI))_ii` of the score gradient.
    subset_diag: Vec<f64>,
    dscores: Vec<f64>,
    /// `∂loss/∂L`, assembled from `tail` on the first [`DppWorkspace::grad_l`]
    /// read after a call (the score gradient never needs it).
    g_loss: RefCell<Matrix>,
    g_loss_stale: Cell<bool>,
}

/// The last call's kernel gradient in factored form:
/// `∂loss/∂L = normalizer·∇log Z_k + pos·scatter(inv⁺) + neg·scatter(inv⁻)`.
#[derive(Debug, Clone, Copy, Default)]
struct TailWeights {
    path: SpectrumPath,
    k: usize,
    normalizer: f64,
    pos: f64,
    neg: f64,
}

/// How the workspace computed the spectrum of the last instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpectrumPath {
    /// Full `m × m` eigendecomposition.
    #[default]
    Dense,
    /// `d × d` dual Gram eigendecomposition plus `ε`-eigenspace completion.
    Dual,
}

/// Result of one tailored-k-DPP loss/gradient evaluation.
#[derive(Debug, Clone, Copy)]
pub struct TailoredResult {
    /// The loss value (negative tailored log-probability, plus the exclusion
    /// term when negative-aware).
    pub loss: f64,
    /// Which spectral path ran.
    pub path: SpectrumPath,
}

impl DppWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        DppWorkspace::default()
    }

    /// Computes the LkP loss and score gradient for one instance.
    ///
    /// * `scores` — model scores `ŷ` over the ground set (length `m`; targets
    ///   occupy positions `0..k`, negatives `k..m`).
    /// * `k_sub` — the diversity kernel restricted to the ground set
    ///   (`m × m`, unjittered).
    /// * `factor_rows` — the gathered low-rank factor rows `V_T` (`m × d`)
    ///   when the diversity kernel is `K = V·Vᵀ`; enables the dual path when
    ///   `d < m`. Pass `None` for full-rank kernels (e.g. RBF over
    ///   embeddings).
    /// * `k` — the target cardinality; `negative_aware` adds the Eq. 10
    ///   exclusion term (requires `m = 2k`).
    /// * `jitter` — the `ε` of `L = Diag(q)·K_T·Diag(q) + ε·I`.
    /// * `score_clamp` — scores are clamped to `±score_clamp` before `exp`.
    ///
    /// Returns `None` when the kernel degenerates numerically (the instance
    /// is skipped upstream). On success, [`DppWorkspace::dscores`],
    /// [`DppWorkspace::grad_l`] and [`DppWorkspace::quality`] hold the
    /// outputs until the next call.
    #[allow(clippy::too_many_arguments)]
    pub fn tailored_loss_grad(
        &mut self,
        scores: &[f64],
        k_sub: &Matrix,
        factor_rows: Option<&Matrix>,
        k: usize,
        negative_aware: bool,
        jitter: f64,
        score_clamp: f64,
    ) -> Option<TailoredResult> {
        let m = scores.len();
        debug_assert_eq!(k_sub.shape(), (m, m));
        if k > m {
            return None;
        }
        // The exclusion term treats positions k..m as a size-k subset, which
        // only types out when n = k; a mis-shaped instance is skipped (the
        // cold path returned WrongSubsetSize here), not silently mis-scored.
        if negative_aware && m != 2 * k {
            return None;
        }

        // Quality vector q_i = exp(clamp(ŷ_i)) (paper Eq. 13).
        self.prepare_quality(scores, score_clamp);

        // Spectrum of L = Diag(q)·K_T·Diag(q) + ε·I, via whichever path is
        // cheaper. Both fill `self.lambda` (all m eigenvalues) and leave the
        // eigenbasis in path-specific storage consumed by `normalizer_grad`.
        let path = match factor_rows {
            Some(v_t) if v_t.cols() < m => {
                debug_assert_eq!(v_t.rows(), m);
                self.dual_spectrum(v_t, jitter)?;
                SpectrumPath::Dual
            }
            _ => {
                self.dense_spectrum(k_sub, jitter)?;
                SpectrumPath::Dense
            }
        };

        self.finish_from_spectrum(k_sub, k, negative_aware, jitter, path)
    }

    /// Everything downstream of the spectrum: ESP normalizer, leave-one-out
    /// weights, `∇log Z_k`, subset log-dets, and the chain back into score
    /// gradients. Expects `self.q`, `self.lambda`, and the path-specific
    /// eigenbasis (`self.eigen` for dense, `self.item_vectors` for dual) to
    /// be filled — inline or by the batched eigen stage.
    fn finish_from_spectrum(
        &mut self,
        k_sub: &Matrix,
        k: usize,
        negative_aware: bool,
        jitter: f64,
        path: SpectrumPath,
    ) -> Option<TailoredResult> {
        let m = self.q.len();
        // Normalizer log Z_k = log e_k(λ) with overflow-safe rescaling, and
        // the leave-one-out gradient weights w_i = e_{k-1}(λ_{-i}) / e_k(λ).
        let scale = self.lambda.iter().cloned().fold(0.0_f64, f64::max);
        if scale <= 0.0 && k > 0 {
            return None;
        }
        self.scaled.clear();
        self.scaled
            .extend(self.lambda.iter().map(|&l| l / scale.max(1e-300)));
        esp::elementary_symmetric_all_into(&self.scaled, k, &mut self.esp_buf);
        let z_scaled = self.esp_buf[k];
        if z_scaled <= 0.0 && k > 0 {
            return None;
        }
        let log_z = if k == 0 {
            0.0
        } else {
            z_scaled.ln() + k as f64 * scale.ln()
        };
        if k > 0 {
            esp::leave_one_out_into(&self.scaled, k - 1, &mut self.loo_scratch, &mut self.loo);
            // e_{k-1}(λ_{-i})/e_k(λ) = e_{k-1}(scaled_{-i}) / (c · e_k(scaled)).
            let denom = scale * z_scaled;
            for w in &mut self.loo {
                *w /= denom;
            }
        } else {
            self.loo.clear();
        }

        // The score gradient is ∂loss/∂ŷ_i = 2·(G·(L − εI))_ii for
        // G = ∂loss/∂L, because L_ij = q_i·K_ij·q_j + ε·δ_ij and ∂q_i/∂ŷ_i
        // = q_i. G is a weighted sum of ∇log Z_k and scattered subset
        // inverses, so each term's diagonal is read on its own in O(m²)
        // and the m × m G is never formed here. The normalizer term goes
        // to `dscores`, the subset terms to `subset_diag`.
        self.normalizer_diag(path, k_sub, jitter);
        self.subset_diag.clear();
        self.subset_diag.resize(m, 0.0);

        // Inclusion term: loss = −log P(S⁺) = log Z_k − log det(L_{S⁺});
        // ∂loss/∂L = ∇log Z_k − scatter((L_{S⁺})⁻¹).
        let log_det_pos = self.subset_log_det(k_sub, 0..k, jitter)?;
        let log_p_pos = log_det_pos - log_z;
        if !log_p_pos.is_finite() {
            return None;
        }
        let mut loss = -log_p_pos;
        let mut normalizer = 1.0;
        let pos = self.subset_term(k_sub, 0..k, -1.0);
        let mut neg = 0.0;

        if negative_aware {
            // Exclusion of the all-negative subset S⁻ = {k..2k} (Eq. 10):
            // loss += −log(1 − P(S⁻));
            // ∂/∂L = P/(1−P) · ∇log P(S⁻) = P/(1−P)·(scatter(inv⁻) − ∇log Z).
            let log_det_neg = self.subset_log_det(k_sub, k..m, jitter)?;
            let log_p_neg = log_det_neg - log_z;
            let p_neg = log_p_neg.exp().clamp(0.0, 1.0 - 1e-9);
            loss += -(1.0 - p_neg).ln();
            let w = p_neg / (1.0 - p_neg);
            normalizer -= w;
            neg = self.subset_term(k_sub, k..m, w);
        }

        for (d, &s) in self.dscores.iter_mut().zip(&self.subset_diag) {
            *d = 2.0 * (normalizer * *d + s);
        }
        if !loss.is_finite() || self.dscores.iter().any(|d| !d.is_finite()) {
            return None;
        }
        self.tail = TailWeights {
            path,
            k,
            normalizer,
            pos,
            neg,
        };
        self.g_loss_stale.set(true);
        Some(TailoredResult { loss, path })
    }

    /// Fills `self.q` with `exp(clamp(ŷ))` (paper Eq. 13).
    fn prepare_quality(&mut self, scores: &[f64], score_clamp: f64) {
        quality_into(scores, score_clamp, &mut self.q);
    }

    /// [`DppWorkspace::tailored_loss_grad`] reading the kernel inputs from
    /// the staging buffers [`DppWorkspace::k_sub`] / [`DppWorkspace::factor_rows`]
    /// (filled by the caller beforehand). `use_factor` selects whether the
    /// staged factor rows are offered for the dual path.
    pub fn tailored_loss_grad_staged(
        &mut self,
        scores: &[f64],
        k: usize,
        negative_aware: bool,
        use_factor: bool,
        jitter: f64,
        score_clamp: f64,
    ) -> Option<TailoredResult> {
        // Temporarily detach the staged buffers so the borrow checker sees
        // them as plain inputs; `mem::take`/restore moves no heap data.
        let k_sub = std::mem::take(&mut self.k_sub);
        let factor = std::mem::take(&mut self.factor_rows);
        let result = self.tailored_loss_grad(
            scores,
            &k_sub,
            if use_factor { Some(&factor) } else { None },
            k,
            negative_aware,
            jitter,
            score_clamp,
        );
        self.k_sub = k_sub;
        self.factor_rows = factor;
        result
    }

    /// Stages one instance of a uniform-shape dispatch into an arena `slot`
    /// (see [`crate::batch::DppBatchArena`]): computes the quality vector and
    /// assembles the matrix the eigen stage must decompose — the full
    /// tailored kernel `L` on the dense path, the dual Gram `BᵀB` on the
    /// dual path. The caller must have filled `slot.k_sub` (and, when
    /// `use_factor`, [`DppWorkspace::factor_rows`]) beforehand. Instances
    /// whose shape is invalid (`k > m`, or a negative-aware instance with
    /// `m ≠ 2k`) mark the slot skipped, exactly as the inline path returns
    /// `None` for them.
    ///
    /// The staged math is operation-for-operation the inline
    /// [`DppWorkspace::tailored_loss_grad_staged`] prologue, so a
    /// stage → batched-solve → [`DppWorkspace::finish_slot`] pipeline is
    /// bitwise identical to interleaved per-instance computation.
    #[allow(clippy::too_many_arguments)]
    pub fn stage_slot(
        &mut self,
        slot: &mut BatchSlot,
        scores: &[f64],
        k: usize,
        negative_aware: bool,
        use_factor: bool,
        jitter: f64,
        score_clamp: f64,
    ) {
        let m = scores.len();
        debug_assert_eq!(slot.k_sub.shape(), (m, m));
        slot.k = k;
        slot.m = m;
        if k > m || (negative_aware && m != 2 * k) {
            slot.state = SlotState::Skipped;
            return;
        }
        // Same helpers as the inline prologue (`prepare_quality`,
        // `assemble_dense`, `assemble_dual`), writing into the slot's
        // buffers — the stage/inline bitwise identity is structural.
        quality_into(scores, score_clamp, &mut slot.q);
        slot.path = match use_factor {
            true if self.factor_rows.cols() < m => {
                debug_assert_eq!(self.factor_rows.rows(), m);
                assemble_b_into(&slot.q, &self.factor_rows, &mut slot.b);
                slot.b.gram_into(&mut slot.mat);
                SpectrumPath::Dual
            }
            _ => {
                assemble_tailored_into(&slot.q, &slot.k_sub, jitter, &mut slot.mat);
                SpectrumPath::Dense
            }
        };
        slot.state = SlotState::Staged;
    }

    /// Runs everything downstream of the eigen stage for a staged-and-solved
    /// arena slot: loads the slot's spectrum into the workspace and completes
    /// the pipeline via the shared `DppWorkspace::finish_from_spectrum`.
    /// Returns `None` for skipped slots, failed (invalidated)
    /// decompositions — the same instances the inline path skips — and for
    /// slots the arena's solve pass never reached (`solve_all` advances
    /// slots to [`SlotState::Solved`]; a merely staged slot may still hold a
    /// *previous* dispatch's valid decomposition, which must never be
    /// combined with this dispatch's inputs).
    pub fn finish_slot(
        &mut self,
        slot: &BatchSlot,
        negative_aware: bool,
        jitter: f64,
    ) -> Option<TailoredResult> {
        if slot.state != SlotState::Solved || !slot.eigen.is_valid() {
            return None;
        }
        self.q.clear();
        self.q.extend_from_slice(&slot.q);
        match slot.path {
            SpectrumPath::Dense => {
                self.eigen.values.clear();
                self.eigen.values.extend_from_slice(&slot.eigen.values);
                self.eigen.vectors.copy_from(&slot.eigen.vectors);
                self.eigen.clamped_nonnegative_values_into(&mut self.lambda);
            }
            SpectrumPath::Dual => {
                self.b.copy_from(&slot.b);
                self.dual_eigen.values.clear();
                self.dual_eigen.values.extend_from_slice(&slot.eigen.values);
                self.dual_eigen.vectors.copy_from(&slot.eigen.vectors);
                self.dual_finish(slot.m, jitter);
            }
        }
        self.finish_from_spectrum(&slot.k_sub, slot.k, negative_aware, jitter, slot.path)
    }

    /// Score gradient `∂loss/∂ŷ` of the last successful call.
    pub fn dscores(&self) -> &[f64] {
        &self.dscores
    }

    /// Kernel gradient `∂loss/∂L` of the last successful call (used by the
    /// E-type objective to chain into embeddings).
    ///
    /// The `m × m` matrix is assembled here, on the first read after a
    /// call, from the saved eigenbasis, leave-one-out weights and subset
    /// inverses; objectives that only need [`DppWorkspace::dscores`] never
    /// pay for it.
    pub fn grad_l(&self) -> Ref<'_, Matrix> {
        if self.g_loss_stale.replace(false) {
            self.assemble_grad_l(&mut self.g_loss.borrow_mut());
        }
        self.g_loss.borrow()
    }

    /// Writes `∂loss/∂L` of the last successful call into `g` (see
    /// [`TailWeights`]).
    fn assemble_grad_l(&self, g: &mut Matrix) {
        let m = self.q.len();
        let TailWeights {
            path,
            k,
            normalizer,
            pos,
            neg,
        } = self.tail;
        g.reset(m, m);
        if !self.loo.is_empty() {
            // ∇log Z_k = Σ_t w_t·u_t·u_tᵀ over the eigenbasis of the path.
            match path {
                SpectrumPath::Dense => {
                    for (t, &w) in self.loo.iter().enumerate() {
                        add_outer_column(g, normalizer * w, &self.eigen.vectors, t);
                    }
                }
                SpectrumPath::Dual => {
                    // w0·I + Σ_j (w_j − w0)·v̂_j·v̂_jᵀ: the flat ε eigenspace
                    // shares one weight, so its eigenvectors never
                    // materialize (see `normalizer_diag`).
                    let r = self.item_vectors.cols();
                    let w0 = if r < m { self.loo[r] } else { 0.0 };
                    for i in 0..m {
                        g[(i, i)] = normalizer * w0;
                    }
                    for j in 0..r {
                        let wj = normalizer * (self.loo[j] - w0);
                        add_outer_column(g, wj, &self.item_vectors, j);
                    }
                }
            }
        }
        scatter_block(g, &self.inv_pos, 0..k, pos);
        scatter_block(g, &self.inv_neg, k..m, neg);
    }

    /// Quality vector `q = exp(clamp(ŷ))` of the last successful call.
    pub fn quality(&self) -> &[f64] {
        &self.q
    }

    /// Assembles the full tailored kernel `L = Diag(q)·K_T·Diag(q) + ε·I`
    /// into `self.l`.
    fn assemble_dense(&mut self, k_sub: &Matrix, jitter: f64) {
        assemble_tailored_into(&self.q, k_sub, jitter, &mut self.l);
    }

    /// Dense spectrum: assemble the full `L` and eigendecompose it.
    fn dense_spectrum(&mut self, k_sub: &Matrix, jitter: f64) -> Option<()> {
        self.assemble_dense(k_sub, jitter);
        self.eigen
            .compute_into(&self.l, &mut self.eig_scratch)
            .ok()?;
        self.eigen.clamped_nonnegative_values_into(&mut self.lambda);
        Some(())
    }

    /// Assembles `B = Diag(q)·V_T` and the dual Gram `BᵀB` into
    /// `self.b`/`self.dual`.
    fn assemble_dual(&mut self, v_t: &Matrix) {
        assemble_b_into(&self.q, v_t, &mut self.b);
        self.b.gram_into(&mut self.dual);
    }

    /// Dual spectrum: eigendecompose `BᵀB` (`d × d`) for `B = Diag(q)·V_T`,
    /// recover item-space eigenvectors, and append the flat `ε` eigenspace.
    ///
    /// Fills `lambda` as `[µ_1+ε, …, µ_r+ε, ε, …, ε]` (retained dual
    /// eigenvalues first, then `m − r` copies of `ε`) and `item_vectors`
    /// with the matching `m × r` item-space eigenvectors.
    fn dual_spectrum(&mut self, v_t: &Matrix, jitter: f64) -> Option<()> {
        self.assemble_dual(v_t);
        self.dual_eigen
            .compute_into(&self.dual, &mut self.eig_scratch)
            .ok()?;
        self.dual_finish(v_t.rows(), jitter);
        Some(())
    }

    /// Shared dual-path tail: retained eigenvalues, flat `ε` completion, and
    /// item-space eigenvector recovery from `self.dual_eigen`.
    fn dual_finish(&mut self, m: usize, jitter: f64) {
        let d = self.dual_eigen.dim();
        let max_mu = self
            .dual_eigen
            .values
            .iter()
            .cloned()
            .fold(0.0_f64, f64::max);
        // Retained dual eigenvalues, largest first (ascending from the
        // solver; walk backwards so lambda is descending then flat).
        self.lambda.clear();
        self.retained_idx.clear();
        for idx in (0..d).rev() {
            let mu = self.dual_eigen.values[idx];
            if mu > DUAL_RANK_TOL * max_mu && mu > 0.0 {
                self.lambda.push(mu + jitter);
                self.retained_idx.push(idx);
            }
        }
        let r = self.lambda.len();
        self.lambda.resize(m, jitter);

        // Item-space eigenvectors v̂_j = B·w_j / √µ_j for the retained µ.
        self.item_vectors.reset(m, r);
        for (col, &idx) in self.retained_idx.iter().enumerate() {
            let inv_sqrt = 1.0 / (self.lambda[col] - jitter).sqrt();
            for row in 0..m {
                let mut acc = 0.0;
                let brow = self.b.row(row);
                for (x, &bv) in brow.iter().enumerate() {
                    acc += bv * self.dual_eigen.vectors[(x, idx)];
                }
                self.item_vectors[(row, col)] = acc * inv_sqrt;
            }
        }
    }

    /// Fills `dscores` with the normalizer's diagonal
    /// `N_i = (∇log Z_k·(L − εI))_ii = Σ_t w_t·(λ_t − ε)·U_it²` from the loo
    /// weights and whichever eigenbasis the spectrum path produced.
    fn normalizer_diag(&mut self, path: SpectrumPath, k_sub: &Matrix, jitter: f64) {
        let m = self.q.len();
        self.dscores.clear();
        if self.loo.is_empty() {
            self.dscores.resize(m, 0.0);
            return;
        }
        // `col` holds the per-eigenvector coefficients; eigenvectors are the
        // columns of a row-major matrix, so item i's row is contiguous and
        // each N_i is one dot product.
        let col = &mut self.col;
        col.clear();
        match path {
            SpectrumPath::Dense => {
                // The solver's raw eigenvalues, not the PSD-clamped
                // `lambda`: L − εI = U·diag(λ − ε)·Uᵀ holds for the raw ones.
                col.extend(
                    self.loo
                        .iter()
                        .zip(&self.eigen.values)
                        .map(|(&w, &l)| w * (l - jitter)),
                );
                for i in 0..m {
                    let u = self.eigen.vectors.row(i);
                    self.dscores.push(weighted_square_sum(col, u));
                }
            }
            SpectrumPath::Dual => {
                // ∇log Z_k = w0·I + Σ_j (w_j − w0)·v̂_j·v̂_jᵀ, where w0 is the
                // shared weight of the flat ε eigenspace and L − εI = BBᵀ
                // has v̂_j as eigenvectors with eigenvalues µ_j, so
                // N_i = w0·(L − εI)_ii + Σ_j (w_j − w0)·µ_j·v̂_ij².
                let r = self.item_vectors.cols();
                let w0 = if r < m { self.loo[r] } else { 0.0 };
                col.extend(
                    self.retained_idx
                        .iter()
                        .zip(&self.loo)
                        .map(|(&idx, &w)| (w - w0) * self.dual_eigen.values[idx]),
                );
                for i in 0..m {
                    let qi = self.q[i];
                    let flat = w0 * (qi * k_sub[(i, i)] * qi);
                    let v = self.item_vectors.row(i);
                    self.dscores.push(flat + weighted_square_sum(col, v));
                }
            }
        }
    }

    /// `log det(L_S + …)` for a contiguous ground-set range, assembling the
    /// submatrix directly from `k_sub`/`q` (no full `L` required). Returns
    /// `None` only on hard numerical failure; numerically singular subsets
    /// yield `-inf` (skipped upstream as non-finite log-probability).
    fn subset_log_det(
        &mut self,
        k_sub: &Matrix,
        range: std::ops::Range<usize>,
        jitter: f64,
    ) -> Option<f64> {
        let s = range.len();
        self.sub.reset(s, s);
        for (a, i) in range.clone().enumerate() {
            let qi = self.q[i];
            for (b, j) in range.clone().enumerate() {
                self.sub[(a, b)] = qi * k_sub[(i, j)] * self.q[j];
            }
            self.sub[(a, a)] += jitter;
        }
        match cholesky::factor_into(&self.sub, &mut self.chol) {
            Ok(()) => {
                self.chol_valid = true;
                Some(cholesky::log_det_from_factor(&self.chol))
            }
            Err(_) => {
                // Round-off indefiniteness: fall back to LU (cold path; may
                // allocate — degenerate instances are rare and skipped).
                self.chol_valid = false;
                let lu = lkp_linalg::Lu::new(&self.sub).ok()?;
                let (sign, log_det) = lu.sign_log_det();
                Some(if sign > 0.0 {
                    log_det
                } else {
                    f64::NEG_INFINITY
                })
            }
        }
    }

    /// Adds `alpha·(L_S⁻¹·(L_S − εI))_ii` to `subset_diag` for the subset
    /// whose submatrix [`DppWorkspace::subset_log_det`] just factorized, and
    /// keeps `L_S⁻¹` (in `inv_pos` for the target block at `0..k`, else in
    /// `inv_neg`) for [`DppWorkspace::grad_l`]. Returns the weight the term
    /// entered with: `alpha`, or 0 when it was skipped.
    ///
    /// Must be called immediately after a successful `subset_log_det` for the
    /// same range: it reuses the Cholesky factor still held in `self.chol`.
    fn subset_term(&mut self, k_sub: &Matrix, range: std::ops::Range<usize>, alpha: f64) -> f64 {
        if alpha == 0.0 {
            // Zero-weight term (e.g. an exclusion subset with P(S⁻) = 0):
            // skip rather than risk 0·∞ from a numerically singular inverse.
            return 0.0;
        }
        let inv = if range.start == 0 {
            &mut self.inv_pos
        } else {
            &mut self.inv_neg
        };
        if self.chol_valid {
            cholesky::inverse_from_factor(&self.chol, inv, &mut self.col);
        } else {
            // LU fallback path: cold-path inverse of the saved submatrix.
            match lkp_linalg::lu::inverse(&self.sub) {
                Ok(lu_inv) => inv.copy_from(&lu_inv),
                Err(_) => return 0.0,
            }
        }
        for (a, i) in range.clone().enumerate() {
            let qi = self.q[i];
            let mut acc = 0.0;
            for (b, j) in range.clone().enumerate() {
                acc += inv[(a, b)] * (qi * k_sub[(i, j)] * self.q[j]);
            }
            self.subset_diag[i] += alpha * acc;
        }
        alpha
    }
}

/// Fills `out` with the quality vector `q_i = exp(clamp(ŷ_i))` (paper
/// Eq. 13). Shared by the inline prologue and the batched stage path so the
/// two are the same arithmetic by construction.
fn quality_into(scores: &[f64], score_clamp: f64, out: &mut Vec<f64>) {
    out.clear();
    out.extend(
        scores
            .iter()
            .map(|&s| s.clamp(-score_clamp, score_clamp).exp()),
    );
}

/// Assembles the tailored kernel `L = Diag(q)·K_T·Diag(q) + ε·I` into `out`.
/// Shared by the inline dense path and the batched stage path.
fn assemble_tailored_into(q: &[f64], k_sub: &Matrix, jitter: f64, out: &mut Matrix) {
    let m = q.len();
    out.reset(m, m);
    for i in 0..m {
        let qi = q[i];
        let krow = k_sub.row(i);
        let lrow = out.row_mut(i);
        for ((slot, &kij), &qj) in lrow.iter_mut().zip(krow).zip(q) {
            *slot = qi * kij * qj;
        }
        lrow[i] += jitter;
    }
}

/// Assembles `B = Diag(q)·V_T` into `out` (the dual path's factor; callers
/// follow with `gram_into` for `BᵀB`). Shared by the inline dual path and
/// the batched stage path.
fn assemble_b_into(q: &[f64], v_t: &Matrix, out: &mut Matrix) {
    let m = v_t.rows();
    let d = v_t.cols();
    out.reset(m, d);
    for (i, &qi) in q.iter().enumerate().take(m) {
        let src = v_t.row(i);
        let dst = out.row_mut(i);
        for (slot, &v) in dst.iter_mut().zip(src) {
            *slot = qi * v;
        }
    }
}

/// `Σ_t c_t·u_t²` — one row of `U·diag(c)·Uᵀ`'s diagonal.
fn weighted_square_sum(c: &[f64], u: &[f64]) -> f64 {
    c.iter().zip(u).map(|(&ct, &ut)| ct * ut * ut).sum()
}

/// `out += w · v·vᵀ` for column `col` of `vectors`.
fn add_outer_column(out: &mut Matrix, w: f64, vectors: &Matrix, col: usize) {
    if w == 0.0 {
        return;
    }
    for r in 0..out.rows() {
        let coeff = w * vectors[(r, col)];
        for c in 0..out.cols() {
            out[(r, c)] += coeff * vectors[(c, col)];
        }
    }
}

/// `out[range, range] += alpha · block`.
fn scatter_block(out: &mut Matrix, block: &Matrix, range: std::ops::Range<usize>, alpha: f64) {
    if alpha == 0.0 {
        return;
    }
    for (a, i) in range.clone().enumerate() {
        for (b, j) in range.clone().enumerate() {
            out[(i, j)] += alpha * block[(a, b)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{grad, DppKernel, KDpp, LowRankKernel};
    use proptest::prelude::*;

    /// Cold-path reference: the same loss/gradient computed through the
    /// allocating KDpp/grad types, with the identical L-space jitter.
    fn reference(
        scores: &[f64],
        k_sub: &Matrix,
        k: usize,
        negative_aware: bool,
        jitter: f64,
    ) -> Option<(f64, Vec<f64>)> {
        let m = scores.len();
        let q: Vec<f64> = scores.iter().map(|&s| s.exp()).collect();
        let mut l = Matrix::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                l[(i, j)] = q[i] * k_sub[(i, j)] * q[j];
            }
            l[(i, i)] += jitter;
        }
        let kdpp = KDpp::new(DppKernel::new(l).ok()?, k).ok()?;
        let target: Vec<usize> = (0..k).collect();
        let log_p = kdpp.log_prob(&target).ok()?;
        let mut g = grad::grad_log_prob(&kdpp, &target).ok()?;
        g.scale(-1.0);
        let mut loss = -log_p;
        if negative_aware {
            let negative: Vec<usize> = (k..m).collect();
            let log_p_neg = kdpp.log_prob(&negative).ok()?;
            let p_neg = log_p_neg.exp().clamp(0.0, 1.0 - 1e-9);
            loss += -(1.0 - p_neg).ln();
            let g_neg = grad::grad_log_prob(&kdpp, &negative).ok()?;
            g.add_scaled(p_neg / (1.0 - p_neg), &g_neg).ok()?;
        }
        let mut dscores = Vec::with_capacity(m);
        for i in 0..m {
            let mut acc = 0.0;
            for j in 0..m {
                acc += g[(i, j)] * k_sub[(i, j)] * q[j];
            }
            dscores.push(2.0 * acc * q[i]);
        }
        Some((loss, dscores))
    }

    fn example_kernel(m: usize, d: usize) -> LowRankKernel {
        let v = Matrix::from_fn(m, d, |r, c| (((r * 13 + c * 7) % 11) as f64) * 0.2 - 1.0);
        LowRankKernel::new(v).normalized()
    }

    fn example_scores(m: usize) -> Vec<f64> {
        (0..m).map(|i| ((i * 7 % 5) as f64) * 0.3 - 0.6).collect()
    }

    #[test]
    fn dense_path_matches_cold_reference() {
        let m = 6;
        let k_sub = example_kernel(m, 8).full_matrix(); // d ≥ m → dense
        let scores = example_scores(m);
        let mut ws = DppWorkspace::new();
        for negative_aware in [false, true] {
            let res = ws
                .tailored_loss_grad(&scores, &k_sub, None, 3, negative_aware, 1e-6, 30.0)
                .expect("well-conditioned instance");
            assert_eq!(res.path, SpectrumPath::Dense);
            let (loss, dscores) = reference(&scores, &k_sub, 3, negative_aware, 1e-6).unwrap();
            assert!(
                (res.loss - loss).abs() < 1e-10,
                "loss {} vs {loss}",
                res.loss
            );
            for (a, b) in ws.dscores().iter().zip(&dscores) {
                assert!((a - b).abs() < 1e-9, "grad {a} vs {b}");
            }
        }
    }

    /// The score-gradient tail as it was before the diagonal form, kept as
    /// an oracle: `gz = ∇log Z_k` from m rank-one updates over the
    /// eigenbasis the workspace left behind, `g_loss = gz − scatter(inv⁺)`
    /// (plus `−w·gz + w·scatter(inv⁻)` when negative-aware), then the chain
    /// `∂loss/∂ŷ_i = 2·q_i·Σ_j G_ij·K_ij·q_j`. Subset inverses (as the old
    /// tail made them), `log Z_k` and `P(S⁻)` are recomputed here.
    fn oracle_tail(
        ws: &DppWorkspace,
        k_sub: &Matrix,
        k: usize,
        negative_aware: bool,
        jitter: f64,
        path: SpectrumPath,
    ) -> (Vec<(f64, f64)>, Matrix) {
        let m = ws.q.len();
        let q = &ws.q;
        let mut gz = Matrix::zeros(m, m);
        match path {
            SpectrumPath::Dense => {
                for (t, &w) in ws.loo.iter().enumerate() {
                    let col = ws.eigen.vectors.col(t);
                    rank_one(&mut gz, w, &col);
                }
            }
            SpectrumPath::Dual => {
                let r = ws.item_vectors.cols();
                let w0 = if r < m { ws.loo[r] } else { 0.0 };
                for i in 0..m {
                    gz[(i, i)] = w0;
                }
                for j in 0..r {
                    let col = ws.item_vectors.col(j);
                    rank_one(&mut gz, ws.loo[j] - w0, &col);
                }
            }
        }
        let block = |range: std::ops::Range<usize>| {
            Matrix::from_fn(range.len(), range.len(), |a, b| {
                let (i, j) = (range.start + a, range.start + b);
                q[i] * k_sub[(i, j)] * q[j] + if a == b { jitter } else { 0.0 }
            })
        };
        let scatter = |g: &mut Matrix, range: std::ops::Range<usize>, alpha: f64| {
            // The old tail's inverse: from the Cholesky factor, LU when
            // Cholesky refuses.
            let sub = block(range.clone());
            let mut inv = Matrix::zeros(0, 0);
            let mut chol = Matrix::zeros(0, 0);
            match cholesky::factor_into(&sub, &mut chol) {
                Ok(()) => cholesky::inverse_from_factor(&chol, &mut inv, &mut Vec::new()),
                Err(_) => inv = lkp_linalg::lu::inverse(&sub).unwrap(),
            }
            for a in 0..range.len() {
                for b in 0..range.len() {
                    g[(range.start + a, range.start + b)] += alpha * inv[(a, b)];
                }
            }
        };
        let mut g_loss = gz.clone();
        scatter(&mut g_loss, 0..k, -1.0);
        if negative_aware {
            let log_z = crate::esp::elementary_symmetric(&ws.lambda, k).ln();
            let (_, log_det) = lkp_linalg::Lu::new(&block(k..m)).unwrap().sign_log_det();
            let p_neg = (log_det - log_z).exp().clamp(0.0, 1.0 - 1e-9);
            let w = p_neg / (1.0 - p_neg);
            g_loss.add_scaled(-w, &gz).unwrap();
            scatter(&mut g_loss, k..m, w);
        }
        // Each entry also gets the magnitude of the terms its chain sum
        // adds up, `2·q_i·Σ_j |G_ij·K_ij·q_j|`: with a near-singular subset
        // (rank-deficient K, so L_S⁻¹ ~ 1/ε) the terms reach ~1e6 while
        // the sum is O(1), and any two summation orders differ by rounding
        // relative to the terms, not to the sum.
        let chain = |i: usize, f: fn(f64) -> f64| -> f64 {
            let acc: f64 = (0..m)
                .map(|j| f(g_loss[(i, j)] * k_sub[(i, j)] * q[j]))
                .sum();
            2.0 * acc * q[i]
        };
        let dscores = (0..m)
            .map(|i| (chain(i, |x| x), chain(i, f64::abs)))
            .collect();
        (dscores, g_loss)
    }

    fn rank_one(out: &mut Matrix, w: f64, u: &[f64]) {
        for (r, &ur) in u.iter().enumerate() {
            for (c, &uc) in u.iter().enumerate() {
                out[(r, c)] += w * ur * uc;
            }
        }
    }

    /// Runs one instance and checks `dscores` and `grad_l` against
    /// [`oracle_tail`]: each score gradient to 1e-10 relative to the
    /// magnitude of its chain terms, `grad_l` to 1e-10 relative to the
    /// oracle's largest entry.
    fn assert_matches_oracle(
        scores: &[f64],
        k_sub: &Matrix,
        factor: Option<&Matrix>,
        k: usize,
        negative_aware: bool,
        want_path: SpectrumPath,
    ) -> DppWorkspace {
        let jitter = 1e-6;
        let mut ws = DppWorkspace::new();
        let res = ws
            .tailored_loss_grad(scores, k_sub, factor, k, negative_aware, jitter, 30.0)
            .expect("well-posed instance");
        assert_eq!(res.path, want_path);
        let (want_ds, want_g) = oracle_tail(&ws, k_sub, k, negative_aware, jitter, res.path);
        let context = format!("{want_path:?} k={k} nps={negative_aware}");
        for (i, (a, &(b, terms))) in ws.dscores().iter().zip(&want_ds).enumerate() {
            assert!(
                (a - b).abs() <= 1e-10 * terms,
                "{context} dscores[{i}]: {a} vs oracle {b} (terms {terms:e})"
            );
        }
        let g = ws.grad_l();
        let g_err = g.max_abs_diff(&want_g);
        assert!(
            g_err <= 1e-10 * want_g.max_abs(),
            "{context} grad_l off by {g_err:e}"
        );
        drop(g);
        ws
    }

    #[test]
    fn diagonal_tail_matches_the_rank_one_oracle_on_both_paths() {
        let m = 10;
        for d in [6, 8, 12, 4] {
            let kernel = example_kernel(m, d);
            let idx: Vec<usize> = (0..m).collect();
            let k_sub = kernel.submatrix(&idx).unwrap();
            let v_t = kernel.factor().gather_rows(&idx).unwrap();
            let want_path = if d < m {
                SpectrumPath::Dual
            } else {
                SpectrumPath::Dense
            };
            for shift in [0.0, 0.7, -1.3] {
                let scores: Vec<f64> = example_scores(m).iter().map(|s| s + shift).collect();
                for negative_aware in [false, true] {
                    assert_matches_oracle(
                        &scores,
                        &k_sub,
                        Some(&v_t),
                        5,
                        negative_aware,
                        want_path,
                    );
                    // Without the factor the same instance takes the dense path.
                    assert_matches_oracle(
                        &scores,
                        &k_sub,
                        None,
                        5,
                        negative_aware,
                        SpectrumPath::Dense,
                    );
                }
            }
        }
    }

    #[test]
    fn diagonal_tail_matches_the_oracle_on_the_lu_fallback() {
        // Both diagonal blocks of K are negative definite (−0.1·I), so
        // Cholesky refuses both subsets and LU takes over, while the
        // ±1 coupling leaves two positive eigenvalues for Z_2 > 0.
        let k_sub = Matrix::from_rows(&[
            &[-0.1, 0.02, 1.0, 0.0],
            &[0.02, -0.1, 0.0, 1.0],
            &[1.0, 0.0, -0.1, 0.03],
            &[0.0, 1.0, 0.03, -0.1],
        ]);
        let scores = [0.2, -0.1, 0.3, 0.05];
        for negative_aware in [false, true] {
            let ws = assert_matches_oracle(
                &scores,
                &k_sub,
                None,
                2,
                negative_aware,
                SpectrumPath::Dense,
            );
            assert!(!ws.chol_valid, "nps={negative_aware}: LU fallback must run");
        }
    }

    #[test]
    fn grad_l_is_rebuilt_after_each_call() {
        // A read between calls must not pin the first instance's gradient.
        let m = 6;
        let k_sub = example_kernel(m, 8).full_matrix();
        let mut ws = DppWorkspace::new();
        let first = example_scores(m);
        ws.tailored_loss_grad(&first, &k_sub, None, 3, true, 1e-6, 30.0)
            .unwrap();
        let g_first = ws.grad_l().clone();
        let second: Vec<f64> = first.iter().map(|s| 0.5 - s).collect();
        ws.tailored_loss_grad(&second, &k_sub, None, 3, true, 1e-6, 30.0)
            .unwrap();
        let mut fresh = DppWorkspace::new();
        fresh
            .tailored_loss_grad(&second, &k_sub, None, 3, true, 1e-6, 30.0)
            .unwrap();
        assert_eq!(ws.grad_l().as_slice(), fresh.grad_l().as_slice());
        assert!(g_first.max_abs_diff(&ws.grad_l()) > 0.0);
    }

    #[test]
    fn dual_path_matches_dense_path() {
        let m = 10;
        let d = 4;
        let kernel = example_kernel(m, d);
        let idx: Vec<usize> = (0..m).collect();
        let k_sub = kernel.submatrix(&idx).unwrap();
        let v_t = kernel.factor().gather_rows(&idx).unwrap();
        let scores = example_scores(m);
        for negative_aware in [false, true] {
            let mut ws_dense = DppWorkspace::new();
            let dense = ws_dense
                .tailored_loss_grad(&scores, &k_sub, None, 5, negative_aware, 1e-6, 30.0)
                .expect("dense instance");
            assert_eq!(dense.path, SpectrumPath::Dense);

            let mut ws_dual = DppWorkspace::new();
            let dual = ws_dual
                .tailored_loss_grad(&scores, &k_sub, Some(&v_t), 5, negative_aware, 1e-6, 30.0)
                .expect("dual instance");
            assert_eq!(dual.path, SpectrumPath::Dual);

            assert!(
                (dense.loss - dual.loss).abs() < 1e-8,
                "losses diverge: {} vs {}",
                dense.loss,
                dual.loss
            );
            for (a, b) in ws_dense.dscores().iter().zip(ws_dual.dscores()) {
                assert!((a - b).abs() < 1e-7, "grads diverge: {a} vs {b}");
            }
        }
    }

    #[test]
    fn dual_path_not_taken_when_factor_is_wide() {
        let m = 5;
        let kernel = example_kernel(m, 8); // d = 8 ≥ m = 5
        let idx: Vec<usize> = (0..m).collect();
        let k_sub = kernel.submatrix(&idx).unwrap();
        let v_t = kernel.factor().gather_rows(&idx).unwrap();
        let mut ws = DppWorkspace::new();
        let res = ws
            .tailored_loss_grad(&example_scores(m), &k_sub, Some(&v_t), 2, false, 1e-6, 30.0)
            .unwrap();
        assert_eq!(res.path, SpectrumPath::Dense);
    }

    /// Spectrum of the last call, largest first.
    fn sorted_lambda(ws: &DppWorkspace) -> Vec<f64> {
        let mut lambda = ws.lambda.clone();
        lambda.sort_by(|a, b| b.total_cmp(a));
        lambda
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn dual_spectrum_matches_dense_spectrum(
            data in proptest::collection::vec(-1.0..1.0_f64, 12 * 6),
            m in 6usize..=12,
            d in 1usize..=5,
            k in 1usize..=6,
        ) {
            // Random thin factors `V` (m × d, d < m) through the training
            // entry point: the dual path's `d × d` spectrum plus its flat
            // `ε` completion must reproduce the dense `m × m` spectrum and
            // the normalizer `log e_k(λ)` built from it.
            let v = Matrix::from_vec(m, d, data[..m * d].to_vec());
            let kernel = LowRankKernel::new(v);
            let idx: Vec<usize> = (0..m).collect();
            let k_sub = kernel.submatrix(&idx).unwrap();
            let v_t = kernel.factor().gather_rows(&idx).unwrap();
            let scores: Vec<f64> = data[m * d..][..m].iter().map(|x| 0.5 * x).collect();

            let mut ws_dense = DppWorkspace::new();
            let dense = ws_dense.tailored_loss_grad(&scores, &k_sub, None, k, false, 1e-6, 30.0);
            let mut ws_dual = DppWorkspace::new();
            let dual = ws_dual.tailored_loss_grad(&scores, &k_sub, Some(&v_t), k, false, 1e-6, 30.0);
            let (Some(dense), Some(dual)) = (dense, dual) else {
                return Err(format!("m={m} d={d} k={k}: an instance was skipped"));
            };
            prop_assert_eq!(dense.path, SpectrumPath::Dense);
            prop_assert_eq!(dual.path, SpectrumPath::Dual);

            let (lambda_dense, lambda_dual) = (sorted_lambda(&ws_dense), sorted_lambda(&ws_dual));
            prop_assert_eq!(lambda_dense.len(), m);
            prop_assert_eq!(lambda_dual.len(), m);
            for (i, (a, b)) in lambda_dense.iter().zip(&lambda_dual).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-7 * a.abs().max(1.0),
                    "eigenvalue {i}: dense {a} vs dual {b}"
                );
            }
            let z_dense = esp::log_elementary_symmetric(&lambda_dense, k);
            let z_dual = esp::log_elementary_symmetric(&lambda_dual, k);
            prop_assert!(
                (z_dense - z_dual).abs() <= 1e-7 * z_dense.abs().max(1.0),
                "log Z_{k}: dense {z_dense} vs dual {z_dual}"
            );
            prop_assert!(
                (dense.loss - dual.loss).abs() <= 1e-7 * dense.loss.abs().max(1.0),
                "loss: dense {} vs dual {}", dense.loss, dual.loss
            );
        }
    }

    #[test]
    fn gradients_match_finite_difference_both_paths() {
        // d ≥ k keeps the target submatrix full-rank (well-conditioned FD);
        // d < m still exercises the dual path.
        let m = 8;
        let d = 6;
        let kernel = example_kernel(m, d);
        let idx: Vec<usize> = (0..m).collect();
        let k_sub = kernel.submatrix(&idx).unwrap();
        let v_t = kernel.factor().gather_rows(&idx).unwrap();
        let scores = example_scores(m);
        let h = 1e-6;
        for factor in [None, Some(&v_t)] {
            for negative_aware in [false, true] {
                let mut ws = DppWorkspace::new();
                let k = 4;
                ws.tailored_loss_grad(&scores, &k_sub, factor, k, negative_aware, 1e-6, 30.0)
                    .unwrap();
                let analytic = ws.dscores().to_vec();
                for i in 0..m {
                    let mut plus = scores.clone();
                    plus[i] += h;
                    let mut minus = scores.clone();
                    minus[i] -= h;
                    let lp = ws
                        .tailored_loss_grad(&plus, &k_sub, factor, k, negative_aware, 1e-6, 30.0)
                        .unwrap()
                        .loss;
                    let lm = ws
                        .tailored_loss_grad(&minus, &k_sub, factor, k, negative_aware, 1e-6, 30.0)
                        .unwrap()
                        .loss;
                    let fd = (lp - lm) / (2.0 * h);
                    assert!(
                        (fd - analytic[i]).abs() < 1e-5,
                        "path {:?} nps={negative_aware} dim {i}: fd {fd} vs {}",
                        factor.map(|_| "dual").unwrap_or("dense"),
                        analytic[i]
                    );
                }
            }
        }
    }

    #[test]
    fn workspace_reuse_is_consistent_across_shapes() {
        // One workspace driven through different (m, k) shapes must keep
        // matching fresh workspaces — buffers never leak stale state.
        let mut ws = DppWorkspace::new();
        for (m, d, k) in [(6, 3, 3), (10, 4, 5), (4, 2, 2), (8, 3, 4)] {
            let kernel = example_kernel(m, d);
            let idx: Vec<usize> = (0..m).collect();
            let k_sub = kernel.submatrix(&idx).unwrap();
            let v_t = kernel.factor().gather_rows(&idx).unwrap();
            let scores = example_scores(m);
            let reused = ws
                .tailored_loss_grad(&scores, &k_sub, Some(&v_t), k, false, 1e-6, 30.0)
                .unwrap();
            let mut fresh_ws = DppWorkspace::new();
            let fresh = fresh_ws
                .tailored_loss_grad(&scores, &k_sub, Some(&v_t), k, false, 1e-6, 30.0)
                .unwrap();
            assert_eq!(
                reused.loss.to_bits(),
                fresh.loss.to_bits(),
                "shape ({m},{k})"
            );
            assert_eq!(ws.dscores(), fresh_ws.dscores());
        }
    }

    #[test]
    fn negative_aware_with_mismatched_shape_is_skipped() {
        // n != k: the exclusion subset is not a valid size-k subset. The
        // cold path surfaced WrongSubsetSize; the workspace must skip (None)
        // rather than mis-score the size-n block in release builds.
        let m = 8; // k = 3, n = 5
        let k_sub = example_kernel(m, 8).full_matrix();
        let mut ws = DppWorkspace::new();
        assert!(ws
            .tailored_loss_grad(&example_scores(m), &k_sub, None, 3, true, 1e-6, 30.0)
            .is_none());
        // k > m is likewise a skip, not a panic.
        assert!(ws
            .tailored_loss_grad(&example_scores(m), &k_sub, None, 9, false, 1e-6, 30.0)
            .is_none());
    }

    #[test]
    fn batched_arena_pipeline_is_bitwise_identical_to_inline() {
        // stage-all → solve-all → finish-all must reproduce the interleaved
        // per-instance pipeline bit for bit, on both spectral paths.
        use crate::batch::DppBatchArena;
        for use_factor in [false, true] {
            let m = 8;
            let d = if use_factor { 4 } else { 10 };
            let kernel = example_kernel(24, d);
            let instance_sets: Vec<Vec<usize>> = (0..5).map(|i| (i..i + m).collect()).collect();
            let score_sets: Vec<Vec<f64>> = (0..5)
                .map(|i| {
                    example_scores(m)
                        .iter()
                        .map(|s| s + 0.05 * i as f64)
                        .collect()
                })
                .collect();

            // Inline reference.
            let mut ws_ref = DppWorkspace::new();
            let mut reference = Vec::new();
            for (items, scores) in instance_sets.iter().zip(&score_sets) {
                kernel.submatrix_into(items, &mut ws_ref.k_sub).unwrap();
                kernel
                    .gather_rows_into(items, &mut ws_ref.factor_rows)
                    .unwrap();
                let res = ws_ref
                    .tailored_loss_grad_staged(scores, 4, true, use_factor, 1e-6, 30.0)
                    .expect("well-conditioned");
                reference.push((res.loss, ws_ref.dscores().to_vec(), res.path));
            }

            // Batched arena pipeline.
            let mut ws = DppWorkspace::new();
            let mut arena = DppBatchArena::new();
            for _round in 0..2 {
                // Round 2 reuses the grown buffers — results must not move.
                arena.begin(instance_sets.len());
                for (i, (items, scores)) in instance_sets.iter().zip(&score_sets).enumerate() {
                    kernel.gather_rows_into(items, &mut ws.factor_rows).unwrap();
                    let slot = arena.slot_mut(i);
                    kernel.submatrix_into(items, &mut slot.k_sub).unwrap();
                    ws.stage_slot(slot, scores, 4, true, use_factor, 1e-6, 30.0);
                }
                assert_eq!(arena.solve_all(), 0);
                for (i, (want_loss, want_dscores, want_path)) in reference.iter().enumerate() {
                    let res = ws
                        .finish_slot(arena.slot(i), true, 1e-6)
                        .expect("well-conditioned");
                    assert_eq!(res.path, *want_path, "use_factor={use_factor}");
                    assert_eq!(
                        res.loss.to_bits(),
                        want_loss.to_bits(),
                        "use_factor={use_factor} instance {i}"
                    );
                    for (a, b) in ws.dscores().iter().zip(want_dscores) {
                        assert_eq!(a.to_bits(), b.to_bits(), "use_factor={use_factor}");
                    }
                }
            }
        }
    }

    #[test]
    fn batched_arena_skips_invalid_shapes_and_failed_solves() {
        use crate::batch::DppBatchArena;
        let m = 6;
        let kernel = example_kernel(12, 8);
        let items: Vec<usize> = (0..m).collect();
        let good = example_scores(m);
        let poisoned = vec![f64::NAN; m];
        let mut ws = DppWorkspace::new();
        let mut arena = DppBatchArena::new();
        arena.begin(3);
        // Slot 0: negative-aware shape mismatch (m ≠ 2k) → skipped pre-solve.
        kernel
            .submatrix_into(&items, &mut arena.slot_mut(0).k_sub)
            .unwrap();
        ws.stage_slot(arena.slot_mut(0), &good, 2, true, false, 1e-6, 30.0);
        // Slot 1: NaN scores → eigen fails, slot invalidated.
        kernel
            .submatrix_into(&items, &mut arena.slot_mut(1).k_sub)
            .unwrap();
        ws.stage_slot(arena.slot_mut(1), &poisoned, 3, false, false, 1e-6, 30.0);
        // Slot 2: healthy.
        kernel
            .submatrix_into(&items, &mut arena.slot_mut(2).k_sub)
            .unwrap();
        ws.stage_slot(arena.slot_mut(2), &good, 3, false, false, 1e-6, 30.0);
        let failures = arena.solve_all();
        assert_eq!(failures, 1, "only the NaN slot fails");
        assert!(ws.finish_slot(arena.slot(0), true, 1e-6).is_none());
        assert!(ws.finish_slot(arena.slot(1), false, 1e-6).is_none());
        let ok = ws
            .finish_slot(arena.slot(2), false, 1e-6)
            .expect("healthy slot unaffected by neighbors");
        let mut ws_ref = DppWorkspace::new();
        let exact = ws_ref
            .tailored_loss_grad(
                &good,
                &kernel.submatrix(&items).unwrap(),
                None,
                3,
                false,
                1e-6,
                30.0,
            )
            .unwrap();
        assert_eq!(ok.loss.to_bits(), exact.loss.to_bits());
    }

    #[test]
    fn unsolved_slots_never_serve_stale_decompositions() {
        // A staged slot whose eigen still holds a *previous* dispatch's
        // valid decomposition must not finish: skipping `solve_all` (or
        // staging after it) has to fail closed, not combine fresh inputs
        // with a stale spectrum.
        use crate::batch::DppBatchArena;
        let m = 6;
        let kernel = example_kernel(12, 8);
        let items: Vec<usize> = (0..m).collect();
        let scores = example_scores(m);
        let mut ws = DppWorkspace::new();
        let mut arena = DppBatchArena::new();
        // Dispatch 1: full stage → solve → finish cycle succeeds.
        arena.begin(1);
        kernel
            .submatrix_into(&items, &mut arena.slot_mut(0).k_sub)
            .unwrap();
        ws.stage_slot(arena.slot_mut(0), &scores, 3, false, false, 1e-6, 30.0);
        assert_eq!(arena.solve_all(), 0);
        assert!(ws.finish_slot(arena.slot(0), false, 1e-6).is_some());
        // Dispatch 2: stage only — the slot's eigen is still dispatch 1's
        // valid decomposition, but finish must refuse without a solve.
        arena.begin(1);
        kernel
            .submatrix_into(&items, &mut arena.slot_mut(0).k_sub)
            .unwrap();
        let drifted: Vec<f64> = scores.iter().map(|s| s + 0.5).collect();
        ws.stage_slot(arena.slot_mut(0), &drifted, 3, false, false, 1e-6, 30.0);
        assert!(
            ws.finish_slot(arena.slot(0), false, 1e-6).is_none(),
            "staged-but-unsolved slot must fail closed"
        );
        // After the solve it finishes, and matches the inline pipeline.
        assert_eq!(arena.solve_all(), 0);
        let res = ws.finish_slot(arena.slot(0), false, 1e-6).unwrap();
        let mut ws_ref = DppWorkspace::new();
        let exact = ws_ref
            .tailored_loss_grad(
                &drifted,
                &kernel.submatrix(&items).unwrap(),
                None,
                3,
                false,
                1e-6,
                30.0,
            )
            .unwrap();
        assert_eq!(res.loss.to_bits(), exact.loss.to_bits());
    }

    #[test]
    fn degenerate_kernel_returns_none() {
        let m = 4;
        let k_sub = Matrix::zeros(m, m);
        let mut ws = DppWorkspace::new();
        // Zero kernel and zero jitter: Z_k = 0 for k ≥ 1.
        assert!(ws
            .tailored_loss_grad(&example_scores(m), &k_sub, None, 2, false, 0.0, 30.0)
            .is_none());
    }
}
