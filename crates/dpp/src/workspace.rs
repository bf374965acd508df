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
    inv: Matrix,
    col: Vec<f64>,
    /// Whether `chol` holds a valid factor of the last `sub` (vs. the LU
    /// fallback having run).
    chol_valid: bool,
    // --- outputs ---
    g_loss: Matrix,
    gz: Matrix,
    dscores: Vec<f64>,
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

        // ∇_L log Z_k, shared by the inclusion and exclusion terms.
        self.normalizer_grad(path, m);

        // Inclusion term: loss = −log P(S⁺) = log Z_k − log det(L_{S⁺});
        // ∂loss/∂L = ∇log Z_k − scatter((L_{S⁺})⁻¹).
        let log_det_pos = self.subset_log_det(k_sub, 0..k, jitter)?;
        let log_p_pos = log_det_pos - log_z;
        if !log_p_pos.is_finite() {
            return None;
        }
        let mut loss = -log_p_pos;
        self.g_loss.copy_from(&self.gz);
        self.scatter_subset_inverse(0..k, -1.0);

        if negative_aware {
            // Exclusion of the all-negative subset S⁻ = {k..2k} (Eq. 10):
            // loss += −log(1 − P(S⁻));
            // ∂/∂L = P/(1−P) · ∇log P(S⁻) = P/(1−P)·(scatter(inv⁻) − ∇log Z).
            let log_det_neg = self.subset_log_det(k_sub, k..m, jitter)?;
            let log_p_neg = log_det_neg - log_z;
            let p_neg = log_p_neg.exp().clamp(0.0, 1.0 - 1e-9);
            loss += -(1.0 - p_neg).ln();
            let w = p_neg / (1.0 - p_neg);
            self.g_loss.add_scaled(-w, &self.gz).expect("same shape");
            self.scatter_subset_inverse(k..m, w);
        }

        // Chain into scores through L_ij = q_i·K_ij·q_j + ε·δ_ij:
        // ∂loss/∂q_i = 2·Σ_j G_ij·K_ij·q_j, then ∂loss/∂s_i = ∂loss/∂q_i·q_i.
        self.dscores.clear();
        for i in 0..m {
            let g_row = self.g_loss.row(i);
            let k_row = k_sub.row(i);
            let mut acc = 0.0;
            for ((&g, &kij), &qj) in g_row.iter().zip(k_row).zip(&self.q) {
                acc += g * kij * qj;
            }
            self.dscores.push(2.0 * acc * self.q[i]);
        }
        if !loss.is_finite() || self.dscores.iter().any(|d| !d.is_finite()) {
            return None;
        }
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
    /// the pipeline via the shared [`DppWorkspace::finish_from_spectrum`].
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
    pub fn grad_l(&self) -> &Matrix {
        &self.g_loss
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

    /// Builds `gz = ∇_L log Z_k = Σ_i w_i·u_i·u_iᵀ` from the loo weights and
    /// whichever eigenbasis the spectrum path produced.
    fn normalizer_grad(&mut self, path: SpectrumPath, m: usize) {
        if self.loo.is_empty() {
            self.gz.reset(m, m);
            return;
        }
        // Both branches accumulate rank-1 terms `w·u·uᵀ`. Eigenvectors are
        // stored column-major inside a row-major matrix, so each column is
        // first copied into the contiguous `col` scratch — the inner update
        // then runs over two contiguous slices and auto-vectorizes.
        let gz = &mut self.gz;
        let col = &mut self.col;
        gz.reset(m, m);
        match path {
            SpectrumPath::Dense => {
                for (idx, &w) in self.loo.iter().enumerate() {
                    if w == 0.0 {
                        continue;
                    }
                    col.clear();
                    col.extend((0..m).map(|r| self.eigen.vectors[(r, idx)]));
                    rank_one_update(gz, w, col);
                }
            }
            SpectrumPath::Dual => {
                // gz = w0·I + Σ_j (w_j − w0)·v̂_j·v̂_jᵀ, where w0 is the
                // shared weight of the flat ε eigenspace: its eigenvectors
                // never materialize — the identity-minus-projector form
                // absorbs them exactly because their loo weights coincide.
                let r = self.item_vectors.cols();
                let w0 = if r < m { self.loo[r] } else { 0.0 };
                for i in 0..m {
                    gz[(i, i)] = w0;
                }
                for j in 0..r {
                    let wj = self.loo[j] - w0;
                    if wj == 0.0 {
                        continue;
                    }
                    col.clear();
                    col.extend((0..m).map(|a| self.item_vectors[(a, j)]));
                    rank_one_update(gz, wj, col);
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

    /// Adds `alpha · scatter((L_S)⁻¹)` into `g_loss` for the subset whose
    /// submatrix [`DppWorkspace::subset_log_det`] just factorized.
    ///
    /// Must be called immediately after a successful `subset_log_det` for the
    /// same range: it reuses the Cholesky factor still held in `self.chol`.
    fn scatter_subset_inverse(&mut self, range: std::ops::Range<usize>, alpha: f64) {
        if alpha == 0.0 {
            // Zero-weight term (e.g. an exclusion subset with P(S⁻) = 0):
            // skip rather than risk 0·∞ from a numerically singular inverse.
            return;
        }
        if self.chol_valid {
            cholesky::inverse_from_factor(&self.chol, &mut self.inv, &mut self.col);
        } else {
            // LU fallback path: cold-path inverse of the saved submatrix.
            if let Ok(inv) = lkp_linalg::lu::inverse(&self.sub) {
                self.inv.copy_from(&inv);
            } else {
                return;
            }
        }
        for (a, i) in range.clone().enumerate() {
            for (b, j) in range.clone().enumerate() {
                self.g_loss[(i, j)] += alpha * self.inv[(a, b)];
            }
        }
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

/// `out += w · u·uᵀ` from a contiguous vector — branch-free inner axpy.
fn rank_one_update(out: &mut Matrix, w: f64, u: &[f64]) {
    for (r, &ur) in u.iter().enumerate() {
        let coeff = w * ur;
        let row = out.row_mut(r);
        for (slot, &uc) in row.iter_mut().zip(u) {
            *slot += coeff * uc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{grad, DppKernel, KDpp, LowRankKernel};

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
