//! Optimizers: Adam (the paper's choice) and plain SGD.

use lkp_linalg::Matrix;

/// Adam hyperparameters. Defaults match the paper's experimental setup
/// (Adam with grid-searched learning rate; standard betas).
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    /// Step size.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Denominator fuzz.
    pub eps: f64,
    /// Decoupled L2 weight decay.
    pub weight_decay: f64,
    /// Per-element gradient clip (absolute value); 0 disables.
    pub grad_clip: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-2,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 1e-5,
            grad_clip: 5.0,
        }
    }
}

/// Clock values whose bias corrections [`AdamState`] tabulates; a row
/// stepped more often than this computes them with `powi` directly, which
/// gives the same bits.
const BIAS_TABLE_LEN: usize = 1 << 12;

/// Adam moment state for one parameter tensor.
///
/// Supports both dense full-tensor steps (MLP weights) and sparse per-row
/// steps (embedding tables, where only rows touched by the batch update —
/// the standard "sparse Adam" behaviour that keeps embedding training
/// `O(batch)` instead of `O(table)`).
#[derive(Debug, Clone)]
pub struct AdamState {
    m: Matrix,
    v: Matrix,
    /// Per-row step counters (sparse mode); shared counter stored at t[0]
    /// for dense mode.
    t: Vec<u64>,
    config: AdamConfig,
    /// `bias[t] = (1 − β₁ᵗ, 1 − β₂ᵗ)` for the current betas, filled lazily
    /// up to [`BIAS_TABLE_LEN`] and emptied by [`AdamState::config_mut`].
    bias: Vec<(f64, f64)>,
}

impl AdamState {
    /// Creates a zeroed state for a `rows × cols` parameter.
    pub fn new(rows: usize, cols: usize, config: AdamConfig) -> Self {
        AdamState {
            m: Matrix::zeros(rows, cols),
            v: Matrix::zeros(rows, cols),
            // lint:allow(hotpath-alloc): constructor — the per-row clocks are
            // sized once here and only updated in place by the steps.
            t: vec![0; rows],
            config,
            // lint:allow(hotpath-alloc): constructor — the table reserves
            // its full length on first use and then only fills in place.
            bias: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AdamConfig {
        &self.config
    }

    /// Mutable access for schedules (e.g. grid-searched learning rates).
    /// The caller may change the betas, so the bias-correction table is
    /// emptied and refills from the new values.
    pub fn config_mut(&mut self) -> &mut AdamConfig {
        self.bias.clear();
        &mut self.config
    }

    /// Dense step: applies `grad` to every entry of `param`.
    pub fn step_dense(&mut self, param: &mut Matrix, grad: &Matrix) {
        assert_eq!(param.shape(), grad.shape());
        assert_eq!(param.shape(), self.m.shape());
        self.t[0] += 1;
        let t = self.t[0];
        for r in 0..param.rows() {
            self.step_row_with_t(param, r, grad.row(r), t);
        }
        // Keep per-row counters coherent for mixed use.
        for tr in self.t.iter_mut() {
            *tr = t;
        }
    }

    /// Sparse step: applies `grad_row` to row `row` only, with that row's own
    /// bias-correction clock.
    pub fn step_row(&mut self, param: &mut Matrix, row: usize, grad_row: &[f64]) {
        self.t[row] += 1;
        let t = self.t[row];
        self.step_row_with_t(param, row, grad_row, t);
    }

    fn step_row_with_t(&mut self, param: &mut Matrix, row: usize, grad_row: &[f64], t: u64) {
        let (bc1, bc2) = self.bias_correction(t);
        let c = &self.config;
        let p_row = param.row_mut(row);
        assert_eq!(grad_row.len(), p_row.len(), "gradient row length");
        let (m_row, v_row) = (self.m.row_mut(row), self.v.row_mut(row));
        let rows = (p_row, m_row, v_row, grad_row);
        // The clip and decay switches are fixed for the whole row, so each
        // combination gets its own branch-free loop.
        match (c.grad_clip > 0.0, c.weight_decay > 0.0) {
            (false, false) => adam_row::<false, false>(c, bc1, bc2, rows),
            (false, true) => adam_row::<false, true>(c, bc1, bc2, rows),
            (true, false) => adam_row::<true, false>(c, bc1, bc2, rows),
            (true, true) => adam_row::<true, true>(c, bc1, bc2, rows),
        }
    }

    /// `(1 − β₁ᵗ, 1 − β₂ᵗ)`, read from the table (filled on demand) while
    /// `t < BIAS_TABLE_LEN`.
    fn bias_correction(&mut self, t: u64) -> (f64, f64) {
        let (beta1, beta2) = (self.config.beta1, self.config.beta2);
        let exact = |t: u64| (1.0 - beta1.powi(t as i32), 1.0 - beta2.powi(t as i32));
        let Ok(idx) = usize::try_from(t) else {
            return exact(t);
        };
        if let Some(&bc) = self.bias.get(idx) {
            return bc;
        }
        if idx >= BIAS_TABLE_LEN {
            return exact(t);
        }
        // One reservation for the whole table (also after a clone), so
        // later clocks fill it without reallocating.
        self.bias.reserve_exact(BIAS_TABLE_LEN - self.bias.len());
        while self.bias.len() <= idx {
            self.bias.push(exact(self.bias.len() as u64));
        }
        self.bias[idx]
    }
}

/// One Adam row update with the bias corrections `bc1`, `bc2`; `CLIP` and
/// `DECAY` select the clip and weight-decay terms.
#[inline(always)]
fn adam_row<const CLIP: bool, const DECAY: bool>(
    c: &AdamConfig,
    bc1: f64,
    bc2: f64,
    (p_row, m_row, v_row, grad_row): (&mut [f64], &mut [f64], &mut [f64], &[f64]),
) {
    let moments = m_row.iter_mut().zip(v_row);
    for ((p, (m, v)), &g) in p_row.iter_mut().zip(moments).zip(grad_row) {
        let mut g = g;
        if CLIP {
            g = g.clamp(-c.grad_clip, c.grad_clip);
        }
        if DECAY {
            g += c.weight_decay * *p;
        }
        *m = c.beta1 * *m + (1.0 - c.beta1) * g;
        *v = c.beta2 * *v + (1.0 - c.beta2) * g * g;
        let m_hat = *m / bc1;
        let v_hat = *v / bc2;
        *p -= c.lr * m_hat / (v_hat.sqrt() + c.eps);
    }
}

/// Plain SGD step with optional clipping and weight decay; provided for
/// ablations against Adam.
pub fn sgd_step(param: &mut Matrix, grad: &Matrix, lr: f64, weight_decay: f64, grad_clip: f64) {
    assert_eq!(param.shape(), grad.shape());
    for r in 0..param.rows() {
        for c in 0..param.cols() {
            let mut g = grad[(r, c)];
            if grad_clip > 0.0 {
                g = g.clamp(-grad_clip, grad_clip);
            }
            g += weight_decay * param[(r, c)];
            param[(r, c)] -= lr * g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizing f(x) = (x - 3)² with Adam should converge to 3.
    #[test]
    fn adam_minimizes_quadratic() {
        let cfg = AdamConfig {
            lr: 0.1,
            weight_decay: 0.0,
            ..Default::default()
        };
        let mut state = AdamState::new(1, 1, cfg);
        let mut x = Matrix::from_vec(1, 1, vec![-4.0]);
        for _ in 0..500 {
            let grad = Matrix::from_vec(1, 1, vec![2.0 * (x[(0, 0)] - 3.0)]);
            state.step_dense(&mut x, &grad);
        }
        assert!((x[(0, 0)] - 3.0).abs() < 1e-3, "x = {}", x[(0, 0)]);
    }

    #[test]
    fn sparse_rows_have_independent_clocks() {
        let cfg = AdamConfig {
            lr: 0.1,
            weight_decay: 0.0,
            ..Default::default()
        };
        let mut state = AdamState::new(2, 1, cfg);
        let mut x = Matrix::from_vec(2, 1, vec![0.0, 0.0]);
        // Only row 0 is ever updated.
        for _ in 0..50 {
            state.step_row(&mut x, 0, &[1.0]);
        }
        assert!(x[(0, 0)] < -1.0, "row 0 moved: {}", x[(0, 0)]);
        assert_eq!(x[(1, 0)], 0.0, "row 1 untouched");
    }

    #[test]
    fn gradient_clipping_bounds_step() {
        let cfg = AdamConfig {
            lr: 0.1,
            grad_clip: 1.0,
            weight_decay: 0.0,
            ..Default::default()
        };
        let mut state = AdamState::new(1, 1, cfg);
        let mut x = Matrix::from_vec(1, 1, vec![0.0]);
        state.step_row(&mut x, 0, &[1e9]);
        // First Adam step magnitude is at most lr regardless of gradient size.
        assert!(x[(0, 0)].abs() <= 0.1 + 1e-12);
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut p = Matrix::from_vec(1, 1, vec![10.0]);
        let g = Matrix::zeros(1, 1);
        sgd_step(&mut p, &g, 0.1, 0.5, 0.0);
        assert!((p[(0, 0)] - 9.5).abs() < 1e-12);
    }

    #[test]
    fn sgd_descends() {
        let mut p = Matrix::from_vec(1, 2, vec![1.0, -2.0]);
        let g = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        sgd_step(&mut p, &g, 1.0, 0.0, 0.0);
        assert_eq!(p.as_slice(), &[0.5, -1.5]);
    }

    /// The row update as it was before the bias table: `powi` per step and
    /// per-element clip/decay branches.
    fn powi_step(
        c: &AdamConfig,
        (p, m, v): (&mut [f64], &mut [f64], &mut [f64]),
        grad: &[f64],
        t: u64,
    ) {
        let bc1 = 1.0 - c.beta1.powi(t as i32);
        let bc2 = 1.0 - c.beta2.powi(t as i32);
        for i in 0..p.len() {
            let mut g = grad[i];
            if c.grad_clip > 0.0 {
                g = g.clamp(-c.grad_clip, c.grad_clip);
            }
            if c.weight_decay > 0.0 {
                g += c.weight_decay * p[i];
            }
            m[i] = c.beta1 * m[i] + (1.0 - c.beta1) * g;
            v[i] = c.beta2 * v[i] + (1.0 - c.beta2) * g * g;
            p[i] -= c.lr * (m[i] / bc1) / ((v[i] / bc2).sqrt() + c.eps);
        }
    }

    #[test]
    fn bias_table_is_bitwise_the_powi_update_across_beta_changes() {
        let (rows, cols) = (5, 3);
        let mut cfg = AdamConfig::default();
        let mut state = AdamState::new(rows, cols, cfg);
        let mut param = Matrix::from_fn(rows, cols, |r, c| 0.1 * (r as f64) - 0.05 * c as f64);
        let mut want = param.clone();
        let (mut m, mut v) = (Matrix::zeros(rows, cols), Matrix::zeros(rows, cols));
        let mut clocks = vec![0_u64; rows];
        // Row 0 also runs past the table into the direct `powi` range.
        let phases = [
            (0.9, 0.999, 3.0, 1e-4, 2 * BIAS_TABLE_LEN),
            (0.8, 0.99, 0.0, 0.0, 300),
            (0.95, 0.9999, 0.5, 0.0, 300),
            (0.5, 0.9, 0.0, 1e-3, 300),
        ];
        let mut step = 0_usize;
        for (beta1, beta2, grad_clip, weight_decay, steps) in phases {
            let c = state.config_mut();
            c.beta1 = beta1;
            c.beta2 = beta2;
            c.grad_clip = grad_clip;
            c.weight_decay = weight_decay;
            cfg = *c;
            for _ in 0..steps {
                step += 1;
                // Sparse touches give the rows different clocks.
                let row = if step.is_multiple_of(3) {
                    step % rows
                } else {
                    0
                };
                let grad: Vec<f64> = (0..cols)
                    .map(|j| ((step * 7 + j * 13) % 17) as f64 * 0.6 - 4.0)
                    .collect();
                state.step_row(&mut param, row, &grad);
                clocks[row] += 1;
                let moments = (want.row_mut(row), m.row_mut(row), v.row_mut(row));
                powi_step(&cfg, moments, &grad, clocks[row]);
            }
        }
        assert!(clocks[0] > BIAS_TABLE_LEN as u64);
        let got: Vec<u64> = param.as_slice().iter().map(|x| x.to_bits()).collect();
        let expect: Vec<u64> = want.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, expect);
    }
}
