//! Embedding tables with sparse gradient accumulation.

use crate::optim::{AdamConfig, AdamState};
use lkp_linalg::Matrix;
use rand::Rng;

/// Slot-index sentinel: the row has no pending gradient.
const UNTOUCHED: usize = usize::MAX;

/// A `rows × dim` table of trainable embeddings with sparse Adam updates.
///
/// Gradients are *accumulated* against rows (a batch may touch a row several
/// times) and applied once per [`EmbeddingTable::step`], which visits only
/// the touched rows. Pending gradients live in a flat arena indexed through a
/// per-row slot, so touching a row costs `O(dim)` however many rows the batch
/// has touched before it.
#[derive(Debug, Clone)]
pub struct EmbeddingTable {
    weights: Matrix,
    adam: AdamState,
    /// Rows with pending gradients, in first-touch order — the order
    /// [`EmbeddingTable::step`] applies them in.
    pending_rows: Vec<usize>,
    /// Accumulated gradients, `dim` values per entry of `pending_rows`.
    pending_grads: Vec<f64>,
    /// Per table row: its index into `pending_rows`, or [`UNTOUCHED`].
    slot: Vec<usize>,
}

impl EmbeddingTable {
    /// Creates a table initialized with `N(0, std²)` entries.
    pub fn new<R: Rng + ?Sized>(
        rows: usize,
        dim: usize,
        std: f64,
        config: AdamConfig,
        rng: &mut R,
    ) -> Self {
        EmbeddingTable {
            weights: crate::init::normal_matrix(rows, dim, std, rng),
            adam: AdamState::new(rows, dim, config),
            // lint:allow(hotpath-alloc): constructor — the arena starts empty
            // and keeps its capacity across steps.
            pending_rows: Vec::new(),
            // lint:allow(hotpath-alloc): constructor, as above.
            pending_grads: Vec::new(),
            // lint:allow(hotpath-alloc): constructor — one slot per table row,
            // sized once.
            slot: vec![UNTOUCHED; rows],
        }
    }

    /// Number of rows (users or items).
    pub fn rows(&self) -> usize {
        self.weights.rows()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.weights.cols()
    }

    /// Borrow a row.
    pub fn row(&self, i: usize) -> &[f64] {
        self.weights.row(i)
    }

    /// Borrow the whole table (e.g. for GCN propagation).
    pub fn matrix(&self) -> &Matrix {
        &self.weights
    }

    /// Mutably borrow the whole table (for tests and custom initialization).
    pub fn matrix_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// Accumulates `grad` against row `i` (gradient of a loss to *minimize*).
    pub fn accumulate_grad(&mut self, i: usize, grad: &[f64]) {
        self.accumulate_scaled_grad(i, 1.0, grad);
    }

    /// Accumulates `scale · grad` against row `i` without the caller having
    /// to materialize the scaled row — the allocation-free hot-path form.
    pub fn accumulate_scaled_grad(&mut self, i: usize, scale: f64, grad: &[f64]) {
        let dim = self.dim();
        // A short row would misalign every later row of the flat arena.
        assert_eq!(grad.len(), dim, "gradient row length");
        match self.slot[i] {
            UNTOUCHED => {
                self.slot[i] = self.pending_rows.len();
                self.pending_rows.push(i);
                self.pending_grads.extend(grad.iter().map(|&b| scale * b));
            }
            s => {
                let acc = &mut self.pending_grads[s * dim..(s + 1) * dim];
                for (a, &b) in acc.iter_mut().zip(grad) {
                    *a += scale * b;
                }
            }
        }
    }

    /// Applies all accumulated gradients with sparse Adam, in first-touch
    /// order, and clears them.
    pub fn step(&mut self) {
        let dim = self.dim();
        for (s, &row) in self.pending_rows.iter().enumerate() {
            let grad = &self.pending_grads[s * dim..(s + 1) * dim];
            self.adam.step_row(&mut self.weights, row, grad);
        }
        self.zero_grad();
    }

    /// Discards accumulated gradients without applying them.
    pub fn zero_grad(&mut self) {
        for &row in &self.pending_rows {
            self.slot[row] = UNTOUCHED;
        }
        self.pending_rows.clear();
        self.pending_grads.clear();
    }

    /// Number of rows with pending gradients.
    pub fn pending_rows(&self) -> usize {
        self.pending_rows.len()
    }

    /// Adjusts the learning rate (all subsequent steps).
    pub fn set_lr(&mut self, lr: f64) {
        self.adam.config_mut().lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> EmbeddingTable {
        let mut rng = StdRng::seed_from_u64(7);
        EmbeddingTable::new(
            5,
            3,
            0.1,
            AdamConfig {
                lr: 0.05,
                weight_decay: 0.0,
                ..Default::default()
            },
            &mut rng,
        )
    }

    #[test]
    fn accumulation_merges_repeated_rows() {
        let mut t = table();
        t.accumulate_grad(2, &[1.0, 0.0, 0.0]);
        t.accumulate_grad(2, &[1.0, 2.0, 0.0]);
        assert_eq!(t.pending_rows(), 1);
        let before = t.row(2).to_vec();
        t.step();
        let after = t.row(2).to_vec();
        assert!(after[0] < before[0], "descended along dim 0");
        assert!(after[1] < before[1], "descended along dim 1");
        assert_eq!(t.pending_rows(), 0, "pending cleared after step");
    }

    #[test]
    fn untouched_rows_do_not_move() {
        let mut t = table();
        let before = t.row(4).to_vec();
        t.accumulate_grad(0, &[0.5, 0.5, 0.5]);
        t.step();
        assert_eq!(t.row(4), before.as_slice());
    }

    #[test]
    fn zero_grad_discards() {
        let mut t = table();
        let before = t.row(1).to_vec();
        t.accumulate_grad(1, &[9.0, 9.0, 9.0]);
        t.zero_grad();
        t.step();
        assert_eq!(t.row(1), before.as_slice());
        // A row touched again after `zero_grad` starts from zero.
        let mut fresh = table();
        t.accumulate_grad(1, &[9.0, 9.0, 9.0]);
        t.zero_grad();
        t.accumulate_grad(1, &[0.25, 0.5, -1.0]);
        fresh.accumulate_grad(1, &[0.25, 0.5, -1.0]);
        assert_eq!(t.pending_rows(), 1);
        t.step();
        fresh.step();
        assert_eq!(t.row(1), fresh.row(1));
    }

    /// The pre-arena algorithm, kept as an oracle: pending gradients in a
    /// `(row, grad)` list found by linear search, applied in list order.
    struct ListOracle {
        weights: Matrix,
        adam: AdamState,
        pending: Vec<(usize, Vec<f64>)>,
    }

    impl ListOracle {
        fn accumulate(&mut self, i: usize, scale: f64, grad: &[f64]) {
            if let Some((_, g)) = self.pending.iter_mut().find(|(row, _)| *row == i) {
                for (a, &b) in g.iter_mut().zip(grad) {
                    *a += scale * b;
                }
            } else {
                self.pending
                    .push((i, grad.iter().map(|&b| scale * b).collect()));
            }
        }

        fn step(&mut self) {
            for (row, grad) in self.pending.drain(..) {
                self.adam.step_row(&mut self.weights, row, &grad);
            }
        }
    }

    #[test]
    fn arena_matches_linear_search_oracle_bitwise() {
        let (rows, dim) = (1500, 4);
        let config = AdamConfig {
            lr: 0.03,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(11);
        let mut t = EmbeddingTable::new(rows, dim, 0.1, config, &mut rng);
        let mut oracle = ListOracle {
            weights: t.matrix().clone(),
            adam: AdamState::new(rows, dim, config),
            pending: Vec::new(),
        };
        let mut grad = vec![0.0; dim];
        for round in 0..12 {
            // Rounds alternate a wide batch (> 500 distinct rows) with a
            // narrow one that revisits a few rows many times.
            let (touches, span) = if round % 2 == 0 {
                (2000, rows)
            } else {
                (300, 40)
            };
            for _ in 0..touches {
                let row = rng.random_range(0..span);
                for g in grad.iter_mut() {
                    *g = rng.random::<f64>() * 2.0 - 1.0;
                }
                if rng.random_bool(0.5) {
                    t.accumulate_grad(row, &grad);
                    oracle.accumulate(row, 1.0, &grad);
                } else {
                    let scale = rng.random::<f64>() * 4.0 - 2.0;
                    t.accumulate_scaled_grad(row, scale, &grad);
                    oracle.accumulate(row, scale, &grad);
                }
            }
            assert_eq!(t.pending_rows(), oracle.pending.len(), "round {round}");
            if round % 2 == 0 {
                assert!(t.pending_rows() > 500, "round {round} is wide");
            }
            if round % 3 == 2 {
                t.zero_grad();
                oracle.pending.clear();
                assert_eq!(t.pending_rows(), 0);
                continue;
            }
            t.step();
            oracle.step();
            assert_eq!(t.pending_rows(), 0);
            for r in 0..rows {
                let (a, b) = (t.row(r), oracle.weights.row(r));
                assert!(
                    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "round {round} row {r}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "gradient row length")]
    fn short_gradient_rows_are_rejected() {
        table().accumulate_grad(0, &[1.0, 2.0]);
    }

    #[test]
    fn repeated_steps_descend_dot_product_loss() {
        // Minimize -<e_0, target> so e_0 should align with target.
        let mut t = table();
        let target = [1.0, -1.0, 0.5];
        for _ in 0..300 {
            let grad: Vec<f64> = target.iter().map(|&x| -x).collect();
            t.accumulate_grad(0, &grad);
            t.step();
        }
        let dot: f64 = t.row(0).iter().zip(&target).map(|(a, b)| a * b).sum();
        assert!(dot > 1.0, "alignment {dot}");
    }
}
