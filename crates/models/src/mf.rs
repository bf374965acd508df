//! Matrix factorization: `ŷ_{u,i} = ⟨p_u, q_i⟩`.

use crate::{ItemEmbeddings, Recommender};
use lkp_linalg::ops::dot;
use lkp_nn::{AdamConfig, EmbeddingTable};
use rand::Rng;

/// Plain inner-product matrix factorization (the paper's "basic MF").
#[derive(Debug, Clone)]
pub struct MatrixFactorization {
    users: EmbeddingTable,
    items: EmbeddingTable,
    /// Reused user-gradient row for [`Recommender::accumulate_score_grads`].
    scratch: Vec<f64>,
}

impl MatrixFactorization {
    /// Creates a model with `N(0, 0.1²)` embeddings of dimension `dim`.
    pub fn new<R: Rng + ?Sized>(
        n_users: usize,
        n_items: usize,
        dim: usize,
        config: AdamConfig,
        rng: &mut R,
    ) -> Self {
        MatrixFactorization {
            users: EmbeddingTable::new(n_users, dim, 0.1, config, rng),
            items: EmbeddingTable::new(n_items, dim, 0.1, config, rng),
            scratch: Vec::new(),
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.users.dim()
    }

    /// Borrow a user embedding.
    pub fn user_embedding(&self, user: usize) -> &[f64] {
        self.users.row(user)
    }

    /// Overwrites an item embedding, bypassing the optimizer.
    ///
    /// Diagnostic/test helper (finite-difference checks, case studies); not
    /// part of the training path.
    #[doc(hidden)]
    pub fn set_item_embedding_for_tests(&mut self, item: usize, values: &[f64]) {
        assert_eq!(values.len(), self.items.dim());
        for (c, &v) in values.iter().enumerate() {
            self.items.matrix_mut()[(item, c)] = v;
        }
    }

    /// Persists the embedding tables to `<stem>.users.tsv` and
    /// `<stem>.items.tsv` (optimizer state is not saved — a reloaded model
    /// serves, or fine-tunes with a fresh optimizer clock).
    pub fn save(&self, stem: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let stem = stem.as_ref();
        lkp_linalg::io::save_matrix(self.users.matrix(), with_suffix(stem, "users"))?;
        lkp_linalg::io::save_matrix(self.items.matrix(), with_suffix(stem, "items"))
    }

    /// Loads embeddings previously written by [`MatrixFactorization::save`]
    /// into a model with fresh optimizer state.
    pub fn load(stem: impl AsRef<std::path::Path>, config: AdamConfig) -> std::io::Result<Self> {
        let stem = stem.as_ref();
        let users = lkp_linalg::io::load_matrix(with_suffix(stem, "users"))?;
        let items = lkp_linalg::io::load_matrix(with_suffix(stem, "items"))?;
        if users.cols() != items.cols() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "dimension mismatch: users {} vs items {}",
                    users.cols(),
                    items.cols()
                ),
            ));
        }
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut model =
            MatrixFactorization::new(users.rows(), items.rows(), users.cols(), config, &mut rng);
        *model.users.matrix_mut() = users;
        *model.items.matrix_mut() = items;
        Ok(model)
    }
}

fn with_suffix(stem: &std::path::Path, part: &str) -> std::path::PathBuf {
    let mut os = stem.as_os_str().to_owned();
    os.push(format!(".{part}.tsv"));
    std::path::PathBuf::from(os)
}

impl Recommender for MatrixFactorization {
    fn n_users(&self) -> usize {
        self.users.rows()
    }

    fn n_items(&self) -> usize {
        self.items.rows()
    }

    fn score_items(&self, user: usize, items: &[usize]) -> Vec<f64> {
        let p = self.users.row(user);
        items.iter().map(|&i| dot(p, self.items.row(i))).collect()
    }

    fn score_items_into(&self, user: usize, items: &[usize], out: &mut Vec<f64>) {
        let p = self.users.row(user);
        out.clear();
        out.extend(items.iter().map(|&i| dot(p, self.items.row(i))));
    }

    fn accumulate_score_grads(&mut self, user: usize, items: &[usize], dscores: &[f64]) {
        debug_assert_eq!(items.len(), dscores.len());
        let dim = self.dim();
        self.scratch.clear();
        self.scratch.resize(dim, 0.0);
        for (&i, &ds) in items.iter().zip(dscores) {
            if ds == 0.0 {
                continue;
            }
            // ∂s/∂p_u = q_i, ∂s/∂q_i = p_u — accumulate the user part into
            // the reused scratch row and push the item part scaled in place.
            let q = self.items.row(i);
            for (a, &b) in self.scratch.iter_mut().zip(q) {
                *a += ds * b;
            }
            let (users, items_table) = (&self.users, &mut self.items);
            items_table.accumulate_scaled_grad(i, ds, users.row(user));
        }
        let (scratch, users) = (&self.scratch, &mut self.users);
        users.accumulate_grad(user, scratch);
    }

    fn step(&mut self) {
        self.users.step();
        self.items.step();
    }
}

impl ItemEmbeddings for MatrixFactorization {
    fn item_dim(&self) -> usize {
        self.items.dim()
    }

    fn item_embedding(&self, item: usize) -> &[f64] {
        self.items.row(item)
    }

    fn accumulate_item_embedding_grad(&mut self, item: usize, grad: &[f64]) {
        self.items.accumulate_grad(item, grad);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> MatrixFactorization {
        let mut rng = StdRng::seed_from_u64(0);
        MatrixFactorization::new(
            4,
            6,
            8,
            AdamConfig {
                lr: 0.05,
                weight_decay: 0.0,
                ..Default::default()
            },
            &mut rng,
        )
    }

    #[test]
    fn scores_are_inner_products() {
        let m = model();
        let s = m.score_items(1, &[0, 3]);
        let manual0 = dot(m.user_embedding(1), m.item_embedding(0));
        assert!((s[0] - manual0).abs() < 1e-15);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn descending_negative_gradient_raises_score() {
        let mut m = model();
        let before = m.score_items(0, &[2])[0];
        for _ in 0..50 {
            // loss = -score → dloss/dscore = -1.
            m.accumulate_score_grads(0, &[2], &[-1.0]);
            m.step();
        }
        let after = m.score_items(0, &[2])[0];
        assert!(after > before + 0.5, "{before} -> {after}");
    }

    #[test]
    fn other_users_unaffected() {
        let mut m = model();
        let other_before = m.score_items(3, &[5])[0];
        m.accumulate_score_grads(0, &[2], &[-1.0]);
        m.step();
        let other_after = m.score_items(3, &[5])[0];
        assert_eq!(other_before, other_after);
    }

    #[test]
    fn score_gradient_matches_finite_difference_through_embeddings() {
        // Perturb an item embedding and compare score delta with the
        // accumulated gradient direction (chain through ItemEmbeddings).
        let mut m = model();
        let user = 2;
        let item = 4;
        let p = m.user_embedding(user).to_vec();
        // loss = score → dq = p.
        m.accumulate_score_grads(user, &[item], &[1.0]);
        // Finite difference.
        let h = 1e-6;
        let base = m.score_items(user, &[item])[0];
        let mut bumped = m.clone();
        let mut g = vec![0.0; m.item_dim()];
        g[0] = h;
        // Manually bump dim 0 of the item embedding.
        bumped.items.matrix_mut()[(item, 0)] += h;
        let fd = (bumped.score_items(user, &[item])[0] - base) / h;
        assert!((fd - p[0]).abs() < 1e-6, "fd {fd} vs analytic {}", p[0]);
    }

    #[test]
    fn save_load_preserves_scores() {
        let m = model();
        let dir = std::env::temp_dir().join("lkp_mf_persist");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("model");
        m.save(&stem).unwrap();
        let loaded = MatrixFactorization::load(&stem, AdamConfig::default()).unwrap();
        for user in 0..m.n_users() {
            let a = m.score_items(user, &[0, 1, 2, 3, 4, 5]);
            let b = loaded.score_items(user, &[0, 1, 2, 3, 4, 5]);
            assert_eq!(a, b, "scores diverged after reload for user {user}");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn score_all_matches_score_items() {
        let m = model();
        let mut all = Vec::new();
        m.score_all(1, &mut all);
        assert_eq!(all.len(), 6);
        let listed = m.score_items(1, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(all, listed);
    }
}
