//! Recommendation models.
//!
//! The LkP criterion is model-agnostic: any model that can (a) score a list
//! of candidate items for a user and (b) descend a gradient given with
//! respect to those scores can be trained with it. That contract is the
//! [`Recommender`] trait; four implementations cover the paper's evaluation
//! matrix:
//!
//! * [`mf::MatrixFactorization`] — embeddings + dot product (Tables III).
//! * [`gcn::Gcn`] — LightGCN-style linear propagation over the user–item
//!   graph, standing in for the paper's "basic GCN framework … referring to
//!   NGCF" (Table II).
//! * [`neumf::NeuMf`] — GMF + MLP towers (He et al. 2017; Table IV).
//! * [`gcmc::Gcmc`] — graph auto-encoder with a bilinear decoder
//!   (Berg et al. 2017; Table IV).
//!
//! Models using trainable item embeddings additionally implement
//! [`ItemEmbeddings`], which the E-type LkP variant (RBF diversity kernel
//! over item embeddings) requires.

pub mod gcmc;
pub mod gcn;
pub mod mf;
pub mod neumf;

pub use gcmc::Gcmc;
pub use gcn::Gcn;
pub use mf::MatrixFactorization;
pub use neumf::NeuMf;

/// A trainable recommendation model.
///
/// Scores are *raw* relevance values `ŷ_{u,i}` (higher = more relevant);
/// objectives decide how to squash them. `accumulate_score_grads` receives
/// `∂loss/∂score` for a loss to **minimize** and must accumulate parameter
/// gradients; `step` applies one optimizer update and clears them.
pub trait Recommender {
    /// Number of users the model was built for.
    fn n_users(&self) -> usize;

    /// Number of items the model was built for.
    fn n_items(&self) -> usize;

    /// Scores the given items for a user.
    fn score_items(&self, user: usize, items: &[usize]) -> Vec<f64>;

    /// Scores the given items into a reused buffer (cleared first).
    ///
    /// Hot-path variant of [`Recommender::score_items`]: the training loop
    /// calls this once per instance, and models should override it to avoid
    /// per-call allocation (the default delegates and copies).
    fn score_items_into(&self, user: usize, items: &[usize], out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.score_items(user, items));
    }

    /// Scores every item for a user into `out` (resized as needed).
    /// Used by top-N evaluation; the default delegates to [`Recommender::score_items`].
    fn score_all(&self, user: usize, out: &mut Vec<f64>) {
        let items: Vec<usize> = (0..self.n_items()).collect();
        *out = self.score_items(user, &items);
    }

    /// Accumulates `∂loss/∂score` for the given items into parameter grads.
    fn accumulate_score_grads(&mut self, user: usize, items: &[usize], dscores: &[f64]);

    /// Applies one optimizer step and clears accumulated gradients.
    fn step(&mut self);

    /// Hook called at the start of every epoch (cache refresh etc.).
    fn begin_epoch(&mut self) {}
}

/// Access to trainable item embeddings — required by the E-type LkP variant,
/// whose RBF diversity kernel is computed from (and backpropagates into)
/// item representations.
pub trait ItemEmbeddings {
    /// Item embedding dimensionality.
    fn item_dim(&self) -> usize;

    /// Borrow item `i`'s embedding.
    fn item_embedding(&self, item: usize) -> &[f64];

    /// Accumulates `∂loss/∂embedding` for an item.
    fn accumulate_item_embedding_grad(&mut self, item: usize, grad: &[f64]);
}
