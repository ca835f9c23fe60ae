//! Differentiable models.
//!
//! Every model stores its parameters as one flat [`Tensor`] — the same
//! flattened view a Horovod-style AllReduce synchronizes — and computes real
//! gradients by backpropagation. Gradient correctness is verified against
//! finite differences in the tests, so convergence results downstream are
//! genuine optimization dynamics.
//!
//! Each classifier has exactly one forward pass ([`Model::forward`], built on
//! the order-preserving kernels of [`rna_tensor::dense`]). Evaluation and
//! training both run on it, out of per-thread scratch buffers, so neither
//! allocates per sample and a loss read by [`Model::evaluate`] is the loss
//! [`Model::loss_and_grad`] differentiates, to the bit.

use std::cell::RefCell;

use rna_simnet::SimRng;
use rna_tensor::dense::{
    add_bias, axpy, back, dot, linear_scores, linear_xent, matmat, outer_acc, softmax_xent,
    tanh_in_place, LANES,
};
use rna_tensor::Tensor;

use crate::dataset::{Batch, Dataset};
use crate::loss::{add_xent, mse_grad, Tally};

/// What one pass over an evaluation batch reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eval {
    /// Mean loss over the batch.
    pub loss: f32,
    /// Classification accuracy (0.0 for regression models).
    pub top1: f32,
    /// Top-5 accuracy (0.0 for regression models).
    pub top5: f32,
}

/// A supervised model trained by mini-batch SGD.
///
/// Implementations are exchangeable replicas: the protocol engines clone one
/// template model per worker and keep the replicas in sync through
/// collectives.
pub trait Model: Send {
    /// Short human-readable name.
    fn name(&self) -> &'static str;

    /// Number of trainable parameters.
    fn num_params(&self) -> usize;

    /// The flattened parameter vector.
    fn params(&self) -> &Tensor;

    /// The flattened parameter vector, for updating it in place (an
    /// optimizer step, a replica average). The caller keeps its length at
    /// [`Model::num_params`].
    fn params_mut(&mut self) -> &mut Tensor;

    /// Overwrites the parameters.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from [`Model::num_params`].
    fn set_params(&mut self, p: &Tensor) {
        assert_eq!(p.len(), self.num_params(), "parameter length mismatch");
        self.params_mut().copy_from(p);
    }

    /// Mean loss over the batch; its gradient w.r.t. the parameters
    /// overwrites `grad`, whatever `grad` held. Allocates nothing once the
    /// thread's scratch has seen the model's shape, so a caller that
    /// recycles `grad` (the simulator draws it from its
    /// [`TensorPool`](rna_tensor::TensorPool)) computes gradients without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len()` differs from [`Model::num_params`].
    fn loss_and_grad_into(&self, batch: &Batch<'_>, grad: &mut Tensor) -> f32;

    /// Mean loss over the batch and its gradient w.r.t. the parameters, in
    /// a fresh tensor: [`Model::loss_and_grad_into`] on `Tensor::zeros`.
    fn loss_and_grad(&self, batch: &Batch<'_>) -> (f32, Tensor) {
        let mut grad = Tensor::zeros(self.num_params());
        let loss = self.loss_and_grad_into(batch, &mut grad);
        (loss, grad)
    }

    /// Runs one forward pass per sample, in batch order, handing `visit`
    /// each sample's dataset index and per-class scores (logits). No
    /// backward pass, no per-sample allocation. Regression models visit
    /// nothing. `visit` must not call into a model: the scores live in the
    /// thread's scratch, borrowed for the whole pass.
    fn forward(&self, batch: &Batch<'_>, visit: &mut dyn FnMut(usize, &[f32]));

    /// Mean loss, accuracy and top-5 accuracy from one forward pass per
    /// sample. A diverged replica (NaN or infinite scores) reports a NaN
    /// loss and counts its samples as wrong; it does not panic.
    fn evaluate(&self, batch: &Batch<'_>) -> Eval {
        evaluate_top_k(self, batch, 5)
    }

    /// Mean loss over the batch.
    fn loss(&self, batch: &Batch<'_>) -> f32 {
        self.evaluate(batch).loss
    }

    /// Classification accuracy over the batch (0.0 for regression models).
    /// The last of several maximal classes is the prediction.
    fn accuracy(&self, batch: &Batch<'_>) -> f32 {
        self.evaluate(batch).top1
    }

    /// Top-`k` accuracy over the batch: the fraction of samples whose true
    /// label is among the `k` highest-scoring classes, the lower index
    /// winning a tie (0.0 for regression models or an empty batch). Table 4
    /// of the paper reports top-1 and top-5.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    fn top_k_accuracy(&self, batch: &Batch<'_>, k: usize) -> f32 {
        assert!(k > 0, "k must be at least one");
        evaluate_top_k(self, batch, k).top5
    }

    /// A boxed deep copy (replica for another worker).
    fn clone_model(&self) -> Box<dyn Model>;
}

impl Clone for Box<dyn Model> {
    fn clone(&self) -> Self {
        self.clone_model()
    }
}

/// [`Model::evaluate`] with the top-5 cut at `k` (`top5` holds top-`k`).
fn evaluate_top_k<M: Model + ?Sized>(model: &M, batch: &Batch<'_>, k: usize) -> Eval {
    let ds = batch.dataset();
    let mut tally = Tally::default();
    model.forward(batch, &mut |i, logits| tally.score(logits, ds.label(i), k));
    let n = batch.len().max(1) as f32;
    Eval {
        loss: tally.loss / n,
        top1: tally.top1 as f32 / n,
        top5: tally.top_k as f32 / n,
    }
}

fn init_params(n: usize, scale: f32, rng: &mut SimRng) -> Tensor {
    (0..n).map(|_| rng.uniform_init(scale)).collect()
}

/// Zeroes the gradient buffer `loss_and_grad_into` accumulates into.
fn zero_grad(grad: &mut Tensor, num_params: usize) {
    assert_eq!(grad.len(), num_params, "gradient length mismatch");
    grad.fill_zero();
}

/// Splits a flat parameter (or gradient) vector into consecutive layers of
/// the given lengths; the last layer takes the rest.
fn layers<const N: usize>(mut p: &[f32], lens: [usize; N]) -> ([&[f32]; N], &[f32]) {
    let head = lens.map(|len| {
        let (layer, rest) = p.split_at(len);
        p = rest;
        layer
    });
    (head, p)
}

/// [`layers`] over a mutable vector.
fn layers_mut<const N: usize>(
    mut g: &mut [f32],
    lens: [usize; N],
) -> ([&mut [f32]; N], &mut [f32]) {
    let head = lens.map(|len| {
        let (layer, rest) = std::mem::take(&mut g).split_at_mut(len);
        g = rest;
        layer
    });
    (head, g)
}

/// Buffers the forward and backward passes reuse from call to call. Each is
/// resized where it is filled, so after the first pass of a given shape
/// nothing here allocates.
#[derive(Default)]
struct Scratch {
    /// `matmat`'s transposed input tile.
    tile: Vec<f32>,
    /// Hidden activations, one row per sample of a tile (per time step for
    /// the RNN).
    h: Vec<f32>,
    /// The RNN's input term `Wx x_t` and recurrent term `Wh h_{t−1}`, one row
    /// per sample of a tile each.
    pre: Vec<f32>,
    rec: Vec<f32>,
    /// Class scores, one row per sample of a tile.
    logits: Vec<f32>,
    /// Class scores, then their gradient, class-major: one [`LANES`]-lane
    /// row per class, the softmax tile pass's layout.
    rows: Vec<f32>,
    /// `dL/dlogits`, one row per sample of a tile: the coefficients of the
    /// output layer's one `outer_acc` per tile.
    dlogits: Vec<f32>,
    /// The gradient into the hidden pre-activations, one row per sample of a
    /// tile (the MLP's `W1` coefficients) or per time step of one sample's
    /// BPTT chunk (the RNN's `Wx` and `Wh` coefficients).
    dh: Vec<f32>,
    /// One `back` product: the gradient into a hidden state before tanh'
    /// (one sample's for the MLP, one time step's for the RNN).
    dprev: Vec<f32>,
}

thread_local! {
    /// One scratch per thread, not per model: a simulation holds one replica
    /// per worker (10 000 of them in `des-scale10k`) and runs them one at a
    /// time, so per-model buffers would be memory that is never used
    /// concurrently.
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// A linear softmax classifier (`logits = W x + b`) — convex, so every
/// convergence comparison on it is deterministic in shape.
///
/// # Examples
///
/// ```
/// use rna_simnet::SimRng;
/// use rna_training::{model::SoftmaxClassifier, Dataset, Model};
///
/// let mut rng = SimRng::seed(0);
/// let ds = Dataset::blobs(64, 4, 3, 0.2, &mut rng);
/// let model = SoftmaxClassifier::new(4, 3, &mut rng);
/// let (loss, grad) = model.loss_and_grad(&ds.full_batch());
/// assert!(loss > 0.0);
/// assert_eq!(grad.len(), model.num_params());
/// ```
#[derive(Debug, Clone)]
pub struct SoftmaxClassifier {
    dim: usize,
    classes: usize,
    params: Tensor,
}

impl SoftmaxClassifier {
    /// Creates a classifier with small random weights.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `classes < 2`.
    pub fn new(dim: usize, classes: usize, rng: &mut SimRng) -> Self {
        assert!(dim > 0, "input dimension must be positive");
        assert!(classes >= 2, "need at least two classes");
        SoftmaxClassifier {
            dim,
            classes,
            params: init_params(classes * dim + classes, 0.01, rng),
        }
    }

    /// `W` and `b`.
    fn layers(&self) -> (&[f32], &[f32]) {
        let ([w], b) = layers(self.params.as_slice(), [self.classes * self.dim]);
        (w, b)
    }
}

impl Model for SoftmaxClassifier {
    fn name(&self) -> &'static str {
        "softmax"
    }

    fn num_params(&self) -> usize {
        self.classes * self.dim + self.classes
    }

    fn params(&self) -> &Tensor {
        &self.params
    }

    fn params_mut(&mut self) -> &mut Tensor {
        &mut self.params
    }

    /// One [`linear_xent`] call per tile: scores, softmax, loss terms and
    /// both gradients in one pass over the tile's lanes.
    fn loss_and_grad_into(&self, batch: &Batch<'_>, grad: &mut Tensor) -> f32 {
        zero_grad(grad, self.num_params());
        let mut total = 0.0f32;
        let ds = batch.dataset();
        let (w, b) = self.layers();
        let g = grad.as_mut_slice();
        SCRATCH.with_borrow_mut(|s| {
            for tile in batch.indices().chunks(LANES) {
                let inputs = tile.iter().map(|&i| ds.input(i));
                let labels = tile.iter().map(|&i| ds.label(i));
                let p = linear_xent(w, b, inputs, labels, g, &mut s.tile, &mut s.rows);
                add_xent(&mut total, &p[..tile.len()]);
            }
        });
        let n = batch.len().max(1) as f32;
        grad.scale(1.0 / n);
        total / n
    }

    fn forward(&self, batch: &Batch<'_>, visit: &mut dyn FnMut(usize, &[f32])) {
        let ds = batch.dataset();
        let (w, b) = self.layers();
        SCRATCH.with_borrow_mut(|s| {
            for tile in batch.indices().chunks(LANES) {
                let inputs = tile.iter().map(|&i| ds.input(i));
                linear_scores(w, b, inputs, &mut s.tile, &mut s.rows, &mut s.logits);
                for (&i, logits) in tile.iter().zip(s.logits.chunks_exact(self.classes)) {
                    visit(i, logits);
                }
            }
        });
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

/// A one-hidden-layer MLP with tanh activation and softmax output — the
/// non-convex stand-in for the CNN workloads.
#[derive(Debug, Clone)]
pub struct Mlp {
    dim: usize,
    hidden: usize,
    classes: usize,
    params: Tensor,
}

impl Mlp {
    /// Creates an MLP with Xavier-ish initialization.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `classes < 2`.
    pub fn new(dim: usize, hidden: usize, classes: usize, rng: &mut SimRng) -> Self {
        assert!(dim > 0 && hidden > 0, "dimensions must be positive");
        assert!(classes >= 2, "need at least two classes");
        let n = hidden * dim + hidden + classes * hidden + classes;
        let scale = (1.0 / dim as f32).sqrt();
        Mlp {
            dim,
            hidden,
            classes,
            params: init_params(n, scale, rng),
        }
    }

    /// Parameter layout: `W1`, `b1`, `W2`, then `b2` as the rest.
    fn layout(&self) -> [usize; 3] {
        [
            self.hidden * self.dim,
            self.hidden,
            self.classes * self.hidden,
        ]
    }

    /// Forward pass over one tile of samples: fills `s.h` and `s.logits`.
    fn forward_tile(&self, ds: &Dataset, tile: &[usize], s: &mut Scratch) {
        let ([w1, b1, w2], b2) = layers(self.params.as_slice(), self.layout());
        let inputs = tile.iter().map(|&i| ds.input(i));
        matmat(w1, self.dim, inputs, &mut s.tile, &mut s.h);
        add_bias(&mut s.h, b1);
        tanh_in_place(&mut s.h);
        let activations = s.h.chunks_exact(self.hidden);
        matmat(w2, self.hidden, activations, &mut s.tile, &mut s.logits);
        add_bias(&mut s.logits, b2);
    }
}

impl Model for Mlp {
    fn name(&self) -> &'static str {
        "mlp"
    }

    fn num_params(&self) -> usize {
        self.hidden * self.dim + self.hidden + self.classes * self.hidden + self.classes
    }

    fn params(&self) -> &Tensor {
        &self.params
    }

    fn params_mut(&mut self) -> &mut Tensor {
        &mut self.params
    }

    fn loss_and_grad_into(&self, batch: &Batch<'_>, grad: &mut Tensor) -> f32 {
        zero_grad(grad, self.num_params());
        let mut total = 0.0f32;
        let ds = batch.dataset();
        let ([_, _, w2], _) = layers(self.params.as_slice(), self.layout());
        let ([g_w1, g_b1, g_w2], g_b2) = layers_mut(grad.as_mut_slice(), self.layout());
        SCRATCH.with_borrow_mut(|s| {
            for tile in batch.indices().chunks(LANES) {
                self.forward_tile(ds, tile, s);
                let labels = tile.iter().map(|&i| ds.label(i));
                let dlogits = &mut s.dlogits;
                let p = softmax_xent(&s.logits, self.classes, labels, &mut s.rows, dlogits);
                add_xent(&mut total, &p[..tile.len()]);
                s.dh.resize(s.h.len(), 0.0);
                let per_sample = s
                    .dlogits
                    .chunks_exact(self.classes)
                    .zip(s.h.chunks_exact(self.hidden))
                    .zip(s.dh.chunks_exact_mut(self.hidden));
                for ((dlogits, h), dh) in per_sample {
                    axpy(g_b2, 1.0, dlogits);
                    back(&mut s.dprev, dlogits, w2);
                    // Hidden layer (tanh' = 1 - h²).
                    for ((dpre, &dhj), &hj) in dh.iter_mut().zip(&s.dprev).zip(h) {
                        *dpre = dhj * (1.0 - hj * hj);
                    }
                    axpy(g_b1, 1.0, dh);
                }
                // The weight gradients, one pass over each per tile.
                outer_acc(g_w2, &s.dlogits, s.h.chunks_exact(self.hidden));
                let inputs = tile.iter().map(|&i| ds.input(i));
                outer_acc(g_w1, &s.dh, inputs);
            }
        });
        let n = batch.len().max(1) as f32;
        grad.scale(1.0 / n);
        total / n
    }

    fn forward(&self, batch: &Batch<'_>, visit: &mut dyn FnMut(usize, &[f32])) {
        SCRATCH.with_borrow_mut(|s| {
            for tile in batch.indices().chunks(LANES) {
                self.forward_tile(batch.dataset(), tile, s);
                for (&i, logits) in tile.iter().zip(s.logits.chunks_exact(self.classes)) {
                    visit(i, logits);
                }
            }
        });
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

/// Plain linear regression with MSE loss — the convergence-analysis
/// workhorse in the tests (its optimum is known in closed form).
#[derive(Debug, Clone)]
pub struct LinearRegression {
    dim: usize,
    params: Tensor,
}

impl LinearRegression {
    /// Creates a regressor initialized at zero.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "input dimension must be positive");
        LinearRegression {
            dim,
            params: Tensor::zeros(dim + 1),
        }
    }

    fn predict(&self, x: &[f32]) -> f32 {
        let (w, b) = self.params.as_slice().split_at(self.dim);
        dot(w, x) + b[0]
    }
}

impl Model for LinearRegression {
    fn name(&self) -> &'static str {
        "linreg"
    }

    fn num_params(&self) -> usize {
        self.dim + 1
    }

    fn params(&self) -> &Tensor {
        &self.params
    }

    fn params_mut(&mut self) -> &mut Tensor {
        &mut self.params
    }

    fn loss_and_grad_into(&self, batch: &Batch<'_>, grad: &mut Tensor) -> f32 {
        zero_grad(grad, self.num_params());
        let mut total = 0.0f32;
        let ds = batch.dataset();
        let (g_w, g_b) = grad.as_mut_slice().split_at_mut(self.dim);
        for &i in batch.indices() {
            let x = ds.input(i);
            let (loss, dpred) = mse_grad(self.predict(x), ds.target(i));
            total += loss;
            axpy(g_w, dpred, x);
            g_b[0] += dpred;
        }
        let n = batch.len().max(1) as f32;
        grad.scale(1.0 / n);
        total / n
    }

    fn forward(&self, _batch: &Batch<'_>, _visit: &mut dyn FnMut(usize, &[f32])) {}

    fn evaluate(&self, batch: &Batch<'_>) -> Eval {
        let ds = batch.dataset();
        let mut total = 0.0f32;
        for &i in batch.indices() {
            total += mse_grad(self.predict(ds.input(i)), ds.target(i)).0;
        }
        Eval {
            loss: total / batch.len().max(1) as f32,
            top1: 0.0,
            top5: 0.0,
        }
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

/// An Elman recurrent network trained with full back-propagation through
/// time — the variable-length stand-in for the paper's LSTM:
///
/// ```text
/// h_t = tanh(Wx x_t + Wh h_{t−1} + bh),   logits = Wo h_T + bo
/// ```
///
/// Compute cost is genuinely proportional to sequence length, reproducing
/// the §2.3.1 imbalance at the numerical level, not just the timing level.
#[derive(Debug, Clone)]
pub struct ElmanRnn {
    dim: usize,
    hidden: usize,
    classes: usize,
    params: Tensor,
}

impl ElmanRnn {
    /// Creates an RNN with small random weights.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `classes < 2`.
    pub fn new(dim: usize, hidden: usize, classes: usize, rng: &mut SimRng) -> Self {
        assert!(dim > 0 && hidden > 0, "dimensions must be positive");
        assert!(classes >= 2, "need at least two classes");
        let n = hidden * dim + hidden * hidden + hidden + classes * hidden + classes;
        let scale = (1.0 / (dim + hidden) as f32).sqrt();
        ElmanRnn {
            dim,
            hidden,
            classes,
            params: init_params(n, scale, rng),
        }
    }

    /// Parameter layout: `Wx`, `Wh`, `bh`, `Wo`, then `bo` as the rest.
    fn layout(&self) -> [usize; 4] {
        [
            self.hidden * self.dim,
            self.hidden * self.hidden,
            self.hidden,
            self.classes * self.hidden,
        ]
    }

    /// Unrolls the network over one tile of samples, every lane stepped to
    /// the tile's longest sequence (a sample past its end repeats its last
    /// input; those states are never read). Fills `s.h` with one
    /// `LANES × hidden` block of states per step (block 0 is the initial
    /// zero state) and `s.logits` with each sample's scores after its own
    /// last step.
    fn forward_tile(&self, ds: &Dataset, tile: &[usize], s: &mut Scratch) {
        let ([wx, wh, bh, wo], bo) = layers(self.params.as_slice(), self.layout());
        let (dim, hidden) = (self.dim, self.hidden);
        let block = LANES * hidden;
        let steps = tile.iter().map(|&i| ds.seq_len(i)).max().unwrap_or(0);
        s.h.clear();
        s.h.resize((steps + 1) * block, 0.0);
        for t in 0..steps {
            let inputs = tile.iter().map(|&i| {
                let t = t.min(ds.seq_len(i) - 1);
                &ds.input(i)[t * dim..(t + 1) * dim]
            });
            matmat(wx, dim, inputs, &mut s.tile, &mut s.pre);
            let prev = s.h[t * block..].chunks_exact(hidden).take(tile.len());
            matmat(wh, hidden, prev, &mut s.tile, &mut s.rec);
            let h = &mut s.h[(t + 1) * block..][..s.pre.len()];
            let sums = s.pre.iter().zip(&s.rec).zip(bh.iter().cycle());
            for (h, ((&pre, &rec), &b)) in h.iter_mut().zip(sums) {
                *h = pre + rec + b;
            }
            tanh_in_place(h);
        }
        let last = tile
            .iter()
            .enumerate()
            .map(|(lane, &i)| &s.h[ds.seq_len(i) * block + lane * hidden..][..hidden]);
        matmat(wo, hidden, last, &mut s.tile, &mut s.logits);
        add_bias(&mut s.logits, bo);
    }
}

impl Model for ElmanRnn {
    fn name(&self) -> &'static str {
        "rnn"
    }

    fn num_params(&self) -> usize {
        self.hidden * self.dim
            + self.hidden * self.hidden
            + self.hidden
            + self.classes * self.hidden
            + self.classes
    }

    fn params(&self) -> &Tensor {
        &self.params
    }

    fn params_mut(&mut self) -> &mut Tensor {
        &mut self.params
    }

    fn loss_and_grad_into(&self, batch: &Batch<'_>, grad: &mut Tensor) -> f32 {
        zero_grad(grad, self.num_params());
        let mut total = 0.0f32;
        let ds = batch.dataset();
        let ([_, wh, _, wo], _) = layers(self.params.as_slice(), self.layout());
        let ([g_wx, g_wh, g_bh, g_wo], g_bo) = layers_mut(grad.as_mut_slice(), self.layout());
        SCRATCH.with_borrow_mut(|s| {
            let (dim, hidden, block) = (self.dim, self.hidden, LANES * self.hidden);
            for tile in batch.indices().chunks(LANES) {
                self.forward_tile(ds, tile, s);
                let labels = tile.iter().map(|&i| ds.label(i));
                let dlogits = &mut s.dlogits;
                let p = softmax_xent(&s.logits, self.classes, labels, &mut s.rows, dlogits);
                add_xent(&mut total, &p[..tile.len()]);
                let drows = s.dlogits.chunks_exact(self.classes);
                for ((lane, &i), dlogits) in tile.iter().enumerate().zip(drows) {
                    // This sample's hidden state after step `t` (0: initial).
                    let state = |t: usize| &s.h[t * block + lane * hidden..][..hidden];
                    // Output layer → gradient into the final hidden state.
                    axpy(g_bo, 1.0, dlogits);
                    back(&mut s.dprev, dlogits, wo);
                    // BPTT, up to LANES steps at a time: each step's `dh` row
                    // is kept, and the steps' input and recurrent weight
                    // gradients are one `outer_acc` each, in BPTT's order.
                    let seq = ds.input(i);
                    let mut end = ds.seq_len(i);
                    while end > 0 {
                        let start = end.saturating_sub(LANES);
                        let steps = (start..end).rev();
                        s.dh.clear();
                        for t in steps.clone() {
                            let at = s.dh.len();
                            s.dh.resize(at + hidden, 0.0);
                            let dh = &mut s.dh[at..];
                            for ((dpre, &d), &hj) in dh.iter_mut().zip(&s.dprev).zip(state(t + 1)) {
                                *dpre = d * (1.0 - hj * hj);
                            }
                            axpy(g_bh, 1.0, dh);
                            back(&mut s.dprev, dh, wh);
                        }
                        let inputs = steps.clone().map(|t| &seq[t * dim..][..dim]);
                        outer_acc(g_wx, &s.dh, inputs);
                        outer_acc(g_wh, &s.dh, steps.map(state));
                        end = start;
                    }
                }
                let last = tile
                    .iter()
                    .enumerate()
                    .map(|(lane, &i)| &s.h[ds.seq_len(i) * block + lane * hidden..][..hidden]);
                outer_acc(g_wo, &s.dlogits, last);
            }
        });
        let n = batch.len().max(1) as f32;
        grad.scale(1.0 / n);
        total / n
    }

    fn forward(&self, batch: &Batch<'_>, visit: &mut dyn FnMut(usize, &[f32])) {
        SCRATCH.with_borrow_mut(|s| {
            for tile in batch.indices().chunks(LANES) {
                self.forward_tile(batch.dataset(), tile, s);
                for (&i, logits) in tile.iter().zip(s.logits.chunks_exact(self.classes)) {
                    visit(i, logits);
                }
            }
        });
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::optimizer::Sgd;

    /// Finite-difference check of a model's analytic gradient.
    fn check_gradient(model: &mut dyn Model, batch: &Batch<'_>, tol: f32) {
        let (_, grad) = model.loss_and_grad(batch);
        let base = model.params().clone();
        let eps = 1e-3;
        // Spot-check a spread of coordinates to keep the test fast.
        let n = model.num_params();
        let step = (n / 17).max(1);
        for idx in (0..n).step_by(step) {
            let mut plus = base.clone();
            plus[idx] += eps;
            model.set_params(&plus);
            let lp = model.loss(batch);
            let mut minus = base.clone();
            minus[idx] -= eps;
            model.set_params(&minus);
            let lm = model.loss(batch);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (grad[idx] - fd).abs() < tol,
                "param {idx}: analytic {} vs fd {fd}",
                grad[idx]
            );
        }
        model.set_params(&base);
    }

    #[test]
    fn softmax_gradient_matches_finite_difference() {
        let mut rng = SimRng::seed(1);
        let ds = Dataset::blobs(16, 5, 3, 0.3, &mut rng);
        let mut m = SoftmaxClassifier::new(5, 3, &mut rng);
        check_gradient(&mut m, &ds.full_batch(), 2e-3);
    }

    #[test]
    fn mlp_gradient_matches_finite_difference() {
        let mut rng = SimRng::seed(2);
        let ds = Dataset::blobs(12, 4, 3, 0.3, &mut rng);
        let mut m = Mlp::new(4, 6, 3, &mut rng);
        check_gradient(&mut m, &ds.full_batch(), 2e-3);
    }

    #[test]
    fn linreg_gradient_matches_finite_difference() {
        let mut rng = SimRng::seed(3);
        let ds = Dataset::regression(16, 4, 0.1, &mut rng);
        let mut m = LinearRegression::new(4);
        check_gradient(&mut m, &ds.full_batch(), 2e-3);
    }

    #[test]
    fn rnn_gradient_matches_finite_difference() {
        let mut rng = SimRng::seed(4);
        let lens = [3usize, 5, 2, 4];
        let ds = Dataset::sequences(&lens, 3, 2, 0.2, &mut rng);
        let mut m = ElmanRnn::new(3, 5, 2, &mut rng);
        check_gradient(&mut m, &ds.full_batch(), 3e-3);
    }

    #[test]
    fn loss_and_grad_into_overwrites_to_the_bit() {
        let mut rng = SimRng::seed(10);
        let blobs = Dataset::blobs(20, 5, 3, 0.3, &mut rng);
        let seqs = Dataset::sequences(&[3, 5, 2, 4, 1], 3, 2, 0.2, &mut rng);
        let line = Dataset::regression(20, 4, 0.1, &mut rng);
        let models: [(Box<dyn Model>, &Dataset); 4] = [
            (Box::new(SoftmaxClassifier::new(5, 3, &mut rng)), &blobs),
            (Box::new(Mlp::new(5, 7, 3, &mut rng)), &blobs),
            (Box::new(ElmanRnn::new(3, 5, 2, &mut rng)), &seqs),
            (Box::new(LinearRegression::new(4)), &line),
        ];
        for (m, ds) in &models {
            let batch = ds.full_batch();
            let (loss, grad) = m.loss_and_grad(&batch);
            // A stale buffer: any element the call failed to overwrite stays
            // NaN and fails the comparison.
            let mut into = Tensor::filled(m.num_params(), f32::NAN);
            let loss_into = m.loss_and_grad_into(&batch, &mut into);
            assert_eq!(loss_into.to_bits(), loss.to_bits(), "{}: loss", m.name());
            let bits = |t: &Tensor| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&into), bits(&grad), "{}: gradient", m.name());
        }
    }

    #[test]
    fn sgd_reduces_softmax_loss() {
        let mut rng = SimRng::seed(5);
        let ds = Dataset::blobs(200, 6, 3, 0.3, &mut rng);
        let mut m = SoftmaxClassifier::new(6, 3, &mut rng);
        let batch = ds.full_batch();
        let initial = m.loss(&batch);
        let mut opt = Sgd::new(0.5, 0.0, 0.0, m.num_params());
        for _ in 0..100 {
            let (_, g) = m.loss_and_grad(&batch);
            opt.step(m.params_mut(), &g, 1.0);
        }
        let trained = m.loss(&batch);
        assert!(trained < initial * 0.5, "loss {initial} -> {trained}");
        assert!(m.accuracy(&batch) > 0.9);
    }

    #[test]
    fn sgd_trains_rnn_on_sequences() {
        let mut rng = SimRng::seed(6);
        let lens: Vec<usize> = (0..120).map(|_| 3 + (rng.choose_one(6))).collect();
        let ds = Dataset::sequences(&lens, 3, 2, 0.3, &mut rng);
        let mut m = ElmanRnn::new(3, 8, 2, &mut rng);
        let batch = ds.full_batch();
        let initial = m.loss(&batch);
        let mut opt = Sgd::new(0.3, 0.5, 0.0, m.num_params());
        for _ in 0..120 {
            let (_, g) = m.loss_and_grad(&batch);
            opt.step(m.params_mut(), &g, 1.0);
        }
        assert!(m.loss(&batch) < initial * 0.6);
        assert!(m.accuracy(&batch) > 0.8);
    }

    #[test]
    fn linreg_recovers_ground_truth() {
        let mut rng = SimRng::seed(7);
        let ds = Dataset::regression(300, 3, 0.0, &mut rng);
        let mut m = LinearRegression::new(3);
        let batch = ds.full_batch();
        let mut opt = Sgd::new(0.1, 0.0, 0.0, m.num_params());
        for _ in 0..500 {
            let (_, g) = m.loss_and_grad(&batch);
            opt.step(m.params_mut(), &g, 1.0);
        }
        assert!(m.loss(&batch) < 1e-3);
        assert_eq!(m.accuracy(&batch), 0.0);
    }

    #[test]
    fn clone_model_is_independent() {
        let mut rng = SimRng::seed(8);
        let m = SoftmaxClassifier::new(3, 2, &mut rng);
        let mut c = m.clone_model();
        c.set_params(&Tensor::zeros(m.num_params()));
        assert_ne!(m.params().as_slice(), c.params().as_slice());
        assert_eq!(m.name(), c.name());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_params_validates_length() {
        let mut rng = SimRng::seed(9);
        let mut m = SoftmaxClassifier::new(3, 2, &mut rng);
        m.set_params(&Tensor::zeros(1));
    }

    #[test]
    fn num_params_layouts() {
        let mut rng = SimRng::seed(10);
        assert_eq!(SoftmaxClassifier::new(4, 3, &mut rng).num_params(), 15);
        assert_eq!(Mlp::new(4, 5, 3, &mut rng).num_params(), 4 * 5 + 5 + 15 + 3);
        assert_eq!(LinearRegression::new(4).num_params(), 5);
        assert_eq!(
            ElmanRnn::new(3, 4, 2, &mut rng).num_params(),
            12 + 16 + 4 + 8 + 2
        );
    }

    #[test]
    fn top_k_accuracy_ranks_classes() {
        let mut rng = SimRng::seed(20);
        let ds = Dataset::blobs(120, 6, 6, 0.4, &mut rng);
        let mut m = SoftmaxClassifier::new(6, 6, &mut rng);
        let batch = ds.full_batch();
        let mut opt = Sgd::new(0.5, 0.0, 0.0, m.num_params());
        for _ in 0..60 {
            let (_, g) = m.loss_and_grad(&batch);
            opt.step(m.params_mut(), &g, 1.0);
        }
        let top1 = m.top_k_accuracy(&batch, 1);
        let top5 = m.top_k_accuracy(&batch, 5);
        // Top-1 coincides with accuracy(); top-5 dominates top-1 and, with
        // 6 classes, is near-perfect after training.
        assert!((top1 - m.accuracy(&batch)).abs() < 1e-6);
        assert!(top5 >= top1);
        assert!(top5 > 0.95, "top5 {top5}");
        // k beyond the class count is trivially 1.
        assert_eq!(m.top_k_accuracy(&batch, 6), 1.0);
    }

    #[test]
    fn top_k_is_zero_for_regression() {
        let mut rng = SimRng::seed(21);
        let ds = Dataset::regression(16, 3, 0.1, &mut rng);
        let m = LinearRegression::new(3);
        assert_eq!(m.top_k_accuracy(&ds.full_batch(), 3), 0.0);
        assert!(scores_of(&m, &ds.full_batch(), 0).is_none());
    }

    #[test]
    fn rnn_class_scores_exist() {
        let mut rng = SimRng::seed(22);
        let lens = [3usize, 5];
        let ds = Dataset::sequences(&lens, 2, 3, 0.2, &mut rng);
        let m = ElmanRnn::new(2, 4, 3, &mut rng);
        let batch = ds.full_batch();
        assert_eq!(scores_of(&m, &batch, 0).unwrap().len(), 3);
        let t = m.top_k_accuracy(&batch, 2);
        assert!((0.0..=1.0).contains(&t));
    }

    #[test]
    fn empty_batch_loss_is_finite() {
        let mut rng = SimRng::seed(11);
        let ds = Dataset::blobs(4, 3, 2, 0.3, &mut rng);
        let m = SoftmaxClassifier::new(3, 2, &mut rng);
        let batch = ds.batch(vec![]);
        let (loss, grad) = m.loss_and_grad(&batch);
        assert_eq!(loss, 0.0);
        assert!(grad.as_slice().iter().all(|&g| g == 0.0));
        assert_eq!(m.accuracy(&batch), 0.0);
    }

    // --- One forward pass: bit-identity with the loops it replaced --------

    /// The pre-kernel implementations, kept verbatim as the reference: one
    /// serial `iter().sum()` per row, fresh `Vec`s per sample, `max_by` for
    /// top-1 and a stable descending sort for top-k.
    mod reference {
        use crate::dataset::Batch;
        use crate::loss::softmax_xent_grad;

        fn dot(row: &[f32], x: &[f32]) -> f32 {
            row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f32>()
        }

        fn dense(w: &[f32], b: &[f32], x: &[f32]) -> Vec<f32> {
            w.chunks_exact(x.len())
                .zip(b)
                .map(|(row, b)| dot(row, x) + b)
                .collect()
        }

        pub fn softmax_logits(p: &[f32], dim: usize, classes: usize, x: &[f32]) -> Vec<f32> {
            dense(&p[..classes * dim], &p[classes * dim..], x)
        }

        pub fn softmax_grad(
            p: &[f32],
            dim: usize,
            classes: usize,
            batch: &Batch<'_>,
        ) -> (f32, Vec<f32>) {
            let mut g = vec![0.0f32; p.len()];
            let mut total = 0.0f32;
            let ds = batch.dataset();
            for &i in batch.indices() {
                let x = ds.input(i);
                let (loss, dlogits) =
                    softmax_xent_grad(&softmax_logits(p, dim, classes, x), ds.label(i));
                total += loss;
                for c in 0..classes {
                    let dc = dlogits[c];
                    for (d, &xi) in x.iter().enumerate() {
                        g[c * dim + d] += dc * xi;
                    }
                    g[classes * dim + c] += dc;
                }
            }
            finish(total, g, batch)
        }

        pub fn mlp_forward(
            p: &[f32],
            [dim, hidden, classes]: [usize; 3],
            x: &[f32],
        ) -> (Vec<f32>, Vec<f32>) {
            let (b1, w2, b2) = (
                hidden * dim,
                hidden * dim + hidden,
                hidden * dim + hidden + classes * hidden,
            );
            let h: Vec<f32> = dense(&p[..b1], &p[b1..w2], x)
                .iter()
                .map(|pre| pre.tanh())
                .collect();
            let logits = dense(&p[w2..b2], &p[b2..], &h);
            (h, logits)
        }

        pub fn mlp_grad(p: &[f32], shape: [usize; 3], batch: &Batch<'_>) -> (f32, Vec<f32>) {
            let [dim, hidden, classes] = shape;
            let (off_b1, off_w2) = (hidden * dim, hidden * dim + hidden);
            let off_b2 = off_w2 + classes * hidden;
            let mut g = vec![0.0f32; p.len()];
            let mut total = 0.0f32;
            let ds = batch.dataset();
            for &i in batch.indices() {
                let x = ds.input(i);
                let (h, logits) = mlp_forward(p, shape, x);
                let (loss, dlogits) = softmax_xent_grad(&logits, ds.label(i));
                total += loss;
                let mut dh = vec![0.0f32; hidden];
                for c in 0..classes {
                    let dc = dlogits[c];
                    for j in 0..hidden {
                        g[off_w2 + c * hidden + j] += dc * h[j];
                        dh[j] += dc * p[off_w2 + c * hidden + j];
                    }
                    g[off_b2 + c] += dc;
                }
                for j in 0..hidden {
                    let dpre = dh[j] * (1.0 - h[j] * h[j]);
                    for (d, &xi) in x.iter().enumerate() {
                        g[j * dim + d] += dpre * xi;
                    }
                    g[off_b1 + j] += dpre;
                }
            }
            finish(total, g, batch)
        }

        pub fn linreg_grad(p: &[f32], dim: usize, batch: &Batch<'_>) -> (f32, Vec<f32>) {
            let mut g = vec![0.0f32; p.len()];
            let mut total = 0.0f32;
            let ds = batch.dataset();
            for &i in batch.indices() {
                let x = ds.input(i);
                let diff = dot(&p[..dim], x) + p[dim] - ds.target(i);
                total += 0.5 * diff * diff;
                for (d, &xi) in x.iter().enumerate() {
                    g[d] += diff * xi;
                }
                g[dim] += diff;
            }
            finish(total, g, batch)
        }

        pub fn rnn_forward(
            p: &[f32],
            [dim, hidden, classes]: [usize; 3],
            seq: &[f32],
            len: usize,
        ) -> (Vec<Vec<f32>>, Vec<f32>) {
            let off_wh = hidden * dim;
            let off_bh = off_wh + hidden * hidden;
            let off_wo = off_bh + hidden;
            let off_bo = off_wo + classes * hidden;
            let mut hs: Vec<Vec<f32>> = vec![vec![0.0; hidden]];
            for t in 0..len {
                let x = &seq[t * dim..(t + 1) * dim];
                let prev = &hs[t];
                let h: Vec<f32> = (0..hidden)
                    .map(|j| {
                        let wx = &p[j * dim..(j + 1) * dim];
                        let wh = &p[off_wh + j * hidden..off_wh + (j + 1) * hidden];
                        (dot(wx, x) + dot(wh, prev) + p[off_bh + j]).tanh()
                    })
                    .collect();
                hs.push(h);
            }
            let logits = dense(&p[off_wo..off_bo], &p[off_bo..], &hs[len]);
            (hs, logits)
        }

        pub fn rnn_grad(p: &[f32], shape: [usize; 3], batch: &Batch<'_>) -> (f32, Vec<f32>) {
            let [dim, hidden, classes] = shape;
            let off_wh = hidden * dim;
            let off_bh = off_wh + hidden * hidden;
            let off_wo = off_bh + hidden;
            let off_bo = off_wo + classes * hidden;
            let mut g = vec![0.0f32; p.len()];
            let mut total = 0.0f32;
            let ds = batch.dataset();
            for &i in batch.indices() {
                let len = ds.seq_len(i);
                let seq = ds.input(i);
                let (hs, logits) = rnn_forward(p, shape, seq, len);
                let (loss, dlogits) = softmax_xent_grad(&logits, ds.label(i));
                total += loss;
                let mut dh = vec![0.0f32; hidden];
                for c in 0..classes {
                    let dc = dlogits[c];
                    for j in 0..hidden {
                        g[off_wo + c * hidden + j] += dc * hs[len][j];
                        dh[j] += dc * p[off_wo + c * hidden + j];
                    }
                    g[off_bo + c] += dc;
                }
                for t in (0..len).rev() {
                    let x = &seq[t * dim..(t + 1) * dim];
                    let h = &hs[t + 1];
                    let prev = &hs[t];
                    let mut dprev = vec![0.0f32; hidden];
                    for j in 0..hidden {
                        let dpre = dh[j] * (1.0 - h[j] * h[j]);
                        for (d, &xi) in x.iter().enumerate() {
                            g[j * dim + d] += dpre * xi;
                        }
                        for k in 0..hidden {
                            g[off_wh + j * hidden + k] += dpre * prev[k];
                            dprev[k] += dpre * p[off_wh + j * hidden + k];
                        }
                        g[off_bh + j] += dpre;
                    }
                    dh = dprev;
                }
            }
            finish(total, g, batch)
        }

        fn finish(total: f32, mut g: Vec<f32>, batch: &Batch<'_>) -> (f32, Vec<f32>) {
            let n = batch.len().max(1) as f32;
            g.iter_mut().for_each(|v| *v *= 1.0 / n);
            (total / n, g)
        }

        /// `(accuracy, top-k)` from per-sample logits, the old way.
        pub fn accuracies(
            batch: &Batch<'_>,
            k: usize,
            logits: impl Fn(usize) -> Vec<f32>,
        ) -> (f32, f32) {
            if batch.is_empty() {
                return (0.0, 0.0);
            }
            let ds = batch.dataset();
            let (mut top1, mut top_k) = (0usize, 0usize);
            for &i in batch.indices() {
                let scores = logits(i);
                let pred = scores
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(c, _)| c)
                    .unwrap();
                top1 += usize::from(pred == ds.label(i));
                let mut order: Vec<usize> = (0..scores.len()).collect();
                order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("NaN score"));
                top_k += usize::from(order.iter().take(k).any(|&c| c == ds.label(i)));
            }
            let n = batch.len() as f32;
            (top1 as f32 / n, top_k as f32 / n)
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The scores [`Model::forward`] hands sample `i` of the batch's
    /// dataset, alone in its batch; `None` for regression models.
    fn scores_of(model: &dyn Model, batch: &Batch<'_>, i: usize) -> Option<Vec<f32>> {
        let mut scores = None;
        let one = batch.dataset().batch(vec![i]);
        model.forward(&one, &mut |_, logits| scores = Some(logits.to_vec()));
        scores
    }

    /// Full batch, sub-batches of one tile and less (one with a repeated
    /// sample), 16, 17 and 33 samples drawn with repeats (a full 16-lane
    /// tile, then partial tiles of 1 after one and two full ones) and the
    /// empty batch.
    fn batches(ds: &Dataset) -> Vec<Batch<'_>> {
        let cycled = |n: usize| ds.batch((0..n).map(|k| (5 * k + 2) % ds.len()).collect());
        vec![
            ds.full_batch(),
            ds.batch(vec![3, 0, 3, 7, 1, 9, 2, 8, 5, 4, 6]),
            ds.batch(vec![5]),
            cycled(16),
            cycled(17),
            cycled(33),
            ds.batch(vec![]),
        ]
    }

    /// What every model must satisfy on every batch: the fused evaluation is
    /// the three public calls to the bit, the forward-only loss is the
    /// differentiated loss to the bit, and loss and gradient are the
    /// reference loops' to the bit.
    fn check_against_reference(model: &dyn Model, batch: &Batch<'_>, reference: (f32, Vec<f32>)) {
        let eval = model.evaluate(batch);
        assert_eq!(eval.loss.to_bits(), model.loss(batch).to_bits());
        assert_eq!(eval.top1.to_bits(), model.accuracy(batch).to_bits());
        assert_eq!(
            eval.top5.to_bits(),
            model.top_k_accuracy(batch, 5).to_bits()
        );
        let (loss, grad) = model.loss_and_grad(batch);
        assert_eq!(eval.loss.to_bits(), loss.to_bits(), "{}", model.name());
        assert_eq!(loss.to_bits(), reference.0.to_bits(), "{}", model.name());
        assert_eq!(
            bits(grad.as_slice()),
            bits(&reference.1),
            "{}",
            model.name()
        );
    }

    fn check_accuracies(model: &dyn Model, batch: &Batch<'_>, logits: impl Fn(usize) -> Vec<f32>) {
        for k in [1, 2, 5] {
            let (top1, top_k) = reference::accuracies(batch, k, &logits);
            assert_eq!(model.accuracy(batch).to_bits(), top1.to_bits());
            assert_eq!(model.top_k_accuracy(batch, k).to_bits(), top_k.to_bits());
        }
        if let Some(&i) = batch.indices().first() {
            assert_eq!(bits(&scores_of(model, batch, i).unwrap()), bits(&logits(i)));
        }
    }

    #[test]
    fn softmax_matches_the_reference_loops_bit_for_bit() {
        let mut rng = SimRng::seed(30);
        let ds = Dataset::blobs(21, 9, 7, 0.8, &mut rng);
        let m = SoftmaxClassifier::new(9, 7, &mut rng);
        let p = m.params().as_slice();
        for batch in batches(&ds) {
            check_against_reference(&m, &batch, reference::softmax_grad(p, 9, 7, &batch));
            check_accuracies(&m, &batch, |i| {
                reference::softmax_logits(p, 9, 7, ds.input(i))
            });
        }
    }

    /// Runs `check` under every SIMD tier the host has, portable first,
    /// one caller at a time, and restores the tier it found.
    fn under_every_tier(mut check: impl FnMut(&str)) {
        use rna_tensor::simd;
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let was = simd::tier();
        for tier in simd::tiers() {
            simd::set_tier(tier);
            check(tier.name());
        }
        simd::set_tier(was);
    }

    /// The linear classifier's lane pass against the per-sample reference
    /// (`softmax_xent_grad` on in-order `dot` logits), to the bit, under
    /// every tier: odd shapes, tiles of 1 to 16 samples and a ragged third,
    /// every class a label, and biases that make some `exp` underflow to 0
    /// or to a subnormal, tie two classes at the max, or put ±∞ or NaN in a
    /// logit (a NaN loss stays NaN, unclamped).
    #[test]
    fn the_softmax_lane_pass_matches_the_per_sample_reference() {
        // Each edits the parameters of a `dim × classes` model; the bias of
        // class `c` sits at `classes·dim + c`.
        type Edit = fn(&mut [f32], usize, usize);
        let edits: [(&str, Edit); 7] = [
            ("plain", |_, _, _| {}),
            ("exp underflows to 0", |p, dim, classes| {
                p[classes * dim] = -200.0
            }),
            ("exp underflows to a subnormal", |p, dim, classes| {
                p[classes * dim] = -95.0
            }),
            ("a tie at the max", |p, dim, classes| {
                let (w, b) = p.split_at_mut(classes * dim);
                w.copy_within(..dim, dim);
                b[0] = 5.0;
                b[1] = 5.0;
            }),
            ("+inf", |p, dim, classes| {
                p[classes * dim + classes - 1] = f32::INFINITY
            }),
            ("-inf", |p, dim, classes| {
                p[classes * dim] = f32::NEG_INFINITY
            }),
            ("NaN", |p, dim, classes| p[classes * dim] = f32::NAN),
        ];
        for (dim, classes) in [(8, 4), (12, 6), (1, 2), (17, 3), (3, 16)] {
            let mut rng = SimRng::seed(40 + dim as u64);
            let ds = Dataset::blobs(48, dim, classes, 0.8, &mut rng);
            let mut m = SoftmaxClassifier::new(dim, classes, &mut rng);
            let base = m.params().clone();
            for (name, edit) in edits {
                let mut p = base.clone();
                edit(p.as_mut_slice(), dim, classes);
                m.set_params(&p);
                let p = p.as_slice();
                for n in [1usize, 15, 16, 17, 33] {
                    for first in [0, n % classes + 1] {
                        let batch = ds.batch((first..first + n).map(|k| k % ds.len()).collect());
                        let want = reference::softmax_grad(p, dim, classes, &batch);
                        if name.starts_with("exp underflows") && n == 33 {
                            let x = ds.input(batch.indices()[0]);
                            let probs = crate::loss::softmax(&reference::softmax_logits(
                                p, dim, classes, x,
                            ));
                            let subnormal = probs[0] != 0.0 && !probs[0].is_normal();
                            assert_eq!(subnormal, name.ends_with("subnormal"), "{name}");
                            assert!(probs[0] == 0.0 || subnormal, "{name}: {}", probs[0]);
                        }
                        let nan = matches!(name, "+inf" | "NaN");
                        assert_eq!(want.0.is_nan(), nan, "{name}: {}", want.0);
                        under_every_tier(|tier| {
                            let at = format!("{name}, {dim}x{classes}, {n} samples, {tier}");
                            let (loss, grad) = m.loss_and_grad(&batch);
                            assert_eq!(loss.to_bits(), want.0.to_bits(), "loss: {at}");
                            assert_eq!(bits(grad.as_slice()), bits(&want.1), "gradient: {at}");
                            let eval = m.evaluate(&batch).loss;
                            assert_eq!(eval.to_bits(), loss.to_bits(), "evaluation: {at}");
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn mlp_matches_the_reference_loops_bit_for_bit() {
        let mut rng = SimRng::seed(31);
        let ds = Dataset::blobs(21, 13, 6, 0.8, &mut rng);
        // 11 hidden units: two row blocks of four and a three-row remainder.
        let shape = [13, 11, 6];
        let m = Mlp::new(13, 11, 6, &mut rng);
        let p = m.params().as_slice();
        for batch in batches(&ds) {
            check_against_reference(&m, &batch, reference::mlp_grad(p, shape, &batch));
            check_accuracies(&m, &batch, |i| {
                reference::mlp_forward(p, shape, ds.input(i)).1
            });
        }
    }

    #[test]
    fn rnn_matches_the_reference_loops_bit_for_bit() {
        let mut rng = SimRng::seed(32);
        // Lengths 1 to 6, and 20, 27 and 34 steps: BPTT's outer products
        // take 16 steps at a time, so these end on partial chunks.
        let lens: Vec<usize> = (0..21)
            .map(|i| if i % 7 == 3 { 17 + i } else { 1 + i % 6 })
            .collect();
        let ds = Dataset::sequences(&lens, 3, 6, 0.3, &mut rng);
        // 19 hidden units: four row blocks of four and a three-row remainder.
        let shape = [3, 19, 6];
        let m = ElmanRnn::new(3, 19, 6, &mut rng);
        let p = m.params().as_slice();
        for batch in batches(&ds) {
            check_against_reference(&m, &batch, reference::rnn_grad(p, shape, &batch));
            check_accuracies(&m, &batch, |i| {
                reference::rnn_forward(p, shape, ds.input(i), ds.seq_len(i)).1
            });
        }
    }

    #[test]
    fn linreg_matches_the_reference_loop_and_scores_no_classes() {
        let mut rng = SimRng::seed(33);
        let ds = Dataset::regression(21, 5, 0.1, &mut rng);
        let mut m = LinearRegression::new(5);
        m.set_params(&init_params(6, 1.0, &mut rng));
        for batch in batches(&ds) {
            let reference = reference::linreg_grad(m.params().as_slice(), 5, &batch);
            check_against_reference(&m, &batch, reference);
            let eval = m.evaluate(&batch);
            assert_eq!((eval.top1, eval.top5), (0.0, 0.0));
        }
    }

    /// With all-zero parameters every class ties on every sample, so the
    /// tie rules alone decide: top-1 keeps `max_by`'s *last* maximum,
    /// top-k keeps the stable sort's *lowest* indices.
    #[test]
    fn ties_break_as_max_by_and_the_stable_sort_did() {
        let mut rng = SimRng::seed(34);
        let ds = Dataset::blobs(60, 4, 6, 0.4, &mut rng);
        let lens = vec![2usize; 60];
        let seqs = Dataset::sequences(&lens, 4, 6, 0.3, &mut rng);
        let mut models: Vec<(Box<dyn Model>, &Dataset)> = vec![
            (Box::new(SoftmaxClassifier::new(4, 6, &mut rng)), &ds),
            (Box::new(Mlp::new(4, 5, 6, &mut rng)), &ds),
            (Box::new(ElmanRnn::new(4, 5, 6, &mut rng)), &seqs),
        ];
        for (m, ds) in &mut models {
            m.set_params(&Tensor::zeros(m.num_params()));
            let batch = ds.full_batch();
            let share = |f: &dyn Fn(usize) -> bool| {
                batch.indices().iter().filter(|&&i| f(ds.label(i))).count() as f32 / 60.0
            };
            assert_eq!(
                m.accuracy(&batch),
                share(&|label| label == 5),
                "{}",
                m.name()
            );
            assert_eq!(m.top_k_accuracy(&batch, 1), share(&|label| label == 0));
            assert_eq!(m.top_k_accuracy(&batch, 2), share(&|label| label < 2));
            assert_eq!(m.evaluate(&batch).top5, share(&|label| label < 5));
            let (top1, top2) = reference::accuracies(&batch, 2, |_| vec![0.0; 6]);
            assert_eq!(
                (m.accuracy(&batch), m.top_k_accuracy(&batch, 2)),
                (top1, top2)
            );
        }
    }

    /// A diverged replica reports itself instead of panicking the engine: a
    /// NaN loss (so no loss target fires) and every sample wrong.
    #[test]
    fn non_finite_parameters_evaluate_to_nan_loss_without_panicking() {
        let mut rng = SimRng::seed(35);
        let ds = Dataset::blobs(20, 4, 6, 0.4, &mut rng);
        let lens = vec![3usize; 20];
        let seqs = Dataset::sequences(&lens, 4, 6, 0.3, &mut rng);
        let mut models: Vec<(Box<dyn Model>, &Dataset)> = vec![
            (Box::new(SoftmaxClassifier::new(4, 6, &mut rng)), &ds),
            (Box::new(Mlp::new(4, 5, 6, &mut rng)), &ds),
            (Box::new(ElmanRnn::new(4, 5, 6, &mut rng)), &seqs),
        ];
        for (m, ds) in &mut models {
            let batch = ds.full_batch();
            for poison in [f32::NAN, f32::INFINITY] {
                m.set_params(&Tensor::filled(m.num_params(), poison));
                let eval = m.evaluate(&batch);
                assert!(eval.loss.is_nan(), "{} at {poison}: {eval:?}", m.name());
                assert_eq!((eval.top1, eval.top5), (0.0, 0.0), "{}", m.name());
                assert!(m.loss(&batch).is_nan() && m.loss_and_grad(&batch).0.is_nan());
                assert_eq!(m.accuracy(&batch), 0.0);
                assert_eq!(m.top_k_accuracy(&batch, 6), 0.0);
            }
            // One poisoned output row: its own samples are wrong, nothing
            // panics on the NaN among the other scores.
            let mut p = init_params(m.num_params(), 0.1, &mut rng);
            let last = p.len() - 1;
            p[last] = f32::NAN;
            m.set_params(&p);
            let eval = m.evaluate(&batch);
            assert!(eval.loss.is_nan());
            assert!(eval.top1 <= eval.top5 && eval.top5 <= 1.0);
        }
    }
}
