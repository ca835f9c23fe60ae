//! # rna-training
//!
//! The machine-learning substrate: real stochastic gradient descent on
//! synthetic learnable tasks.
//!
//! The paper trains TensorFlow models (ResNet50, VGG16, LSTM, Transformer).
//! Reproducing the *protocol* results does not require those exact networks —
//! it requires (a) gradients whose statistics behave like SGD gradients
//! (unbiased, bounded variance, Assumption 1 of §5) and (b) a loss that
//! genuinely degrades when synchronization goes stale. This crate provides
//! both with honest numerics:
//!
//! * [`dataset`] — synthetic classification/regression/sequence corpora with
//!   controllable difficulty, plus deterministic train/validation splits and
//!   seeded mini-batch sampling.
//! * [`model`] — differentiable models implementing [`model::Model`]:
//!   a convex softmax classifier, a one-hidden-layer MLP, linear regression,
//!   and a real Elman RNN trained with back-propagation through time
//!   (the variable-length stand-in for the paper's LSTM).
//! * [`optimizer`] — SGD with momentum, weight decay, learning-rate
//!   schedules, and the dynamic batch-count scaling RNA applies
//!   (Linear Scaling Rule, §3.3).
//! * [`metrics`] — loss/accuracy history and Keras-style early stopping
//!   (the paper stops training when the loss stops improving for ten
//!   checks, §8.1).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod dataset;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod optimizer;

pub use dataset::{Batch, BatchSampler, Dataset};
pub use metrics::{EarlyStopping, History, HistoryPoint};
pub use model::{Eval, Model};
pub use optimizer::{LrSchedule, Sgd};
