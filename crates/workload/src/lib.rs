//! # rna-workload
//!
//! Workload and heterogeneity models for the RNA reproduction.
//!
//! The paper's stragglers come from two sources (§2.3):
//!
//! 1. **System heterogeneity** — injected random delays (0–50 ms per
//!    iteration), deterministic hardware tiers (Table 2), and mixed groups
//!    (group B slowed by an extra 50–100 ms). Modeled by
//!    [`HeterogeneityModel`] and [`cluster::ClusterSpec`].
//! 2. **Inherent load imbalance** — dynamic networks (LSTM over UCF101
//!    videos, Transformer over WMT17 sentences) whose per-batch compute time
//!    follows the input length distribution (Figure 2). Modeled by
//!    [`video::VideoLengthModel`] and [`ComputeTimeModel`].
//!
//! [`profiles::ModelProfile`] ties these together per neural network:
//! real parameter counts from the paper (which drive communication cost and
//! the Table 5 transfer overhead) plus a compute-time model (which drives
//! straggler behaviour).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
mod compute;
mod hetero;
pub mod profiles;
pub mod trace;
pub mod transfer;
pub mod video;

pub use compute::{lognormal_params_for, ComputeTimeModel};
pub use hetero::{DelayModel, HeterogeneityModel};
pub use profiles::ModelProfile;
