//! # rna-core
//!
//! The paper's contribution: **RNA — Randomized Non-blocking AllReduce**
//! (Yang, Rang, Cheng; Middleware '20), plus the simulation harness every
//! synchronization protocol in this workspace runs on.
//!
//! ## The protocol
//!
//! Ring AllReduce under Bulk Synchronous Parallel waits for the slowest
//! worker every iteration. RNA relaxes the barrier in three moves:
//!
//! 1. **Randomized initiator with power-of-two-choices probing**
//!    ([`probe`]) — a central scheduler that keeps *no* progress state
//!    probes `d = 2` random workers per round; the first to have a gradient
//!    ready becomes the initiator and forces the collective (§3.1–3.2).
//! 2. **Partial, non-blocking AllReduce** ([`rna`], building on
//!    `rna-collectives`) — workers that are not ready contribute a null
//!    gradient; contributors are averaged with weight `W = 1/Σw` and the
//!    learning rate is rescaled by `Σw` (Linear Scaling Rule, Alg. 2).
//!    Compute and communication run on separate tracks, so workers keep
//!    training across iterations; lagging gradients accumulate in a
//!    [`cache::GradientCache`] with staleness-linear weights and bounded
//!    staleness (§3.3, Fig. 4).
//! 3. **Hierarchical synchronization** ([`hier`], [`grouping`]) — under
//!    *deterministic* heterogeneity the cluster is recursively split into
//!    speed-homogeneous groups (while ζ > v); RNA runs inside each group and
//!    groups exchange parameters asynchronously through a parameter server,
//!    with the group initiator broadcasting the pulled model (§4, Fig. 5).
//!
//! ## The harness
//!
//! [`sim`] is a deterministic discrete-event engine that owns the training
//! state (one model replica, optimizer, and batch stream per worker; real
//! gradients from `rna-training`) and delegates *synchronization policy* to
//! a [`sim::Protocol`] implementation. RNA lives here, and so do eager-SGD,
//! Horovod's barrier and backup workers as other triggers of its driver;
//! AD-PSGD, SGP and the async PS are `rna-baselines`' implementations of
//! the same trait, which keeps the head-to-head comparisons apples-to-apples.
//!
//! # Examples
//!
//! ```
//! use rna_core::rna::RnaProtocol;
//! use rna_core::sim::{Engine, TrainSpec};
//! use rna_core::RnaConfig;
//!
//! let spec = TrainSpec::smoke_test(4, 42);
//! let protocol = RnaProtocol::new(4, RnaConfig::default(), 7);
//! let result = Engine::new(spec, protocol).run();
//! assert!(result.global_rounds > 0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod cache;
mod config;
pub mod election;
pub mod fault;
pub mod grouping;
pub mod hier;
pub mod membership;
pub mod probe;
pub mod recovery;
pub mod rna;
pub mod sim;
pub mod stats;
pub mod timeline;

pub use config::RnaConfig;
pub use election::SyncMode;
pub use fault::{FaultPlan, ToleranceConfig, WorkerFate, WorkerFault};
pub use membership::{ChurnEvent, ChurnPlan, RegroupPolicy, SpeedEstimator};
pub use recovery::{CheckpointStore, RecoveryConfig, RecoveryError, RoundJournal};
pub use rna_tensor::Compression;
pub use stats::{RunResult, StopReason};
