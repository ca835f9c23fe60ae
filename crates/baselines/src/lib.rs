//! # rna-baselines
//!
//! The synchronization strategies the paper compares RNA against (§7.3),
//! implemented as [`rna_core::sim::Protocol`]s so every comparison runs on
//! identical gradients and timing models:
//!
//! * [`HorovodProtocol`] — the state-of-the-art BSP baseline: strict global
//!   barrier, negotiation with the coordinator, ring AllReduce of the mean
//!   gradient. The slowest worker bounds every iteration.
//! * [`AdPsgdProtocol`] — asynchronous decentralized parallel SGD
//!   (Lian et al.): after each local step a worker atomically averages its
//!   model with one random neighbor. No global barrier, but atomic
//!   averaging serializes conflicting sessions — the overhead the paper
//!   calls out.
//! * [`SgpProtocol`] — stochastic gradient push (Assran et al.): pairwise
//!   gossip on a time-varying exponential graph, one neighbor exchange per
//!   iteration with a per-iteration barrier; local updates propagate in
//!   O(log P) rounds.
//!
//! eager-SGD (Li et al.), the third §7.3 baseline, differs from RNA only in
//! what fires the partial collective, so it is RNA's own driver:
//! `rna_core::rna::RnaProtocol` under `Election::Majority`.
//!
//! Two further §9 reference points round out the design space:
//!
//! * [`BackupWorkersProtocol`] — synchronous SGD that proceeds with the
//!   fastest `n − b` gradients and discards stragglers' work (Chen et
//!   al. 2016).
//! * [`AsyncPsProtocol`] — the centralized asynchronous parameter server,
//!   whose serialized server link is the communication hotspot that
//!   motivates decentralized AllReduce (§2.2).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod adpsgd;
mod async_ps;
mod backup;
mod horovod;
mod sgp;

pub use adpsgd::AdPsgdProtocol;
pub use async_ps::AsyncPsProtocol;
pub use backup::BackupWorkersProtocol;
pub use horovod::HorovodProtocol;
pub use sgp::SgpProtocol;
