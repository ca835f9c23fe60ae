//! # rna-baselines
//!
//! The synchronization strategies the paper compares RNA against (§7.3)
//! that communicate differently from it, implemented as
//! [`rna_core::sim::Protocol`]s so every comparison runs on identical
//! gradients and timing models:
//!
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
//! The baselines that differ from RNA only in what fires the collective
//! are RNA's own driver, `rna_core::rna::RnaProtocol`, under another
//! `SyncMode`: eager-SGD (Li et al.) is `EagerMajority`, Horovod's strict
//! barrier is `Bsp` and §9's backup workers (Chen et al. 2016), which
//! proceed with the fastest `n − b` gradients and drop the rest, are
//! `Backup(b)`. [`HorovodProtocol`] remains as the barrier's constructor.
//! The centralized asynchronous parameter server (§2.2, §9) is the
//! hierarchy's parameter-server stage over groups of one,
//! `RnaProtocol::async_ps`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod adpsgd;
#[cfg(test)]
mod backup;
#[cfg(test)]
mod horovod;
mod sgp;

pub use adpsgd::AdPsgdProtocol;
pub use sgp::SgpProtocol;

use rna_core::rna::RnaProtocol;
use rna_core::{RnaConfig, SyncMode};

/// Horovod (BSP ring AllReduce with tensor fusion): RNA's driver under
/// `SyncMode::Bsp`. Kept as a constructor because the benchmark
/// package builds its baseline through it.
///
/// # Examples
///
/// ```
/// use rna_baselines::HorovodProtocol;
/// use rna_core::sim::{Engine, TrainSpec};
///
/// let result = Engine::new(TrainSpec::smoke_test(4, 1), HorovodProtocol::new(4)).run();
/// assert_eq!(result.protocol, "horovod");
/// assert!(result.mean_participation() > 0.99); // BSP: everyone, every round
/// ```
#[derive(Debug)]
pub struct HorovodProtocol;

impl HorovodProtocol {
    /// The barrier over `n` workers.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(n: usize) -> RnaProtocol {
        RnaProtocol::new(n, RnaConfig::default(), 0).with_election(SyncMode::Bsp)
    }
}
