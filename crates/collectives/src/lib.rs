//! # rna-collectives
//!
//! Collective-communication primitives: ring AllReduce, partial AllReduce,
//! and broadcast.
//!
//! Two layers live here:
//!
//! * **Data movement** ([`ring`], [`partial`]) — faithful chunk-by-chunk
//!   implementations operating on in-memory buffers, used by the protocol
//!   engines to produce the *numerical* result of a collective. The ring
//!   implementation follows §2.2 of the paper exactly: `N−1` reduce-scatter
//!   steps followed by `N−1` all-gather steps over 1/N-sized chunks.
//! * **Cost models** ([`cost`]) — the virtual-time price of each collective
//!   under the α–β link model, including the bandwidth-optimality property
//!   the paper leans on (per-worker traffic `2(N−1)/N × bytes`, independent
//!   of N), plus framed variants that charge each message's encoded frame
//!   (codec header included), which is how the simulator bills lossy rings.
//!
//! Partial AllReduce ([`partial::partial_allreduce`]) is the paper's §3
//! primitive: workers that have no gradient ready contribute a *null*
//! tensor (weight 0); contributors are averaged with weight
//! `W = 1 / Σ w_{k,i}` (Algorithm 2).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod partial;
pub mod ring;

pub use cost::CollectiveCost;
pub use partial::{partial_allreduce, partial_allreduce_pooled, PartialOutcome};
pub use ring::{ring_allreduce, ring_allreduce_pooled, ring_broadcast};
