//! # rna-simnet
//!
//! A deterministic discrete-event simulation substrate.
//!
//! The paper's evaluation is a set of *timing phenomena* — which worker waits
//! for which, and for how long, under injected heterogeneity. This crate
//! provides the machinery to reproduce those phenomena exactly and
//! deterministically on a single machine:
//!
//! * [`SimTime`] / [`SimDuration`] — a virtual clock with nanosecond
//!   resolution.
//! * [`EventQueue`] — a time-ordered event queue with FIFO tie-breaking, the
//!   heart of every protocol engine in `rna-core` and `rna-baselines`.
//! * [`SimRng`] — a seeded, forkable ChaCha-based RNG with the distributions
//!   the workloads need (uniform, normal, log-normal), so every experiment is
//!   reproducible from a single `u64` seed.
//! * [`net`] — link latency/bandwidth cost models and per-link network
//!   faults.
//! * [`trace`] — per-worker span accounting (compute / wait / communicate)
//!   for the Figure-1-style breakdowns.
//!
//! # Examples
//!
//! ```
//! use rna_simnet::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "b");
//! q.schedule(SimTime::ZERO, "a");
//! assert_eq!(q.pop().unwrap().1, "a");
//! assert_eq!(q.pop().unwrap().1, "b");
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod net;
mod queue;
mod rng;
mod time;
pub mod trace;

pub use net::{LinkModel, NetFaults, NetworkModel};
pub use queue::EventQueue;
pub use rng::{SimRng, SimRngState};
pub use time::{SimDuration, SimTime};
