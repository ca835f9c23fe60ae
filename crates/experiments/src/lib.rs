//! # rna-experiments
//!
//! The reproduction harness: one runner per table and figure of the paper's
//! evaluation (§7–8), plus the [`table`] text renderer and the shared
//! [`common`] configuration layer that maps the paper's four workloads onto
//! the simulator.
//!
//! Every runner is exposed both as a library function (used by the
//! integration tests) and through the `repro` binary:
//!
//! ```text
//! repro fig1    # training-time breakdown under injected slowdowns
//! repro fig2    # inherent load imbalance (UCF101 lengths / LSTM batches)
//! repro fig6    # training speedup vs Horovod / eager-SGD / AD-PSGD
//! repro table3  # final training accuracy
//! repro fig7    # LSTM convergence curves
//! repro table4  # validation accuracy and iteration counts
//! repro fig8    # Transformer per-iteration and overall speedup
//! repro fig9    # throughput scalability, 4 → 32 workers
//! repro fig10   # probe-count sensitivity (power of two choices)
//! repro table5  # GPU↔CPU transmission overhead
//! repro all     # everything above, in order
//! ```
//!
//! The experiments use reduced worker counts and synthetic tasks (see
//! DESIGN.md's substitution ledger); EXPERIMENTS.md records paper-reported
//! vs measured values for every row.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod common;
pub mod runners;
pub mod table;

pub use common::{run_approach, Approach, ExperimentScale};
