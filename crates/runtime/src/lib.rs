//! # rna-runtime
//!
//! Real executions of the RNA protocol — the second and third of the
//! repo's three worlds (the first being `rna_core::sim`'s discrete-event
//! simulator):
//!
//! * **Threaded** ([`run_threaded`]): every worker is an OS thread in
//!   this process, writing the controller's mirror directly.
//! * **Process** ([`run_process`]): every worker is a subprocess
//!   (`rna-worker`) speaking a length-delimited TCP protocol ([`proto`])
//!   to a coordinator. Crashes are real `SIGKILL`s/aborts, partitions
//!   are severed sockets, and rejoin re-spawns the binary from a
//!   checkpointed iteration count.
//!
//! The paper implements RNA with two threads per process — computation on
//! the GPU, communication via background MPI (§3.3/§6). This crate
//! reproduces that split with actual concurrency, and holds one copy of
//! each role: one worker loop (`worker::Worker::run` — compute, encode,
//! deposit, honoring the bounded-lead gate) that a thread or a subprocess
//! executes over its `WorkerLink`; one `Mirror` of the cluster that workers
//! (or the socket readers standing in for them) write; and one controller
//! that reads it, drives the [`SyncMode`]'s election (rna-core's one
//! `Election`, which the simulator drives too) until RNA's probed worker,
//! eager-SGD's live majority or BSP's barrier fires, forces the partial
//! reduction and publishes parameters through the world's `Transport`. It
//! all exists to show the protocol is implementable outside the simulator
//! and that the DES results are not simulation artifacts; the integration
//! tests cross-check the three worlds.
//!
//! ## Crash tolerance
//!
//! The runtime executes the shared fault model of [`rna_core::fault`] on
//! real workers: a [`FaultPlan`] can crash a worker after an exact
//! iteration count, freeze it for a duration, or slow it forever.
//! Workers heartbeat into the mirror; the controller probes and counts
//! majorities over *live* workers only, resamples initiators away from
//! dead ones, and completes unservable rounds degraded instead of
//! blocking. [`ThreadedResult`] reports each worker's
//! [`WorkerFate`] and the number of degraded rounds.
//!
//! ## Control-plane tolerance
//!
//! The controller itself runs under a lease: each incarnation heartbeats
//! every round and checkpoints the control plane (master, optimizer
//! velocity, round counter, tallies) to a warm-standby slot — and, when
//! [`ThreadedConfig::recovery_dir`] is set, to disk via
//! `rna_core::recovery::CheckpointStore`. A crashed controller is replaced
//! after the lease expires by a standby that replays from the last
//! checkpoint; a killed *process* is resumed with [`resume_threaded`] from
//! the newest disk checkpoint.
//!
//! # Examples
//!
//! ```
//! use rna_runtime::{run_threaded, SyncMode, ThreadedConfig};
//!
//! let config = ThreadedConfig::quick(3, SyncMode::Rna);
//! let result = run_threaded(&config);
//! assert_eq!(result.rounds, config.rounds);
//! assert!(result.final_loss.is_finite());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod faultproxy;
pub mod process;
pub mod proto;
mod threaded;
mod transport;
pub mod worker;

pub use process::{run_process, AddrBook, ProcessConfig, ProcessResult};
pub use proto::{ct_eq, AuthError, AuthKey};
pub use rna_core::fault::{FaultPlan, NetFaultPlan, ToleranceConfig, WorkerFate, WorkerFault};
pub use rna_core::SyncMode;
pub use rna_tensor::codec::Compression;
pub use threaded::{resume_threaded, run_threaded, ThreadedConfig, ThreadedResult};
