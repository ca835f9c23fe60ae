//! Run results: what a protocol engine reports when a training run ends.

use rna_simnet::trace::TimeBreakdown;
use rna_simnet::SimDuration;
use rna_tensor::wire::{self, Reader};
use rna_training::History;
use rna_workload::trace::WorkloadTrace;

use crate::fault::WorkerFate;
use crate::timeline::Timeline;

/// Why a training run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The evaluation loss reached the configured target.
    TargetReached,
    /// Early stopping fired (loss stopped improving).
    EarlyStopped,
    /// The virtual-time budget ran out.
    MaxTime,
    /// The global-round budget ran out.
    MaxRounds,
    /// The event queue drained (protocol quiesced).
    Idle,
}

/// The full outcome of one simulated training run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Protocol name (e.g. `"rna"`, `"horovod"`).
    pub protocol: String,
    /// Virtual time at which the run stopped.
    pub wall_time: SimDuration,
    /// Number of global synchronization rounds executed.
    pub global_rounds: u64,
    /// Local iterations completed per worker.
    pub worker_iterations: Vec<u64>,
    /// Convergence history (evaluation loss/accuracy over virtual time).
    pub history: History,
    /// Per-worker compute/wait/communicate breakdown.
    pub breakdown: Vec<TimeBreakdown>,
    /// Total bytes the protocol moved on the network.
    pub comm_bytes: u64,
    /// Sum over rounds of the fraction of workers that contributed
    /// gradients (1.0 for BSP; ≈0.5–0.9 for partial collectives).
    pub participation_sum: f64,
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// Top-5 accuracy at the final evaluation (0 for regression tasks).
    pub final_top5: f64,
    /// Every iteration's compute duration per worker, replayable through
    /// [`rna_workload::ComputeTimeModel::Empirical`].
    pub workload_trace: WorkloadTrace,
    /// Per-worker execution timeline (span transitions, capped).
    pub timeline: Timeline,
    /// Post-mortem verdict per worker (all `Healthy` on fault-free runs).
    pub worker_fates: Vec<WorkerFate>,
    /// The run ledger: the tallies every execution world reports.
    pub counters: Counters,
}

impl std::ops::Deref for RunResult {
    type Target = Counters;

    fn deref(&self) -> &Counters {
        &self.counters
    }
}

/// The run ledger: the tallies all three execution worlds report, with one
/// meaning each. [`RunResult`] and the runtimes' `ThreadedResult` embed it
/// and deref to it, so `result.bytes_on_wire` reads the same in every world;
/// the DES engine and the runtime controller increment it in place and
/// checkpoint it through [`Counters::encode_into`], the only code that knows
/// its binary layout. A counter a world cannot produce stays 0 there.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Messages the fabric dropped (lossy links, flaps, partitions, and in
    /// the process world writes a severed socket ate).
    pub messages_dropped: u64,
    /// Probe rounds re-issued after a timeout (dropped probe or reply).
    pub probe_retries: u64,
    /// Rounds in which some live node was unreachable — a PS exchange was
    /// skipped or a reduce excluded a partitioned member.
    pub partition_rounds: u64,
    /// Controller failovers: times a warm standby bumped the term and took
    /// over after the active controller's lease expired.
    pub controller_failovers: u64,
    /// Rounds lost across all controller failovers. In the DES worker state
    /// survives, so each takeover costs the one abandoned probe round; in
    /// the real worlds it is the progress redone since the last checkpoint
    /// (crash round minus checkpoint round, summed).
    pub failover_rounds_lost: u64,
    /// Crash-consistent checkpoints written during the run.
    pub checkpoints_written: u64,
    /// Fresh tensor-buffer heap allocations performed by the reduce data
    /// path (cache drain, codec transform, collective, apply) over the
    /// whole run. Always 0 in release builds — the underlying hook is
    /// debug-only (see `rna_tensor::alloc`) — and flat after warm-up in
    /// debug builds, because the data path recycles pooled buffers.
    /// Excluded from bit-identity comparisons: pooling changes where
    /// buffers come from, never the numbers in them.
    pub datapath_allocs: u64,
    /// Bytes the gradient wire path put on the network after encoding
    /// (frames: codec payload plus per-message headers) — formula-charged
    /// in the DES and the threaded world, measured at the socket in the
    /// process world. Under `Compression::Lossless` the DES charge equals
    /// the legacy (unframed) gradient charge, so it is a strict subset of
    /// [`RunResult::comm_bytes`] (which also counts probes and control
    /// traffic). The parameter broadcast is not counted.
    pub bytes_on_wire: u64,
    /// Bytes the selected codec saved versus shipping the same exchanges
    /// losslessly (`lossless-equivalent − bytes_on_wire`; 0 for
    /// `Lossless`).
    pub bytes_saved: u64,
    /// Accumulated L2 norm of the error-feedback residuals left behind by
    /// lossy encodes (one term per encoded gradient; exactly 0.0 for
    /// `Lossless`). A bounded value across a long run is the signature of
    /// a convergent lossy codec.
    pub codec_error_l2: f64,
    /// Workers admitted mid-run under a `ChurnPlan` (each streamed a
    /// model snapshot and granted fresh RNG streams).
    pub workers_joined: u64,
    /// Workers that left mid-run under a `ChurnPlan` — graceful
    /// retirements (final contribution drained) plus evictions.
    pub workers_retired: u64,
    /// Online regroup events: times the hierarchical topology was
    /// re-split from live speed estimates and swapped at a quiesce point.
    /// Always 0 for flat protocols and in the real worlds.
    pub regroup_events: u64,
    /// Bytes of model snapshot streamed to joining workers during
    /// admission (parameters only; framing excluded).
    pub snapshot_bytes_streamed: u64,
}

impl Counters {
    /// Appends the ledger to a checkpoint payload, in declaration order.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, self.messages_dropped);
        wire::put_u64(out, self.probe_retries);
        wire::put_u64(out, self.partition_rounds);
        wire::put_u64(out, self.controller_failovers);
        wire::put_u64(out, self.failover_rounds_lost);
        wire::put_u64(out, self.checkpoints_written);
        wire::put_u64(out, self.datapath_allocs);
        wire::put_u64(out, self.bytes_on_wire);
        wire::put_u64(out, self.bytes_saved);
        wire::put_f64(out, self.codec_error_l2);
        wire::put_u64(out, self.workers_joined);
        wire::put_u64(out, self.workers_retired);
        wire::put_u64(out, self.regroup_events);
        wire::put_u64(out, self.snapshot_bytes_streamed);
    }

    /// Reads a ledger written by [`Counters::encode_into`], or `None` if
    /// the input is truncated.
    pub fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(Counters {
            messages_dropped: r.u64()?,
            probe_retries: r.u64()?,
            partition_rounds: r.u64()?,
            controller_failovers: r.u64()?,
            failover_rounds_lost: r.u64()?,
            checkpoints_written: r.u64()?,
            datapath_allocs: r.u64()?,
            bytes_on_wire: r.u64()?,
            bytes_saved: r.u64()?,
            codec_error_l2: r.f64()?,
            workers_joined: r.u64()?,
            workers_retired: r.u64()?,
            regroup_events: r.u64()?,
            snapshot_bytes_streamed: r.u64()?,
        })
    }
}

impl RunResult {
    /// Total local iterations across all workers.
    pub fn total_iterations(&self) -> u64 {
        self.worker_iterations.iter().sum()
    }

    /// Mean participation per round (`NaN`-free: 0 when no rounds ran).
    pub fn mean_participation(&self) -> f64 {
        if self.global_rounds == 0 {
            0.0
        } else {
            self.participation_sum / self.global_rounds as f64
        }
    }

    /// Virtual seconds to reach `target` loss, if it was reached.
    pub fn time_to_loss(&self, target: f64) -> Option<f64> {
        self.history.time_to_loss(target)
    }

    /// Final evaluation loss (`None` when nothing was evaluated).
    pub fn final_loss(&self) -> Option<f64> {
        self.history.final_loss()
    }

    /// Final evaluation accuracy.
    pub fn final_accuracy(&self) -> Option<f64> {
        self.history.final_accuracy()
    }

    /// Best (highest) evaluation accuracy seen.
    pub fn best_accuracy(&self) -> Option<f64> {
        self.history.best_accuracy()
    }

    /// Mean virtual time per global round.
    pub fn mean_round_time(&self) -> SimDuration {
        if self.global_rounds == 0 {
            SimDuration::ZERO
        } else {
            self.wall_time / self.global_rounds
        }
    }

    /// Throughput in worker-iterations per virtual second.
    pub fn iteration_throughput(&self) -> f64 {
        let t = self.wall_time.as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            self.total_iterations() as f64 / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> RunResult {
        let mut history = History::new();
        history.record(1.0, 1, 2.0, 0.3);
        history.record(2.0, 2, 1.0, 0.6);
        RunResult {
            protocol: "test".into(),
            wall_time: SimDuration::from_secs(2),
            global_rounds: 4,
            worker_iterations: vec![3, 5],
            history,
            breakdown: vec![TimeBreakdown::default(); 2],
            comm_bytes: 1000,
            participation_sum: 3.0,
            stop_reason: StopReason::MaxTime,
            final_top5: 0.0,
            workload_trace: WorkloadTrace::new(2),
            timeline: Timeline::default(),
            worker_fates: vec![WorkerFate::Healthy; 2],
            counters: Counters::default(),
        }
    }

    #[test]
    fn aggregates() {
        let r = sample();
        assert_eq!(r.total_iterations(), 8);
        assert_eq!(r.mean_participation(), 0.75);
        assert_eq!(r.mean_round_time(), SimDuration::from_millis(500));
        assert_eq!(r.iteration_throughput(), 4.0);
        assert_eq!(r.final_loss(), Some(1.0));
        assert_eq!(r.final_accuracy(), Some(0.6));
        assert_eq!(r.best_accuracy(), Some(0.6));
        assert_eq!(r.time_to_loss(1.5), Some(2.0));
        assert_eq!(r.time_to_loss(0.5), None);
    }

    proptest! {
        /// `decode` then `encode_into` is the identity on bytes for every
        /// bit pattern of every field — so the two agree on the layout and
        /// every field value (NaN payloads included) round-trips — and no
        /// strict prefix decodes.
        #[test]
        fn counters_codec_is_a_bijection_on_bytes(
            words in proptest::collection::vec(any::<u64>(), 14..15),
        ) {
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let mut r = Reader::new(&bytes);
            let counters = Counters::decode(&mut r).expect("fourteen words decode");
            prop_assert_eq!(r.remaining(), 0);
            let mut back = Vec::new();
            counters.encode_into(&mut back);
            prop_assert_eq!(&back, &bytes);
            for cut in 0..bytes.len() {
                prop_assert!(Counters::decode(&mut Reader::new(&bytes[..cut])).is_none());
            }
        }
    }

    #[test]
    fn zero_round_run_is_safe() {
        let mut r = sample();
        r.global_rounds = 0;
        r.wall_time = SimDuration::ZERO;
        assert_eq!(r.mean_participation(), 0.0);
        assert_eq!(r.mean_round_time(), SimDuration::ZERO);
        assert_eq!(r.iteration_throughput(), 0.0);
    }
}
