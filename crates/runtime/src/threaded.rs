use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rna_core::election::{Election, SyncMode};
use rna_core::fault::{FaultPlan, NetFaultPlan, ToleranceConfig, WorkerFate};
use rna_core::membership::{ChurnPlan, Edge};
use rna_core::recovery::{CheckpointStore, RecoveryConfig, RecoveryError};
use rna_core::stats::Counters;
use rna_simnet::SimRng;
use rna_tensor::codec::FeedbackEncoder;
use rna_tensor::{Compression, Tensor, TensorPool};
use rna_training::{Dataset, Model};

use crate::proto::WorkerSetup;
use crate::transport::{
    load_ctrl_checkpoint, lock, past_workers, supervise, task, worker_streams, CtrlCheckpoint,
    Lineage, Mirror, Transport,
};
use crate::worker::{Gate, Stop, Worker, WorkerLink};

/// Configuration of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Number of worker threads.
    pub num_workers: usize,
    /// Number of synchronization rounds to execute.
    pub rounds: u64,
    /// Probes per round (RNA only).
    pub probes: usize,
    /// Per-worker compute time as a uniform microsecond range.
    pub compute_us: Vec<(u64, u64)>,
    /// Master seed.
    pub seed: u64,
    /// Synchronization mode.
    pub mode: SyncMode,
    /// Learning rate.
    pub lr: f32,
    /// Gradient-cache staleness bound (RNA and eager-SGD).
    pub staleness_bound: usize,
    /// Maximum iterations a worker may lead the round counter (RNA and eager-SGD).
    pub max_lead: u64,
    /// Per-worker mini-batch size.
    pub batch_size: usize,
    /// Injected worker faults (crashes, hangs, slowdowns, restarts). The
    /// partial-collective modes tolerate all of them; BSP tolerates only
    /// hangs and slowdowns (a crashed worker would stall its barrier
    /// forever).
    pub fault_plan: FaultPlan,
    /// Injected network faults (lossy links, flaps, partitions), executed
    /// by the controller's network-fault shim. BSP rejects
    /// these too: a single lost gradient wedges its barrier.
    pub net_fault_plan: NetFaultPlan,
    /// Liveness / deadline / backoff knobs for the fault-tolerance paths.
    pub tolerance: ToleranceConfig,
    /// Rounds between controller checkpoints (warm-standby slot, plus disk
    /// when `recovery_dir` is set). Must be nonzero.
    pub checkpoint_every: u64,
    /// When set, controller checkpoints are also written to this directory
    /// (crash-consistently, via [`CheckpointStore`]) so a killed process
    /// can be resumed with [`resume_threaded`].
    pub recovery_dir: Option<PathBuf>,
    /// Gradient wire codec for the partial-collective modes (RNA and
    /// eager-majority): every worker encodes each gradient before it
    /// deposits it, so the controller receives
    /// `decode(encode(grad + residual))` with the dropped remainder carried
    /// in the worker's own error-feedback residual, and `bytes_on_wire`
    /// counts the frames actually produced. BSP ignores it (its barrier
    /// hands raw gradients over and tallies no wire bytes). The default
    /// `Lossless` leaves gradients untouched.
    pub compression: Compression,
    /// Deterministic mid-run membership changes (joins, retirements,
    /// evictions), replayed at global round edges. `num_workers` is the
    /// slot *capacity*: workers named in a join event start dormant (no
    /// compute, no elections, no majorities) until their round arrives.
    /// BSP rejects a non-empty plan — its barrier counts every worker.
    pub churn_plan: ChurnPlan,
}

impl ThreadedConfig {
    /// A fast homogeneous configuration for tests: 1–2 ms compute, 30
    /// rounds.
    pub fn quick(num_workers: usize, mode: SyncMode) -> Self {
        ThreadedConfig {
            num_workers,
            rounds: 30,
            probes: 2,
            compute_us: vec![(1_000, 2_000); num_workers],
            seed: 7,
            mode,
            lr: 0.2,
            staleness_bound: 4,
            max_lead: 8,
            batch_size: 16,
            fault_plan: FaultPlan::none(),
            net_fault_plan: NetFaultPlan::none(),
            tolerance: ToleranceConfig::default(),
            checkpoint_every: 5,
            recovery_dir: None,
            compression: Compression::Lossless,
            churn_plan: ChurnPlan::none(),
        }
    }

    /// Makes the last worker a straggler with the given compute range.
    ///
    /// # Panics
    ///
    /// Panics if there are no workers.
    pub fn with_straggler(mut self, lo_us: u64, hi_us: u64) -> Self {
        let last = self
            .compute_us
            .last_mut()
            .expect("need at least one worker");
        *last = (lo_us, hi_us);
        self
    }

    /// Installs a fault plan (see [`rna_core::fault`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Installs a network fault plan (see the `net_fault_plan` field).
    pub fn with_net_fault_plan(mut self, plan: NetFaultPlan) -> Self {
        self.net_fault_plan = plan;
        self
    }

    /// Overrides the tolerance knobs (liveness timeout, round deadline,
    /// probe backoff). [`ToleranceConfig::tight`] makes fault tests fast.
    pub fn with_tolerance(mut self, tolerance: ToleranceConfig) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Sets the controller checkpoint cadence (rounds between warm-standby
    /// and disk checkpoints).
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Enables disk checkpoints under `dir` so the run can be resumed with
    /// [`resume_threaded`] after a process kill.
    pub fn with_recovery_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.recovery_dir = Some(dir.into());
        self
    }

    /// Installs an elastic-membership plan (see [`ChurnPlan`]). The plan
    /// is validated against the worker capacity and tolerance knobs when
    /// the run starts.
    pub fn with_churn_plan(mut self, plan: ChurnPlan) -> Self {
        self.churn_plan = plan;
        self
    }

    /// Selects the gradient wire codec (partial-collective modes only).
    ///
    /// # Panics
    ///
    /// Panics if the codec is `TopK` with `permille` outside `1..=1000`.
    pub fn with_compression(mut self, compression: Compression) -> Self {
        self.compression = compression
            .checked()
            .unwrap_or_else(|| panic!("TopK permille must be in 1..=1000, got {compression:?}"));
        self
    }
}

/// The outcome of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedResult {
    /// Rounds executed (degraded rounds included — the controller never
    /// blocks indefinitely, it completes every budgeted round).
    pub rounds: u64,
    /// Rounds that completed without applying an update because no
    /// gradient could be assembled (cluster dead or every cached gradient
    /// beyond the staleness bound).
    pub rounds_degraded: u64,
    /// Microseconds degraded rounds ran past `round_deadline_us`, summed.
    /// Waits are clamped to the true remaining budget, so this measures
    /// scheduler wake-up latency only; the earlier 1 ms-floored waits
    /// could legally overshoot by a millisecond per late contributor.
    pub deadline_overshoot_us: u64,
    /// Real elapsed wall-clock time.
    pub wall: Duration,
    /// Final loss over the full dataset.
    pub final_loss: f32,
    /// Final accuracy over the full dataset.
    pub final_accuracy: f32,
    /// Local iterations completed per worker.
    pub worker_iterations: Vec<u64>,
    /// Mean fraction of workers contributing per round.
    pub mean_participation: f64,
    /// Each worker's post-mortem, reported by the worker threads
    /// themselves as they execute the fault plan.
    pub worker_fates: Vec<WorkerFate>,
    /// The run ledger — the same tallies, with the same meaning, the
    /// simulator's `RunResult` reports. In this world `failover_rounds_lost`
    /// is real progress redone (crash round minus checkpoint round, summed),
    /// `checkpoints_written` counts warm-standby slot updates (the same
    /// count lands on disk when a recovery directory is configured), and the
    /// PS/regroup tallies stay 0: the runtime worlds are flat.
    pub counters: Counters,
}

impl std::ops::Deref for ThreadedResult {
    type Target = Counters;

    fn deref(&self) -> &Counters {
        &self.counters
    }
}

impl ThreadedResult {
    /// Workers still alive when the run finished.
    pub fn live_workers(&self) -> usize {
        self.worker_fates.iter().filter(|f| !f.is_dead()).count()
    }
}

/// What the threads of one run share: the mirror every world keeps, plus
/// the two things only shared memory has — per-worker parameter slots and
/// the condvar the lead gate parks on.
struct ThreadShared {
    mirror: Mirror,
    /// Each worker's view of the parameters. The controller publishes each
    /// round's master as one shared `Arc` snapshot — replacing `n` deep
    /// tensor clones with `n` refcount bumps. Snapshots are immutable once
    /// published; when the last slot lets go of one, the controller
    /// reclaims its buffer into the pool.
    params: Vec<Mutex<Arc<Tensor>>>,
    gate: Gate,
}

/// [`Transport`] over shared memory: parameters are "pushed" by swapping
/// `Arc` snapshots, the round counter by waking the gate.
impl Transport for &ThreadShared {
    fn push_params(
        &mut self,
        w: usize,
        _round: u64,
        snap: &Arc<Tensor>,
        pool: &mut TensorPool,
    ) -> bool {
        let prev = std::mem::replace(&mut *lock(&self.params[w]), Arc::clone(snap));
        // The last reference to the previous round's snapshot recycles its
        // buffer.
        if let Some(t) = Arc::into_inner(prev) {
            pool.release(t);
        }
        true
    }

    fn advance_round(&mut self, _k: u64) {
        self.gate.wake();
    }
}

/// [`WorkerLink`] over shared memory: the worker writes its own mirror slot
/// and reads its parameter slot; nothing is framed.
struct ThreadLink {
    shared: Arc<ThreadShared>,
    w: usize,
    /// The encode leg, its stochastic-rounding stream and the scratch its
    /// frames land in. `None` under BSP: the barrier hands raw gradients
    /// over in shared memory and tallies no wire bytes.
    encoder: Option<(FeedbackEncoder, SimRng, Vec<u8>)>,
}

impl ThreadLink {
    /// A planned joiner is dormant until admission: parked against the
    /// round counter. The controller streams the model snapshot into this
    /// worker's parameter slot before advancing the counter, so waking
    /// implies the snapshot is in place. `false` if the run ended first.
    fn await_admission(&self, at_round: u64) -> bool {
        let mirror = &self.shared.mirror;
        let dormant =
            || mirror.round.load(Ordering::Acquire) < at_round && !mirror.stop.is_raised();
        self.shared.gate.wait_while(Duration::MAX, dormant);
        if mirror.stop.is_raised() {
            return false;
        }
        mirror.beat(self.w);
        mirror.set_alive(self.w, true);
        true
    }
}

impl WorkerLink for ThreadLink {
    fn round(&self) -> u64 {
        self.shared.mirror.round.load(Ordering::Acquire)
    }

    fn stop(&self) -> &Stop {
        &self.shared.mirror.stop
    }

    fn park(&mut self, seen: u64, timeout: Duration) {
        let parked = || self.round() == seen && !self.stop().is_raised();
        self.shared.gate.wait_while(timeout, parked);
    }

    fn beat(&mut self, _iter: u64) {
        self.shared.mirror.beat(self.w);
    }

    fn refresh(&mut self, model: &mut dyn Model) {
        // The snapshot is immutable once published, so the lock is held
        // only for a refcount bump.
        let params = Arc::clone(&lock(&self.shared.params[self.w]));
        model.set_params(&params);
    }

    fn deposit(&mut self, iter: u64, mut grad: Tensor) {
        let mirror = &self.shared.mirror;
        mirror.beat(self.w);
        // Encode in place: the cache receives the wire-valued gradient and
        // the mirror the measured frame, exactly as a socket reader would
        // deliver them.
        let frame = self.encoder.as_mut().map(|(encoder, wire, scratch)| {
            scratch.clear();
            encoder.encode(&mut grad, scratch, wire)
        });
        mirror.deposit(self.w, iter, grad, frame);
        mirror.notify();
    }

    fn die(&mut self, down_for: Option<Duration>) -> bool {
        // Flag it so the controller stops probing / counting this worker
        // immediately. A crash-restart is indistinguishable from a crash
        // while down; then the worker comes back, pulls the current model
        // from its parameter slot (the controller keeps pushing to it), and
        // re-enters the liveness view via its next heartbeat.
        let mirror = &self.shared.mirror;
        mirror.set_alive(self.w, false);
        if !down_for.is_some_and(|d| mirror.stop.sleep(d)) {
            return false;
        }
        mirror.set_alive(self.w, true);
        true
    }
}

/// Runs a full training session on real OS threads and returns the result.
///
/// The controller never blocks indefinitely: every wait carries a timeout,
/// probe rounds are resampled away from dead workers, the eager majority
/// is recomputed over live workers only, and a round whose trigger has not
/// fired by the round deadline completes *degraded* (no update) instead of
/// stalling — under the BSP barrier too.
///
/// # Panics
///
/// Panics if the configuration is inconsistent (zero workers/rounds, a
/// `compute_us` list of the wrong length, a fault plan naming an absent
/// worker, an invalid [`ToleranceConfig`], a crash injected under
/// [`SyncMode::Bsp`], whose barrier cannot survive one, or
/// [`SyncMode::Backup`], which only the simulator runs).
pub fn run_threaded(config: &ThreadedConfig) -> ThreadedResult {
    validate_config(config);
    run(config, task(config.seed), None)
}

/// Resumes a run whose process died, from the newest disk checkpoint under
/// `config.recovery_dir`.
///
/// The checkpoint captures the *control plane*: master parameters,
/// optimizer velocity, the round counter, and the controller tallies.
/// Worker threads restart fresh (their in-memory caches died with the
/// process) and pull the checkpointed master on their first iteration, so
/// the resumed loss trajectory matches the uninterrupted run approximately
/// rather than bit-for-bit — real threads are wall-clock nondeterministic
/// anyway. Both runs converge to the same region; the deterministic
/// bit-identical resume story lives in the simulator
/// (`rna_core::sim::Engine::resume`).
///
/// # Errors
///
/// [`RecoveryError::Missing`] when no checkpoint exists, [`RecoveryError::Io`]
/// for filesystem failures, and [`RecoveryError::Corrupt`] when no generation
/// validates or the newest does not fit `config` (model size, round budget).
///
/// # Panics
///
/// Panics on an invalid configuration (see [`run_threaded`]), if
/// `recovery_dir` is unset, or under [`SyncMode::Bsp`], which has no
/// checkpoint machinery.
pub fn resume_threaded(config: &ThreadedConfig) -> Result<ThreadedResult, RecoveryError> {
    validate_config(config);
    assert!(
        config.mode != SyncMode::Bsp,
        "checkpoint/resume is implemented for the partial-collective modes"
    );
    let dir = config
        .recovery_dir
        .as_ref()
        .expect("resume_threaded requires recovery_dir");
    let store = CheckpointStore::new(dir).map_err(RecoveryError::Io)?;
    let task = task(config.seed);
    let ck = load_ctrl_checkpoint(&store, task.2.params().len(), config.rounds)?;
    Ok(run(config, task, Some(ck)))
}

pub(crate) fn validate_config(config: &ThreadedConfig) {
    assert!(config.num_workers > 0, "need at least one worker");
    assert!(config.rounds > 0, "need at least one round");
    assert_eq!(
        config.compute_us.len(),
        config.num_workers,
        "one compute range per worker"
    );
    if let Some(max) = config.fault_plan.max_worker() {
        assert!(max < config.num_workers, "fault plan names worker {max}");
    }
    config.net_fault_plan.validate(config.num_workers);
    // The election validates the tolerance knobs that pace its retries.
    Election::new(config.mode, config.probes, &config.tolerance);
    if let Err(e) = config.churn_plan.validate(config.num_workers) {
        panic!("invalid churn plan: {e}");
    }
    if let Err(e) = (RecoveryConfig {
        every: config.checkpoint_every,
    })
    .validate()
    {
        panic!("invalid checkpoint cadence: {e}");
    }
    assert!(
        !matches!(config.mode, SyncMode::Backup(_)),
        "backup workers run in the simulator only: the real worlds' barrier \
         has no drain that returns late reports to the pool"
    );
    if config.mode == SyncMode::Bsp {
        assert!(
            config.fault_plan.faults().iter().all(|(_, f)| !f.kills()),
            "BSP cannot survive a crash: its barrier waits for every worker"
        );
        assert!(
            config.net_fault_plan.is_empty(),
            "BSP cannot survive network faults: one lost gradient wedges its barrier"
        );
        assert!(
            config.fault_plan.controller_crashes().is_empty(),
            "BSP has no standby controller: a controller crash ends the run"
        );
        assert!(
            config.churn_plan.is_empty(),
            "BSP cannot change membership: its barrier counts every worker"
        );
    }
}

/// One threaded run in any [`SyncMode`]: a thread per worker executing the
/// shared worker loop over a [`ThreadLink`], and the shared controller
/// supervised on this thread. The stop ends every in-flight injected wait.
fn run(
    config: &ThreadedConfig,
    (rng, dataset, template): (SimRng, Arc<Dataset>, Box<dyn Model>),
    resume: Option<CtrlCheckpoint>,
) -> ThreadedResult {
    let n = config.num_workers;
    let start = Instant::now();
    let state = resume.unwrap_or_else(|| CtrlCheckpoint::initial(template.params().clone()));
    let init_params = Arc::new(state.master.clone());
    let shared = Arc::new(ThreadShared {
        // Workers yet to join stay out of every liveness view until their
        // admission round arrives.
        mirror: Mirror::new(config, start, state.round, |w| {
            config.churn_plan.tenure(w).join.is_none()
        }),
        params: (0..n)
            .map(|_| Mutex::new(Arc::clone(&init_params)))
            .collect(),
        gate: Gate::default(),
    });
    let handles: Vec<_> = (0..n)
        .map(|w| {
            let rounds = (state.round, state.round);
            let setup = WorkerSetup::for_worker(config, w, (0, 0), rounds, state.master.clone());
            let streams = worker_streams(&rng, w as u64, setup.rng_grant);
            let mut me = Worker::new(
                setup,
                Arc::clone(&dataset),
                template.clone_model(),
                streams.sampler,
                streams.compute,
            );
            let mut link = ThreadLink {
                shared: Arc::clone(&shared),
                w,
                encoder: (config.mode != SyncMode::Bsp).then(|| {
                    (
                        FeedbackEncoder::new(config.compression),
                        streams.wire,
                        Vec::new(),
                    )
                }),
            };
            let join_round = config.churn_plan.tenure(w).join;
            std::thread::spawn(move || -> WorkerFate {
                if join_round.is_some_and(|j| !link.await_admission(j)) {
                    return me.faults.fate();
                }
                let departed = me.run(&mut link);
                if departed.is_some() {
                    link.shared.mirror.set_alive(w, false);
                }
                departed.unwrap_or_else(|| me.faults.fate())
            })
        })
        .collect();

    let store = config
        .recovery_dir
        .as_ref()
        .map(|dir| CheckpointStore::new(dir).expect("recovery directory must be writable"));
    let mirror = &shared.mirror;
    let mut lineage = Lineage::default();
    // Coordinator-level kills exist only in the process world.
    let final_state = supervise(
        config,
        mirror,
        &mut &*shared,
        &mut past_workers(&rng, n as u64),
        state,
        store.as_ref(),
        None,
        &mut lineage,
    )
    .expect("no abort round was scheduled");
    mirror.stop.raise();
    shared.gate.wake();
    let workers = handles
        .into_iter()
        .enumerate()
        .map(|(w, h)| {
            let iters = || mirror.slots[w].iterations.load(Ordering::Acquire);
            // A panicked worker thread is recorded as a crash instead of
            // taking the whole run down with it.
            let fate = h
                .join()
                .unwrap_or_else(|_| WorkerFate::Crashed { at_iter: iters() });
            (iters(), fate)
        })
        .collect();
    finish(
        config,
        dataset,
        template,
        start,
        workers,
        final_state,
        &lineage,
    )
}

/// Composes the result both real worlds report: evaluates the final master,
/// settles the planned-departure fates, and closes the ledger by merging in
/// the failover tallies `lineage` kept outside the checkpointed state.
/// `workers` is each worker's completed iterations and self-reported fate.
pub(crate) fn finish(
    config: &ThreadedConfig,
    dataset: Arc<Dataset>,
    template: Box<dyn Model>,
    start: Instant,
    workers: Vec<(u64, WorkerFate)>,
    final_state: CtrlCheckpoint,
    lineage: &Lineage,
) -> ThreadedResult {
    let wall = start.elapsed();
    let mut model = template;
    model.set_params(&final_state.master);
    let eval = model.evaluate(&dataset.full_batch());
    let (worker_iterations, mut worker_fates): (Vec<u64>, Vec<WorkerFate>) =
        workers.into_iter().unzip();
    // The controller is authoritative for planned departures: a retiree
    // whose round has passed may still be mid-exit when the stop flag
    // lands (its self-report would say Healthy), so compose the fate from
    // the plan. Only Healthy is upgraded — a worker that died before its
    // scheduled departure keeps the death verdict.
    for (w, edge) in config.churn_plan.edges(..=config.rounds) {
        if let Edge::Leave(fate) = edge {
            if worker_fates[w] == WorkerFate::Healthy {
                worker_fates[w] = fate;
            }
        }
    }
    ThreadedResult {
        rounds: config.rounds,
        rounds_degraded: final_state.rounds_degraded,
        deadline_overshoot_us: final_state.deadline_overshoot_us,
        wall,
        final_loss: eval.loss,
        final_accuracy: eval.top1,
        worker_iterations,
        // Rounds redone after a failover died with their incarnation's
        // tallies, so the surviving lineage counts every round exactly once.
        mean_participation: final_state.participation_sum / config.rounds as f64,
        worker_fates,
        counters: Counters {
            controller_failovers: lineage.controller_failovers,
            failover_rounds_lost: lineage.failover_rounds_lost,
            ..final_state.counters
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsp_threaded_trains() {
        let config = ThreadedConfig::quick(3, SyncMode::Bsp);
        let r = run_threaded(&config);
        assert_eq!(r.rounds, 30);
        assert!(r.final_loss < 1.4, "loss {}", r.final_loss);
        assert!(r.final_accuracy > 0.5, "acc {}", r.final_accuracy);
        // BSP: every worker did exactly one iteration per round.
        assert!(r.worker_iterations.iter().all(|&i| i == 30));
        assert_eq!(r.mean_participation, 1.0);
        assert!(r.worker_fates.iter().all(|f| *f == WorkerFate::Healthy));
        assert_eq!(r.rounds_degraded, 0);
        assert_eq!(r.deadline_overshoot_us, 0);
    }

    #[test]
    fn rna_threaded_trains() {
        let config = ThreadedConfig::quick(3, SyncMode::Rna);
        let r = run_threaded(&config);
        assert_eq!(r.rounds, 30);
        assert!(r.final_loss < 1.4, "loss {}", r.final_loss);
        assert!(r.mean_participation > 0.0 && r.mean_participation <= 1.0);
        assert!(r.worker_iterations.iter().all(|&i| i > 0));
        assert_eq!(r.live_workers(), 3);
    }

    #[test]
    fn rna_tolerates_straggler_better_than_bsp() {
        // Worker 3 sleeps 20 ms per iteration vs 1–2 ms for the others.
        // BSP's 30 rounds cost ≥ 600 ms; RNA's rounds are driven by the
        // fast workers.
        let bsp =
            run_threaded(&ThreadedConfig::quick(4, SyncMode::Bsp).with_straggler(20_000, 21_000));
        let rna =
            run_threaded(&ThreadedConfig::quick(4, SyncMode::Rna).with_straggler(20_000, 21_000));
        assert!(
            bsp.wall >= Duration::from_millis(550),
            "bsp wall {:?}",
            bsp.wall
        );
        assert!(
            rna.wall < bsp.wall,
            "rna {:?} should beat bsp {:?}",
            rna.wall,
            bsp.wall
        );
        // And RNA still learned something.
        assert!(rna.final_loss < 1.4);
    }

    #[test]
    fn eager_majority_threaded_trains() {
        let config = ThreadedConfig::quick(4, SyncMode::EagerMajority);
        let r = run_threaded(&config);
        assert_eq!(r.rounds, 30);
        assert!(r.final_loss < 1.4, "loss {}", r.final_loss);
        // Majority trigger: at least half the workers contribute per round
        // on a homogeneous cluster.
        assert!(
            r.mean_participation >= 0.5,
            "participation {}",
            r.mean_participation
        );
    }

    #[test]
    fn bsp_degraded_rounds_account_the_deadline_overshoot() {
        // Every round must time out: a 3 ms deadline against 80 ms
        // compute (wide enough that even a controller woken tens of
        // milliseconds late by a loaded scheduler still finds no
        // gradient). The overshoot counter records the scheduler's
        // wake-up latency past the deadline — with the clamped wait it
        // is bounded by OS jitter, not by a 1 ms-per-contributor floor.
        let mut config = ThreadedConfig::quick(2, SyncMode::Bsp);
        config.rounds = 3;
        config.compute_us = vec![(80_000, 81_000); 2];
        config.tolerance = ToleranceConfig {
            round_deadline_us: 3_000,
            ..ToleranceConfig::default()
        };
        let r = run_threaded(&config);
        assert_eq!(r.rounds_degraded, 3);
        assert!(
            r.deadline_overshoot_us < 3 * 1_000_000,
            "overshoot {} µs is not plausibly scheduler latency",
            r.deadline_overshoot_us
        );
    }

    #[test]
    #[should_panic(expected = "one compute range per worker")]
    fn config_validates_compute_ranges() {
        let mut config = ThreadedConfig::quick(2, SyncMode::Rna);
        config.compute_us.pop();
        run_threaded(&config);
    }

    #[test]
    #[should_panic(expected = "fault plan names worker")]
    fn config_validates_fault_plan_targets() {
        let config =
            ThreadedConfig::quick(2, SyncMode::Rna).with_fault_plan(FaultPlan::none().crash(7, 1));
        run_threaded(&config);
    }

    #[test]
    #[should_panic(expected = "backup workers run in the simulator only")]
    fn backup_workers_are_rejected_up_front() {
        run_threaded(&ThreadedConfig::quick(3, SyncMode::Backup(1)));
    }

    #[test]
    #[should_panic(expected = "BSP cannot survive a crash")]
    fn bsp_rejects_crash_plans() {
        let config =
            ThreadedConfig::quick(2, SyncMode::Bsp).with_fault_plan(FaultPlan::none().crash(0, 1));
        run_threaded(&config);
    }

    #[test]
    fn controller_round_is_bit_identical_to_the_naive_data_path() {
        use rna_collectives::partial_allreduce_pooled;
        use rna_core::cache::GradientCache;
        use rna_tensor::reduce::weighted_average;
        // Replays one controller round on fixed inputs through both the
        // pooled/fused path and the seed's allocate-per-round path. (The
        // full threaded run is wall-clock nondeterministic, so bit-identity
        // is asserted component-wise; see DESIGN.md.)
        let len = 36;
        let mut pool = TensorPool::new();
        for k in 0..4u64 {
            let mut caches: Vec<GradientCache> =
                (0..3).map(|_| GradientCache::new(4, true)).collect();
            let mut caches_pooled: Vec<GradientCache> =
                (0..3).map(|_| GradientCache::new(4, true)).collect();
            for (w, (a, b)) in caches.iter_mut().zip(&mut caches_pooled).enumerate() {
                for i in 0..=w as u64 {
                    let g: Tensor = (0..len)
                        .map(|j| ((k * 91 + w as u64 * 17 + i * 5 + j as u64) as f32).cos())
                        .collect();
                    a.write(k + i, g.clone());
                    b.write(k + i, g);
                }
            }
            // Worker 1 sits the round out in both worlds.
            let naive: Vec<Option<Tensor>> = caches
                .iter_mut()
                .enumerate()
                .map(|(w, c)| (w != 1).then(|| c.take_contribution(k)).flatten())
                .collect();
            let pooled: Vec<Option<Tensor>> = caches_pooled
                .iter_mut()
                .enumerate()
                .map(|(w, c)| {
                    (w != 1)
                        .then(|| c.take_contribution_pooled(k, &mut pool))
                        .flatten()
                })
                .collect();
            let null = Tensor::zeros(len);
            let refs: Vec<&Tensor> = naive.iter().map(|c| c.as_ref().unwrap_or(&null)).collect();
            let weights: Vec<f32> = naive
                .iter()
                .map(|c| if c.is_some() { 1.0 } else { 0.0 })
                .collect();
            let expected = weighted_average(&refs, &weights).unwrap();
            let pooled_refs: Vec<Option<&Tensor>> = pooled.iter().map(Option::as_ref).collect();
            let reduced =
                partial_allreduce_pooled(&pooled_refs, &mut pool).expect("two contribute");
            assert_eq!(reduced.reduced.as_slice(), expected.as_slice(), "round {k}");
            pool.release(reduced.reduced);
            for g in pooled.into_iter().flatten() {
                pool.release(g);
            }
        }
        assert!(pool.hits() > 0, "round buffers must be recycled");
    }

    #[test]
    fn poisoned_lock_is_recovered_not_propagated() {
        let m = Arc::new(Mutex::new(17u64));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("die while holding the lock");
        })
        .join();
        assert!(m.is_poisoned());
        // The degraded-run policy: the value is still consistent, use it.
        assert_eq!(*lock(&m), 17);
    }

    #[test]
    fn controller_failover_resumes_from_warm_standby() {
        let config = ThreadedConfig::quick(4, SyncMode::Rna)
            .with_tolerance(ToleranceConfig::tight())
            .with_checkpoint_every(4)
            .with_fault_plan(FaultPlan::none().crash_controller(10));
        let r = run_threaded(&config);
        assert_eq!(r.rounds, 30);
        assert_eq!(r.controller_failovers, 1);
        // Crash at round 10 with cadence 4 → last checkpoint at round 8 →
        // exactly 2 rounds of real progress redone.
        assert_eq!(r.failover_rounds_lost, 2);
        assert!(r.checkpoints_written > 0);
        assert!(r.final_loss < 1.4, "loss {}", r.final_loss);
        assert_eq!(r.live_workers(), 4);
    }

    #[test]
    fn repeated_controller_crashes_are_each_survived() {
        let config = ThreadedConfig::quick(3, SyncMode::EagerMajority)
            .with_tolerance(ToleranceConfig::tight())
            .with_checkpoint_every(3)
            .with_fault_plan(FaultPlan::none().crash_controller(5).crash_controller(12));
        let r = run_threaded(&config);
        assert_eq!(r.rounds, 30);
        assert_eq!(r.controller_failovers, 2);
        assert!(r.final_loss < 1.5, "loss {}", r.final_loss);
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rna-threaded-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn killed_process_resumes_from_disk_checkpoint() {
        let dir = scratch_dir("resume");
        // "Process one": dies (run ends) with 10 of 30 rounds budgeted, so
        // the newest checkpoint on disk is from round 10.
        let mut config = ThreadedConfig::quick(3, SyncMode::Rna)
            .with_checkpoint_every(5)
            .with_recovery_dir(&dir);
        config.rounds = 10;
        let first = run_threaded(&config);
        assert!(first.checkpoints_written >= 2);
        // "Process two": same config with the full budget picks up at
        // round 10 and finishes the remaining 20.
        config.rounds = 30;
        let resumed = resume_threaded(&config).expect("resume from disk");
        assert_eq!(resumed.rounds, 30);
        assert!(
            resumed.final_loss < first.final_loss,
            "resumed {} vs first {}",
            resumed.final_loss,
            first.final_loss
        );
        // Resuming the *finished* run replays nothing: the model is served
        // straight from the final checkpoint, bit-for-bit.
        let replay = resume_threaded(&config).expect("resume a finished run");
        assert_eq!(replay.final_loss.to_bits(), resumed.final_loss.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_any_checkpoint_is_a_typed_error() {
        let dir = scratch_dir("missing");
        let config = ThreadedConfig::quick(2, SyncMode::Rna).with_recovery_dir(&dir);
        match resume_threaded(&config) {
            Err(RecoveryError::Missing) => {}
            other => panic!("expected Missing, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "invalid checkpoint cadence")]
    fn zero_checkpoint_cadence_is_rejected() {
        let config = ThreadedConfig::quick(2, SyncMode::Rna).with_checkpoint_every(0);
        run_threaded(&config);
    }

    #[test]
    #[should_panic(expected = "BSP has no standby controller")]
    fn bsp_rejects_controller_crash_plans() {
        let config = ThreadedConfig::quick(2, SyncMode::Bsp)
            .with_fault_plan(FaultPlan::none().crash_controller(3));
        run_threaded(&config);
    }

    #[test]
    fn lossless_wire_accounts_bytes_but_saves_nothing() {
        let r = run_threaded(&ThreadedConfig::quick(3, SyncMode::Rna));
        assert!(r.bytes_on_wire > 0, "drained gradients must be accounted");
        assert_eq!(r.bytes_saved, 0);
        assert_eq!(r.codec_error_l2, 0.0);
    }

    #[test]
    fn lossy_wire_shrinks_bytes_and_still_trains() {
        let lossless = run_threaded(&ThreadedConfig::quick(3, SyncMode::Rna));
        for codec in [
            Compression::Fp16,
            Compression::Int8,
            Compression::top_k_10pct(),
        ] {
            let r = run_threaded(&ThreadedConfig::quick(3, SyncMode::Rna).with_compression(codec));
            assert!(r.bytes_on_wire > 0, "{codec:?}");
            assert!(r.bytes_saved > 0, "{codec:?} saved nothing");
            assert!(
                r.codec_error_l2 > 0.0 && r.codec_error_l2.is_finite(),
                "{codec:?} error {}",
                r.codec_error_l2
            );
            // Real threads make byte totals run-dependent (participation
            // varies), so compare rates, not totals: the mean encoded
            // frame must be smaller than the mean lossless frame.
            let frames = |x: &ThreadedResult| (x.bytes_on_wire + x.bytes_saved) as f64;
            assert!(
                r.bytes_on_wire as f64 / frames(&r) < 0.95,
                "{codec:?} frame shrink {} / {}",
                r.bytes_on_wire,
                frames(&r)
            );
            assert!(
                r.final_loss.is_finite() && r.final_loss < lossless.final_loss * 3.0 + 1.0,
                "{codec:?} diverged: {} vs {}",
                r.final_loss,
                lossless.final_loss
            );
        }
    }

    #[test]
    fn wire_bytes_are_measured_frames_for_every_codec() {
        // The thread link tallies the length of the frame it really encoded,
        // so the frame-count identity holds by measurement: wire bytes over
        // the codec's frame size and lossless-equivalent bytes over the
        // lossless frame size are the same number of deposits.
        let lossless = Compression::Lossless.frame_bytes(36);
        for codec in [
            Compression::Lossless,
            Compression::Fp16,
            Compression::Int8,
            Compression::TopK { permille: 250 },
        ] {
            let r = run_threaded(&ThreadedConfig::quick(3, SyncMode::Rna).with_compression(codec));
            let deposits: u64 = r.worker_iterations.iter().sum();
            assert!(r.bytes_on_wire > 0, "{codec:?}");
            assert_eq!(
                r.bytes_on_wire * lossless,
                (r.bytes_on_wire + r.bytes_saved) * codec.frame_bytes(36),
                "{codec:?}: byte accounting is not frame-exact"
            );
            // Every deposit is charged, drained or superseded alike — minus
            // the few still in flight when the last round closed (a worker
            // finishes the iteration it is in, at most one more if it raced
            // the stop flag).
            let charged = r.bytes_on_wire / codec.frame_bytes(36);
            assert!(
                charged <= deposits && deposits - charged <= 2 * 3,
                "{codec:?}: {charged} frames charged for {deposits} deposits"
            );
        }
    }
}
