//! The world-agnostic half of the real runtimes: the [`Mirror`] every world
//! keeps of its workers, and the controller that reads it — it drives
//! rna-core's one `Election` (the simulator drives the same one) over the
//! mirror, and runs partial collectives, degraded rounds and lease-based
//! failover, written once for both real worlds.
//!
//! Workers (threads, or the socket readers standing in for subprocesses)
//! write the mirror; the controller reads it directly and reaches back out
//! through the two actions that really differ per world, the [`Transport`]
//! trait: the threaded world swaps `Arc` snapshots and notifies a condvar,
//! the process world frames the same snapshot onto each socket. The
//! controller logic itself — what the paper calls the stateless scheduler —
//! cannot drift between the worlds because it is this one function.
//!
//! Every wait in the controller is event-driven: the election loop blocks
//! on the mirror's readiness channel with a timeout equal to the next
//! *scheduled* event (round deadline, probe re-sample, or the earliest
//! moment a live worker's heartbeat could go stale).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rna_collectives::partial_allreduce_pooled;
use rna_core::cache::GradientCache;
use rna_core::election::{Election, SyncMode};
use rna_core::fault::NetFaultPlan;
use rna_core::membership::{Edge, Tenure};
use rna_core::recovery::CheckpointStore;
use rna_core::sim::TaskKind;
use rna_core::stats::Counters;
use rna_simnet::{NetFaults, SimRng, SimTime};
use rna_tensor::wire::{self, Reader};
use rna_tensor::{Compression, Tensor, TensorPool};
use rna_training::{Dataset, Model};

use crate::threaded::ThreadedConfig;

/// Disjoint RNG stream namespaces shared by the threaded and process
/// runtimes. Earlier code forked worker streams at `10 + w` and `50 + w`,
/// which collide once the cluster reaches 40 workers; spacing the
/// namespaces `1 << 32` apart keeps every role disjoint for any realistic
/// worker count. Mid-run joiners take their sampler and compute streams from
/// [`rna_core::membership::join_grant`] (`5 << 32` up), as in the simulator.
pub(crate) const STREAM_SAMPLER: u64 = 1 << 32;
pub(crate) const STREAM_COMPUTE: u64 = 2 << 32;
/// Probe stream, forked per controller incarnation (`STREAM_PROBE + term`)
/// so a failed-over controller replays deterministic draws.
pub(crate) const STREAM_PROBE: u64 = 3 << 32;
/// Per-worker reconnect-jitter streams: worker `w` forks
/// `STREAM_RECONNECT + w` for the jitter its capped-exponential-backoff
/// reconnect loop draws, so a soak that kills the coordinator replays the
/// same backoff schedule run over run.
pub(crate) const STREAM_RECONNECT: u64 = 6 << 32;
/// Per-worker wire-codec streams: worker `w` forks `STREAM_WIRE + w` for
/// the stochastic-rounding draws of its encode leg, from its own copy of
/// the generator right after [`STREAM_RECONNECT`] — never from the shared
/// sequence, whose next fork is term 0's probe stream in every world.
pub(crate) const STREAM_WIRE: u64 = 7 << 32;

/// The run's smoke task, rebuilt from the master seed by every role that
/// needs it (both controllers, every worker subprocess) through the
/// simulator's constructor: the dataset, the model template, and the
/// generator as the template draw left it — the shared prefix every per-role
/// stream forks behind. Shipping the seed, not the dataset, keeps the
/// worlds' data streams identical.
pub(crate) fn task(seed: u64) -> (SimRng, Arc<Dataset>, Box<dyn Model>) {
    let mut rng = SimRng::seed(seed);
    let (dataset, template) = TaskKind::SMOKE.build(&mut rng);
    (rng, Arc::new(dataset), template)
}

/// A copy of the post-template generator advanced past the sampler/compute
/// fork pairs of workers `0..count`. With `count` = the cluster size this
/// is the controller's generator, whose first fork is term 0's probe stream.
pub(crate) fn past_workers(rng: &SimRng, count: u64) -> SimRng {
    let mut rng = rng.clone();
    for v in 0..count {
        let _ = rng.fork(STREAM_SAMPLER + v);
        let _ = rng.fork(STREAM_COMPUTE + v);
    }
    rng
}

/// The four private streams of worker `w`.
pub(crate) struct WorkerStreams {
    pub sampler: SimRng,
    pub compute: SimRng,
    pub reconnect: SimRng,
    pub wire: SimRng,
}

/// Derives worker `w`'s streams from the post-template generator: sampler
/// and compute at `w`'s position in the shared fork sequence — under the
/// standard keys, or under `grant`/`grant + 1` for a mid-run joiner
/// (`grant != 0`) — then reconnect jitter and wire codec from the same copy.
pub(crate) fn worker_streams(rng: &SimRng, w: u64, grant: u64) -> WorkerStreams {
    let mut rng = past_workers(rng, w);
    let (sampler_key, compute_key) = if grant == 0 {
        (STREAM_SAMPLER + w, STREAM_COMPUTE + w)
    } else {
        (grant, grant + 1)
    };
    WorkerStreams {
        sampler: rng.fork(sampler_key),
        compute: rng.fork(compute_key),
        reconnect: rng.fork(STREAM_RECONNECT + w),
        wire: rng.fork(STREAM_WIRE + w),
    }
}

/// Floor for controller waits: below this the timeout machinery costs more
/// than the wait is worth.
const MIN_WAIT: Duration = Duration::from_micros(50);

/// Locks a mutex, recovering from poisoning instead of propagating the
/// panic: a worker thread that died mid-critical-section must degrade the
/// run (its fate is recorded at join time), not abort the whole process.
/// The guarded structures (caches, snapshots) are written atomically from
/// the protocol's point of view — a poisoned guard still holds a
/// consistent value, at worst a stale one.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the controller knows about one worker.
pub(crate) struct MirrorSlot {
    pub cache: Mutex<GradientCache>,
    /// Completed local iterations, monotone. In the process world this is
    /// the rejoin checkpoint.
    pub iterations: AtomicU64,
    /// Microseconds since run start at the worker's last sign of life.
    pub heartbeat_us: AtomicU64,
    /// Cleared when the worker is permanently gone or unreachable: by a
    /// worker thread executing its crash directive, by a socket reader on
    /// EOF. Presumed-dead-by-silence workers keep it — they may be hung and
    /// can return.
    pub alive: AtomicBool,
}

/// The controller-side picture of the cluster, one per run in both real
/// worlds: worker threads write their slot directly, socket readers write it
/// on behalf of their subprocess, and the controller reads it.
pub(crate) struct Mirror {
    pub slots: Vec<MirrorSlot>,
    /// The published round counter (the bounded-lead gate).
    pub round: AtomicU64,
    pub stop: AtomicBool,
    pub start: Instant,
    liveness_timeout_us: u64,
    staleness_bound: usize,
    /// Codec charges of the frames deposited since the controller last took
    /// them: measured frame lengths, never formula-charged.
    wire: Mutex<Counters>,
    /// "Something changed": one pending wake-up is all the controller
    /// needs, since it re-polls the slots anyway — so the channel holds one.
    ready_tx: SyncSender<()>,
    ready_rx: Mutex<Receiver<()>>,
}

impl Mirror {
    pub fn new(
        config: &ThreadedConfig,
        start: Instant,
        round: u64,
        alive: impl Fn(usize) -> bool,
    ) -> Self {
        let (ready_tx, ready_rx) = sync_channel(1);
        Mirror {
            slots: (0..config.num_workers)
                .map(|w| MirrorSlot {
                    cache: Mutex::new(GradientCache::new(config.staleness_bound, true)),
                    iterations: AtomicU64::new(0),
                    heartbeat_us: AtomicU64::new(0),
                    alive: AtomicBool::new(alive(w)),
                })
                .collect(),
            round: AtomicU64::new(round),
            stop: AtomicBool::new(false),
            start,
            liveness_timeout_us: config.tolerance.liveness_timeout_us,
            staleness_bound: config.staleness_bound,
            wire: Mutex::new(Counters::default()),
            ready_tx,
            ready_rx: Mutex::new(ready_rx),
        }
    }

    pub fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    pub fn beat(&self, w: usize) {
        self.slots[w]
            .heartbeat_us
            .store(self.now_us(), Ordering::Release);
    }

    /// Wakes the controller: some worker's state may have changed (gradient
    /// deposited, died, rejoined).
    pub fn notify(&self) {
        let _ = self.ready_tx.try_send(());
    }

    /// A death or a return changes the electorate just like a deposit does.
    pub fn set_alive(&self, w: usize, alive: bool) {
        self.slots[w].alive.store(alive, Ordering::Release);
        self.notify();
    }

    pub fn is_dead(&self, w: usize) -> bool {
        !self.slots[w].alive.load(Ordering::Acquire)
    }

    /// Liveness view for elections and majorities: alive and heard from
    /// within the liveness timeout. A hung worker drops out when its
    /// heartbeat goes stale and is re-admitted once it beats again.
    pub fn live_view(&self) -> Vec<bool> {
        let now = self.now_us();
        self.slots
            .iter()
            .map(|s| {
                s.alive.load(Ordering::Acquire)
                    && now.saturating_sub(s.heartbeat_us.load(Ordering::Acquire))
                        < self.liveness_timeout_us
            })
            .collect()
    }

    fn cache_ready(&self, w: usize) -> bool {
        !lock(&self.slots[w].cache).is_empty()
    }

    /// Worker `w`'s iteration-`iter` gradient arrives, already wire-valued;
    /// `frame` is the encoded frame's length and reported error norm (`None`
    /// where nothing was encoded). Hands back the buffer the staleness bound
    /// evicted, if any, for the depositor to recycle.
    pub fn deposit(
        &self,
        w: usize,
        iter: u64,
        grad: Tensor,
        frame: Option<(u64, f64)>,
    ) -> Option<Tensor> {
        if let Some((bytes, err_l2)) = frame {
            let lossless = Compression::Lossless.frame_bytes(grad.len());
            let mut wire = lock(&self.wire);
            wire.bytes_on_wire += bytes;
            wire.bytes_saved += lossless.saturating_sub(bytes);
            wire.codec_error_l2 += err_l2;
        }
        let evicted = lock(&self.slots[w].cache).write(iter, grad);
        self.slots[w]
            .iterations
            .fetch_max(iter + 1, Ordering::AcqRel);
        evicted
    }

    /// Discards worker `w`'s cache so a gradient it left behind is never
    /// reduced (matching the simulator's crash semantics).
    pub fn purge(&self, w: usize) {
        *lock(&self.slots[w].cache) = GradientCache::new(self.staleness_bound, true);
    }

    /// Drains the codec charges tallied since the last call.
    pub fn take_wire_charges(&self) -> Counters {
        std::mem::take(&mut *lock(&self.wire))
    }

    /// Blocks until some worker's state may have changed or the timeout
    /// elapses.
    fn wait_ready(&self, timeout: Duration) {
        let _ = lock(&self.ready_rx).recv_timeout(timeout);
    }
}

/// How a controller incarnation reaches back out to its workers — the two
/// actions that are genuinely different over shared memory and over sockets.
pub(crate) trait Transport {
    /// Delivers the round-`round` parameter snapshot to worker `w`.
    /// Returns `false` when the wire genuinely ate it (socket severed);
    /// injected-fault drops are rolled by the controller's shim *before*
    /// this call. Implementations that retire a previously-held snapshot
    /// here return its buffer to `pool`.
    fn push_params(
        &mut self,
        w: usize,
        round: u64,
        snap: &Arc<Tensor>,
        pool: &mut TensorPool,
    ) -> bool;
    /// Tells every worker the mirror's round counter is now `k` (the
    /// bounded-lead gate) — also when it was rolled *back* by a failover.
    fn advance_round(&mut self, k: u64);
}

/// Everything a standby needs to continue the run: the training state the
/// workers cannot reconstruct (master parameters, optimizer velocity, the
/// round counter) plus the controller's cumulative tallies. The warm
/// standby holds the latest one in memory; the same bytes land on disk —
/// under [`CheckpointStore`]'s checksummed temp+rename frame — when a
/// recovery directory is configured.
#[derive(Debug, Clone)]
pub(crate) struct CtrlCheckpoint {
    pub round: u64,
    pub master: Tensor,
    pub velocity: Tensor,
    pub participation_sum: f64,
    pub rounds_degraded: u64,
    /// Microseconds degraded rounds ran past their deadline (scheduling
    /// noise now that waits are clamped to the true remaining budget; the
    /// earlier 1 ms-floored waits could overshoot by 1 ms per late
    /// contributor).
    pub deadline_overshoot_us: u64,
    /// The run ledger as of this cut. Everything in it rolls back with the
    /// checkpoint; the two failover tallies are therefore never counted
    /// here but in [`Lineage`], and stay 0 until `finish` merges them.
    pub counters: Counters,
}

impl CtrlCheckpoint {
    /// The state a fresh (round 0) controller starts from.
    pub fn initial(master: Tensor) -> Self {
        let velocity = Tensor::zeros(master.len());
        CtrlCheckpoint {
            round: 0,
            master,
            velocity,
            participation_sum: 0.0,
            rounds_degraded: 0,
            deadline_overshoot_us: 0,
            counters: Counters::default(),
        }
    }
}

/// The lease the controller and its warm standby share: a heartbeat the
/// incumbent refreshes at every round top, and the checkpoint slot the
/// standby replays from once the heartbeat goes stale.
pub(crate) struct CtrlPlane {
    pub heartbeat_us: u64,
    pub slot: CtrlCheckpoint,
}

pub(crate) fn encode_ctrl_checkpoint(ck: &CtrlCheckpoint, out: &mut Vec<u8>) {
    wire::put_u64(out, ck.round);
    wire::put_f64(out, ck.participation_sum);
    wire::put_u64(out, ck.rounds_degraded);
    wire::put_u64(out, ck.deadline_overshoot_us);
    ck.counters.encode_into(out);
    wire::put_tensor(out, &ck.master);
    wire::put_tensor(out, &ck.velocity);
}

/// Decodes a payload written by [`encode_ctrl_checkpoint`]; `None` on any
/// truncation, trailing garbage, or shape mismatch (the store's checksum
/// catches bit rot; this catches format drift).
pub(crate) fn decode_ctrl_checkpoint(payload: &[u8]) -> Option<CtrlCheckpoint> {
    let mut r = Reader::new(payload);
    let ck = CtrlCheckpoint {
        round: r.u64()?,
        participation_sum: r.f64()?,
        rounds_degraded: r.u64()?,
        deadline_overshoot_us: r.u64()?,
        counters: Counters::decode(&mut r)?,
        master: r.tensor()?,
        velocity: r.tensor()?,
    };
    let intact =
        r.remaining() == 0 && !ck.master.is_empty() && ck.master.len() == ck.velocity.len();
    intact.then_some(ck)
}

/// Captures the control plane into `ck`, publishes it to the warm-standby
/// slot, and — when a store is configured — persists the same bytes
/// crash-consistently on disk. A disk-write failure degrades the run to
/// warm-standby-only recovery instead of killing it.
fn cut_checkpoint(
    ck: &mut CtrlCheckpoint,
    round: u64,
    master: &Tensor,
    opt: &rna_training::Sgd,
    plane: &mut CtrlPlane,
    store: Option<&CheckpointStore>,
) {
    ck.round = round;
    ck.master.copy_from(master);
    ck.velocity.copy_from(opt.velocity());
    ck.counters.checkpoints_written += 1;
    plane.slot = ck.clone();
    if let Some(store) = store {
        let mut payload = Vec::new();
        encode_ctrl_checkpoint(ck, &mut payload);
        if let Err(e) = store.save(&payload) {
            eprintln!(
                "controller checkpoint write failed (warm standby still covers a crash): {e}"
            );
        }
    }
}

/// The earliest moment (as a wait duration from now) at which some
/// currently-fresh live worker's heartbeat could cross the liveness
/// timeout — the only liveness transition no readiness event announces.
/// Falls back to 1 ms when no worker is fresh (all hung or silent), the
/// one state where the controller must genuinely poll for recovery.
fn liveness_edge(m: &Mirror, active: &[bool]) -> Duration {
    let now = m.now_us();
    let mut edge = u64::MAX;
    for (w, &live) in active.iter().enumerate() {
        if !live || m.is_dead(w) {
            continue;
        }
        let beat = m.slots[w].heartbeat_us.load(Ordering::Acquire);
        let stale_at = beat.saturating_add(m.liveness_timeout_us);
        if stale_at > now {
            edge = edge.min(stale_at - now);
        }
    }
    if edge == u64::MAX {
        Duration::from_millis(1)
    } else {
        Duration::from_micros(edge)
    }
}

/// The controller-side network-fault interpreter: the same compiled
/// [`NetFaults`] machinery the discrete-event fabric uses, driven by the
/// run's real elapsed clock instead of virtual time.
///
/// The threaded runtime funnels every logical message through the
/// controller (probe RPCs, cache drains, parameter pushes), so one shim
/// owned by the controller thread — no locks — covers the whole fabric.
/// Node ids follow the simulator's convention: workers `0..n`, controller
/// `n`, parameter server `n + 1`.
#[derive(Debug, Clone)]
pub struct NetShim {
    faults: Option<NetFaults>,
    controller: usize,
}

impl NetShim {
    /// Compiles `plan` for a cluster of `num_workers` workers. An empty
    /// plan produces a transparent shim: every delivery succeeds, every
    /// link is up, and the fast paths stay branch-free.
    ///
    /// # Panics
    ///
    /// Panics if the plan names out-of-range nodes ([`NetFaultPlan::validate`]).
    pub fn new(plan: &NetFaultPlan, num_workers: usize) -> Self {
        plan.validate(num_workers);
        NetShim {
            faults: (!plan.is_empty()).then(|| plan.compile(num_workers)),
            controller: num_workers,
        }
    }

    /// Whether any fault is configured (an empty plan's shim admits all).
    pub fn enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// The controller's node id under the shim's numbering.
    pub fn controller_id(&self) -> usize {
        self.controller
    }

    /// Rolls one delivery attempt on the `a → b` link at `now_us`
    /// microseconds since run start. `false` means the message vanished
    /// (lossy drop, down-window, or partition).
    pub fn deliver(&mut self, a: usize, b: usize, now_us: u64) -> bool {
        let now = SimTime::from_nanos(now_us * 1_000);
        self.faults.as_mut().is_none_or(|f| f.admits(a, b, now))
    }

    /// Whether the `a ↔ b` link is administratively up at `now_us` (no
    /// down-window or partition covers it; lossy drops don't count).
    pub fn link_up(&self, a: usize, b: usize, now_us: u64) -> bool {
        let now = SimTime::from_nanos(now_us * 1_000);
        self.faults.as_ref().is_none_or(|f| f.link_up(a, b, now))
    }
}

/// One probe attempt over the faulty fabric. The pool is the live view
/// restricted to the round's active membership (dormant joiners and departed
/// workers never probe) — falling back to the active not-yet-crashed set when
/// no active worker is live (all silent, e.g. mid-hang) so a recovering
/// worker can still be elected. Each drawn candidate is admitted iff its
/// controller→worker probe and worker→controller reply both survive the
/// shim. Returns whether the fabric ate any (never on a clean fabric); eaten
/// probes are tallied into `counters`.
#[allow(clippy::too_many_arguments)]
fn probe_rpc(
    election: &mut Election,
    round: u64,
    lost: bool,
    rng: &mut SimRng,
    m: &Mirror,
    active: &[bool],
    shim: &mut NetShim,
    counters: &mut Counters,
) -> bool {
    let n = active.len();
    let live = m.live_view();
    let mut pool: Vec<usize> = (0..n).filter(|&w| active[w] && live[w]).collect();
    if pool.is_empty() {
        pool = (0..n).filter(|&w| active[w] && !m.is_dead(w)).collect();
    }
    let (now_us, ctrl) = (m.now_us(), shim.controller_id());
    let mut eaten = 0;
    election.draw(round, &pool, lost, rng, |w| {
        let reached = shim.deliver(ctrl, w, now_us) && shim.deliver(w, ctrl, now_us);
        eaten += u64::from(!reached);
        reached
    });
    counters.messages_dropped += eaten;
    eaten > 0
}

/// The round trigger over the mirror: the worker whose readiness fires
/// round `k`, if any. Ready means not dead with a non-empty cache. A probed
/// worker replies by being ready, the first in drawn order first; the
/// counted modes count the active workers under two-tier liveness — the
/// majority's electorate is the fresh live view, the barrier's every worker
/// not known dead.
fn fires(election: &mut Election, k: u64, m: &Mirror, active: &[bool]) -> Option<usize> {
    let ready = |w: usize| !m.is_dead(w) && m.cache_ready(w);
    let members = || (0..active.len()).filter(|&w| active[w]);
    let electorate = match election.mode() {
        SyncMode::Rna => {
            let w = election.probed().iter().copied().find(|&w| ready(w))?;
            return election.offer_reply(w, k).then_some(w);
        }
        SyncMode::EagerMajority => {
            let live = m.live_view();
            members().filter(|&w| live[w]).count()
        }
        SyncMode::Bsp | SyncMode::Backup(_) => members().filter(|&w| !m.is_dead(w)).count(),
    };
    election.quorum(electorate, members().filter(|&w| ready(w)))
}

/// How a controller incarnation died before the round budget was spent.
enum Death {
    /// The fault plan crashed this incarnation — the warm standby takes
    /// over after the lease (the in-process failover path).
    Crashed,
    /// The process world killed the whole coordinator — memory is gone,
    /// the restart replays from *disk*, not from the standby slot.
    Killed,
}

/// One controller incarnation: executes rounds `ck.round..config.rounds`,
/// heartbeating its lease at every round top and cutting a checkpoint
/// (warm-standby slot, plus disk when a store is configured) every
/// `checkpoint_every` rounds. Dies ([`Death`]) *before* executing the fatal
/// round, so progress since the last checkpoint is genuinely lost, and
/// returns the finished state otherwise.
#[allow(clippy::too_many_arguments)]
fn controller_loop<T: Transport + ?Sized>(
    config: &ThreadedConfig,
    mirror: &Mirror,
    transport: &mut T,
    plane: &mut CtrlPlane,
    store: Option<&CheckpointStore>,
    mut ck: CtrlCheckpoint,
    probe_rng: &mut SimRng,
    crash_at: Option<u64>,
    abort_at: Option<u64>,
) -> Result<CtrlCheckpoint, Death> {
    let n = config.num_workers;
    let mut master = ck.master.clone();
    let mut opt = rna_training::Sgd::new(config.lr, 0.0, 0.0, master.len());
    opt.set_velocity(&ck.velocity);
    let mut pool = TensorPool::new();
    let mut shim = NetShim::new(&config.net_fault_plan, n);
    let ctrl = shim.controller_id();
    let round_deadline = Duration::from_micros(config.tolerance.round_deadline_us);
    let rna = config.mode == SyncMode::Rna;
    let mut election = Election::new(config.mode, config.probes, &config.tolerance);
    let tenures: Vec<Tenure> = (0..n).map(|w| config.churn_plan.tenure(w)).collect();
    for k in ck.round..config.rounds {
        // A coordinator-level kill outranks a planned controller crash at
        // the same round: there is no standby left to observe the crash.
        if abort_at == Some(k) {
            return Err(Death::Killed);
        }
        if crash_at == Some(k) {
            return Err(Death::Crashed);
        }
        // Round `k`'s membership: dormant joiners and departed workers are
        // outside the electorate, the majority denominator, and the drain
        // set. `n` is the slot *capacity*, never the cluster size.
        let active: Vec<bool> = tenures.iter().map(|t| t.active_at(k)).collect();
        let active_n = active.iter().filter(|&&a| a).count().max(1);
        plane.heartbeat_us = mirror.now_us();

        // The election: wait until the mode's trigger fires. RNA probes —
        // power-of-d over live workers, redrawing when nothing is
        // outstanding, when the stall rule says every probed worker died or
        // went silent, or when the backoff runs out (so a merely slow probed
        // set still gets a chance to answer). Each probe is a
        // controller→worker→controller RPC pair: the shim may eat either
        // leg, and an attempt that lost one doubles the election's backoff
        // — an idempotent re-issue, never a wedge. The other triggers watch
        // the whole electorate and never sample. Every wait is event-driven:
        // a deposit or death wakes the channel, a heartbeat going stale is
        // bounded by the liveness edge, and the round deadline caps
        // everything.
        let round_start = Instant::now();
        election.open();
        let (mut last_lost, mut last_sample) = (false, round_start);
        let backoff = |e: &Election| Duration::from_micros(e.backoff_us());
        // The worker whose readiness fired the round (`None`: degraded).
        // Partition semantics follow the simulator's `launch_reduce`:
        // gradients and parameter broadcasts ride initiator↔member links,
        // so a member severed from the initiator sits the round out (the
        // controller itself is a partition bridge — the paper's stateless,
        // replicable scheduler).
        let initiator = loop {
            if (0..n).filter(|&w| active[w]).all(|w| mirror.is_dead(w)) {
                break None;
            }
            if rna
                && (election.probed().is_empty()
                    || election.stalled(&mirror.live_view())
                    || last_sample.elapsed() >= backoff(&election))
            {
                if last_lost {
                    ck.counters.probe_retries += 1;
                }
                last_lost = probe_rpc(
                    &mut election,
                    k,
                    last_lost,
                    probe_rng,
                    mirror,
                    &active,
                    &mut shim,
                    &mut ck.counters,
                );
                last_sample = Instant::now();
            }
            if let Some(w) = fires(&mut election, k, mirror, &active) {
                break Some(w);
            }
            let elapsed = round_start.elapsed();
            if elapsed >= round_deadline {
                break None;
            }
            let redraw = if rna {
                backoff(&election).saturating_sub(last_sample.elapsed())
            } else {
                Duration::MAX
            };
            let wait = (round_deadline - elapsed)
                .min(redraw)
                .min(liveness_edge(mirror, &active))
                .max(MIN_WAIT);
            mirror.wait_ready(wait);
        };
        let degraded = initiator.is_none();
        if degraded {
            // Clamped waits make the overshoot scheduling noise; account
            // it so the degraded-round stats stay honest either way.
            ck.deadline_overshoot_us += u64::try_from(
                round_start
                    .elapsed()
                    .saturating_sub(round_deadline)
                    .as_micros(),
            )
            .unwrap_or(u64::MAX);
        }

        // Force the partial collective: drain every live cache. A dead
        // worker's cache is purged — its final gradient is discarded,
        // matching the simulator's crash semantics (a restarted worker
        // refills it after rejoining). A worker severed from the
        // controller keeps its cache untouched — its island keeps
        // accumulating and reconciles on heal — while a gradient lost to
        // a lossy link becomes a null in the partial collective.
        let mut severed = false;
        let now_us = mirror.now_us();
        let gather = initiator.unwrap_or(ctrl);
        // Everything from the cache drain through the applied update is the
        // fused reduce region; the alloc delta (debug builds) proves its
        // steady-state rounds recycle pooled buffers instead of allocating.
        // The parameter broadcast below is excluded: snapshot buffers are
        // reclaimed by whichever thread drops the last `Arc`, so their pool
        // hits are timing-dependent by design.
        let allocs_before = rna_tensor::alloc::count();
        let mut contributions: Vec<Option<Tensor>> = Vec::with_capacity(n);
        for (w, &member) in active.iter().enumerate() {
            // A worker outside this round's membership (dormant joiner,
            // retiree past its last round, evictee) is drained like a dead
            // one: its cache is purged so nothing it left behind ever joins
            // a reduce it is not a member of.
            let c = if mirror.is_dead(w) || !member {
                mirror.purge(w);
                None
            } else if !shim.link_up(w, gather, now_us) {
                severed = true;
                None
            } else {
                let cache = &mirror.slots[w].cache;
                match lock(cache).take_contribution_pooled(k, &mut pool) {
                    Some(g) if shim.deliver(w, gather, now_us) => Some(g),
                    Some(g) => {
                        ck.counters.messages_dropped += 1;
                        pool.release(g);
                        None
                    }
                    None => None,
                }
            };
            contributions.push(c);
        }
        if severed {
            ck.counters.partition_rounds += 1;
        }
        // The wire codec runs where the gradient crosses the network — at
        // the *worker*, in every world: contributions arrive in the caches
        // already wire-valued (`decode(encode(grad + residual))`, the
        // dropped remainder waiting in the worker's residual for its next
        // contribution), and whoever deposited them tallied the encoded
        // frames. The controller only folds those measured charges in.
        let wire = mirror.take_wire_charges();
        ck.counters.bytes_on_wire += wire.bytes_on_wire;
        ck.counters.bytes_saved += wire.bytes_saved;
        ck.counters.codec_error_l2 += wire.codec_error_l2;
        // Fused partial collective: nulls are skipped instead of being
        // materialized as zero tensors and the mean lands in a pooled buffer
        // (bit-identical to the null-padded `weighted_average` the naive
        // path computed). A degraded round applies nothing.
        let refs: Vec<Option<&Tensor>> = contributions.iter().map(Option::as_ref).collect();
        let outcome = if degraded {
            None
        } else {
            partial_allreduce_pooled(&refs, &mut pool)
        };
        if let Some(outcome) = outcome {
            let m = outcome.num_contributors as f32;
            // Linear Scaling Rule for the partial collectives; the barrier
            // applies the plain mean (DESIGN.md, "One trigger").
            let scale = if config.mode == SyncMode::Bsp { 1.0 } else { m };
            opt.step(&mut master, &outcome.reduced, scale);
            pool.release(outcome.reduced);
            ck.counters.datapath_allocs += rna_tensor::alloc::count() - allocs_before;
            ck.participation_sum += f64::from(m) / active_n as f64;
            let push_us = mirror.now_us();
            // One shared snapshot per round; the threaded slots swap Arcs
            // (the last reference recycles its buffer), the process world
            // frames the same snapshot onto each socket.
            let mut snap = pool.acquire(master.len());
            snap.copy_from(&master);
            let snapshot = Arc::new(snap);
            for w in (0..n).filter(|&w| active[w]) {
                // The parameter push rides the same faulty fabric: a
                // severed or unlucky worker keeps its stale view and
                // catches up on a later round's push.
                if !shim.deliver(gather, w, push_us) {
                    ck.counters.messages_dropped += 1;
                    continue;
                }
                if !transport.push_params(w, k + 1, &snapshot, &mut pool) {
                    // The wire itself ate it (socket severed): same
                    // observable outcome as an injected drop.
                    ck.counters.messages_dropped += 1;
                }
            }
            // In the process world (no retaining slots) the snapshot dies
            // here and its buffer goes back to the pool immediately.
            if let Some(t) = Arc::into_inner(snapshot) {
                pool.release(t);
            }
        } else {
            // Nothing usable this round (cluster dead, the trigger missed
            // the deadline, or every contribution was lost): complete the
            // round degraded rather than blocking the run.
            ck.rounds_degraded += 1;
            ck.counters.datapath_allocs += rna_tensor::alloc::count() - allocs_before;
        }
        for g in contributions.into_iter().flatten() {
            pool.release(g);
        }
        // Elastic membership: the churn edges this round boundary crosses.
        // A join at `k + 1` is admitted *before* the round counter
        // advances, so the waking worker finds its streamed snapshot (the
        // admission bytes) already in place; a retirement at `k` is
        // counted only now, after the retiree's final contribution was
        // drained above — zero contributed rounds are lost.
        for (w, edge) in config.churn_plan.edges(k + 1..=k + 1) {
            match edge {
                Edge::Join => {
                    let mut snap = pool.acquire(master.len());
                    snap.copy_from(&master);
                    let snapshot = Arc::new(snap);
                    // In the process world the joiner's socket may not be
                    // attached yet; its Setup frame carries the same
                    // snapshot, so a failed push here is not a drop.
                    let _ = transport.push_params(w, k + 1, &snapshot, &mut pool);
                    if let Some(t) = Arc::into_inner(snapshot) {
                        pool.release(t);
                    }
                    ck.counters.workers_joined += 1;
                    ck.counters.snapshot_bytes_streamed += 4 * master.len() as u64;
                }
                Edge::Leave(_) => ck.counters.workers_retired += 1,
            }
        }
        if k + 1 == config.rounds {
            // The budget is spent: raise stop before the last counter goes
            // out, so a worker gated on it (lead bound 1) does not start an
            // iteration no round will consume.
            mirror.stop.store(true, Ordering::Release);
        }
        mirror.round.store(k + 1, Ordering::Release);
        transport.advance_round(k + 1);
        if (k + 1) % config.checkpoint_every == 0 && k + 1 < config.rounds {
            cut_checkpoint(&mut ck, k + 1, &master, &opt, plane, store);
        }
    }
    // Final cut: the finished state is itself a checkpoint, so resuming a
    // completed run replays nothing.
    cut_checkpoint(&mut ck, config.rounds, &master, &opt, plane, store);
    Ok(ck)
}

/// What survives every controller death, and therefore lives *outside* the
/// checkpointed state. A standby (or a coordinator restarted from disk) rolls
/// [`CtrlCheckpoint`] back to its last cut, tallies included; if the failover
/// tallies rode in there too, restoring the slot would erase the very
/// failover being recorded. `finish` merges them into the result.
#[derive(Debug, Default)]
pub(crate) struct Lineage {
    /// The term the next controller incarnation runs under: 0 for a fresh
    /// run, bumped by every incarnation's exit, so term numbering
    /// (crash-schedule indexing, probe stream keys) is global across
    /// standby takeovers and coordinator restarts.
    pub term: u64,
    /// Times a standby took over from a crashed controller.
    pub controller_failovers: u64,
    /// Rounds redone across every takeover and coordinator restart (death
    /// round minus restored checkpoint round, summed).
    pub failover_rounds_lost: u64,
}

/// Runs controller incarnations under the lease+term protocol until the
/// round budget is spent: a planned crash makes an incarnation exit mid-run,
/// exactly like a controller process dying, and the warm standby waits out
/// the lease before replaying from the last checkpoint. Every term forks its own probe stream from `rng`
/// (the generator [`past_workers`] of the whole cluster); term 0's fork is
/// its first, so fault-free runs elect the same initiators in every world.
///
/// Returns the finished state, or `None` when the coordinator was killed at
/// `abort_at`: unlike a planned crash there is no in-memory standby
/// afterwards — the process world restarts from the *disk* checkpoint and
/// calls again with the same `lineage`, whose term this call already bumped,
/// so a rerun with the same kill schedule replays identically.
#[allow(clippy::too_many_arguments)]
pub(crate) fn supervise<T: Transport + ?Sized>(
    config: &ThreadedConfig,
    mirror: &Mirror,
    transport: &mut T,
    rng: &mut SimRng,
    state0: CtrlCheckpoint,
    store: Option<&CheckpointStore>,
    abort_at: Option<u64>,
    lineage: &mut Lineage,
) -> Option<CtrlCheckpoint> {
    let mut plane = CtrlPlane {
        heartbeat_us: 0,
        slot: state0.clone(),
    };
    let mut state = state0;
    loop {
        let term = lineage.term;
        let crash_at = config.fault_plan.controller_crash(term);
        let mut probe_rng = rng.fork(STREAM_PROBE + term);
        let exit = controller_loop(
            config,
            mirror,
            transport,
            &mut plane,
            store,
            state.clone(),
            &mut probe_rng,
            crash_at,
            abort_at,
        );
        lineage.term += 1;
        match exit {
            Ok(done) => return Some(done),
            Err(Death::Killed) => return None,
            Err(Death::Crashed) => {
                // The controller died. The standby must not seize the round
                // until the lease expires — a live-but-slow incumbent may
                // still hold it — then it replays from the last checkpoint.
                // Workers are oblivious: the lead gate parks them against
                // the rolled-back round counter and their caches (and
                // error-feedback residuals) keep serving the reborn
                // controller. The dead incumbent's heartbeat cannot refresh,
                // so one exact-remaining sleep covers the wait.
                let since = mirror.now_us().saturating_sub(plane.heartbeat_us);
                let lease = config.tolerance.liveness_timeout_us;
                std::thread::sleep(Duration::from_micros(lease.saturating_sub(since)));
                state = plane.slot.clone();
                lineage.controller_failovers += 1;
                lineage.failover_rounds_lost +=
                    crash_at.unwrap_or(state.round).saturating_sub(state.round);
                mirror.round.store(state.round, Ordering::Release);
                transport.advance_round(state.round);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rna_core::membership::join_grant;

    #[test]
    fn ctrl_checkpoint_codec_roundtrips() {
        let ck = CtrlCheckpoint {
            round: 19,
            master: Tensor::from_vec(vec![1.5, -2.25, 0.0]),
            velocity: Tensor::from_vec(vec![0.5, 0.0, -1.0]),
            participation_sum: 12.75,
            rounds_degraded: 3,
            deadline_overshoot_us: 417,
            // Every tally distinct, so a field landing in a neighbour's
            // slot cannot go unnoticed.
            counters: Counters {
                messages_dropped: 7,
                probe_retries: 2,
                partition_rounds: 1,
                controller_failovers: 5,
                failover_rounds_lost: 9,
                checkpoints_written: 4,
                datapath_allocs: 11,
                bytes_on_wire: 4096,
                bytes_saved: 2048,
                codec_error_l2: 0.625,
                workers_joined: 8,
                workers_retired: 10,
                regroup_events: 3,
                snapshot_bytes_streamed: 144,
            },
        };
        let mut payload = Vec::new();
        encode_ctrl_checkpoint(&ck, &mut payload);
        let back = decode_ctrl_checkpoint(&payload).expect("roundtrip");
        assert_eq!(back.round, 19);
        assert_eq!(back.master.as_slice(), ck.master.as_slice());
        assert_eq!(back.velocity.as_slice(), ck.velocity.as_slice());
        assert_eq!(back.participation_sum, 12.75);
        assert_eq!(back.rounds_degraded, 3);
        assert_eq!(back.deadline_overshoot_us, 417);
        assert_eq!(back.counters, ck.counters);
        // Truncations and trailing garbage are rejected, never panics.
        for cut in 0..payload.len() {
            assert!(
                decode_ctrl_checkpoint(&payload[..cut]).is_none(),
                "cut={cut}"
            );
        }
        let mut padded = payload.clone();
        padded.push(0);
        assert!(decode_ctrl_checkpoint(&padded).is_none());
    }

    /// A [`Transport`] over a mirror nobody else writes: every published
    /// round counter — roll-backs included — is answered at once with that
    /// iteration's scripted deposits, so the controller runs its rounds back
    /// to back and every per-round tally is an exact function of the rounds
    /// that survive in the lineage.
    struct ScriptedTransport<'a, F> {
        mirror: &'a Mirror,
        /// Worker `w`'s gradient for iteration `k`, with the frame charge
        /// it is deposited under; `None` leaves the worker silent.
        script: F,
        /// Every round counter the controller published.
        published: Vec<u64>,
    }

    type Deposit = (Tensor, Option<(u64, f64)>);

    impl<F: Fn(usize, u64) -> Option<Deposit> + Send> Transport for ScriptedTransport<'_, F> {
        fn push_params(
            &mut self,
            _w: usize,
            _r: u64,
            _s: &Arc<Tensor>,
            _p: &mut TensorPool,
        ) -> bool {
            true
        }
        fn advance_round(&mut self, k: u64) {
            self.published.push(k);
            // What a dead incarnation left undrained dies with it: each
            // round is charged exactly its own frames.
            let _ = self.mirror.take_wire_charges();
            for w in 0..self.mirror.slots.len() {
                self.mirror.beat(w);
                if let Some((grad, frame)) = (self.script)(w, k) {
                    self.mirror.deposit(w, k, grad, frame);
                }
            }
        }
    }

    /// Runs `config` to completion over a scripted mirror from `master0`.
    fn run_scripted(
        config: &ThreadedConfig,
        master0: Tensor,
        script: impl Fn(usize, u64) -> Option<Deposit> + Send,
    ) -> (CtrlCheckpoint, Lineage, Vec<u64>) {
        let mirror = Mirror::new(config, Instant::now(), 0, |_| true);
        let mut transport = ScriptedTransport {
            mirror: &mirror,
            script,
            published: Vec::new(),
        };
        transport.advance_round(0);
        transport.published.clear();
        let mut lineage = Lineage::default();
        let done = supervise(
            config,
            &mirror,
            &mut transport,
            &mut SimRng::seed(3),
            CtrlCheckpoint::initial(master0),
            None,
            None,
            &mut lineage,
        )
        .expect("no abort round was scheduled");
        (done, lineage, transport.published)
    }

    const LEN: usize = 5;

    /// A deterministic, worker- and round-dependent gradient.
    fn grad_of(w: usize, k: u64) -> Tensor {
        (0..LEN)
            .map(|j| ((k * 91 + w as u64 * 17 + j as u64) as f32 * 0.37).cos())
            .collect()
    }

    #[test]
    fn failover_tallies_survive_the_rollback_that_checkpointed_tallies_take() {
        use rna_core::fault::{FaultPlan, ToleranceConfig};
        let frame = Compression::Lossless.frame_bytes(LEN);
        let mut config = ThreadedConfig::quick(2, SyncMode::Rna)
            .with_tolerance(ToleranceConfig::tight())
            .with_checkpoint_every(4)
            // Term 0 dies at round 6 (last cut: 4), term 1 at round 11
            // (last cut: 8); term 2 finishes.
            .with_fault_plan(FaultPlan::none().crash_controller(6).crash_controller(11));
        config.rounds = 12;
        let (done, lineage, published) = run_scripted(&config, Tensor::zeros(LEN), |_, _| {
            Some((Tensor::zeros(LEN), Some((frame, 0.0))))
        });
        // The standby really rolled the round counter back, twice.
        let rollbacks: Vec<u64> = published
            .windows(2)
            .filter(|w| w[1] < w[0])
            .map(|w| w[1])
            .collect();
        assert_eq!(rollbacks, [4, 8]);
        // Outside the checkpoint: both failovers and every redone round
        // (6−4, 11−8) are still on the books after two restores...
        assert_eq!(lineage.term, 3);
        assert_eq!(lineage.controller_failovers, 2);
        assert_eq!(lineage.failover_rounds_lost, 2 + 3);
        // ...and never leaked into the state a restore overwrites.
        assert_eq!(done.counters.controller_failovers, 0);
        assert_eq!(done.counters.failover_rounds_lost, 0);
        // Inside the checkpoint: the tallies of the five redone rounds died
        // with their incarnations, so the surviving lineage counts each of
        // the 12 rounds exactly once (17 were executed).
        assert_eq!(done.round, 12);
        assert_eq!(done.counters.bytes_on_wire, 12 * 2 * frame);
        assert_eq!(done.participation_sum, 12.0);
        assert_eq!(done.counters.checkpoints_written, 3, "cuts at 4, 8 and 12");
    }

    #[test]
    fn all_ready_trigger_is_the_barrier_update_rule_bit_for_bit() {
        // `run_bsp`'s update rule, captured before it was deleted: the mean
        // of every worker's gradient applied at scale 1.0 (not the Linear
        // Scaling Rule's contributor count), full participation, no wire
        // bytes tallied for raw shared-memory gradients.
        let mut config = ThreadedConfig::quick(3, SyncMode::Bsp);
        config.rounds = 6;
        let master0: Tensor = (0..LEN).map(|j| j as f32 * 0.25 - 0.5).collect();
        let (done, _, published) =
            run_scripted(&config, master0.clone(), |w, k| Some((grad_of(w, k), None)));
        let mut expected = master0;
        let mut opt = rna_training::Sgd::new(config.lr, 0.0, 0.0, LEN);
        let mut pool = TensorPool::new();
        for k in 0..config.rounds {
            let grads: Vec<Tensor> = (0..3).map(|w| grad_of(w, k)).collect();
            let refs: Vec<Option<&Tensor>> = grads.iter().map(Some).collect();
            let mean = partial_allreduce_pooled(&refs, &mut pool).expect("three contribute");
            opt.step(&mut expected, &mean.reduced, 1.0);
        }
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&done.master), bits(&expected));
        assert_eq!(done.participation_sum, 6.0);
        assert_eq!(done.rounds_degraded, 0);
        assert_eq!(done.counters.bytes_on_wire, 0);
        assert_eq!(published, [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn all_ready_trigger_degrades_at_the_deadline_when_a_worker_stays_silent() {
        use rna_core::fault::ToleranceConfig;
        let mut config = ThreadedConfig::quick(2, SyncMode::Bsp).with_tolerance(ToleranceConfig {
            round_deadline_us: 3_000,
            ..ToleranceConfig::default()
        });
        config.rounds = 2;
        let master0 = grad_of(9, 9);
        let began = Instant::now();
        // Worker 1 never deposits: the barrier cannot fire.
        let (done, _, _) = run_scripted(&config, master0.clone(), |w, k| {
            (w == 0).then(|| (grad_of(w, k), None))
        });
        let elapsed = began.elapsed();
        assert_eq!(done.rounds_degraded, 2);
        assert_eq!(done.participation_sum, 0.0);
        // Strict barrier semantics: an incomplete round applies nothing.
        assert_eq!(done.master.as_slice(), master0.as_slice());
        // Both rounds waited out their deadline, and whatever the scheduler
        // added on top is on the books, not swallowed.
        assert!(elapsed >= Duration::from_micros(2 * 3_000), "{elapsed:?}");
        let overshoot = Duration::from_micros(done.deadline_overshoot_us);
        assert!(overshoot <= elapsed - Duration::from_micros(2 * 3_000));
    }

    #[test]
    fn each_trigger_fires_on_its_own_condition_and_not_before() {
        let config = ThreadedConfig::quick(4, SyncMode::Rna);
        let mirror = Mirror::new(&config, Instant::now(), 0, |_| true);
        let active = [true; 4];
        let ready = |w: usize| {
            mirror.beat(w);
            mirror.deposit(w, 0, Tensor::zeros(LEN), None);
        };
        // A freshly opened election per check; `probed` is RNA's admitted set.
        let fires = |mode, active: &[bool], probed: &[usize]| {
            let mut election = Election::new(mode, probed.len(), &config.tolerance);
            election.open();
            election.draw(0, probed, false, &mut SimRng::seed(0), |_| true);
            super::fires(&mut election, 0, &mirror, active)
        };
        (0..4).for_each(|w| mirror.beat(w));
        ready(1);
        ready(2);
        // Two of four live workers: short of `live_majority(4) == 3`, short
        // of the barrier, and invisible to RNA unless one of them was probed.
        assert_eq!(fires(SyncMode::EagerMajority, &active, &[]), None);
        assert_eq!(fires(SyncMode::Bsp, &active, &[]), None);
        assert_eq!(fires(SyncMode::Rna, &active, &[0, 3]), None);
        assert_eq!(fires(SyncMode::Rna, &active, &[3, 2]), Some(2));
        ready(3);
        // The third deposit is the majority; the barrier still waits for 0.
        assert_eq!(fires(SyncMode::EagerMajority, &active, &[]), Some(1));
        assert_eq!(fires(SyncMode::Bsp, &active, &[]), None);
        // A dead or inactive worker is outside the barrier's electorate.
        mirror.set_alive(0, false);
        assert_eq!(fires(SyncMode::Bsp, &active, &[]), Some(1));
        mirror.set_alive(0, true);
        let without_0 = [false, true, true, true];
        assert_eq!(fires(SyncMode::Bsp, &without_0, &[]), Some(1));
        ready(0);
        assert_eq!(fires(SyncMode::Bsp, &active, &[]), Some(0));
    }

    #[test]
    fn rna_resamples_a_probed_but_unready_set_after_the_backoff() {
        // One probe per election over four live workers, of which exactly one
        // ever has a gradient — and it is not the one the first election
        // draws. The round can only fire through a backoff-paced resample.
        let first_probe = SimRng::seed(3).fork(STREAM_PROBE).choose_distinct(4, 1)[0];
        let ready = (first_probe + 1) % 4;
        let mut config = ThreadedConfig::quick(4, SyncMode::Rna);
        config.rounds = 1;
        config.probes = 1;
        let backoff = Duration::from_micros(config.tolerance.probe_backoff_us);
        let began = Instant::now();
        let (done, _, _) = run_scripted(&config, Tensor::zeros(LEN), |w, k| {
            (w == ready).then(|| (grad_of(w, k), None))
        });
        assert!(began.elapsed() >= backoff, "fired without a resample");
        assert_eq!(done.rounds_degraded, 0);
        assert_eq!(done.participation_sum, 0.25);
    }

    #[test]
    fn worker_and_probe_streams_match_the_sequential_fork_order() {
        // The shared fork sequence as the threaded world used to walk it —
        // one generator, every worker's sampler and compute fork in worker
        // order, then term 0's probe fork — and as a subprocess used to
        // replay it for itself. `worker_streams` (what both worlds call now)
        // must land every stream on the same bits, for members and joiners.
        let draws = |mut r: SimRng| [r.uniform_u64(0..u64::MAX), r.uniform_u64(0..u64::MAX)];
        let n = 5u64;
        let grant_of = |w: u64| if w == 3 { join_grant(w as usize) } else { 0 };
        let (post_template, ..) = task(11);
        let mut shared = post_template.clone();
        for w in 0..n {
            let (sampler_key, compute_key) = match grant_of(w) {
                0 => (STREAM_SAMPLER + w, STREAM_COMPUTE + w),
                g => (g, g + 1),
            };
            let sampler = shared.fork(sampler_key);
            let compute = shared.fork(compute_key);
            // The subprocess's private continuation, off its own copy.
            let mut own = shared.clone();
            let reconnect = own.fork(STREAM_RECONNECT + w);
            let wire = own.fork(STREAM_WIRE + w);
            let got = worker_streams(&post_template, w, grant_of(w));
            assert_eq!(draws(got.sampler), draws(sampler), "sampler {w}");
            assert_eq!(draws(got.compute), draws(compute), "compute {w}");
            assert_eq!(draws(got.reconnect), draws(reconnect), "reconnect {w}");
            assert_eq!(draws(got.wire), draws(wire), "wire {w}");
        }
        // Term 0's probe stream is the first fork behind the workers.
        let probe = past_workers(&post_template, n).fork(STREAM_PROBE);
        assert_eq!(draws(probe), draws(shared.fork(STREAM_PROBE)));
    }

    /// FNV-1a digests of `task(seed)`'s features, labels, initial parameters
    /// and the next draws of its post-template generator.
    fn task_digest(seed: u64) -> [u64; 4] {
        use rna_tensor::wire::fnv1a;
        let (mut rng, dataset, model) = task(seed);
        let (mut features, mut labels) = (Vec::new(), Vec::new());
        for i in 0..dataset.len() {
            features.extend(dataset.input(i).iter().flat_map(|x| x.to_le_bytes()));
            labels.extend((dataset.label(i) as u64).to_le_bytes());
        }
        let params: Vec<u8> = model
            .params()
            .as_slice()
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect();
        let draws: Vec<u8> = (0..4)
            .flat_map(|_| rng.uniform_u64(0..u64::MAX).to_le_bytes())
            .collect();
        [
            fnv1a(&features),
            fnv1a(&labels),
            fnv1a(&params),
            fnv1a(&draws),
        ]
    }

    #[test]
    fn the_real_worlds_task_is_pinned() {
        // Captured from the task's own `Dataset::blobs` + `SoftmaxClassifier`
        // draws before it moved to `TaskKind::build`: the constructor must
        // reproduce the dataset, the initial model and the generator every
        // per-role stream forks from.
        let pins = [
            (
                1,
                [
                    0x01f5_ffdd_431e_28dd,
                    0x0cba_fff7_93ad_c325,
                    0x5360_27c9_e7d1_774e,
                    0x88cb_f39f_3be3_96b7,
                ],
            ),
            (
                7,
                [
                    0x9f2b_48e9_cc31_5c9f,
                    0x0cba_fff7_93ad_c325,
                    0x001b_269d_b772_b56d,
                    0x65db_e6fb_d40e_7cda,
                ],
            ),
            (
                33,
                [
                    0x6b86_180c_1e6e_de32,
                    0x0cba_fff7_93ad_c325,
                    0xfbf8_6cf0_15b9_6065,
                    0xa37b_fbbc_a9ea_35a2,
                ],
            ),
        ];
        for (seed, want) in pins {
            assert_eq!(
                task_digest(seed),
                want,
                "seed {seed}: features, labels, params, draws"
            );
        }
    }

    #[test]
    fn rng_stream_namespaces_are_disjoint() {
        // Regression: the old per-worker forks at `10 + w` and `50 + w`
        // collide at 40+ workers (10 + 40 == 50 + 0). The namespaced
        // streams stay distinct across roles for any worker index that
        // fits in 32 bits.
        for &w in &[0u64, 1, 39, 40, 41, 1_000_000, u32::MAX as u64] {
            for &v in &[0u64, 1, 39, 40, 41, 1_000_000, u32::MAX as u64] {
                assert_ne!(STREAM_SAMPLER + w, STREAM_COMPUTE + v);
                assert_ne!(STREAM_SAMPLER + w, STREAM_PROBE);
                assert_ne!(STREAM_COMPUTE + v, STREAM_PROBE);
                // Joiner grants (two keys per worker) are their own
                // namespace too.
                assert_ne!(STREAM_SAMPLER + w, join_grant(v as usize));
                assert_ne!(STREAM_COMPUTE + w, join_grant(v as usize) + 1);
                assert_ne!(STREAM_PROBE + w, join_grant(v as usize));
                // Reconnect jitter and worker-side wire-codec draws are
                // per-worker namespaces of their own.
                assert_ne!(STREAM_RECONNECT + w, STREAM_WIRE + v);
                assert_ne!(STREAM_RECONNECT + w, join_grant(v as usize));
                assert_ne!(STREAM_WIRE + w, join_grant(v as usize) + 1);
                assert_ne!(STREAM_WIRE + w, STREAM_PROBE + v);
                assert_ne!(STREAM_WIRE + w, STREAM_SAMPLER + v);
                assert_ne!(STREAM_WIRE + w, STREAM_COMPUTE + v);
            }
        }
    }

    #[test]
    fn fused_reduce_matches_null_padded_weighted_average_bit_exactly() {
        use rna_tensor::reduce::weighted_average;
        // The naive controller materialized a zero tensor per absent
        // contribution and ran a 1/0-weighted average; the fused kernel the
        // controller calls skips the nulls. The two must agree to the last
        // bit, including on lengths that leave an unrolled-loop remainder.
        let mut pool = TensorPool::new();
        for len in [1usize, 7, 8, 19, 64] {
            let contributions: Vec<Option<Tensor>> = (0..5)
                .map(|i| {
                    (i != 2).then(|| {
                        (0..len)
                            .map(|j| ((i * 31 + j) as f32 * 0.37).sin())
                            .collect()
                    })
                })
                .collect();
            let null = Tensor::zeros(len);
            let padded: Vec<&Tensor> = contributions
                .iter()
                .map(|c| c.as_ref().unwrap_or(&null))
                .collect();
            let weights: Vec<f32> = contributions
                .iter()
                .map(|c| if c.is_some() { 1.0 } else { 0.0 })
                .collect();
            let expected = weighted_average(&padded, &weights).unwrap();
            let refs: Vec<Option<&Tensor>> = contributions.iter().map(Option::as_ref).collect();
            let fused = partial_allreduce_pooled(&refs, &mut pool).expect("four contribute");
            assert_eq!(fused.num_contributors, 4);
            assert_eq!(fused.reduced.as_slice(), expected.as_slice(), "len={len}");
            pool.release(fused.reduced);
        }
    }

    #[test]
    fn shim_is_transparent_without_faults() {
        let mut shim = NetShim::new(&NetFaultPlan::none(), 4);
        assert!(!shim.enabled());
        assert_eq!(shim.controller_id(), 4);
        assert!(shim.deliver(0, 4, 123));
        assert!(shim.link_up(0, 5, 0));
    }

    #[test]
    fn shim_executes_partitions_and_drops() {
        let plan = NetFaultPlan::none()
            .with_seed(3)
            .drop_link(4, 0, 1.0)
            .partition(vec![2, 3], 1_000, 5_000);
        let mut shim = NetShim::new(&plan, 4);
        assert!(shim.enabled());
        assert!(!shim.deliver(4, 0, 0), "p = 1 link always drops");
        assert!(shim.link_up(2, 3, 2_000), "intra-island link stays up");
        assert!(!shim.link_up(0, 2, 2_000), "cross-partition link severed");
        assert!(shim.link_up(4, 2, 2_000), "controller is a bridge");
        assert!(shim.link_up(0, 2, 6_000), "heals after the window");
    }
}
