//! The world-agnostic controller: probe elections, partial collectives,
//! codec accounting, degraded rounds, and lease-based failover, written
//! once against the [`Transport`] trait.
//!
//! The threaded world implements [`Transport`] over shared memory
//! (`Mutex<GradientCache>` slots, atomics, a condvar); the process world
//! implements it over sockets (coordinator-side mirrors fed by per-
//! connection reader threads, parameter pushes as framed TCP writes). The
//! controller logic itself — what the paper calls the stateless scheduler —
//! cannot drift between the worlds because it is this one function.
//!
//! Every wait in the controller is event-driven: the election loops block
//! on the transport's readiness channel with a timeout equal to the next
//! *scheduled* event (round deadline, probe re-sample, or the earliest
//! moment a live worker's heartbeat could go stale) instead of the 1 ms
//! polling the earlier threaded controller used.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rna_collectives::partial_allreduce_pooled;
use rna_core::fault::{live_majority, probe_round_stalled};
use rna_core::membership::ChurnEvent;
use rna_core::recovery::CheckpointStore;
use rna_core::stats::Counters;
use rna_simnet::SimRng;
use rna_tensor::codec;
use rna_tensor::wire::{self, Reader};
use rna_tensor::{Compression, Tensor, TensorPool};

use crate::fault::NetShim;
use crate::threaded::{SyncMode, ThreadedConfig};

/// Disjoint RNG stream namespaces shared by the threaded and process
/// runtimes. Earlier code forked worker streams at `10 + w` and `50 + w`,
/// which collide once the cluster reaches 40 workers; spacing the
/// namespaces `1 << 32` apart keeps every role disjoint for any realistic
/// worker count.
pub(crate) const STREAM_SAMPLER: u64 = 1 << 32;
pub(crate) const STREAM_COMPUTE: u64 = 2 << 32;
pub(crate) const STREAM_PROBE: u64 = 3 << 32;
/// Codec stream (stochastic-rounding draws), forked per controller
/// incarnation like [`STREAM_PROBE`] so a failed-over controller replays
/// deterministic draws without sharing the probe stream.
pub(crate) const STREAM_CODEC: u64 = 4 << 32;
/// Stream grants for mid-run joiners: joiner `w` forks its sampler from
/// `STREAM_JOIN + 2w` and its compute stream from `STREAM_JOIN + 2w + 1`.
/// Disjoint from every other namespace, and — because a fork advances the
/// parent generator identically regardless of the key — original members
/// replay the shared fork sequence without knowing who joined.
pub(crate) const STREAM_JOIN: u64 = 5 << 32;
/// Per-worker reconnect-jitter streams: worker `w` forks
/// `STREAM_RECONNECT + w` for the jitter its capped-exponential-backoff
/// reconnect loop draws, so a soak that kills the coordinator replays the
/// same backoff schedule run over run.
pub(crate) const STREAM_RECONNECT: u64 = 6 << 32;
/// Per-worker wire-codec streams: worker `w` forks `STREAM_WIRE + w` for
/// the stochastic-rounding draws of its worker-side encode leg (process
/// world). Forked from the worker subprocess's own replayed RNG copy
/// right after [`STREAM_RECONNECT`], so it never perturbs the shared
/// prefix the threaded world's workers replay.
pub(crate) const STREAM_WIRE: u64 = 7 << 32;

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

/// How a controller incarnation observes and reaches its cluster.
///
/// `&mut self` receivers exist for the socket world (writes, channel
/// receives); the threaded implementation is all shared-memory loads.
pub(crate) trait Transport: Send {
    /// Microseconds since run start on the controller's clock.
    fn now_us(&self) -> u64;
    /// Permanently-dead view (the worker executed a crash, or its process
    /// exited and will not be respawned).
    fn is_dead(&self, w: usize) -> bool;
    /// Liveness view for elections and majorities: alive and heard from
    /// within the liveness timeout.
    fn live_view(&self) -> Vec<bool>;
    /// Microseconds-since-start of worker `w`'s last sign of life.
    fn heartbeat_us(&self, w: usize) -> u64;
    /// Whether worker `w`'s gradient cache has at least one entry.
    fn cache_ready(&self, w: usize) -> bool;
    /// Takes worker `w`'s freshest in-bound contribution for round `round`
    /// (see `GradientCache::take_contribution_pooled`).
    fn drain(&mut self, w: usize, round: u64, pool: &mut TensorPool) -> Option<Tensor>;
    /// Discards a dead worker's cache so its final gradient is never
    /// reduced (matching the simulator's crash semantics).
    fn purge(&mut self, w: usize, staleness_bound: usize);
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
    /// Publishes the new round counter to every worker (the bounded-lead
    /// gate). Also used to roll the counter *back* after a failover.
    fn advance_round(&mut self, k: u64);
    /// Blocks until some worker's state may have changed (gradient
    /// deposited, worker died or rejoined) or the timeout elapses.
    fn wait_ready(&mut self, timeout: Duration);
    /// Discards queued readiness notifications (they only say "something
    /// changed", and the controller re-polls anyway).
    fn drain_ready(&mut self);
    /// Drains the codec charges measured at the socket since the last
    /// call — the byte and error tallies of a [`Counters`], nothing else set
    /// — for worlds whose *workers* own the encode leg (the process world:
    /// contributions arrive already wire-valued, and the readers tally the
    /// bytes that physically crossed). `None` means the controller must run
    /// the accounting codec itself over the drained contributions (the
    /// threaded world's default).
    fn take_wire_charges(&mut self) -> Option<Counters> {
        None
    }
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
    pub heartbeat_us: AtomicU64,
    pub slot: Mutex<Option<CtrlCheckpoint>>,
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
    plane: &CtrlPlane,
    store: Option<&CheckpointStore>,
) {
    ck.round = round;
    ck.master.copy_from(master);
    ck.velocity.copy_from(opt.velocity());
    ck.counters.checkpoints_written += 1;
    *lock(&plane.slot) = Some(ck.clone());
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
fn liveness_edge<T: Transport + ?Sized>(t: &T, active: &[bool], liveness_us: u64) -> Duration {
    let now = t.now_us();
    let mut edge = u64::MAX;
    for (w, &live) in active.iter().enumerate() {
        if !live || t.is_dead(w) {
            continue;
        }
        let stale_at = t.heartbeat_us(w).saturating_add(liveness_us);
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

/// One probe election attempt over the faulty fabric: samples candidates,
/// then rolls the controller→worker probe and the worker→controller reply
/// on the shim. Returns the candidates whose RPC round-trip survived and
/// how many messages the fabric ate (0 on a clean fabric, where this is
/// exactly [`sample_probes`]).
fn probe_rpc<T: Transport + ?Sized>(
    rng: &mut SimRng,
    t: &T,
    active: &[bool],
    probes: usize,
    shim: &mut NetShim,
    ctrl: usize,
) -> (Vec<usize>, u64) {
    let sampled = sample_probes(rng, t, active, probes);
    if !shim.enabled() {
        return (sampled, 0);
    }
    let now_us = t.now_us();
    let mut lost = 0;
    let survived = sampled
        .into_iter()
        .filter(|&w| {
            let ok = shim.deliver(ctrl, w, now_us) && shim.deliver(w, ctrl, now_us);
            if !ok {
                lost += 1;
            }
            ok
        })
        .collect();
    (survived, lost)
}

/// Draws up to `probes` distinct candidates from the live view restricted
/// to the round's active membership (dormant joiners and departed workers
/// never probe); when no active worker is live (all silent, e.g. mid-hang)
/// falls back to the active not-yet-crashed set so a recovering worker can
/// still be elected.
fn sample_probes<T: Transport + ?Sized>(
    rng: &mut SimRng,
    t: &T,
    active: &[bool],
    probes: usize,
) -> Vec<usize> {
    let n = active.len();
    let live = t.live_view();
    let mut pool: Vec<usize> = (0..n).filter(|&w| active[w] && live[w]).collect();
    if pool.is_empty() {
        pool = (0..n).filter(|&w| active[w] && !t.is_dead(w)).collect();
    }
    if pool.is_empty() {
        return Vec::new();
    }
    let d = probes.clamp(1, pool.len());
    rng.choose_distinct(pool.len(), d)
        .into_iter()
        .map(|i| pool[i])
        .collect()
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
    transport: &mut T,
    plane: &CtrlPlane,
    store: Option<&CheckpointStore>,
    mut ck: CtrlCheckpoint,
    probe_rng: &mut SimRng,
    codec_rng: &mut SimRng,
    crash_at: Option<u64>,
    abort_at: Option<u64>,
) -> Result<CtrlCheckpoint, Death> {
    let n = config.num_workers;
    let mut master = ck.master.clone();
    let mut opt = rna_training::Sgd::new(config.lr, 0.0, 0.0, master.len());
    opt.set_velocity(&ck.velocity);
    let mut pool = TensorPool::new();
    let mut purged = vec![false; n];
    let wire_codec = config.compression;
    // Per-worker error-feedback residuals. Like the pool, they live with
    // the incarnation: a failed-over controller starts with clean
    // residuals, which only costs the (bounded) error the dead incarnation
    // still owed — the telescoping restarts from zero.
    let mut residuals: Vec<Option<Tensor>> = vec![None; n];
    let mut codec_buf: Vec<u8> = Vec::new();
    let mut shim = NetShim::new(&config.net_fault_plan, n);
    let ctrl = shim.controller_id();
    let liveness_us = config.tolerance.liveness_timeout_us;
    let round_deadline = Duration::from_micros(config.tolerance.round_deadline_us);
    let probe_backoff = Duration::from_micros(config.tolerance.probe_backoff_us);
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
        let active: Vec<bool> = (0..n).map(|w| config.churn_plan.active_at(w, k)).collect();
        let active_n = active.iter().filter(|&&a| a).count().max(1);
        plane
            .heartbeat_us
            .store(transport.now_us(), Ordering::Release);
        // Drain stale readiness notifications so the channel cannot grow
        // without bound: the notifications only say "some cache changed",
        // and the caches are re-polled below anyway.
        transport.drain_ready();

        let round_start = Instant::now();
        let mut degraded = false;
        // The worker whose readiness fired the round. Partition semantics
        // follow the simulator's `launch_reduce`: gradients and parameter
        // broadcasts ride initiator↔member links, so a member severed from
        // the initiator sits the round out (the controller itself is a
        // partition bridge — the paper's stateless, replicable scheduler).
        let mut initiator: Option<usize> = None;
        match config.mode {
            SyncMode::EagerMajority => {
                // eager-SGD: wait for a majority of the *live, active*
                // electorate.
                loop {
                    if (0..n).filter(|&w| active[w]).all(|w| transport.is_dead(w)) {
                        degraded = true;
                        break;
                    }
                    let live = transport.live_view();
                    let ready: Vec<usize> = (0..n)
                        .filter(|&w| active[w] && !transport.is_dead(w))
                        .filter(|&w| transport.cache_ready(w))
                        .collect();
                    let need = live_majority((0..n).filter(|&w| active[w] && live[w]).count());
                    if ready.len() >= need {
                        initiator = ready.first().copied();
                        break;
                    }
                    let elapsed = round_start.elapsed();
                    if elapsed >= round_deadline {
                        degraded = true;
                        break;
                    }
                    // Event-driven wait: a deposit/death wakes the channel,
                    // a heartbeat going stale is bounded by the liveness
                    // edge, and the round deadline caps everything.
                    let wait = (round_deadline - elapsed)
                        .min(liveness_edge(transport, &active, liveness_us))
                        .max(MIN_WAIT);
                    transport.wait_ready(wait);
                }
            }
            _ => {
                // RNA: power-of-d probing over live workers — wait until a
                // probed worker is ready, resampling away from workers that
                // died or went silent (backoff-paced so a merely slow
                // probed set still gets a chance to answer). Each probe is
                // a controller→worker→controller RPC pair: the shim may
                // eat either leg, and an election that loses every probe
                // to the fabric is retried with exponential backoff — an
                // idempotent re-issue, never a wedge.
                let mut backoff = probe_backoff;
                let (mut probed, lost) = probe_rpc(
                    probe_rng,
                    transport,
                    &active,
                    config.probes,
                    &mut shim,
                    ctrl,
                );
                ck.counters.messages_dropped += lost;
                let mut last_lost = lost > 0;
                let mut last_sample = Instant::now();
                loop {
                    if (0..n).filter(|&w| active[w]).all(|w| transport.is_dead(w)) {
                        degraded = true;
                        break;
                    }
                    if let Some(&w) = probed
                        .iter()
                        .find(|&&w| !transport.is_dead(w) && transport.cache_ready(w))
                    {
                        initiator = Some(w);
                        break;
                    }
                    let live = transport.live_view();
                    if probed.is_empty()
                        || probe_round_stalled(&probed, &live)
                        || last_sample.elapsed() >= backoff
                    {
                        if last_lost {
                            ck.counters.probe_retries += 1;
                            backoff = backoff
                                .saturating_mul(2)
                                .min(Duration::from_micros(config.tolerance.probe_backoff_cap_us));
                        }
                        let (fresh, lost) = probe_rpc(
                            probe_rng,
                            transport,
                            &active,
                            config.probes,
                            &mut shim,
                            ctrl,
                        );
                        ck.counters.messages_dropped += lost;
                        last_lost = lost > 0;
                        probed = fresh;
                        last_sample = Instant::now();
                    }
                    let elapsed = round_start.elapsed();
                    if elapsed >= round_deadline {
                        degraded = true;
                        break;
                    }
                    let wait = (round_deadline - elapsed)
                        .min(backoff.saturating_sub(last_sample.elapsed()))
                        .min(liveness_edge(transport, &active, liveness_us))
                        .max(MIN_WAIT);
                    transport.wait_ready(wait);
                }
            }
        }
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
        // worker's cache is purged once — its final gradient is discarded,
        // matching the simulator's crash semantics (a restarted worker
        // refills it after rejoining). A worker severed from the
        // controller keeps its cache untouched — its island keeps
        // accumulating and reconciles on heal — while a gradient lost to
        // a lossy link becomes a null in the partial collective.
        let mut severed = false;
        let now_us = transport.now_us();
        let gather = initiator.unwrap_or(ctrl);
        // Everything from the cache drain through the applied update is the
        // fused reduce region; the alloc delta (debug builds) proves its
        // steady-state rounds recycle pooled buffers instead of allocating.
        // The parameter broadcast below is excluded: snapshot buffers are
        // reclaimed by whichever thread drops the last `Arc`, so their pool
        // hits are timing-dependent by design.
        let allocs_before = rna_tensor::alloc::count();
        let mut contributions: Vec<Option<Tensor>> = Vec::with_capacity(n);
        for (w, was_purged) in purged.iter_mut().enumerate() {
            // A worker outside this round's membership (dormant joiner,
            // retiree past its last round, evictee) is drained like a dead
            // one: its cache is purged once so nothing it left behind ever
            // joins a reduce it is not a member of.
            let c = if transport.is_dead(w) || !active[w] {
                if !*was_purged {
                    *was_purged = true;
                    transport.purge(w, config.staleness_bound);
                }
                None
            } else {
                *was_purged = false;
                if !shim.link_up(w, gather, now_us) {
                    severed = true;
                    None
                } else {
                    match transport.drain(w, k, &mut pool) {
                        Some(g) if shim.deliver(w, gather, now_us) => Some(g),
                        Some(g) => {
                            ck.counters.messages_dropped += 1;
                            pool.release(g);
                            None
                        }
                        None => None,
                    }
                }
            };
            contributions.push(c);
        }
        if severed {
            ck.counters.partition_rounds += 1;
        }
        // The wire codec runs where the gradient crosses the network. In
        // the process world that is the *worker*: frames arrive already
        // encoded, the readers decode them and tally the bytes that
        // physically crossed, and the controller only folds those measured
        // charges in. Everywhere else each delivered contribution becomes
        // decode(encode(grad + residual)) right here, with the dropped
        // remainder waiting in the worker's residual for its next
        // contribution (error feedback). Lossless is the identity and only
        // accounts the frame bytes a lossless wire would move.
        if let Some(wire) = transport.take_wire_charges() {
            ck.counters.bytes_on_wire += wire.bytes_on_wire;
            ck.counters.bytes_saved += wire.bytes_saved;
            ck.counters.codec_error_l2 += wire.codec_error_l2;
        } else {
            for (w, slot) in contributions.iter_mut().enumerate() {
                let Some(g) = slot.as_mut() else { continue };
                let lossless_frame = Compression::Lossless.frame_bytes(g.len());
                if wire_codec.is_lossless() {
                    ck.counters.bytes_on_wire += lossless_frame;
                    continue;
                }
                let residual = residuals[w].get_or_insert_with(|| Tensor::zeros(g.len()));
                let mut draw = || codec_rng.uniform_u64(0..1 << 32) as u32;
                let threads = codec::wire_threads(g.len());
                let (frame, err) = codec::encode_with_feedback_mt(
                    wire_codec,
                    g,
                    residual,
                    &mut codec_buf,
                    &mut draw,
                    threads,
                );
                ck.counters.bytes_on_wire += frame;
                ck.counters.bytes_saved += lossless_frame.saturating_sub(frame);
                ck.counters.codec_error_l2 += err;
            }
        }
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
            // Linear Scaling Rule: learning rate × contributor count.
            opt.step(&mut master, &outcome.reduced, m);
            pool.release(outcome.reduced);
            ck.counters.datapath_allocs += rna_tensor::alloc::count() - allocs_before;
            ck.participation_sum += f64::from(m) / active_n as f64;
            let push_us = transport.now_us();
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
            // Nothing usable this round (cluster dead, or every cached
            // gradient fell past the staleness bound): complete the round
            // degraded rather than blocking the run.
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
        for &(w, ref ev) in config.churn_plan.events() {
            match *ev {
                ChurnEvent::Join { at_round, .. } if at_round == k + 1 => {
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
                ChurnEvent::Retire { at_round } if at_round == k => {
                    ck.counters.workers_retired += 1;
                }
                ChurnEvent::Evict { at_round } if at_round == k + 1 => {
                    ck.counters.workers_retired += 1;
                }
                _ => {}
            }
        }
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
    /// (crash-schedule indexing, probe/codec stream keys) is global across
    /// standby takeovers and coordinator restarts.
    pub term: u64,
    /// Times a standby took over from a crashed controller.
    pub controller_failovers: u64,
    /// Rounds redone across every takeover and coordinator restart (death
    /// round minus restored checkpoint round, summed).
    pub failover_rounds_lost: u64,
}

/// Runs controller incarnations under the lease+term protocol until the
/// round budget is spent: each incarnation is a real (scoped) thread — a
/// planned crash makes it exit mid-run, exactly like a controller process
/// dying — and the warm standby waits out the lease before replaying from
/// the last checkpoint. Every term forks its own probe/codec streams;
/// term 0's forks are the run's first after worker setup, so fault-free
/// runs elect the same initiators in every world.
///
/// Returns the finished state, or `None` when the coordinator was killed at
/// `abort_at`: unlike a planned crash there is no in-memory standby
/// afterwards — the process world restarts from the *disk* checkpoint and
/// calls again with the same `lineage`, whose term this call already bumped,
/// so a rerun with the same kill schedule replays identically.
pub(crate) fn supervise<T: Transport + ?Sized>(
    config: &ThreadedConfig,
    transport: &mut T,
    rng: &mut SimRng,
    state0: CtrlCheckpoint,
    store: Option<&CheckpointStore>,
    abort_at: Option<u64>,
    lineage: &mut Lineage,
) -> Option<CtrlCheckpoint> {
    let crashes: Vec<u64> = config.fault_plan.controller_crashes().to_vec();
    let plane = CtrlPlane {
        heartbeat_us: AtomicU64::new(0),
        slot: Mutex::new(Some(state0.clone())),
    };
    let mut state = state0;
    loop {
        let term = lineage.term;
        let crash_at = crashes
            .get(usize::try_from(term).unwrap_or(usize::MAX))
            .copied();
        let mut probe_rng = rng.fork(STREAM_PROBE + term);
        let mut codec_rng = rng.fork(STREAM_CODEC + term);
        let incarnation = state.clone();
        let t = &mut *transport;
        let plane_ref = &plane;
        let exit = std::thread::scope(|scope| {
            scope
                .spawn(move || {
                    controller_loop(
                        config,
                        t,
                        plane_ref,
                        store,
                        incarnation,
                        &mut probe_rng,
                        &mut codec_rng,
                        crash_at,
                        abort_at,
                    )
                })
                .join()
                // A genuine (unplanned) controller panic is a harness bug,
                // not an injected fault; surface it.
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        });
        lineage.term += 1;
        match exit {
            Ok(done) => return Some(done),
            Err(Death::Killed) => return None,
            Err(Death::Crashed) => {
                // The controller died. The standby must not seize the round
                // until the lease expires — a live-but-slow incumbent may
                // still hold it — then it replays from the last checkpoint.
                // Workers are oblivious: the lead gate parks them against
                // the rolled-back round counter and their caches keep
                // serving the reborn controller. The dead incumbent's
                // heartbeat cannot refresh, so one exact-remaining sleep
                // (not a 1 ms poll) covers the wait.
                let lease = config.tolerance.liveness_timeout_us;
                loop {
                    let since = transport
                        .now_us()
                        .saturating_sub(plane.heartbeat_us.load(Ordering::Acquire));
                    if since >= lease {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(lease - since));
                }
                state = lock(&plane.slot)
                    .clone()
                    .expect("standby slot is seeded before the first incarnation");
                lineage.controller_failovers += 1;
                lineage.failover_rounds_lost +=
                    crash_at.unwrap_or(state.round).saturating_sub(state.round);
                transport.advance_round(state.round);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                ps_failovers: 6,
                checkpoints_written: 4,
                datapath_allocs: 11,
                bytes_on_wire: 4096,
                bytes_saved: 2048,
                codec_error_l2: 0.625,
                workers_joined: 8,
                workers_retired: 10,
                regroup_events: 3,
                ps_keys_rebalanced: 12,
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

    /// A [`Transport`] whose every worker always has a gradient ready: the
    /// controller runs its rounds back to back, so every per-round tally is
    /// an exact function of the rounds that survive in the lineage.
    struct ScriptedTransport {
        start: Instant,
        len: usize,
        /// Every round counter the controller published, roll-backs included.
        published: Vec<u64>,
    }

    impl Transport for ScriptedTransport {
        fn now_us(&self) -> u64 {
            u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
        }
        fn is_dead(&self, _w: usize) -> bool {
            false
        }
        fn live_view(&self) -> Vec<bool> {
            vec![true; 2]
        }
        fn heartbeat_us(&self, _w: usize) -> u64 {
            self.now_us()
        }
        fn cache_ready(&self, _w: usize) -> bool {
            true
        }
        fn drain(&mut self, _w: usize, _round: u64, pool: &mut TensorPool) -> Option<Tensor> {
            Some(pool.acquire(self.len))
        }
        fn purge(&mut self, _w: usize, _staleness_bound: usize) {}
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
        }
        fn wait_ready(&mut self, _timeout: Duration) {}
        fn drain_ready(&mut self) {}
    }

    #[test]
    fn failover_tallies_survive_the_rollback_that_checkpointed_tallies_take() {
        use rna_core::fault::{FaultPlan, ToleranceConfig};
        let len = 5;
        let mut config = ThreadedConfig::quick(2, SyncMode::Rna)
            .with_tolerance(ToleranceConfig::tight())
            .with_checkpoint_every(4)
            // Term 0 dies at round 6 (last cut: 4), term 1 at round 11
            // (last cut: 8); term 2 finishes.
            .with_fault_plan(FaultPlan::none().crash_controller(6).crash_controller(11));
        config.rounds = 12;
        let mut transport = ScriptedTransport {
            start: Instant::now(),
            len,
            published: Vec::new(),
        };
        let mut lineage = Lineage::default();
        let done = supervise(
            &config,
            &mut transport,
            &mut SimRng::seed(3),
            CtrlCheckpoint::initial(Tensor::zeros(len)),
            None,
            None,
            &mut lineage,
        )
        .expect("no abort round was scheduled");
        // The standby really rolled the round counter back, twice.
        let rollbacks: Vec<u64> = transport
            .published
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
        let frame = Compression::Lossless.frame_bytes(len);
        assert_eq!(done.counters.bytes_on_wire, 12 * 2 * frame);
        assert_eq!(done.participation_sum, 12.0);
        assert_eq!(done.counters.checkpoints_written, 3, "cuts at 4, 8 and 12");
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
                // Codec draws must never share a stream with any other
                // role (terms index the codec/probe namespaces the same
                // way worker ids index the others).
                assert_ne!(STREAM_SAMPLER + w, STREAM_CODEC + v);
                assert_ne!(STREAM_COMPUTE + w, STREAM_CODEC + v);
                assert_ne!(STREAM_PROBE + w, STREAM_CODEC + v);
                // Joiner grants (two keys per worker) are their own
                // namespace too.
                assert_ne!(STREAM_SAMPLER + w, STREAM_JOIN + 2 * v);
                assert_ne!(STREAM_COMPUTE + w, STREAM_JOIN + 2 * v + 1);
                assert_ne!(STREAM_PROBE + w, STREAM_JOIN + 2 * v);
                assert_ne!(STREAM_CODEC + w, STREAM_JOIN + 2 * v + 1);
                // Reconnect jitter and worker-side wire-codec draws are
                // per-worker namespaces of their own.
                assert_ne!(STREAM_RECONNECT + w, STREAM_WIRE + v);
                assert_ne!(STREAM_RECONNECT + w, STREAM_JOIN + 2 * v);
                assert_ne!(STREAM_WIRE + w, STREAM_JOIN + 2 * v + 1);
                assert_ne!(STREAM_WIRE + w, STREAM_CODEC + v);
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
}
