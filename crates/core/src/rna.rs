//! The RNA protocol engine (§3).
//!
//! One [`GroupState`] drives randomized non-blocking AllReduce over a set of
//! member workers:
//!
//! 1. The controller samples `d` members and probes them
//!    ([`crate::probe::ProbeRound`]). A probed member replies as soon as its
//!    [`crate::cache::GradientCache`] is non-empty.
//! 2. The first accepted reply elects the **initiator**; the controller
//!    immediately forces the collective. Every member contributes its
//!    locally reduced cache content — or null if it has nothing.
//! 3. The partial AllReduce costs one trigger latency plus the ring time
//!    (plus the GPU↔CPU staging cost when the spec charges it); when it
//!    completes, all members apply the contributor-average with the
//!    learning rate scaled by the contributor count (Algorithm 2).
//!
//! Workers never block on the collective: compute continues across
//! iterations (Figure 4), bounded by `max_lead` so stragglers cannot be
//! left arbitrarily far behind.
//!
//! [`RnaProtocol`] wraps a single group spanning the whole cluster;
//! `rna-core::hier` reuses [`GroupState`] for per-group RNA.

use rna_collectives::partial_allreduce_pooled;
use rna_simnet::trace::SpanKind;
use rna_tensor::codec;
use rna_tensor::wire::{self, Reader};
use rna_tensor::Tensor;

use crate::cache::GradientCache;
use crate::fault::{ToleranceConfig, WorkerFate};
use crate::membership::ChurnEvent;
use crate::probe::ProbeRound;
use crate::recovery::RoundJournal;
use crate::sim::{Ctx, Protocol};
use crate::RnaConfig;

/// Messages exchanged by RNA (both flat and hierarchical variants).
#[derive(Debug, Clone)]
pub enum RnaMsg {
    /// Controller → probed worker: "reply when you have gradients ready".
    Probe {
        /// Group the probe belongs to.
        group: usize,
        /// Round identifier (stale replies are expired).
        round: u64,
    },
    /// Probed worker → controller: "my gradients are ready".
    ProbeReply {
        /// Group the reply belongs to.
        group: usize,
        /// Round identifier from the probe.
        round: u64,
        /// The replying worker.
        worker: usize,
    },
    /// Controller self-timer: re-probe if the election round is still
    /// winnerless (a dropped probe or reply must not wedge it). Armed only
    /// when the fabric injects network faults.
    ProbeRetry {
        /// Group the retry belongs to.
        group: usize,
        /// Round the timer was armed for (stale timers are ignored).
        round: u64,
        /// Probe-issue epoch the timer was armed for — a resample from any
        /// other path (e.g. a crash) bumps the epoch, expiring this timer.
        attempt: u64,
    },
    /// Self-scheduled completion of a group's partial AllReduce.
    ReduceDone {
        /// Group whose collective finished.
        group: usize,
        /// Round that finished.
        round: u64,
    },
    /// Self-scheduled completion of a hierarchical PS push-pull +
    /// intra-group broadcast, carrying the blended parameters.
    PsDone {
        /// Group whose exchange finished.
        group: usize,
        /// Blended parameters pulled from the server.
        blended: Tensor,
    },
    /// Warm-standby self-timer: the active controller's lease expired, so
    /// the standby takes over under the next term. Scheduled when a
    /// [`crate::fault::FaultPlan::crash_controller`] fault fires; ignored
    /// unless the controller is actually down and the term is the expected
    /// successor (stale timers are harmless).
    StandbyTakeover {
        /// The term the standby claims (must be current term + 1).
        term: u64,
    },
}

/// Per-group RNA state machine. `pub` so the hierarchical protocol can
/// drive several groups; typical users go through [`RnaProtocol`].
#[derive(Debug)]
pub struct GroupState {
    /// Group id (index into the hierarchical group list; 0 for flat RNA).
    pub id: usize,
    /// Global worker ids belonging to this group.
    pub members: Vec<usize>,
    caches: Vec<GradientCache>,
    pending_reply: Vec<Option<u64>>,
    probe: Option<ProbeRound>,
    round: u64,
    reducing: bool,
    paused: Vec<bool>,
    live: Vec<bool>,
    in_flight: Option<ReduceOutcome>,
    deferred: Option<usize>,
    initiator_counts: Vec<u64>,
    last_initiator: Option<usize>,
    probe_epoch: u64,
    retry_backoff_us: u64,
    /// Checkpoint quiesce in progress: members finishing an iteration are
    /// paused instead of continuing, until every live member is idle and
    /// the checkpoint can be cut.
    quiescing: bool,
    /// Per-member error-feedback residuals for lossy wire codecs: what the
    /// last encode dropped, re-added to the next contribution so the
    /// quantization error telescopes instead of accumulating. Allocated
    /// lazily on the first lossy encode (always empty under `Lossless`).
    residuals: Vec<Option<Tensor>>,
    /// Reusable encode scratch so steady-state lossy rounds do not
    /// allocate a fresh frame buffer.
    codec_buf: Vec<u8>,
    /// `(worker, local)` pairs sorted by worker id: the inverse of
    /// `members`, so routing an event to its local slot is a binary search
    /// instead of a linear scan (which made event handling O(group²) per
    /// round at 100k workers). Built once in `new` — membership changes
    /// always construct a fresh `GroupState`.
    member_slots: Vec<(u32, u32)>,
}

/// A finished collective waiting to be applied: the reduced gradient, how
/// many members contributed, and which members were reachable from the
/// initiator (partitioned members are excluded from the apply — they catch
/// up through their staleness-weighted caches on heal).
#[derive(Debug)]
struct ReduceOutcome {
    reduced: Tensor,
    contributors: usize,
    applied: Vec<usize>,
}

impl GroupState {
    /// Creates the state machine for `members` under `config`.
    ///
    /// A `config.probes` larger than the group is not an error: probe
    /// counts are clamped to the group size, so small groups simply probe
    /// everyone.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(id: usize, members: Vec<usize>, config: &RnaConfig) -> Self {
        assert!(!members.is_empty(), "group needs at least one member");
        let n = members.len();
        let mut member_slots: Vec<(u32, u32)> = members
            .iter()
            .enumerate()
            .map(|(local, &w)| (w as u32, local as u32))
            .collect();
        member_slots.sort_unstable();
        GroupState {
            id,
            members,
            caches: (0..n)
                .map(|_| GradientCache::new(config.staleness_bound, config.weighted_accumulation))
                .collect(),
            pending_reply: vec![None; n],
            probe: None,
            round: 0,
            reducing: false,
            paused: vec![false; n],
            live: vec![true; n],
            in_flight: None,
            deferred: None,
            initiator_counts: vec![0; n],
            last_initiator: None,
            probe_epoch: 0,
            retry_backoff_us: 0,
            quiescing: false,
            residuals: (0..n).map(|_| None).collect(),
            codec_buf: Vec::new(),
            member_slots,
        }
    }

    /// The group's current round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// How many times each member has been elected initiator.
    pub fn initiator_counts(&self) -> &[u64] {
        &self.initiator_counts
    }

    /// The member elected initiator in the most recent round, if any.
    pub fn last_initiator(&self) -> Option<usize> {
        self.last_initiator
    }

    fn member_index(&self, worker: usize) -> Option<usize> {
        let w = u32::try_from(worker).ok()?;
        let i = self
            .member_slots
            .binary_search_by_key(&w, |&(worker, _)| worker)
            .ok()?;
        let local = self.member_slots[i].1 as usize;
        debug_assert_eq!(self.members[local], worker);
        Some(local)
    }

    /// Issues this round's probes (power-of-`d`-choices over the group's
    /// *live* members — crashed workers are never probed).
    pub fn start_probe_round(&mut self, ctx: &mut Ctx<'_, RnaMsg>, config: &RnaConfig) {
        self.retry_backoff_us = config.probe_retry_us;
        self.issue_probes(ctx, config);
    }

    /// Samples and sends one batch of probes, bumping the probe epoch (so
    /// any retry timer armed for an earlier batch expires) and arming a
    /// fresh retry timer when the fabric is faulty.
    fn issue_probes(&mut self, ctx: &mut Ctx<'_, RnaMsg>, config: &RnaConfig) {
        let live: Vec<usize> = (0..self.members.len()).filter(|&l| self.live[l]).collect();
        if live.is_empty() {
            // The whole group died; nothing left to coordinate.
            self.probe = None;
            return;
        }
        let d = config.probes.min(live.len());
        let picks = ctx.rng().choose_distinct(live.len(), d);
        let probed: Vec<usize> = picks.into_iter().map(|i| live[i]).collect();
        let round = ProbeRound::from_probed(self.round, probed);
        let ctrl = ctx.controller_id();
        for &local in round.probed() {
            ctx.send(
                ctrl,
                self.members[local],
                config.probe_bytes,
                RnaMsg::Probe {
                    group: self.id,
                    round: self.round,
                },
            );
        }
        self.probe = Some(round);
        self.probe_epoch += 1;
        if ctx.net_faults_enabled() {
            // A dropped probe or reply would otherwise wedge the election
            // forever: the controller only reacts to messages, and none
            // would come. On a reliable fabric the timer is pointless (and
            // arming it would perturb event-for-event determinism of
            // existing runs), so it is gated on faults being present.
            ctx.send_after(
                ctx.controller_id(),
                rna_simnet::SimDuration::from_micros(self.retry_backoff_us),
                RnaMsg::ProbeRetry {
                    group: self.id,
                    round: self.round,
                    attempt: self.probe_epoch,
                },
            );
        }
    }

    /// A probe-retry timer fired: if the election round it was armed for
    /// is still the current one, still winnerless, and no other path has
    /// re-probed since (same epoch), resample with doubled backoff.
    pub fn handle_probe_retry(
        &mut self,
        ctx: &mut Ctx<'_, RnaMsg>,
        config: &RnaConfig,
        round: u64,
        attempt: u64,
    ) {
        if round != self.round || self.reducing || ctx.stopped() {
            return;
        }
        if attempt != self.probe_epoch {
            return;
        }
        let Some(probe) = &self.probe else {
            return;
        };
        if probe.winner().is_some() {
            return;
        }
        ctx.counters_mut().probe_retries += 1;
        self.retry_backoff_us = self
            .retry_backoff_us
            .saturating_mul(2)
            .min(crate::fault::PROBE_BACKOFF_CAP_US);
        self.issue_probes(ctx, config);
    }

    /// A member crashed: remove it from election and — if every probed
    /// member of the in-flight probe round is now dead — resample
    /// immediately so the round cannot stall.
    pub fn handle_crash(&mut self, ctx: &mut Ctx<'_, RnaMsg>, config: &RnaConfig, worker: usize) {
        let Some(local) = self.member_index(worker) else {
            return;
        };
        self.live[local] = false;
        self.pending_reply[local] = None;
        self.caches[local] =
            GradientCache::new(config.staleness_bound, config.weighted_accumulation);
        if self.reducing {
            return;
        }
        let stalled = self.probe.as_ref().is_some_and(|p| {
            p.winner().is_none() && crate::fault::probe_round_stalled(p.probed(), &self.live)
        });
        if stalled {
            self.start_probe_round(ctx, config);
        }
    }

    /// A probe arrived at `worker`: reply immediately if gradients are
    /// ready, otherwise remember the probe.
    pub fn handle_probe(
        &mut self,
        ctx: &mut Ctx<'_, RnaMsg>,
        config: &RnaConfig,
        worker: usize,
        round: u64,
    ) {
        let Some(local) = self.member_index(worker) else {
            return;
        };
        if !self.caches[local].is_empty() {
            self.send_reply(ctx, config, worker, round);
        } else {
            self.pending_reply[local] = Some(round);
        }
    }

    fn send_reply(
        &mut self,
        ctx: &mut Ctx<'_, RnaMsg>,
        config: &RnaConfig,
        worker: usize,
        round: u64,
    ) {
        let ctrl = ctx.controller_id();
        ctx.send(
            worker,
            ctrl,
            config.probe_bytes,
            RnaMsg::ProbeReply {
                group: self.id,
                round,
                worker,
            },
        );
    }

    /// A member finished a local iteration: cache its gradient, answer any
    /// pending probe, and keep computing unless the lead bound is hit.
    pub fn handle_compute_done(
        &mut self,
        ctx: &mut Ctx<'_, RnaMsg>,
        config: &RnaConfig,
        worker: usize,
        iter: u64,
    ) {
        let Some(local) = self.member_index(worker) else {
            return;
        };
        if let Some((_, grad)) = ctx.take_gradient(worker) {
            self.caches[local].write(iter, grad);
        }
        if let Some(round) = self.pending_reply[local].take() {
            self.send_reply(ctx, config, worker, round);
        }
        self.maybe_continue(ctx, config, local);
    }

    /// Starts the member's next iteration unless it is too far ahead of the
    /// group round (bounded lead), a checkpoint quiesce is draining the
    /// group, or the run has stopped.
    fn maybe_continue(&mut self, ctx: &mut Ctx<'_, RnaMsg>, config: &RnaConfig, local: usize) {
        let worker = self.members[local];
        if ctx.stopped() || ctx.is_computing(worker) || !self.live[local] {
            return;
        }
        if self.quiescing || ctx.local_iter(worker).saturating_sub(self.round) >= config.max_lead {
            self.paused[local] = true;
            ctx.set_span(worker, SpanKind::Wait);
        } else {
            self.paused[local] = false;
            ctx.begin_compute(worker);
        }
    }

    /// A probe reply reached the controller. Returns `true` when the reply
    /// elected an initiator and the collective was launched.
    pub fn handle_reply(
        &mut self,
        ctx: &mut Ctx<'_, RnaMsg>,
        config: &RnaConfig,
        worker: usize,
        round: u64,
    ) -> bool {
        let Some(local) = self.member_index(worker) else {
            return false;
        };
        if self.reducing {
            return false;
        }
        let Some(probe) = &mut self.probe else {
            return false;
        };
        if !probe.offer_reply(local, round) {
            return false;
        }
        self.initiator_counts[local] += 1;
        self.last_initiator = Some(worker);
        self.launch_reduce(ctx, config);
        true
    }

    /// Forces the partial AllReduce: snapshot contributions, compute the
    /// contributor average, and schedule completion after the collective's
    /// virtual cost.
    ///
    /// Members the initiator cannot reach (partition or flap) neither
    /// contribute nor receive the result: their contribution is a null —
    /// the paper-consistent treatment of a lost contribution — and their
    /// caches keep accumulating so they reconcile, staleness-weighted, on
    /// heal.
    fn launch_reduce(&mut self, ctx: &mut Ctx<'_, RnaMsg>, config: &RnaConfig) {
        self.reducing = true;
        let k = self.round;
        let initiator = self
            .last_initiator
            .expect("launch_reduce is only reached from an accepted reply");
        let reachable: Vec<bool> = self
            .members
            .iter()
            .map(|&m| m == initiator || ctx.link_up(initiator, m))
            .collect();
        if reachable.iter().any(|&r| !r) {
            ctx.counters_mut().partition_rounds += 1;
        }
        // Everything from the cache drain to the reduced output runs on the
        // pooled, fused data path; the debug alloc delta proves steady-state
        // rounds allocate nothing.
        let allocs_before = rna_tensor::alloc::count();
        let mut contributions: Vec<Option<Tensor>> = self
            .caches
            .iter_mut()
            .zip(&reachable)
            .map(|(c, &r)| {
                if r {
                    c.take_contribution_pooled(k, ctx.pool_mut())
                } else {
                    None
                }
            })
            .collect();
        let codec = config.compression;
        if !codec.is_lossless() {
            // Lossy wire: each contribution crosses the network as
            // decode(encode(grad + residual)); the dropped remainder stays
            // behind in the member's residual (error feedback), so the
            // reduce below sees exactly what a receiver could reconstruct.
            for (local, slot) in contributions.iter_mut().enumerate() {
                let Some(grad) = slot.as_mut() else { continue };
                let residual =
                    self.residuals[local].get_or_insert_with(|| Tensor::zeros(grad.len()));
                let threads = codec::wire_threads(grad.len());
                let (_, err) = codec::encode_with_feedback_mt(
                    codec,
                    grad,
                    residual,
                    &mut self.codec_buf,
                    ctx.codec_rng(),
                    threads,
                );
                ctx.counters_mut().codec_error_l2 += err;
            }
        }
        let refs: Vec<Option<&Tensor>> = contributions.iter().map(Option::as_ref).collect();
        let outcome = partial_allreduce_pooled(&refs, ctx.pool_mut())
            .expect("initiator has a ready gradient, so the round cannot be empty");
        for g in contributions.into_iter().flatten() {
            ctx.pool_release(g);
        }
        ctx.counters_mut().datapath_allocs += rna_tensor::alloc::count() - allocs_before;
        let applied: Vec<usize> = self
            .members
            .iter()
            .zip(&reachable)
            .filter(|(_, &r)| r)
            .map(|(&m, _)| m)
            .collect();
        self.in_flight = Some(ReduceOutcome {
            reduced: outcome.reduced,
            contributors: outcome.num_contributors,
            applied,
        });
        let n = self.members.len();
        let cost = ctx.cost();
        let bytes = ctx.grad_bytes();
        // Wire charging, billed at the profile's gradient size. Lossless
        // takes the legacy (unframed) formulas verbatim so pre-codec runs
        // replay bit-identically; lossy codecs price each ring message as
        // one encoded chunk frame (header + codec payload).
        let legacy_wire = cost.ring_bytes_per_worker(n, bytes) * n as u64;
        let (ring_time, wire) = if codec.is_lossless() {
            (cost.ring_allreduce(n, bytes), legacy_wire)
        } else {
            let elems = rna_tensor::chunks::max_chunk_len((bytes / 4) as usize, n);
            let frame = codec.frame_bytes(elems);
            (
                cost.ring_allreduce_framed(n, frame),
                cost.ring_bytes_per_worker_framed(n, frame) * n as u64,
            )
        };
        let duration = cost.link().transfer_time(64) // trigger broadcast
            + ring_time
            + ctx.transfer_overhead();
        ctx.charge_bytes(wire);
        ctx.note_wire_bytes(wire, legacy_wire);
        for &w in &self.members {
            if !ctx.is_computing(w) {
                ctx.set_span(w, SpanKind::Communicate);
            }
        }
        ctx.send_after(
            ctx.controller_id(),
            duration,
            RnaMsg::ReduceDone {
                group: self.id,
                round: k,
            },
        );
    }

    /// Claims the finished collective's result without applying it —
    /// the hierarchical protocol routes it through the parameter server
    /// instead. Returns `(reduced, contributors, applied_members)`, or
    /// `None` if the completion was stale. `applied_members` are the
    /// global ids the result should be applied to (members the initiator
    /// could not reach at launch time are excluded).
    pub fn take_reduce_result(&mut self, round: u64) -> Option<(Tensor, usize, Vec<usize>)> {
        if round != self.round || !self.reducing {
            return None;
        }
        self.in_flight
            .take()
            .map(|o| (o.reduced, o.contributors, o.applied))
    }

    /// Applies a reduced gradient to `targets` with the configured
    /// learning-rate scaling.
    pub fn apply_reduce(
        &mut self,
        ctx: &mut Ctx<'_, RnaMsg>,
        config: &RnaConfig,
        reduced: &Tensor,
        contributors: usize,
        targets: &[usize],
    ) {
        let lr_scale = if config.dynamic_lr_scaling {
            contributors as f32
        } else {
            1.0
        };
        ctx.apply_reduced(targets, reduced, lr_scale);
    }

    /// The collective finished: apply the update to every reachable
    /// member. Returns the contributor count, or `None` if the completion
    /// was stale.
    ///
    /// The caller is responsible for round bookkeeping
    /// ([`GroupState::advance_round`]) — the hierarchical protocol inserts
    /// a PS exchange in between.
    pub fn handle_reduce_done(
        &mut self,
        ctx: &mut Ctx<'_, RnaMsg>,
        config: &RnaConfig,
        round: u64,
    ) -> Option<usize> {
        let (reduced, contributors, applied) = self.take_reduce_result(round)?;
        let allocs_before = rna_tensor::alloc::count();
        self.apply_reduce(ctx, config, &reduced, contributors, &applied);
        ctx.pool_release(reduced);
        ctx.counters_mut().datapath_allocs += rna_tensor::alloc::count() - allocs_before;
        Some(contributors)
    }

    /// A live member of the group, preferring the most recent initiator —
    /// the node the hierarchical protocol treats as the group's
    /// representative toward the parameter server.
    pub fn representative(&self) -> Option<usize> {
        if let Some(w) = self.last_initiator {
            if let Some(l) = self.member_index(w) {
                if self.live[l] {
                    return Some(w);
                }
            }
        }
        (0..self.members.len())
            .find(|&l| self.live[l])
            .map(|l| self.members[l])
    }

    /// A crashed member rejoined: re-admit it to the liveness view with a
    /// fresh cache, seed it with a live peer's current parameters (the
    /// "pull the current model" half of a restart), and restart its
    /// compute pipeline. If the whole group had died, this also revives
    /// the election loop.
    pub fn handle_rejoin(&mut self, ctx: &mut Ctx<'_, RnaMsg>, config: &RnaConfig, worker: usize) {
        let Some(local) = self.member_index(worker) else {
            return;
        };
        self.live[local] = true;
        self.paused[local] = false;
        self.pending_reply[local] = None;
        self.caches[local] =
            GradientCache::new(config.staleness_bound, config.weighted_accumulation);
        if let Some(donor) = (0..self.members.len())
            .find(|&l| l != local && self.live[l])
            .map(|l| self.members[l])
        {
            let params = ctx.params(donor);
            ctx.set_params(worker, &params);
        }
        let election_dead = self.probe.is_none() && !self.reducing;
        if election_dead && !ctx.stopped() {
            self.start_probe_round(ctx, config);
        }
        self.maybe_continue(ctx, config, local);
    }

    /// Defers round completion: the hierarchical protocol calls this when a
    /// PS exchange must land before the round can advance. While deferred,
    /// `reducing` stays set, so no new collective can trigger.
    pub fn advance_round_deferred(&mut self, contributors: usize) {
        self.deferred = Some(contributors);
    }

    /// Completes a previously deferred round (after the PS broadcast).
    pub fn complete_deferred_round(&mut self, ctx: &mut Ctx<'_, RnaMsg>, config: &RnaConfig) {
        if let Some(contributors) = self.deferred.take() {
            self.advance_round(ctx, config, contributors);
        }
    }

    /// Completes the round: bump counters, resume paused members, and (if
    /// the run continues) start the next probe round.
    pub fn advance_round(
        &mut self,
        ctx: &mut Ctx<'_, RnaMsg>,
        config: &RnaConfig,
        contributors: usize,
    ) {
        self.complete_round(ctx, contributors);
        self.resume_paused(ctx, config);
        if !ctx.stopped() {
            self.start_probe_round(ctx, config);
        }
    }

    /// The bookkeeping half of [`GroupState::advance_round`]: clears the
    /// reduce latch, bumps the round, and records participation. Callers
    /// that need to intervene before the next probe round (a checkpoint
    /// quiesce, a controller-crash fault) follow up with
    /// [`GroupState::resume_paused`] and [`GroupState::start_probe_round`]
    /// themselves.
    pub fn complete_round(&mut self, ctx: &mut Ctx<'_, RnaMsg>, contributors: usize) {
        self.reducing = false;
        self.round += 1;
        ctx.finish_round(contributors as f64 / self.members.len() as f64);
    }

    /// Gives every paused member a chance to continue (in member order —
    /// the order matters for event-queue determinism, so the checkpoint
    /// resume path uses exactly this loop too).
    pub fn resume_paused(&mut self, ctx: &mut Ctx<'_, RnaMsg>, config: &RnaConfig) {
        for local in 0..self.members.len() {
            if self.paused[local] {
                self.maybe_continue(ctx, config, local);
            }
        }
    }

    /// Starts draining the group for a crash-consistent checkpoint:
    /// members finishing their in-flight iteration are paused instead of
    /// continuing. Cut the checkpoint once [`GroupState::all_idle`].
    pub fn begin_quiesce(&mut self) {
        self.quiescing = true;
        // Members already lead-bound-paused stay paused through the cut.
        for local in 0..self.members.len() {
            if self.live[local] {
                self.paused[local] = true;
            }
        }
    }

    /// Whether a checkpoint quiesce is draining this group.
    pub fn quiescing(&self) -> bool {
        self.quiescing
    }

    /// Ends the quiesce (after the checkpoint was written).
    pub fn end_quiesce(&mut self) {
        self.quiescing = false;
    }

    /// Whether every live member is idle (no iteration in flight) — the
    /// condition for cutting a crash-consistent checkpoint.
    pub fn all_idle(&self, ctx: &Ctx<'_, RnaMsg>) -> bool {
        self.members
            .iter()
            .enumerate()
            .all(|(local, &w)| !self.live[local] || !ctx.is_computing(w))
    }

    /// Marks a planned joiner dormant before the run starts: not live, not
    /// paused, never probed. Unlike a crash there is no stall to resample —
    /// the member never held a probe slot. Admission later goes through
    /// [`GroupState::handle_rejoin`], which is exactly a join: fresh cache,
    /// parameters seeded from a live peer, compute pipeline started.
    pub fn set_dormant(&mut self, worker: usize) {
        if let Some(local) = self.member_index(worker) {
            self.live[local] = false;
            self.paused[local] = false;
            self.pending_reply[local] = None;
        }
    }

    /// Removes a member from the active roster at a round edge (planned
    /// retirement or eviction). The round that just completed already
    /// merged the member's final contribution, so this is graceful: the
    /// member simply stops being probed, elected, or applied to. Its cache
    /// is reset — anything computed toward the *next* round is discarded,
    /// which is the definition of the departure edge.
    pub fn depart(&mut self, config: &RnaConfig, worker: usize) {
        if let Some(local) = self.member_index(worker) {
            self.live[local] = false;
            self.paused[local] = false;
            self.pending_reply[local] = None;
            self.caches[local] =
                GradientCache::new(config.staleness_bound, config.weighted_accumulation);
        }
    }

    /// Whether the member is live (joined, not crashed, not departed).
    pub fn is_live(&self, worker: usize) -> bool {
        self.member_index(worker)
            .is_some_and(|local| self.live[local])
    }

    /// Global ids of the group's live members.
    pub fn live_members(&self) -> Vec<usize> {
        self.members
            .iter()
            .enumerate()
            .filter(|&(local, _)| self.live[local])
            .map(|(_, &w)| w)
            .collect()
    }

    /// Steals the member's gradient cache for a topology swap, leaving a
    /// fresh one behind. The swap transplants caches into the new group
    /// layout so accumulated-but-unreduced work survives regrouping.
    pub fn take_cache(&mut self, config: &RnaConfig, worker: usize) -> Option<GradientCache> {
        self.member_index(worker).map(|local| {
            std::mem::replace(
                &mut self.caches[local],
                GradientCache::new(config.staleness_bound, config.weighted_accumulation),
            )
        })
    }

    /// Installs a transplanted gradient cache for the member (the other
    /// half of [`GroupState::take_cache`]).
    pub fn adopt_cache(&mut self, worker: usize, cache: GradientCache) {
        if let Some(local) = self.member_index(worker) {
            self.caches[local] = cache;
        }
    }

    /// Whether the group is drained enough for an atomic topology swap:
    /// no collective in flight, no deferred round, and every live member
    /// idle. Same discipline as the checkpoint quiesce, extended to the
    /// reduce latch (the checkpoint path only reaches its cut from a round
    /// edge, where `reducing` is clear by construction; regrouping polls
    /// from arbitrary points).
    pub fn idle_for_swap(&self, ctx: &Ctx<'_, RnaMsg>) -> bool {
        !self.reducing && self.in_flight.is_none() && self.deferred.is_none() && self.all_idle(ctx)
    }

    /// Kicks every idle live member's compute pipeline — the post-swap
    /// counterpart of [`GroupState::resume_paused`], for freshly rebuilt
    /// groups whose pause flags did not survive the rebuild.
    pub fn resume_all(&mut self, ctx: &mut Ctx<'_, RnaMsg>, config: &RnaConfig) {
        for local in 0..self.members.len() {
            if self.live[local] {
                self.maybe_continue(ctx, config, local);
            }
        }
    }

    /// Claims a deferred round completion without advancing the round —
    /// callers that must interleave work at the round edge (churn
    /// processing, a regroup check) take the contributor count and drive
    /// [`GroupState::complete_round`] themselves.
    pub fn take_deferred(&mut self) -> Option<usize> {
        self.deferred.take()
    }

    /// Resets the controller-side election state after a standby takeover:
    /// the new controller trusts only the journal-recovered `round`, holds
    /// no probe round or in-flight collective, and bumps the probe epoch
    /// so any timer armed by the dead controller expires.
    pub fn recover_for_takeover(&mut self, round: u64) {
        self.round = round;
        self.probe = None;
        self.reducing = false;
        self.in_flight = None;
        self.deferred = None;
        self.probe_epoch += 1;
    }

    /// Serializes the group's quiesced state into a checkpoint blob:
    /// liveness and pause flags, pending probe replies, initiator
    /// bookkeeping, and every member's gradient cache (bound, weighting,
    /// eviction counter, and exact pending entries).
    ///
    /// # Panics
    ///
    /// Debug-asserts the group is quiesced (no collective in flight).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        debug_assert!(!self.reducing && self.in_flight.is_none() && self.deferred.is_none());
        wire::put_u64(out, self.round);
        wire::put_u64(out, self.probe_epoch);
        wire::put_u64(out, self.retry_backoff_us);
        wire::put_u64(out, self.members.len() as u64);
        wire::put_opt_u64(out, self.last_initiator.map(|w| w as u64));
        for local in 0..self.members.len() {
            wire::put_bool(out, self.live[local]);
            wire::put_bool(out, self.paused[local]);
            wire::put_u64(out, self.initiator_counts[local]);
            wire::put_opt_u64(out, self.pending_reply[local]);
            let cache = &self.caches[local];
            wire::put_u64(out, cache.bound() as u64);
            wire::put_bool(out, cache.weighted());
            wire::put_u64(out, cache.evicted());
            wire::put_u64(out, cache.entries().len() as u64);
            for (iter, grad) in cache.entries() {
                wire::put_u64(out, *iter);
                wire::put_tensor(out, grad);
            }
            // Error-feedback residual: without it a lossy-codec resume
            // would re-drop what the pre-crash run already owed the member.
            wire::put_opt_tensor(out, self.residuals[local].as_ref());
        }
    }

    /// Restores state written by [`GroupState::encode_into`] into a freshly
    /// built group. Returns `None` on any mismatch (member count, malformed
    /// cache) instead of panicking — the group is then partly overwritten
    /// and must be discarded, as [`crate::sim::Engine::resume`] does when it
    /// surfaces the typed corruption error.
    pub fn restore_from(&mut self, r: &mut Reader<'_>) -> Option<()> {
        self.round = r.u64()?;
        self.probe_epoch = r.u64()?;
        self.retry_backoff_us = r.u64()?;
        if r.u64()? != self.members.len() as u64 {
            return None;
        }
        self.last_initiator = r.opt_u64()?.map(|w| w as usize);
        for local in 0..self.members.len() {
            self.live[local] = r.bool()?;
            self.paused[local] = r.bool()?;
            self.initiator_counts[local] = r.u64()?;
            self.pending_reply[local] = r.opt_u64()?;
            let bound = r.u64()?;
            let weighted = r.bool()?;
            let evicted = r.u64()?;
            let count = r.u64()?;
            if bound == 0 || count > bound || count > r.remaining() as u64 / 8 {
                return None;
            }
            let mut entries = Vec::with_capacity(count as usize);
            for _ in 0..count {
                entries.push((r.u64()?, r.tensor()?));
            }
            self.caches[local] =
                GradientCache::from_checkpoint(bound as usize, weighted, evicted, entries);
            self.residuals[local] = r.opt_tensor()?;
        }
        self.probe = None;
        self.reducing = false;
        self.in_flight = None;
        self.deferred = None;
        self.quiescing = false;
        Some(())
    }
}

/// Flat RNA: one group spanning the entire cluster.
///
/// # Examples
///
/// ```
/// use rna_core::rna::RnaProtocol;
/// use rna_core::sim::{Engine, TrainSpec};
/// use rna_core::RnaConfig;
///
/// let result = Engine::new(
///     TrainSpec::smoke_test(4, 1),
///     RnaProtocol::new(4, RnaConfig::default(), 99),
/// )
/// .run();
/// assert!(result.global_rounds > 0);
/// ```
#[derive(Debug)]
pub struct RnaProtocol {
    config: RnaConfig,
    group: GroupState,
    tolerance: ToleranceConfig,
    /// Controller term: bumped by every standby takeover. Round ids are
    /// implicitly epoch-guarded — the takeover bumps the probe epoch, so
    /// probe replies addressed to the dead incarnation expire harmlessly.
    term: u64,
    /// The active controller is down; controller-addressed messages are
    /// dropped until the warm standby's lease timer fires.
    ctrl_down: bool,
    /// Completed probe rounds, replayed by the standby to recover the
    /// round counter (and serialized into every checkpoint).
    journal: RoundJournal,
    /// Index into [`crate::fault::FaultPlan::controller_crashes`] of the
    /// next controller crash not yet executed.
    crash_idx: usize,
    /// Workers that left via the churn plan (retired or evicted). Their
    /// engine may still deliver an in-flight `ComputeDone` after the
    /// departure edge; the gradient is discarded at the protocol level.
    departed: Vec<bool>,
}

impl RnaProtocol {
    /// Creates flat RNA over `n` workers. `_seed` is kept for API
    /// compatibility with experiment configs; randomness flows from the
    /// engine's protocol RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, config: RnaConfig, _seed: u64) -> Self {
        let group = GroupState::new(0, (0..n).collect(), &config);
        RnaProtocol {
            config,
            group,
            tolerance: ToleranceConfig::default(),
            term: 0,
            ctrl_down: false,
            journal: RoundJournal::new(),
            crash_idx: 0,
            departed: vec![false; n],
        }
    }

    /// Overrides the control-plane tolerance knobs (lease window, probe
    /// backoff). The config was validated at its own construction.
    pub fn with_tolerance(mut self, tolerance: ToleranceConfig) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// The underlying group state (for tests and diagnostics).
    pub fn group(&self) -> &GroupState {
        &self.group
    }

    /// The current controller term (0 until the first failover).
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Starts the next probe round — unless the fault plan kills the
    /// controller at this round, in which case the controller goes dark
    /// and the warm standby's lease timer is armed instead.
    fn start_next_round(&mut self, ctx: &mut Ctx<'_, RnaMsg>) {
        if ctx.stopped() {
            return;
        }
        if ctx.fault_plan().controller_crashes().get(self.crash_idx) == Some(&self.group.round()) {
            self.crash_idx += 1;
            self.ctrl_down = true;
            ctx.send_after(
                ctx.controller_id(),
                rna_simnet::SimDuration::from_micros(self.tolerance.liveness_timeout_us),
                RnaMsg::StandbyTakeover {
                    term: self.term + 1,
                },
            );
            return;
        }
        self.group.start_probe_round(ctx, &self.config);
    }

    /// The warm standby's lease timer fired: bump the term, recover the
    /// round counter from the journal, reset the election state (probe
    /// epoch bump expires the dead incarnation's timers), and restart the
    /// abandoned probe round.
    fn handle_takeover(&mut self, ctx: &mut Ctx<'_, RnaMsg>, term: u64) {
        if !self.ctrl_down || term != self.term + 1 {
            return; // stale timer from an older incarnation
        }
        self.term = term;
        self.ctrl_down = false;
        let round = self.journal.next_round();
        debug_assert_eq!(
            round,
            self.group.round(),
            "journal replay must agree with the group round"
        );
        self.group.recover_for_takeover(round);
        // One probe round was abandoned: the downtime cost of the takeover.
        ctx.counters_mut().controller_failovers += 1;
        ctx.counters_mut().failover_rounds_lost += 1;
        self.start_next_round(ctx);
    }

    /// Applies the churn plan's events that fall on this round edge. Called
    /// right after `complete_round` bumped the group round, so
    /// `group.round()` is the round about to start:
    ///
    /// * a **retirement** with `at_round == round - 1` just contributed its
    ///   final round and leaves now (zero contributed rounds lost);
    /// * an **eviction** with `at_round == round` leaves before the round
    ///   it is excluded from, discarding any compute toward it;
    /// * a **join** with `at_round == round` is admitted: parameters are
    ///   streamed from a live peer (billed to the virtual wire) and the
    ///   member enters the election from this round on.
    ///
    /// Round edges advance by exactly one per completed collective, so the
    /// equality tests fire each event exactly once; the plan was validated
    /// at spec construction (no joins or evictions at round 0).
    fn process_churn(&mut self, ctx: &mut Ctx<'_, RnaMsg>) {
        let events: Vec<(usize, ChurnEvent)> = ctx.churn_plan().events().to_vec();
        if events.is_empty() {
            return;
        }
        let next = self.group.round();
        for (w, ev) in events {
            match ev {
                ChurnEvent::Retire { at_round } => {
                    if at_round + 1 == next && !self.departed[w] {
                        self.group.depart(&self.config, w);
                        self.departed[w] = true;
                        ctx.note_worker_departed(w, WorkerFate::Retired { at_round });
                    }
                }
                ChurnEvent::Evict { at_round } => {
                    if at_round == next && !self.departed[w] {
                        self.group.depart(&self.config, w);
                        self.departed[w] = true;
                        ctx.note_worker_departed(w, WorkerFate::Evicted { at_round });
                    }
                }
                ChurnEvent::Join { at_round, .. } => {
                    if at_round == next {
                        let snapshot_bytes = 4 * ctx.params(w).len() as u64;
                        self.group.handle_rejoin(ctx, &self.config, w);
                        ctx.charge_bytes(snapshot_bytes);
                        ctx.note_worker_joined(snapshot_bytes);
                    }
                }
            }
        }
    }

    /// Cuts the pending checkpoint if the quiesce has drained (every live
    /// member idle), then resumes the group exactly as the non-checkpoint
    /// path would have — the same sequence [`Protocol::on_resume`] replays
    /// after a restart, which is what makes disk resume bit-identical.
    fn try_cut_checkpoint(&mut self, ctx: &mut Ctx<'_, RnaMsg>) {
        if !self.group.quiescing() || !self.group.all_idle(ctx) {
            return;
        }
        let mut blob = Vec::new();
        wire::put_u64(&mut blob, self.term);
        wire::put_u64(&mut blob, self.crash_idx as u64);
        self.journal.encode_into(&mut blob);
        self.group.encode_into(&mut blob);
        ctx.write_checkpoint(&blob);
        self.group.end_quiesce();
        self.group.resume_paused(ctx, &self.config);
        self.start_next_round(ctx);
    }

    /// Decodes the blob [`RnaProtocol::try_cut_checkpoint`] wrote; `None`
    /// when it is malformed or was cut for another cluster shape.
    fn try_restore(&mut self, blob: &[u8]) -> Option<()> {
        let mut r = Reader::new(blob);
        self.term = r.u64()?;
        self.crash_idx = usize::try_from(r.u64()?).ok()?;
        self.journal = RoundJournal::decode(&mut r)?;
        self.group.restore_from(&mut r)?;
        // Checkpoints are only cut at quiesce points, where the controller
        // is alive by construction.
        self.ctrl_down = false;
        Some(())
    }
}

impl Protocol for RnaProtocol {
    type Msg = RnaMsg;

    fn name(&self) -> &'static str {
        "rna"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, RnaMsg>) {
        for w in 0..ctx.num_workers() {
            if ctx.churn_plan().join_of(w).is_some() {
                // Planned joiner: dormant until its admission round.
                self.group.set_dormant(w);
            } else {
                ctx.begin_compute(w);
            }
        }
        // Routed through the crash check so a controller crash at round 0
        // is honored (workers still compute and fill caches meanwhile).
        self.start_next_round(ctx);
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx<'_, RnaMsg>, worker: usize, iter: u64) {
        if self.departed[worker] {
            // The worker left at a round edge while this iteration was in
            // flight; its gradient no longer has a home.
            let _ = ctx.take_gradient(worker);
            return;
        }
        self.group
            .handle_compute_done(ctx, &self.config, worker, iter);
        if self.group.quiescing() {
            self.try_cut_checkpoint(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, RnaMsg>, _from: usize, to: usize, msg: RnaMsg) {
        if self.ctrl_down {
            // The active controller is dead: everything addressed to it is
            // lost. (Probes are controller→worker, so none are in flight;
            // StandbyTakeover is addressed to the *standby*.)
            match &msg {
                RnaMsg::ProbeReply { .. }
                | RnaMsg::ProbeRetry { .. }
                | RnaMsg::ReduceDone { .. } => return,
                _ => {}
            }
        }
        match msg {
            RnaMsg::Probe { round, .. } => {
                self.group.handle_probe(ctx, &self.config, to, round);
            }
            RnaMsg::ProbeReply { round, worker, .. } => {
                self.group.handle_reply(ctx, &self.config, worker, round);
            }
            RnaMsg::ProbeRetry { round, attempt, .. } => {
                self.group
                    .handle_probe_retry(ctx, &self.config, round, attempt);
            }
            RnaMsg::ReduceDone { round, .. } => {
                if let Some(contributors) = self.group.handle_reduce_done(ctx, &self.config, round)
                {
                    let initiator = self.group.last_initiator().unwrap_or(0);
                    self.group.complete_round(ctx, contributors);
                    self.journal.record(round, initiator, contributors as u32);
                    self.process_churn(ctx);
                    if ctx.checkpoint_due() && !ctx.stopped() {
                        self.group.begin_quiesce();
                        self.try_cut_checkpoint(ctx);
                    } else {
                        self.group.resume_paused(ctx, &self.config);
                        self.start_next_round(ctx);
                    }
                }
            }
            RnaMsg::PsDone { .. } => {
                // Flat RNA never schedules PS exchanges.
            }
            RnaMsg::StandbyTakeover { term } => {
                self.handle_takeover(ctx, term);
            }
        }
    }

    fn on_crash(&mut self, ctx: &mut Ctx<'_, RnaMsg>, worker: usize) {
        self.group.handle_crash(ctx, &self.config, worker);
        if self.group.quiescing() {
            // The crashed member no longer gates the quiesce.
            self.try_cut_checkpoint(ctx);
        }
    }

    fn on_rejoin(&mut self, ctx: &mut Ctx<'_, RnaMsg>, worker: usize) {
        self.group.handle_rejoin(ctx, &self.config, worker);
    }

    fn restore(&mut self, blob: &[u8]) -> bool {
        self.try_restore(blob).is_some()
    }

    fn on_resume(&mut self, ctx: &mut Ctx<'_, RnaMsg>) {
        // The departed set is pure plan-vs-round state, so it is recomputed
        // instead of checkpointed (the group's live flags did persist).
        let round = self.group.round();
        for w in 0..self.departed.len() {
            let plan = ctx.churn_plan();
            self.departed[w] = plan.retire_of(w).is_some_and(|r| round > r)
                || plan.evict_of(w).is_some_and(|r| round >= r);
        }
        // Exactly the continuation `try_cut_checkpoint` runs after writing
        // the checkpoint — resuming from disk replays the same events.
        self.group.resume_paused(ctx, &self.config);
        self.start_next_round(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Engine, TrainSpec};
    use crate::StopReason;
    use rna_simnet::SimDuration;
    use rna_workload::HeterogeneityModel;

    fn run(n: usize, seed: u64, config: RnaConfig, rounds: u64) -> crate::RunResult {
        let spec = TrainSpec::smoke_test(n, seed).with_max_rounds(rounds);
        Engine::new(spec, RnaProtocol::new(n, config, seed)).run()
    }

    #[test]
    fn rna_trains_to_lower_loss() {
        let r = run(4, 3, RnaConfig::default(), 200);
        let pts = r.history.points();
        assert!(pts.len() > 3);
        assert!(
            pts.last().unwrap().loss < pts[0].loss * 0.7,
            "loss {} -> {}",
            pts[0].loss,
            pts.last().unwrap().loss
        );
        assert_eq!(r.stop_reason, StopReason::MaxRounds);
    }

    #[test]
    fn rna_is_deterministic() {
        let a = run(4, 9, RnaConfig::default(), 60);
        let b = run(4, 9, RnaConfig::default(), 60);
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.final_loss(), b.final_loss());
        assert_eq!(a.worker_iterations, b.worker_iterations);
        assert_eq!(a.comm_bytes, b.comm_bytes);
    }

    #[test]
    fn lossless_codec_is_bit_identical_to_default() {
        use rna_tensor::Compression;
        let a = run(4, 9, RnaConfig::default(), 60);
        let b = run(
            4,
            9,
            RnaConfig::default().with_compression(Compression::Lossless),
            60,
        );
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.comm_bytes, b.comm_bytes);
        assert_eq!(a.final_loss(), b.final_loss());
        assert_eq!(a.worker_iterations, b.worker_iterations);
        assert!(a.bytes_on_wire > 0, "gradient rings must be accounted");
        assert_eq!(a.bytes_saved, 0, "lossless saves nothing");
        assert_eq!(a.codec_error_l2, 0.0, "lossless drops nothing");
        assert!(
            a.bytes_on_wire <= a.comm_bytes,
            "wire bytes are a subset of all traffic"
        );
    }

    #[test]
    fn every_codec_replays_bit_identically_from_the_same_seed() {
        use rna_tensor::Compression;
        for codec in [
            Compression::Fp16,
            Compression::Int8,
            Compression::top_k_10pct(),
        ] {
            let config = RnaConfig::default().with_compression(codec);
            let a = run(4, 11, config.clone(), 50);
            let b = run(4, 11, config, 50);
            assert_eq!(a.wall_time, b.wall_time, "{codec:?}");
            assert_eq!(a.comm_bytes, b.comm_bytes, "{codec:?}");
            assert_eq!(a.final_loss(), b.final_loss(), "{codec:?}");
            assert_eq!(a.bytes_on_wire, b.bytes_on_wire, "{codec:?}");
            assert_eq!(a.codec_error_l2, b.codec_error_l2, "{codec:?}");
        }
    }

    #[test]
    fn lossy_codecs_shrink_the_wire_and_the_clock() {
        use rna_tensor::Compression;
        let lossy = |codec| run(4, 9, RnaConfig::default().with_compression(codec), 60);
        let lossless = run(4, 9, RnaConfig::default(), 60);
        let fp16 = lossy(Compression::Fp16);
        let int8 = lossy(Compression::Int8);
        let topk = lossy(Compression::top_k_10pct());
        let ratio = |r: &crate::RunResult| lossless.bytes_on_wire as f64 / r.bytes_on_wire as f64;
        assert!(ratio(&fp16) >= 1.9, "fp16 wire ratio {}", ratio(&fp16));
        assert!(ratio(&topk) >= 3.5, "topk wire ratio {}", ratio(&topk));
        for (name, r) in [("fp16", &fp16), ("int8", &int8), ("topk", &topk)] {
            assert!(r.bytes_saved > 0, "{name}");
            assert!(
                r.wall_time <= lossless.wall_time,
                "{name}: smaller frames cannot slow the virtual clock"
            );
            assert!(
                r.codec_error_l2 > 0.0 && r.codec_error_l2.is_finite(),
                "{name}"
            );
            assert!(
                r.final_loss().is_some_and(f64::is_finite),
                "{name} diverged"
            );
        }
    }

    #[test]
    fn lossy_codecs_still_train_to_lower_loss() {
        use rna_tensor::Compression;
        for codec in [Compression::Fp16, Compression::Int8] {
            let r = run(4, 3, RnaConfig::default().with_compression(codec), 200);
            let pts = r.history.points();
            assert!(
                pts.last().unwrap().loss < pts[0].loss * 0.7,
                "{codec:?}: loss {} -> {}",
                pts[0].loss,
                pts.last().unwrap().loss
            );
        }
    }

    #[test]
    fn participation_is_partial_under_heterogeneity() {
        let n = 8;
        let spec = TrainSpec::smoke_test(n, 5)
            .with_hetero(HeterogeneityModel::dynamic_uniform(n, 0, 50))
            .with_max_rounds(80);
        let r = Engine::new(spec, RnaProtocol::new(n, RnaConfig::default(), 0)).run();
        let p = r.mean_participation();
        assert!(p > 0.2 && p < 1.0, "participation {p}");
    }

    #[test]
    fn homogeneous_cluster_approaches_full_participation() {
        let r = run(4, 7, RnaConfig::default(), 80);
        assert!(r.mean_participation() > 0.5, "{}", r.mean_participation());
    }

    #[test]
    fn initiators_are_randomized() {
        let n = 4;
        let spec = TrainSpec::smoke_test(n, 13).with_max_rounds(120);
        let engine = Engine::new(spec, RnaProtocol::new(n, RnaConfig::default(), 0));
        // Run through the engine; initiator counts accumulate inside the
        // protocol, which the engine consumes — so re-run with a probe into
        // the protocol by keeping it outside.
        let result = engine.run();
        assert_eq!(result.global_rounds, 120);
        // Statistical check via a fresh protocol instance driven manually is
        // heavyweight; instead assert the rounds completed and relied on
        // `probe::tests` for election fairness.
    }

    #[test]
    fn rna_outpaces_bsp_under_stragglers() {
        // The headline claim, in miniature: with random 0–50 ms delays,
        // RNA completes rounds faster than a strict barrier would.
        let n = 8;
        let hetero = HeterogeneityModel::dynamic_uniform(n, 0, 50);
        let spec = TrainSpec::smoke_test(n, 21)
            .with_hetero(hetero)
            .with_max_rounds(60);
        let r = Engine::new(spec, RnaProtocol::new(n, RnaConfig::default(), 0)).run();
        // Mean compute is 5ms + 25ms delay = 30ms. A strict barrier pays
        // E[max of 8 × U(0,50)] ≈ 44ms + 5ms per round. RNA's rounds are
        // driven by the *fastest of two probes*, so mean round time must be
        // well under the barrier bound.
        let barrier_bound = SimDuration::from_millis_f64(49.0);
        assert!(
            r.mean_round_time() < barrier_bound,
            "round time {} vs barrier {}",
            r.mean_round_time(),
            barrier_bound
        );
    }

    #[test]
    fn max_lead_bounds_iteration_spread() {
        let n = 4;
        let config = RnaConfig::default().with_max_lead(3);
        let spec = TrainSpec::smoke_test(n, 17)
            .with_hetero(HeterogeneityModel::deterministic(&[0, 0, 0, 40]))
            .with_max_rounds(60);
        let r = Engine::new(spec, RnaProtocol::new(n, config, 0)).run();
        let max = *r.worker_iterations.iter().max().unwrap();
        // No worker can have produced more than rounds + lead iterations.
        assert!(
            max <= r.global_rounds + 3 + 1,
            "iterations {max} vs rounds {}",
            r.global_rounds
        );
    }

    #[test]
    fn single_worker_rna_degenerates_to_sgd() {
        let r = run(1, 2, RnaConfig::default().with_probes(1), 50);
        assert_eq!(r.global_rounds, 50);
        assert!(r.mean_participation() > 0.99);
        let pts = r.history.points();
        assert!(pts.last().unwrap().loss < pts[0].loss);
    }

    #[test]
    fn one_probe_config_still_makes_progress() {
        let r = run(4, 11, RnaConfig::default().with_probes(1), 60);
        assert_eq!(r.global_rounds, 60);
    }

    #[test]
    fn controller_failover_is_survived_and_deterministic() {
        use crate::fault::FaultPlan;
        let run = |plan: FaultPlan| {
            let spec = TrainSpec::smoke_test(4, 23)
                .with_max_rounds(40)
                .with_fault_plan(plan);
            Engine::new(spec, RnaProtocol::new(4, RnaConfig::default(), 0)).run()
        };
        let a = run(FaultPlan::none().crash_controller(10));
        let b = run(FaultPlan::none().crash_controller(10));
        let clean = run(FaultPlan::none());
        assert_eq!(a.global_rounds, 40);
        assert_eq!(a.controller_failovers, 1);
        assert_eq!(a.failover_rounds_lost, 1);
        // Same-seed replays of the failover are bit-identical.
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.final_loss(), b.final_loss());
        assert_eq!(a.comm_bytes, b.comm_bytes);
        assert_eq!(a.worker_iterations, b.worker_iterations);
        // The lease window is real downtime.
        assert!(a.wall_time > clean.wall_time);
        assert_eq!(clean.controller_failovers, 0);
    }

    #[test]
    fn controller_crash_at_round_zero_is_survived() {
        use crate::fault::FaultPlan;
        let spec = TrainSpec::smoke_test(3, 4)
            .with_max_rounds(20)
            .with_fault_plan(FaultPlan::none().crash_controller(0));
        let r = Engine::new(spec, RnaProtocol::new(3, RnaConfig::default(), 0)).run();
        assert_eq!(r.global_rounds, 20);
        assert_eq!(r.controller_failovers, 1);
    }

    #[test]
    fn repeated_controller_crashes_each_fail_over() {
        use crate::fault::FaultPlan;
        let spec = TrainSpec::smoke_test(4, 31)
            .with_max_rounds(30)
            .with_fault_plan(FaultPlan::none().crash_controller(5).crash_controller(15));
        let r = Engine::new(spec, RnaProtocol::new(4, RnaConfig::default(), 0)).run();
        assert_eq!(r.global_rounds, 30);
        assert_eq!(r.controller_failovers, 2);
        assert_eq!(r.failover_rounds_lost, 2);
    }

    #[test]
    fn transfer_overhead_slows_rounds() {
        let n = 4;
        let base = TrainSpec::smoke_test(n, 19).with_max_rounds(40);
        let mut charged = base.clone();
        charged.charge_transfer_overhead = true;
        let fast = Engine::new(base, RnaProtocol::new(n, RnaConfig::default(), 0)).run();
        let slow = Engine::new(charged, RnaProtocol::new(n, RnaConfig::default(), 0)).run();
        assert!(slow.wall_time > fast.wall_time);
    }
}
