//! The RNA protocol engine (§3) and the simulator's one RNA `Protocol`.
//!
//! One [`GroupState`] drives randomized non-blocking AllReduce over a set of
//! member workers:
//!
//! 1. The controller samples `d` members and probes them
//!    ([`Election::draw`]). A probed member replies as soon as its
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
//! Steps 1–2 are [`Election`]'s, the one election the real worlds' controller
//! drives too; this module sends the probes and replies. Under the counted
//! [`SyncMode`]s they give way to a count: the collective fires once a live
//! majority holds a gradient (eager-SGD), or all but `b` members reported
//! theirs over a 64-byte hop (Horovod, backup workers).
//!
//! [`RnaProtocol`] owns one `GroupState` per group and writes the round
//! edge once. Flat RNA ([`RnaProtocol::new`]) is one group spanning the
//! cluster, with controller failover and checkpoint/resume. The §4
//! hierarchy ([`RnaProtocol::grouped`], [`RnaProtocol::auto`]) is several
//! groups plus the asynchronous parameter-server stage of `crate::hier`, and
//! the §2.2 asynchronous parameter server ([`RnaProtocol::async_ps`]) is
//! that stage over groups of one.

use rna_collectives::partial_allreduce_pooled;
use rna_simnet::trace::SpanKind;
use rna_simnet::{SimDuration, SimTime};
use rna_tensor::codec::FeedbackEncoder;
use rna_tensor::wire::{self, Reader};
use rna_tensor::Tensor;

use crate::cache::GradientCache;
use crate::election::{Election, SyncMode};
use crate::fault::ToleranceConfig;
use crate::grouping::{group_of, partition_groups};
use crate::hier::PsStage;
use crate::membership::{Edge, RegroupPolicy, SpeedEstimator};
use crate::recovery::RoundJournal;
use crate::sim::{Ctx, Protocol, TrainSpec};
use crate::RnaConfig;

/// Probe RPC payload in bytes (probes are "lightweight RPCs").
const PROBE_BYTES: u64 = 64;

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
    /// intra-group broadcast, carrying the master parameters.
    PsDone {
        /// Group whose exchange finished.
        group: usize,
        /// The master parameters pulled from the PS.
        master: Tensor,
        /// Contributor count of the round the exchange completes.
        contributors: usize,
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

/// Per-group RNA state machine, driven by [`RnaProtocol`] (one per group).
#[derive(Debug)]
pub struct GroupState {
    /// Group id (index into `RnaProtocol`'s group list; 0 for flat RNA).
    pub id: usize,
    /// Global worker ids belonging to this group.
    pub members: Vec<usize>,
    pub(crate) election: Election,
    /// The round each member's latest gradient began in (`None`: rejoined).
    began: Vec<Option<u64>>,
    caches: Vec<GradientCache>,
    pending_reply: Vec<Option<u64>>,
    round: u64,
    reducing: bool,
    paused: Vec<bool>,
    live: Vec<bool>,
    /// A finished collective waiting to be applied: the reduced gradient,
    /// the contributor count, and the members the initiator could reach
    /// (partitioned members are excluded from the apply — they catch up
    /// through their staleness-weighted caches on heal).
    in_flight: Option<(Tensor, usize, Vec<usize>)>,
    last_initiator: Option<usize>,
    /// Checkpoint quiesce in progress: members finishing an iteration are
    /// paused instead of continuing, until every live member is idle and
    /// the checkpoint can be cut.
    quiescing: bool,
    /// Per-member error-feedback encoders for lossy codecs: what a member's
    /// last encode dropped rides its next contribution, so quantization
    /// error telescopes instead of accumulating (unused under `Lossless`).
    encoders: Vec<FeedbackEncoder>,
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

/// An empty gradient cache under `config`'s staleness bound and weighting.
pub(crate) fn empty_cache(config: &RnaConfig) -> GradientCache {
    GradientCache::new(config.staleness_bound, config.weighted_accumulation)
}

impl GroupState {
    /// Creates the state machine for `members` under `config` and `mode`,
    /// retrying lost probes on `tolerance`'s ladder.
    ///
    /// A `config.probes` larger than the group is not an error: probe
    /// counts are clamped to the group size, so small groups simply probe
    /// everyone.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or `tolerance` is invalid.
    pub fn new(
        id: usize,
        members: Vec<usize>,
        config: &RnaConfig,
        tolerance: &ToleranceConfig,
        mode: SyncMode,
    ) -> Self {
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
            election: Election::new(mode, config.probes, tolerance),
            began: vec![Some(0); n],
            caches: (0..n).map(|_| empty_cache(config)).collect(),
            pending_reply: vec![None; n],
            round: 0,
            reducing: false,
            paused: vec![false; n],
            live: vec![true; n],
            in_flight: None,
            last_initiator: None,
            quiescing: false,
            encoders: vec![FeedbackEncoder::new(config.compression); n],
            codec_buf: Vec::new(),
            member_slots,
        }
    }

    /// The group's current round.
    pub fn round(&self) -> u64 {
        self.round
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

    /// Opens this round's election: the probe arm probes `d` *live* members
    /// from the ladder's base; the counted arms arm their trigger, and the
    /// majority fires at once if it is ready.
    pub fn open_election(&mut self, ctx: &mut Ctx<'_, RnaMsg>, config: &RnaConfig) {
        self.election.open();
        match self.election.mode() {
            SyncMode::Rna => self.issue_probes(ctx, false),
            SyncMode::EagerMajority => self.maybe_fire(ctx, config),
            SyncMode::Bsp | SyncMode::Backup(_) => {
                // After a takeover: resend the reports the dead controller lost.
                for (local, &w) in self.members.iter().enumerate() {
                    if self.paused[local] && self.began[local] == Some(self.round) {
                        self.send_reply(ctx, w, self.round);
                    }
                }
            }
        }
    }

    /// The counted arms' trigger, checked wherever the ready or live count
    /// changes: the live members are the electorate.
    fn maybe_fire(&mut self, ctx: &mut Ctx<'_, RnaMsg>, config: &RnaConfig) {
        if !self.election.armed() || self.reducing || ctx.stopped() {
            return;
        }
        let live = self.live.iter().filter(|&&l| l).count();
        // The barrier family counts gradients begun this round, not a
        // partition's older ones.
        let since = if self.election.mode().reports() {
            self.round
        } else {
            0
        };
        let newest = |l: usize| self.caches[l].entries().last().map(|e| e.0);
        let ready = (0..self.members.len()).filter(|&l| self.live[l] && newest(l) >= Some(since));
        if let Some(local) = self.election.quorum(live, ready) {
            self.last_initiator = Some(self.members[local]);
            self.launch_reduce(ctx, config);
        }
    }

    /// Draws and sends one batch of probes to live members (after a `lost`
    /// attempt the ladder doubles first), and arms a retry timer for the
    /// attempt's epoch when the fabric is faulty.
    fn issue_probes(&mut self, ctx: &mut Ctx<'_, RnaMsg>, lost: bool) {
        let live: Vec<usize> = (0..self.members.len()).filter(|&l| self.live[l]).collect();
        // An empty pool: the whole group died; nothing left to coordinate.
        let Some(attempt) = self
            .election
            .draw(self.round, &live, lost, ctx.rng(), |_| true)
        else {
            return;
        };
        let ctrl = ctx.controller_id();
        for &local in self.election.probed() {
            ctx.send(
                ctrl,
                self.members[local],
                PROBE_BYTES,
                RnaMsg::Probe {
                    group: self.id,
                    round: self.round,
                },
            );
        }
        if ctx.net_faults_enabled() {
            // A dropped probe or reply would otherwise wedge the election
            // forever: the controller only reacts to messages, and none
            // would come. On a reliable fabric the timer is pointless (and
            // arming it would perturb event-for-event determinism of
            // existing runs), so it is gated on faults being present.
            ctx.send_after(
                ctrl,
                SimDuration::from_micros(self.election.backoff_us()),
                RnaMsg::ProbeRetry {
                    group: self.id,
                    round: self.round,
                    attempt,
                },
            );
        }
    }

    /// A probe-retry timer fired: if the attempt it was armed for is still
    /// the latest and winnerless, the attempt counts as lost and the
    /// election redraws on the doubled backoff.
    pub fn handle_probe_retry(&mut self, ctx: &mut Ctx<'_, RnaMsg>, round: u64, attempt: u64) {
        let due = round == self.round && self.election.retry_due(round, attempt);
        if !due || self.reducing || ctx.stopped() {
            return;
        }
        ctx.counters_mut().probe_retries += 1;
        self.issue_probes(ctx, true);
    }

    /// A member crashed (the barrier family does not notice): remove it from
    /// election, re-check the majority over the shrunk electorate, and — if
    /// every probed member of the in-flight probe round is dead — resample
    /// now.
    pub fn handle_crash(&mut self, ctx: &mut Ctx<'_, RnaMsg>, config: &RnaConfig, worker: usize) {
        if self.election.mode().reports() {
            return;
        }
        self.depart(config, worker);
        self.maybe_fire(ctx, config);
        if !self.reducing && self.election.stalled(&self.live) {
            self.open_election(ctx, config);
        }
    }

    /// A probe arrived at `worker`: reply immediately if gradients are
    /// ready, otherwise remember the probe.
    pub fn handle_probe(&mut self, ctx: &mut Ctx<'_, RnaMsg>, worker: usize, round: u64) {
        let Some(local) = self.member_index(worker) else {
            return;
        };
        if !self.caches[local].is_empty() {
            self.send_reply(ctx, worker, round);
        } else {
            self.pending_reply[local] = Some(round);
        }
    }

    fn send_reply(&self, ctx: &mut Ctx<'_, RnaMsg>, worker: usize, round: u64) {
        let ctrl = ctx.controller_id();
        ctx.send(
            worker,
            ctrl,
            PROBE_BYTES,
            RnaMsg::ProbeReply {
                group: self.id,
                round,
                worker,
            },
        );
    }

    /// A member finished a local iteration: cache its gradient, answer any
    /// pending probe or fire the majority, and keep computing unless the
    /// lead bound is hit. Under the barrier family the member reports its gradient.
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
        if let (true, Some(round)) = (self.election.mode().reports(), self.began[local]) {
            self.send_reply(ctx, worker, round);
        } else {
            if let Some((_, grad)) = ctx.take_gradient(worker) {
                // An evicted gradient goes back to the pool, not the heap.
                if let Some(evicted) = self.caches[local].write(iter, grad) {
                    ctx.pool_release(evicted);
                }
            }
            if let Some(round) = self.pending_reply[local].take() {
                self.send_reply(ctx, worker, round);
            }
            self.maybe_fire(ctx, config);
        }
        self.maybe_continue(ctx, config, local);
    }

    /// Starts the member's next iteration unless it is too far ahead of the
    /// group round (bounded lead, one gradient a round under the barrier family), a
    /// checkpoint quiesce is draining the group, or the run has stopped.
    fn maybe_continue(&mut self, ctx: &mut Ctx<'_, RnaMsg>, config: &RnaConfig, local: usize) {
        let worker = self.members[local];
        if ctx.stopped() || ctx.is_computing(worker) || !self.live[local] {
            return;
        }
        let held = if self.election.mode().reports() {
            self.began[local] == Some(self.round)
        } else {
            ctx.local_iter(worker).saturating_sub(self.round) >= config.max_lead
        };
        if self.quiescing || held {
            self.paused[local] = true;
            ctx.set_span(worker, SpanKind::Wait);
        } else {
            self.paused[local] = false;
            self.began[local] = Some(self.round);
            ctx.begin_compute(worker);
        }
    }

    /// A reply reached the controller: a probe's first accepted reply elects
    /// the initiator and launches the collective; a barrier-family report is
    /// collected, or pooled if its round already fired.
    pub fn handle_reply(
        &mut self,
        ctx: &mut Ctx<'_, RnaMsg>,
        config: &RnaConfig,
        worker: usize,
        round: u64,
    ) {
        let Some(local) = self.member_index(worker) else {
            return;
        };
        if self.election.mode().reports() {
            if let Some((_, grad)) = ctx.take_gradient(worker) {
                if round == self.round && !self.reducing && self.live[local] {
                    self.caches[local].write(round, grad);
                    self.maybe_fire(ctx, config);
                } else {
                    ctx.pool_release(grad);
                }
            }
            return;
        }
        if !self.reducing && self.election.offer_reply(local, round) {
            self.last_initiator = Some(worker);
            self.launch_reduce(ctx, config);
        }
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
            .expect("launch_reduce is only reached with an elected initiator");
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
            for (encoder, slot) in self.encoders.iter_mut().zip(&mut contributions) {
                let Some(grad) = slot.as_mut() else { continue };
                self.codec_buf.clear();
                let (_, err) = encoder.encode(grad, &mut self.codec_buf, ctx.codec_rng());
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
        self.in_flight = Some((outcome.reduced, outcome.num_contributors, applied));
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
        // Trigger broadcast and staging; the barrier family's hop was the reports.
        let duration = if self.election.mode().reports() {
            ring_time
        } else {
            cost.link().transfer_time(64) + ring_time + ctx.transfer_overhead()
        };
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

    /// Claims the finished collective's result without applying it, so the
    /// protocol can route it through the parameter-server stage first.
    /// Returns `(reduced, contributors, applied_members)`, or `None` if the
    /// completion was stale. `applied_members` are the global ids the
    /// result should be applied to (members the initiator could not reach
    /// at launch time are excluded).
    pub fn take_reduce_result(&mut self, round: u64) -> Option<(Tensor, usize, Vec<usize>)> {
        if round != self.round || !self.reducing {
            return None;
        }
        self.in_flight.take()
    }

    /// A live member of the group, preferring the most recent initiator —
    /// the node the hierarchical protocol treats as the group's
    /// representative toward the parameter server.
    pub fn representative(&self) -> Option<usize> {
        let first_live = || (0..self.members.len()).find(|&l| self.live[l]);
        let last = self.last_initiator.filter(|&w| self.is_live(w));
        last.or_else(|| first_live().map(|l| self.members[l]))
    }

    /// A crashed member rejoined: re-admit it to the liveness view with a
    /// fresh cache, seed it with a live peer's current parameters (the
    /// "pull the current model" half of a restart), and restart its
    /// compute pipeline. If the whole group had died, this also revives
    /// the probe loop (an armed majority trigger simply stays armed).
    pub fn handle_rejoin(&mut self, ctx: &mut Ctx<'_, RnaMsg>, config: &RnaConfig, worker: usize) {
        let Some(local) = self.member_index(worker) else {
            return;
        };
        self.live[local] = true;
        self.began[local] = None;
        self.paused[local] = false;
        self.pending_reply[local] = None;
        self.caches[local] = empty_cache(config);
        if let Some(donor) = (0..self.members.len())
            .find(|&l| l != local && self.live[l])
            .map(|l| self.members[l])
        {
            let params = ctx.params(donor);
            ctx.set_params(worker, &params);
        }
        let probes_dead =
            self.election.mode() == SyncMode::Rna && self.election.probed().is_empty();
        if probes_dead && !self.reducing && !ctx.stopped() {
            self.open_election(ctx, config);
        }
        self.maybe_continue(ctx, config, local);
    }

    /// Completes the round: clears the reduce latch, bumps the round, and
    /// records participation, the contributors over the whole cluster.
    /// `RnaProtocol`'s round edge follows with churn,
    /// the regroup or checkpoint check, [`GroupState::resume_paused`] and
    /// the next election.
    pub fn complete_round(&mut self, ctx: &mut Ctx<'_, RnaMsg>, contributors: usize) {
        self.reducing = false;
        self.round += 1;
        ctx.finish_round(contributors as f64 / ctx.num_workers() as f64);
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
    /// continuing. Cut the checkpoint once [`GroupState::drained`].
    pub fn begin_quiesce(&mut self) {
        self.quiescing = true;
        // Members already lead-bound-paused stay paused through the cut.
        for local in 0..self.members.len() {
            if self.live[local] {
                self.paused[local] = true;
            }
        }
    }

    /// Ends the quiesce (after the checkpoint was written).
    pub fn end_quiesce(&mut self) {
        self.quiescing = false;
    }

    /// Whether the group is drained: no collective or PS exchange in
    /// flight (the reduce latch holds until the round edge) and every live
    /// member idle — the condition for cutting a crash-consistent
    /// checkpoint or committing an atomic topology swap.
    pub fn drained(&self, ctx: &Ctx<'_, RnaMsg>) -> bool {
        !self.reducing
            && (self.members.iter().enumerate())
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

    /// Removes a member from the active roster (a crash, or a planned
    /// retirement or eviction at a round edge): it stops being probed,
    /// elected, or applied to, and anything it computed toward the next
    /// round is discarded with its cache.
    pub fn depart(&mut self, config: &RnaConfig, worker: usize) {
        self.set_dormant(worker);
        if let Some(local) = self.member_index(worker) {
            self.caches[local] = empty_cache(config);
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

    /// Swaps the member's gradient cache for `cache`, returning the old
    /// one. A topology swap transplants caches into the new group layout
    /// this way, so accumulated-but-unreduced work survives regrouping.
    pub fn swap_cache(&mut self, worker: usize, cache: GradientCache) -> Option<GradientCache> {
        let local = self.member_index(worker)?;
        Some(std::mem::replace(&mut self.caches[local], cache))
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

    /// Resets the controller-side election state after a standby takeover:
    /// the new controller trusts only the journal-recovered `round`, holds
    /// no open election or in-flight collective, and bumps the probe epoch
    /// so any timer armed by the dead controller expires.
    pub fn recover_for_takeover(&mut self, round: u64) {
        self.round = round;
        self.election.reset();
        self.reducing = false;
        self.in_flight = None;
    }

    /// Serializes the group's quiesced state into a checkpoint blob:
    /// liveness and pause flags, pending probe replies and begun rounds, the
    /// last initiator, and every member's gradient cache (bound, weighting,
    /// eviction counter, and exact pending entries).
    ///
    /// # Panics
    ///
    /// Debug-asserts the group is quiesced (no collective in flight).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        debug_assert!(!self.reducing && self.in_flight.is_none());
        wire::put_u64(out, self.round);
        self.election.encode_into(out);
        wire::put_u64(out, self.members.len() as u64);
        wire::put_opt_u64(out, self.last_initiator.map(|w| w as u64));
        for local in 0..self.members.len() {
            wire::put_bool(out, self.live[local]);
            wire::put_bool(out, self.paused[local]);
            wire::put_opt_u64(out, self.pending_reply[local]);
            wire::put_opt_u64(out, self.began[local]);
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
            wire::put_opt_tensor(out, self.encoders[local].residual.as_ref());
        }
    }

    /// Restores state written by [`GroupState::encode_into`] into a freshly
    /// built group. Returns `None` on any mismatch (member count, malformed
    /// cache) instead of panicking — the group is then partly overwritten
    /// and must be discarded, as [`crate::sim::Engine::resume`] does when it
    /// surfaces the typed corruption error.
    pub fn restore_from(&mut self, r: &mut Reader<'_>) -> Option<()> {
        self.round = r.u64()?;
        self.election.restore_from(r)?;
        if r.u64()? != self.members.len() as u64 {
            return None;
        }
        self.last_initiator = r.opt_u64()?.map(|w| w as usize);
        for local in 0..self.members.len() {
            self.live[local] = r.bool()?;
            self.paused[local] = r.bool()?;
            self.pending_reply[local] = r.opt_u64()?;
            self.began[local] = r.opt_u64()?;
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
            self.encoders[local].residual = r.opt_tensor()?;
        }
        self.reducing = false;
        self.in_flight = None;
        self.quiescing = false;
        Some(())
    }
}

/// The simulator's RNA protocol: one [`GroupState`] per group, plus the §4
/// parameter-server stage when the run is hierarchical.
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
    tolerance: ToleranceConfig,
    groups: Vec<GroupState>,
    /// Each worker's index into `groups`.
    worker_group: Vec<usize>,
    /// Workers that left via the churn plan (retired or evicted). Their
    /// engine may still deliver an in-flight `ComputeDone` after the
    /// departure edge; the gradient is discarded at the protocol level.
    departed: Vec<bool>,
    /// Planned joins already admitted (each join fires exactly once,
    /// even when a topology swap jumps a group's round clock past the
    /// join round).
    joined: Vec<bool>,
    /// The asynchronous parameter-server exchange between groups; `None`
    /// for flat RNA, which alone has the controller failover and
    /// checkpoint state below.
    ps: Option<PsStage>,
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
    /// Controller crashes executed so far: the incarnation whose planned
    /// crash ([`crate::fault::FaultPlan::controller_crash`]) comes next.
    crash_idx: usize,
}

impl RnaProtocol {
    /// Creates flat RNA: one group over `n` workers, no PS stage. `_seed`
    /// is kept for API compatibility with experiment configs; randomness
    /// flows from the engine's protocol RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, config: RnaConfig, _seed: u64) -> Self {
        RnaProtocol {
            ps: None,
            ..RnaProtocol::grouped(vec![(0..n).collect()], config)
        }
    }

    /// Creates hierarchical RNA over an explicit grouping: RNA inside each
    /// group, groups coupled through the parameter-server stage. The stage
    /// is present even for a single group (which then exchanges with
    /// itself).
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty, any group is empty, or worker ids are
    /// not a partition of `0..n` for some `n`.
    pub fn grouped(groups: Vec<Vec<usize>>, config: RnaConfig) -> Self {
        assert!(!groups.is_empty(), "need at least one group");
        let n = groups.iter().map(Vec::len).sum();
        let worker_group = group_of(&groups, n);
        let ps = Some(PsStage::new(groups.len(), n, config.compression));
        let tolerance = ToleranceConfig::default();
        let groups = groups
            .into_iter()
            .enumerate()
            .map(|(id, members)| GroupState::new(id, members, &config, &tolerance, SyncMode::Rna))
            .collect();
        RnaProtocol {
            config,
            tolerance,
            groups,
            worker_group,
            departed: vec![false; n],
            joined: vec![false; n],
            ps,
            term: 0,
            ctrl_down: false,
            journal: RoundJournal::new(),
            crash_idx: 0,
        }
    }

    /// The asynchronous centralized parameter server (§2.2, §9): the PS
    /// stage over `n` groups of one under [`SyncMode::Bsp`]. A worker's
    /// round is its own blocking push and pull, and the single server's
    /// link serializes every worker's exchange — the communication hotspot
    /// that motivates decentralized AllReduce. Named `"async-ps"`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rna_core::rna::RnaProtocol;
    /// use rna_core::sim::{Engine, TrainSpec};
    ///
    /// let result = Engine::new(TrainSpec::smoke_test(4, 1), RnaProtocol::async_ps(4)).run();
    /// assert_eq!(result.protocol, "async-ps");
    /// assert!(result.global_rounds > 0);
    /// ```
    pub fn async_ps(n: usize) -> Self {
        let mut p = RnaProtocol::grouped((0..n).map(|w| vec![w]).collect(), RnaConfig::default())
            .with_election(SyncMode::Bsp);
        p.ps_stage().server_free_at = Some(SimTime::ZERO);
        p
    }

    /// Hierarchical RNA with the grouping derived from the spec's
    /// heterogeneity model by the ζ > v recursion over expected
    /// per-iteration times.
    ///
    /// # Examples
    ///
    /// ```
    /// use rna_core::rna::RnaProtocol;
    /// use rna_core::sim::{Engine, TrainSpec};
    /// use rna_core::RnaConfig;
    /// use rna_workload::HeterogeneityModel;
    ///
    /// let n = 6;
    /// let spec = TrainSpec::smoke_test(n, 4)
    ///     .with_hetero(HeterogeneityModel::mixed_groups(n, 0, 10, 40, 50))
    ///     .with_max_rounds(30);
    /// let protocol = RnaProtocol::auto(&spec, RnaConfig::default());
    /// assert!(protocol.num_groups() >= 2);
    /// let result = Engine::new(spec, protocol).run();
    /// assert!(result.global_rounds > 0);
    /// ```
    pub fn auto(spec: &TrainSpec, config: RnaConfig) -> Self {
        let nominal = spec.profile.compute.mean(8.0);
        let times: Vec<SimDuration> = (0..spec.num_workers)
            .map(|w| spec.hetero.expected(w, nominal))
            .collect();
        RnaProtocol::grouped(partition_groups(&times), config)
    }

    /// Sets what fires each group's collective (default [`SyncMode::Rna`]).
    /// [`SyncMode::EagerMajority`] is eager-SGD (`"eager-sgd"`),
    /// [`SyncMode::Bsp`] Horovod (`"horovod"`; `"async-ps"` with the PS
    /// stage, see [`RnaProtocol::async_ps`]) and [`SyncMode::Backup`]
    /// backup workers (`"backup-workers"`).
    ///
    /// # Panics
    ///
    /// Panics on `Backup(0)` (spelled `Bsp`) and unless a `Backup(b)`'s `b`
    /// is below every group's size.
    ///
    /// # Examples
    ///
    /// ```
    /// use rna_core::rna::RnaProtocol;
    /// use rna_core::sim::{Engine, TrainSpec};
    /// use rna_core::{RnaConfig, SyncMode};
    ///
    /// let eager =
    ///     RnaProtocol::new(4, RnaConfig::default(), 1).with_election(SyncMode::EagerMajority);
    /// let result = Engine::new(TrainSpec::smoke_test(4, 1), eager).run();
    /// assert_eq!(result.protocol, "eager-sgd");
    /// assert!(result.mean_participation() >= 0.5);
    /// ```
    pub fn with_election(mut self, mode: SyncMode) -> Self {
        assert_ne!(
            mode,
            SyncMode::Backup(0),
            "Backup(0) is spelled SyncMode::Bsp"
        );
        for g in &mut self.groups {
            if let SyncMode::Backup(b) = mode {
                assert!(b < g.members.len(), "need at least one non-backup worker");
            }
            g.election = Election::new(mode, self.config.probes, &self.tolerance);
        }
        self
    }

    /// Overrides the control-plane tolerance knobs: the controller lease
    /// and the probe-retry backoff (base and cap).
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is invalid ([`ToleranceConfig::validate`]).
    pub fn with_tolerance(mut self, tolerance: ToleranceConfig) -> Self {
        for g in &mut self.groups {
            g.election = Election::new(g.election.mode(), self.config.probes, &tolerance);
        }
        self.tolerance = tolerance;
        self
    }

    /// Sets how many group rounds pass between PS exchanges (default 1 —
    /// the §6 exchange frequency knob).
    ///
    /// # Panics
    ///
    /// Panics if `every == 0` or the protocol is flat (no PS stage).
    pub fn with_ps_every(mut self, every: u64) -> Self {
        assert!(every > 0, "PS cadence must be positive");
        self.ps_stage().every = every;
        self
    }

    /// Arms online regrouping: per-worker EWMA speed estimates feed the
    /// §4 ζ-split whenever the policy's cadence comes due and the measured
    /// heterogeneity has drifted; a differing split is committed as an
    /// atomic topology swap at a cluster-wide quiesce point.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid ([`RegroupPolicy::validate`]) or
    /// the protocol is flat (no PS stage).
    pub fn with_regroup_policy(mut self, policy: RegroupPolicy) -> Self {
        policy.validate().expect("invalid regroup policy");
        let n = self.worker_group.len();
        let ps = self.ps_stage();
        ps.speed = SpeedEstimator::new(n, policy.alpha);
        ps.policy = Some(policy);
        self
    }

    fn ps_stage(&mut self) -> &mut PsStage {
        self.ps
            .as_mut()
            .expect("flat RNA has no PS stage; build with RnaProtocol::grouped or ::auto")
    }

    /// Number of groups (1 for flat RNA).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The members of each group.
    pub fn group_members(&self) -> Vec<Vec<usize>> {
        self.groups.iter().map(|g| g.members.clone()).collect()
    }

    /// Opens group `gid`'s next election — unless the fault plan kills
    /// the (flat) controller at this round, in which case the controller
    /// goes dark and the warm standby's lease timer is armed instead.
    fn start_next_round(&mut self, ctx: &mut Ctx<'_, RnaMsg>, gid: usize) {
        if ctx.stopped() {
            return;
        }
        let round = self.groups[gid].round();
        if self.ps.is_none()
            && ctx.fault_plan().controller_crash(self.crash_idx as u64) == Some(round)
        {
            self.crash_idx += 1;
            self.ctrl_down = true;
            ctx.send_after(
                ctx.controller_id(),
                SimDuration::from_micros(self.tolerance.liveness_timeout_us),
                RnaMsg::StandbyTakeover {
                    term: self.term + 1,
                },
            );
            return;
        }
        self.groups[gid].open_election(ctx, &self.config);
    }

    /// The warm standby's lease timer fired: bump the term, recover the
    /// round counter from the journal, reset the election state (probe
    /// epoch bump expires the dead incarnation's timers), and reopen the
    /// abandoned election.
    fn handle_takeover(&mut self, ctx: &mut Ctx<'_, RnaMsg>, term: u64) {
        if !self.ctrl_down || term != self.term + 1 {
            return; // stale timer from an older incarnation
        }
        self.term = term;
        self.ctrl_down = false;
        let round = self.journal.next_round();
        debug_assert_eq!(
            round,
            self.groups[0].round(),
            "journal replay must agree with the group round"
        );
        self.groups[0].recover_for_takeover(round);
        // One election was abandoned: the downtime cost of the takeover.
        ctx.counters_mut().controller_failovers += 1;
        ctx.counters_mut().failover_rounds_lost += 1;
        self.start_next_round(ctx, 0);
    }

    /// A group's collective finished: route the result through the PS
    /// stage (if any), apply it group-locally unless an exchange launched,
    /// and run the round edge — or leave it to the exchange's `PsDone`.
    fn on_reduce_done(&mut self, ctx: &mut Ctx<'_, RnaMsg>, gid: usize, round: u64) {
        let Some((reduced, contributors, applied)) = self
            .groups
            .get_mut(gid)
            .and_then(|g| g.take_reduce_result(round))
        else {
            return;
        };
        // Linear Scaling Rule: the learning rate scales with the
        // contributor count.
        let scale = if self.config.dynamic_lr_scaling {
            contributors as f32
        } else {
            1.0
        };
        // Delta-sample the alloc hook around the data-path work (PS push,
        // apply) but not the round edge, whose compute launches allocate
        // on the out-of-scope compute path.
        let allocs_before = rna_tensor::alloc::count();
        let exchanging = match &mut self.ps {
            Some(ps) => {
                let group = &self.groups[gid];
                ps.push(ctx, &self.config, group, &reduced, scale, contributors)
            }
            None => false,
        };
        if !exchanging {
            // Between exchanges this is a group-local preview; the
            // accumulated gradient reaches the master at the next one.
            ctx.apply_reduced(&applied, &reduced, scale);
        }
        ctx.pool_release(reduced);
        ctx.counters_mut().datapath_allocs += rna_tensor::alloc::count() - allocs_before;
        if !exchanging {
            self.round_edge(ctx, gid, contributors);
        }
    }

    /// A group's PS exchange returned: broadcast the master inside
    /// the group, then run the round edge it held back.
    fn on_ps_done(
        &mut self,
        ctx: &mut Ctx<'_, RnaMsg>,
        gid: usize,
        master: Tensor,
        contributors: usize,
    ) {
        // A group with an exchange in flight always survives the swap
        // untouched (`drained` refuses to commit while one is
        // outstanding), so a valid id here is never stale.
        let Some(group) = self.groups.get_mut(gid) else {
            ctx.pool_release(master);
            return;
        };
        let allocs_before = rna_tensor::alloc::count();
        for &w in &group.members {
            ctx.set_params(w, &master);
        }
        ctx.pool_release(master);
        ctx.counters_mut().datapath_allocs += rna_tensor::alloc::count() - allocs_before;
        self.round_edge(ctx, gid, contributors);
    }

    /// The round edge, run once per completed group round: journal the
    /// round (flat), apply the churn events now due, run the regroup check
    /// (PS stage; an armed swap holds the group until every group has
    /// drained), then quiesce for a due checkpoint (flat) or resume the
    /// paused members and open the next election.
    fn round_edge(&mut self, ctx: &mut Ctx<'_, RnaMsg>, gid: usize, contributors: usize) {
        let group = &mut self.groups[gid];
        let (round, initiator) = (group.round(), group.last_initiator.unwrap_or(0));
        group.complete_round(ctx, contributors);
        if self.ps.is_none() {
            self.journal.record(round, initiator, contributors as u32);
        }
        self.process_churn(ctx, gid);
        match &mut self.ps {
            Some(ps) => {
                if ps.regroup_armed(ctx, &mut self.groups) {
                    // The commit itself restarts every group.
                    self.try_finish_drain(ctx);
                    return;
                }
            }
            None => {
                if ctx.checkpoint_due() && !ctx.stopped() {
                    self.groups[0].begin_quiesce();
                    self.try_finish_drain(ctx);
                    return;
                }
            }
        }
        self.groups[gid].resume_paused(ctx, &self.config);
        self.start_next_round(ctx, gid);
    }

    /// Applies the churn plan's edges due by group `gid`'s next round to
    /// its members: a **leave** (a retiree past its final round, an evictee
    /// at its own) takes the member out; a **join** admits it as a restart
    /// rejoins, its snapshot streamed over the virtual wire. Every edge up to `next` is read, once each, because a committed
    /// topology swap jumps the round clock: edges in the jumped-over range
    /// must still fire.
    fn process_churn(&mut self, ctx: &mut Ctx<'_, RnaMsg>, gid: usize) {
        let next = self.groups[gid].round();
        let due: Vec<(usize, Edge)> = ctx.churn_plan().edges(..=next).collect();
        for (w, edge) in due {
            if self.worker_group[w] != gid {
                continue;
            }
            match edge {
                Edge::Join if !self.joined[w] => {
                    self.joined[w] = true;
                    let snapshot_bytes = 4 * ctx.params(w).len() as u64;
                    self.rejoin(ctx, w);
                    ctx.charge_bytes(snapshot_bytes);
                    ctx.note_worker_joined(snapshot_bytes);
                }
                Edge::Leave(fate) if !self.departed[w] => {
                    self.groups[gid].depart(&self.config, w);
                    self.departed[w] = true;
                    if let Some(ps) = &mut self.ps {
                        ps.speed.forget(w);
                    }
                    ctx.note_worker_departed(w, fate);
                }
                _ => {}
            }
        }
    }

    /// Re-admits `worker` after a restart or as a planned joiner. A group
    /// with no other live member seeds it from the PS master;
    /// [`GroupState::handle_rejoin`] otherwise seeds it from a live peer.
    fn rejoin(&mut self, ctx: &mut Ctx<'_, RnaMsg>, worker: usize) {
        let group = &mut self.groups[self.worker_group[worker]];
        let master = self.ps.as_ref().and_then(|ps| ps.master.as_ref());
        if let Some(master) = master.filter(|_| group.live_members().iter().all(|&w| w == worker)) {
            ctx.set_params(worker, master);
        }
        group.handle_rejoin(ctx, &self.config, worker);
    }

    /// Finishes a drain once nothing gates it: the checkpoint quiesce
    /// without the PS stage, a pending regroup swap with it.
    fn try_finish_drain(&mut self, ctx: &mut Ctx<'_, RnaMsg>) {
        match &mut self.ps {
            Some(ps) => ps.try_commit_regroup(
                ctx,
                &mut self.groups,
                &mut self.worker_group,
                &self.config,
                &self.tolerance,
            ),
            None => self.try_cut_checkpoint(ctx),
        }
    }

    /// Cuts the pending checkpoint if the quiesce has drained (every live
    /// member idle), then resumes the group exactly as the non-checkpoint
    /// path would have — the same sequence [`Protocol::on_resume`] replays
    /// after a restart, which is what makes disk resume bit-identical.
    fn try_cut_checkpoint(&mut self, ctx: &mut Ctx<'_, RnaMsg>) {
        let group = &mut self.groups[0];
        if !group.quiescing || !group.drained(ctx) {
            return;
        }
        let mut blob = Vec::new();
        wire::put_u64(&mut blob, self.term);
        wire::put_u64(&mut blob, self.crash_idx as u64);
        self.journal.encode_into(&mut blob);
        group.encode_into(&mut blob);
        ctx.write_checkpoint(&blob);
        group.end_quiesce();
        group.resume_paused(ctx, &self.config);
        self.start_next_round(ctx, 0);
    }

    /// Decodes the blob [`RnaProtocol::try_cut_checkpoint`] wrote; `None`
    /// when it is malformed or was cut for another cluster shape.
    fn try_restore(&mut self, blob: &[u8]) -> Option<()> {
        let mut r = Reader::new(blob);
        self.term = r.u64()?;
        self.crash_idx = usize::try_from(r.u64()?).ok()?;
        self.journal = RoundJournal::decode(&mut r)?;
        self.groups[0].restore_from(&mut r)?;
        // Checkpoints are only cut at quiesce points, where the controller
        // is alive by construction.
        self.ctrl_down = false;
        Some(())
    }
}

impl Protocol for RnaProtocol {
    type Msg = RnaMsg;

    fn name(&self) -> &'static str {
        match (self.groups[0].election.mode(), &self.ps) {
            (SyncMode::EagerMajority, _) => "eager-sgd",
            (SyncMode::Bsp, Some(_)) => "async-ps",
            (SyncMode::Bsp, None) => "horovod",
            (SyncMode::Backup(_), _) => "backup-workers",
            (SyncMode::Rna, Some(_)) => "rna-hier",
            (SyncMode::Rna, None) => "rna",
        }
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, RnaMsg>) {
        assert_eq!(
            self.worker_group.len(),
            ctx.num_workers(),
            "grouping must cover exactly the spec's workers"
        );
        if let Some(ps) = &mut self.ps {
            ps.start(ctx);
        }
        for w in 0..ctx.num_workers() {
            if ctx.churn_plan().tenure(w).join.is_some() {
                // Planned joiner: dormant until its admission round.
                self.groups[self.worker_group[w]].set_dormant(w);
            } else {
                ctx.begin_compute(w);
            }
        }
        // Routed through the crash check so a controller crash at round 0
        // is honored (workers still compute and fill caches meanwhile).
        for gid in 0..self.groups.len() {
            self.start_next_round(ctx, gid);
        }
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx<'_, RnaMsg>, worker: usize, iter: u64) {
        if self.departed[worker] {
            // The worker left at a round edge while this iteration was in
            // flight; its gradient no longer has a home.
            let _ = ctx.take_gradient(worker);
            return;
        }
        if let Some(ps) = self.ps.as_mut().filter(|ps| ps.policy.is_some()) {
            if let Some(took) = ctx.last_compute_time(worker) {
                ps.speed.observe(worker, took);
            }
        }
        let gid = self.worker_group[worker];
        self.groups[gid].handle_compute_done(ctx, &self.config, worker, iter);
        self.try_finish_drain(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, RnaMsg>, _from: usize, to: usize, msg: RnaMsg) {
        if self.ctrl_down
            && matches!(
                msg,
                RnaMsg::ProbeReply { .. } | RnaMsg::ProbeRetry { .. } | RnaMsg::ReduceDone { .. }
            )
        {
            // The active controller is dead: everything addressed to it is
            // lost. (Probes are controller→worker, so none are in flight;
            // StandbyTakeover is addressed to the *standby*.)
            return;
        }
        // A committed topology swap may shrink the group count; messages
        // addressed to a no-longer-existing group id are stale by
        // definition and expire here.
        let config = &self.config;
        match msg {
            RnaMsg::Probe { group, round } => {
                if let Some(g) = self.groups.get_mut(group) {
                    g.handle_probe(ctx, to, round);
                }
            }
            RnaMsg::ProbeReply {
                group,
                round,
                worker,
            } => {
                if let Some(g) = self.groups.get_mut(group) {
                    g.handle_reply(ctx, config, worker, round);
                }
            }
            RnaMsg::ProbeRetry {
                group,
                round,
                attempt,
            } => {
                if let Some(g) = self.groups.get_mut(group) {
                    g.handle_probe_retry(ctx, round, attempt);
                }
            }
            RnaMsg::ReduceDone { group, round } => self.on_reduce_done(ctx, group, round),
            RnaMsg::PsDone {
                group,
                master,
                contributors,
            } => self.on_ps_done(ctx, group, master, contributors),
            RnaMsg::StandbyTakeover { term } => self.handle_takeover(ctx, term),
        }
    }

    fn on_crash(&mut self, ctx: &mut Ctx<'_, RnaMsg>, worker: usize) {
        if let Some(ps) = &mut self.ps {
            // The crashed worker's estimate is history; it re-earns trust
            // after a restart.
            ps.speed.forget(worker);
        }
        let gid = self.worker_group[worker];
        self.groups[gid].handle_crash(ctx, &self.config, worker);
        // The crashed member no longer gates a drain.
        self.try_finish_drain(ctx);
    }

    fn on_rejoin(&mut self, ctx: &mut Ctx<'_, RnaMsg>, worker: usize) {
        self.rejoin(ctx, worker);
    }

    fn restore(&mut self, blob: &[u8]) -> bool {
        // Grouped runs cut no checkpoints: theirs would need the PS stage.
        self.ps.is_none() && self.try_restore(blob).is_some()
    }

    fn on_resume(&mut self, ctx: &mut Ctx<'_, RnaMsg>) {
        // The departed and joined sets are pure plan-vs-round state, so
        // they are recomputed instead of checkpointed (the group's live
        // flags did persist).
        let round = self.groups[0].round();
        self.departed.fill(false);
        self.joined.fill(false);
        for (w, edge) in ctx.churn_plan().edges(..=round) {
            match edge {
                Edge::Join => self.joined[w] = true,
                Edge::Leave(_) => self.departed[w] = true,
            }
        }
        // Exactly the continuation `try_cut_checkpoint` runs after writing
        // the checkpoint — resuming from disk replays the same events.
        self.groups[0].resume_paused(ctx, &self.config);
        self.start_next_round(ctx, 0);
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
        // The engine consumes the protocol, so no per-member election
        // tally can be read back after the run.
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
        for election in [SyncMode::Rna, SyncMode::Bsp] {
            let config = RnaConfig::default().with_probes(1);
            let spec = TrainSpec::smoke_test(1, 2).with_max_rounds(50);
            let protocol = RnaProtocol::new(1, config, 2).with_election(election);
            let r = Engine::new(spec, protocol).run();
            assert_eq!(r.global_rounds, 50, "{election:?}");
            assert!(r.mean_participation() > 0.99);
            let pts = r.history.points();
            assert!(pts.last().unwrap().loss < pts[0].loss);
        }
    }

    #[test]
    fn one_probe_config_still_makes_progress() {
        let r = run(4, 11, RnaConfig::default().with_probes(1), 60);
        assert_eq!(r.global_rounds, 60);
    }

    #[test]
    fn controller_failover_is_survived_and_deterministic() {
        use crate::fault::FaultPlan;
        let elections = [
            SyncMode::Rna,
            SyncMode::EagerMajority,
            SyncMode::Bsp,
            SyncMode::Backup(1),
        ];
        for election in elections {
            let run = |plan: FaultPlan| {
                let spec = TrainSpec::smoke_test(4, 23)
                    .with_max_rounds(40)
                    .with_fault_plan(plan);
                let protocol = RnaProtocol::new(4, RnaConfig::default(), 0).with_election(election);
                Engine::new(spec, protocol).run()
            };
            let a = run(FaultPlan::none().crash_controller(10));
            let b = run(FaultPlan::none().crash_controller(10));
            let clean = run(FaultPlan::none());
            assert_eq!(a.global_rounds, 40, "{election:?}");
            assert_eq!(a.controller_failovers, 1, "{election:?}");
            assert_eq!(a.failover_rounds_lost, 1, "{election:?}");
            // Same-seed replays of the failover are bit-identical.
            assert_eq!(a.wall_time, b.wall_time);
            assert_eq!(a.final_loss(), b.final_loss());
            assert_eq!(a.comm_bytes, b.comm_bytes);
            assert_eq!(a.worker_iterations, b.worker_iterations);
            // The lease window is real downtime.
            assert!(a.wall_time > clean.wall_time, "{election:?}");
            assert_eq!(clean.controller_failovers, 0);
        }
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
    fn probe_retries_follow_the_tolerance_backoff() {
        // The election re-probes a winnerless round on the tolerance's
        // backoff schedule: a tighter base and cap retry more often under
        // the same dropped controller links.
        use crate::fault::{NetFaultPlan, LIVENESS_TIMEOUT_US, ROUND_DEADLINE_US};
        let n = 4;
        let run = |tolerance: ToleranceConfig| {
            let spec = TrainSpec::smoke_test(n, 19)
                .with_max_rounds(60)
                .with_net_fault_plan(
                    NetFaultPlan::none()
                        .with_seed(7)
                        .drop_link(n, 0, 0.5)
                        .drop_link(n, 1, 0.5),
                );
            let protocol = RnaProtocol::new(n, RnaConfig::default(), 0).with_tolerance(tolerance);
            Engine::new(spec, protocol).run()
        };
        let default = run(ToleranceConfig::default());
        let tight = ToleranceConfig::new(LIVENESS_TIMEOUT_US, 250, 1_000, ROUND_DEADLINE_US)
            .expect("valid tolerance");
        let fast = run(tight);
        assert_eq!(default.global_rounds, 60);
        assert_eq!(fast.global_rounds, 60);
        assert!(
            fast.probe_retries > default.probe_retries,
            "retries {} under the tight backoff vs {} under the default",
            fast.probe_retries,
            default.probe_retries
        );
    }

    fn eager(n: usize) -> RnaProtocol {
        RnaProtocol::new(n, RnaConfig::default(), 0).with_election(SyncMode::EagerMajority)
    }

    #[test]
    fn eager_trains() {
        let spec = TrainSpec::smoke_test(4, 1).with_max_rounds(150);
        let r = Engine::new(spec, eager(4)).run();
        let pts = r.history.points();
        assert!(pts.last().unwrap().loss < pts[0].loss);
        assert_eq!(r.global_rounds, 150);
    }

    #[test]
    fn participation_is_at_least_majority() {
        let n = 8;
        let spec = TrainSpec::smoke_test(n, 2)
            .with_hetero(HeterogeneityModel::dynamic_uniform(n, 0, 50))
            .with_max_rounds(80);
        let r = Engine::new(spec, eager(n)).run();
        assert!(
            r.mean_participation() >= 0.5,
            "participation {}",
            r.mean_participation()
        );
    }

    #[test]
    fn deterministic_slow_half_stalls_majority() {
        // With exactly half the cluster slowed 45 ms, the majority trigger
        // must wait for at least one slow worker every round — rounds are
        // bounded below by the slow tier.
        let n = 4;
        let spec = TrainSpec::smoke_test(n, 4)
            .with_hetero(HeterogeneityModel::deterministic(&[0, 0, 45, 45]))
            .with_max_rounds(40);
        let r = Engine::new(spec, eager(n)).run();
        assert!(
            r.mean_round_time() >= SimDuration::from_millis(24),
            "round time {}",
            r.mean_round_time()
        );
    }

    fn all_but(n: usize, b: usize) -> RnaProtocol {
        RnaProtocol::new(n, RnaConfig::default(), 0).with_election(if b == 0 {
            SyncMode::Bsp
        } else {
            SyncMode::Backup(b)
        })
    }

    #[test]
    fn all_but_b_trains_through_b_crashes_and_stalls_on_the_next() {
        use crate::fault::FaultPlan;
        let n = 4;
        let run = |b, plan: FaultPlan| {
            let spec = TrainSpec::smoke_test(n, 5)
                .with_max_rounds(60)
                .with_fault_plan(plan);
            Engine::new(spec, all_but(n, b)).run()
        };
        let one = || FaultPlan::none().crash(3, 10);
        // The barrier waits on the dead member, as Horovod does.
        let bsp = run(0, one());
        assert_eq!(bsp.stop_reason, StopReason::Idle);
        assert_eq!(bsp.global_rounds, 10);
        // One backup rides out one crash, and stalls on a second.
        let backup = run(1, one());
        assert_eq!(backup.stop_reason, StopReason::MaxRounds);
        assert_eq!(backup.global_rounds, 60);
        let two = run(1, one().crash(2, 30));
        assert_eq!(two.stop_reason, StopReason::Idle);
        assert_eq!(two.global_rounds, 30);
    }

    #[test]
    #[should_panic(expected = "non-backup")]
    fn all_but_rejects_a_group_of_backups() {
        let _ = all_but(2, 2);
    }

    #[test]
    #[should_panic(expected = "Backup(0) is spelled SyncMode::Bsp")]
    fn zero_backups_are_spelled_bsp() {
        let _ = RnaProtocol::new(4, RnaConfig::default(), 0).with_election(SyncMode::Backup(0));
    }

    /// Unvalidated tolerances used to pass `with_tolerance` untouched: a zero
    /// base re-armed the retry timer at +0 µs on a lossy fabric, and virtual
    /// time never advanced.
    #[test]
    #[should_panic(expected = "probe backoff must be positive")]
    fn a_zero_probe_backoff_is_rejected() {
        let _ = RnaProtocol::new(4, RnaConfig::default(), 0).with_tolerance(ToleranceConfig {
            probe_backoff_us: 0,
            ..ToleranceConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "below the base")]
    fn a_probe_backoff_cap_below_the_base_is_rejected() {
        let _ = RnaProtocol::new(4, RnaConfig::default(), 0).with_tolerance(ToleranceConfig {
            probe_backoff_us: 2_000,
            probe_backoff_cap_us: 1_000,
            ..ToleranceConfig::default()
        });
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
