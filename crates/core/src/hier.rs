//! Hierarchical synchronization for deterministic heterogeneity (§4).
//!
//! The cluster is partitioned into speed-homogeneous groups
//! ([`crate::grouping::partition_groups`]); each group runs RNA internally
//! ([`crate::rna::GroupState`]). Each group is then "a node in the
//! traditional PS": the paper's three-phase exchange becomes
//!
//! 1. the group's round produces a reduced gradient (intra-group partial
//!    AllReduce), which the round's initiator **pushes** to the parameter
//!    server;
//! 2. the server **applies** the gradient to its master parameters
//!    ("the averaged gradients among each group is applied to update
//!    models using parameter server", §4) — plain summation work, which is
//!    what §6 says the PS executes;
//! 3. the initiator **pulls** the refreshed master back and **broadcasts**
//!    it inside the group.
//!
//! Groups do this asynchronously — a slow group's push simply lands on the
//! master later, exactly like a slow worker in an asynchronous parameter
//! server — so the deterministic tier gap never stalls the fast tier, and
//! because every push applies to the *latest* master there is no
//! stale-parameter mixing: staleness is confined to the gradients, where
//! the §5 analysis bounds it.
//!
//! With an exchange cadence above 1 ([`HierRnaProtocol::with_ps_every`]),
//! intermediate rounds apply updates group-locally as a preview and the
//! accumulated gradient is pushed at the next exchange; the broadcast then
//! replaces the preview with the master view.

use rna_simnet::SimDuration;
use rna_tensor::Tensor;

use rna_ps::ReplicatedGroupServer;

use crate::cache::GradientCache;
use crate::fault::WorkerFate;
use crate::grouping::{group_of, partition_groups};
use crate::membership::{
    hetero_ratio, regroup_decision, ChurnEvent, RegroupPolicy, SpeedEstimator,
};
use crate::rna::{GroupState, RnaMsg};
use crate::sim::{Ctx, Protocol, TrainSpec};
use crate::RnaConfig;

/// Hierarchical RNA: per-group randomized non-blocking AllReduce with
/// asynchronous inter-group gradient exchange through a parameter server.
///
/// # Examples
///
/// ```
/// use rna_core::hier::HierRnaProtocol;
/// use rna_core::sim::{Engine, TrainSpec};
/// use rna_core::RnaConfig;
/// use rna_workload::HeterogeneityModel;
///
/// let n = 6;
/// let spec = TrainSpec::smoke_test(n, 4)
///     .with_hetero(HeterogeneityModel::mixed_groups(n, 0, 10, 40, 50))
///     .with_max_rounds(30);
/// let protocol = HierRnaProtocol::auto(&spec, RnaConfig::default());
/// assert!(protocol.num_groups() >= 2);
/// let result = Engine::new(spec, protocol).run();
/// assert!(result.global_rounds > 0);
/// ```
pub struct HierRnaProtocol {
    config: RnaConfig,
    groups: Vec<GroupState>,
    worker_group: Vec<usize>,
    /// The asynchronous master parameters (the PS state). Deliberately kept
    /// as the broadcast source even under PS-shard faults: the master is
    /// the analytic model of the exchange, the replicated server below
    /// mirrors it per slot — so fault-free runs stay bit-identical.
    master: Option<Tensor>,
    /// Slot bookkeeping (per-group versions/staleness diagnostics), each
    /// slot mirrored to a warm replica with read-repair on pull.
    server: Option<ReplicatedGroupServer>,
    /// Accumulated `Σ scale·ḡ` per group since its last exchange.
    pending: Vec<Option<Tensor>>,
    /// Group rounds between PS exchanges.
    ps_every: u64,
    /// Exchanges each group skipped because the PS was unreachable
    /// (partition). Reset when the group reconciles on heal.
    missed_exchanges: Vec<u64>,
    /// Which [`crate::fault::FaultPlan::ps_shard_crashes`] entries have
    /// already fired (sized lazily in `on_start`).
    ps_crashes_done: Vec<bool>,
    /// Per-group error-feedback residuals for the lossy PS push (the pull
    /// stays full-precision — the master must reach every group exactly).
    ps_residuals: Vec<Option<Tensor>>,
    /// Reusable encode scratch for the PS push.
    codec_buf: Vec<u8>,
    /// Workers that left via the churn plan (retired or evicted). Their
    /// engine may still deliver an in-flight `ComputeDone` after the
    /// departure edge; the gradient is discarded at the protocol level.
    departed: Vec<bool>,
    /// Planned joiners already admitted (each join fires exactly once,
    /// even when a topology swap jumps a group's round clock past the
    /// join round).
    joined: Vec<bool>,
    /// Per-worker EWMA of observed compute times — the live counterpart
    /// of the launch-time probe the §4 split keys off. Fed on every
    /// `ComputeDone` while a regroup policy is armed.
    speed: SpeedEstimator,
    /// Online-regroup policy; `None` (the default) disables regrouping
    /// entirely, leaving pre-existing runs untouched.
    policy: Option<RegroupPolicy>,
    /// Completed group-round edges across all groups — the clock the
    /// regroup cadence runs on.
    round_edges: u64,
    /// `round_edges` at the last committed topology swap.
    last_swap_edge: u64,
    /// Heterogeneity ratio at the last committed grouping (negative until
    /// first measured).
    last_ratio: f64,
    /// An armed topology swap: the proposed grouping and the measured
    /// ratio that justified it. While set, every group quiesces; the swap
    /// commits atomically once all groups are drained.
    pending_regroup: Option<(Vec<Vec<usize>>, f64)>,
}

impl HierRnaProtocol {
    /// Creates the protocol with an explicit grouping.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty, any group is empty, or worker ids are
    /// not a partition of `0..n` for some `n`.
    pub fn new(groups: Vec<Vec<usize>>, config: RnaConfig) -> Self {
        assert!(!groups.is_empty(), "need at least one group");
        let n: usize = groups.iter().map(Vec::len).sum();
        let worker_group = group_of(&groups, n);
        let num_groups = groups.len();
        let groups = groups
            .into_iter()
            .enumerate()
            .map(|(id, members)| GroupState::new(id, members, &config))
            .collect();
        HierRnaProtocol {
            config,
            groups,
            worker_group,
            master: None,
            server: None,
            pending: vec![None; num_groups],
            ps_every: 1,
            missed_exchanges: vec![0; num_groups],
            ps_crashes_done: Vec::new(),
            ps_residuals: vec![None; num_groups],
            codec_buf: Vec::new(),
            departed: vec![false; n],
            joined: vec![false; n],
            speed: SpeedEstimator::new(n, RegroupPolicy::default().alpha),
            policy: None,
            round_edges: 0,
            last_swap_edge: 0,
            last_ratio: -1.0,
            pending_regroup: None,
        }
    }

    /// Derives the grouping from the spec's heterogeneity model using the
    /// ζ > v recursion over expected per-iteration times.
    pub fn auto(spec: &TrainSpec, config: RnaConfig) -> Self {
        let nominal = spec.profile.compute.mean(8.0);
        let times: Vec<SimDuration> = (0..spec.num_workers)
            .map(|w| spec.hetero.expected(w, nominal))
            .collect();
        HierRnaProtocol::new(partition_groups(&times), config)
    }

    /// Sets how many group rounds pass between PS exchanges (default 1 —
    /// the §6 exchange frequency knob).
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn with_ps_every(mut self, every: u64) -> Self {
        assert!(every > 0, "PS cadence must be positive");
        self.ps_every = every;
        self
    }

    /// Arms online regrouping: per-worker EWMA speed estimates feed the
    /// §4 ζ-split whenever the policy's cadence comes due and the measured
    /// heterogeneity has drifted; a differing split is committed as an
    /// atomic topology swap at a cluster-wide quiesce point.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid ([`RegroupPolicy::validate`]).
    pub fn with_regroup_policy(mut self, policy: RegroupPolicy) -> Self {
        policy.validate().expect("invalid regroup policy");
        self.speed = SpeedEstimator::new(self.worker_group.len(), policy.alpha);
        self.policy = Some(policy);
        self
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The members of each group.
    pub fn group_members(&self) -> Vec<Vec<usize>> {
        self.groups.iter().map(|g| g.members.clone()).collect()
    }

    /// How many master updates group `gid` has missed since its last push
    /// (0 before the first exchange).
    pub fn group_staleness(&self, gid: usize) -> u64 {
        self.server.as_ref().map_or(0, |s| s.staleness(gid))
    }

    /// PS shard primaries that crashed and degraded to their replica.
    pub fn ps_failovers(&self) -> u64 {
        self.server.as_ref().map_or(0, |s| s.failovers())
    }

    /// Mirror copies the PS refreshed by read-repair.
    pub fn ps_read_repairs(&self) -> u64 {
        self.server.as_ref().map_or(0, |s| s.read_repairs())
    }

    /// Fires any planned PS-shard crash scheduled for this group at its
    /// current round: the slot's primary dies and the exchange degrades to
    /// the warm mirror. Each plan entry fires exactly once.
    fn maybe_crash_ps_shard(&mut self, ctx: &mut Ctx<'_, RnaMsg>, gid: usize) {
        if ctx.fault_plan().ps_shard_crashes().is_empty() {
            return;
        }
        let round = self.groups[gid].round();
        let crashes = ctx.fault_plan().ps_shard_crashes().to_vec();
        if self.ps_crashes_done.len() < crashes.len() {
            self.ps_crashes_done.resize(crashes.len(), false);
        }
        for (i, &(shard, at_round)) in crashes.iter().enumerate() {
            if self.ps_crashes_done[i] || shard != gid || at_round != round {
                continue;
            }
            self.ps_crashes_done[i] = true;
            if let Some(server) = self.server.as_mut() {
                if shard < server.num_groups() {
                    server.kill_primary(shard);
                    ctx.counters_mut().ps_failovers += 1;
                }
            }
        }
    }

    fn accumulate(&mut self, ctx: &mut Ctx<'_, RnaMsg>, gid: usize, reduced: &Tensor, scale: f32) {
        // Pooled buffers arrive zeroed, so the accumulator starts from
        // exact zero.
        let pending =
            self.pending[gid].get_or_insert_with(|| ctx.pool_mut().acquire(reduced.len()));
        pending.axpy(scale, reduced);
    }

    /// Launches the asynchronous exchange: the accumulated gradient travels
    /// to the PS and the refreshed master comes back, paying push + pull on
    /// the star link plus the intra-group broadcast.
    ///
    /// A gradient accumulated across `missed_exchanges` skipped exchanges
    /// (the group was partitioned from the PS) is reconciled with a
    /// staleness discount — the Hop-style bounded-staleness reading — so a
    /// long-isolated group cannot yank the master with a huge stale sum.
    fn ps_exchange(&mut self, ctx: &mut Ctx<'_, RnaMsg>, gid: usize) {
        let Some(mut grad) = self.pending[gid].take() else {
            return;
        };
        let codec = self.config.compression;
        if !codec.is_lossless() {
            // Lossy push: the PS receives decode(encode(grad + residual));
            // the dropped remainder stays in the group's residual and rides
            // the next push (error feedback).
            let residual = self.ps_residuals[gid].get_or_insert_with(|| Tensor::zeros(grad.len()));
            let threads = rna_tensor::codec::wire_threads(grad.len());
            let (_, err) = rna_tensor::codec::encode_with_feedback_mt(
                codec,
                &mut grad,
                residual,
                &mut self.codec_buf,
                ctx.codec_rng(),
                threads,
            );
            ctx.counters_mut().codec_error_l2 += err;
        }
        // The master applies the gradient at *send* time: the PS serializes
        // pushes, so the state the group later broadcasts already includes
        // this contribution plus whatever other groups landed meanwhile.
        let missed = std::mem::take(&mut self.missed_exchanges[gid]);
        let lr = ctx.current_lr() * rna_ps::staleness_discount(missed);
        let master = self.master.as_mut().expect("master set in on_start");
        master.axpy(-lr, &grad);
        if let Some(server) = self.server.as_mut() {
            server.push(gid, master);
            // The pull half of the exchange read-repairs the slot's mirror,
            // so a later primary crash degrades to this round's value.
            let _ = server.pull_slot(gid);
        }
        // The broadcast payload snapshots the master; both it and the
        // drained accumulator cycle through the pool.
        let mut blended = ctx.pool_mut().acquire(master.len());
        blended.copy_from(master);
        ctx.pool_release(grad);
        let bytes = ctx.grad_bytes();
        let cost = ctx.cost();
        let group_size = self.groups[gid].members.len();
        // The push travels encoded; the pull (refreshed master) is always
        // full precision. Lossless takes the legacy formulas verbatim.
        let push_bytes = if codec.is_lossless() {
            bytes
        } else {
            codec.frame_bytes((bytes / 4) as usize)
        };
        let duration = cost.point_to_point(push_bytes)
            + cost.point_to_point(bytes)
            + cost.ring_broadcast(group_size, bytes);
        ctx.charge_bytes(push_bytes + bytes);
        ctx.note_wire_bytes(push_bytes + bytes, bytes * 2);
        ctx.send_after(
            ctx.controller_id(),
            duration,
            RnaMsg::PsDone {
                group: gid,
                blended,
            },
        );
    }

    /// Round-edge hook shared by the immediate and deferred (PS-exchange)
    /// completion paths: process planned churn for the group, run the
    /// online regroup check, and — unless a topology swap is draining or
    /// just committed — resume the group into its next probe round.
    fn after_round_edge(&mut self, ctx: &mut Ctx<'_, RnaMsg>, gid: usize) {
        self.round_edges += 1;
        self.process_churn(ctx, gid);
        if self.pending_regroup.is_none() {
            self.maybe_regroup(ctx);
        }
        if self.pending_regroup.is_some() {
            // A swap is armed: hold this group at its edge (no new probe
            // round) and commit once every group has drained. The commit
            // itself restarts every group.
            self.try_commit_regroup(ctx);
            return;
        }
        let config = &self.config;
        if let Some(g) = self.groups.get_mut(gid) {
            g.resume_paused(ctx, config);
            if !ctx.stopped() {
                g.start_probe_round(ctx, config);
            }
        }
    }

    /// Applies the churn plan's events for members of group `gid`, called
    /// right after `complete_round` bumped the group round. Comparisons
    /// are `>=` with once-flags rather than exact equality because a
    /// committed topology swap aligns every group to the maximum round —
    /// events falling inside the jumped-over range must still fire.
    fn process_churn(&mut self, ctx: &mut Ctx<'_, RnaMsg>, gid: usize) {
        let events: Vec<(usize, ChurnEvent)> = ctx.churn_plan().events().to_vec();
        if events.is_empty() {
            return;
        }
        let next = self.groups[gid].round();
        for (w, ev) in events {
            if self.worker_group[w] != gid {
                continue;
            }
            match ev {
                ChurnEvent::Retire { at_round } => {
                    if next > at_round && !self.departed[w] {
                        self.groups[gid].depart(&self.config, w);
                        self.departed[w] = true;
                        self.speed.forget(w);
                        ctx.note_worker_departed(w, WorkerFate::Retired { at_round });
                    }
                }
                ChurnEvent::Evict { at_round } => {
                    if next >= at_round && !self.departed[w] {
                        self.groups[gid].depart(&self.config, w);
                        self.departed[w] = true;
                        self.speed.forget(w);
                        ctx.note_worker_departed(w, WorkerFate::Evicted { at_round });
                    }
                }
                ChurnEvent::Join { at_round, .. } => {
                    if next >= at_round && !self.joined[w] {
                        self.joined[w] = true;
                        let snapshot_bytes = 4 * ctx.params(w).len() as u64;
                        if self.groups[gid].live_members().is_empty() {
                            // No live peer to donate parameters: stream
                            // the master directly.
                            if let Some(master) = self.master.as_ref() {
                                ctx.set_params(w, master);
                            }
                        }
                        self.groups[gid].handle_rejoin(ctx, &self.config, w);
                        ctx.charge_bytes(snapshot_bytes);
                        ctx.note_worker_joined(snapshot_bytes);
                    }
                }
            }
        }
    }

    /// The online-regroup check (§4, run live): when the policy's cadence
    /// is due, every active worker's EWMA estimate is trusted, and the
    /// heterogeneity ratio has drifted past the threshold, re-run the
    /// ζ-split over the estimates. A split that differs from the current
    /// grouping arms a pending swap and quiesces every group.
    fn maybe_regroup(&mut self, ctx: &mut Ctx<'_, RnaMsg>) {
        let Some(policy) = self.policy else { return };
        if ctx.stopped() || !policy.due(self.round_edges, self.last_swap_edge) {
            return;
        }
        let mut members: Vec<usize> = self
            .groups
            .iter()
            .flat_map(GroupState::live_members)
            .collect();
        members.sort_unstable();
        if members.len() < 2 || self.speed.min_samples(&members) < policy.min_samples {
            return;
        }
        let Some(times) = self.speed.estimates(&members) else {
            return;
        };
        let ratio = hetero_ratio(&times);
        if self.last_ratio >= 0.0 && (ratio - self.last_ratio).abs() < policy.drift_threshold {
            return;
        }
        let current: Vec<Vec<usize>> = self
            .groups
            .iter()
            .map(GroupState::live_members)
            .filter(|m| !m.is_empty())
            .collect();
        match regroup_decision(&current, &members, &times) {
            Some(proposal) => {
                self.pending_regroup = Some((proposal, ratio));
                for g in &mut self.groups {
                    g.begin_quiesce();
                }
            }
            None => {
                // The split agrees with the current grouping: record the
                // ratio as the new baseline so only further drift re-arms
                // the check.
                self.last_ratio = ratio;
            }
        }
    }

    /// Commits the armed topology swap once every group is drained: flush
    /// pending PS accumulators into the master (nothing contributed is
    /// lost), transplant gradient caches into the new layout, rebuild the
    /// group states aligned to the maximum round, rebalance the PS shard
    /// keys from the replica-backed blend, and restart every group.
    /// Returns whether the swap committed.
    fn try_commit_regroup(&mut self, ctx: &mut Ctx<'_, RnaMsg>) -> bool {
        if self.pending_regroup.is_none() {
            return false;
        }
        if ctx.stopped() {
            // The run ended mid-drain: abandon the swap.
            self.pending_regroup = None;
            for g in &mut self.groups {
                g.end_quiesce();
            }
            return false;
        }
        if !self.groups.iter().all(|g| g.idle_for_swap(ctx)) {
            return false;
        }
        let (mut layout, ratio) = self
            .pending_regroup
            .take()
            .expect("checked non-empty above");
        // 1. Flush every group's pending accumulator into the master, so
        //    gradients contributed before the swap survive it. The flush
        //    is full-precision (no codec): the owed error-feedback
        //    residuals are dropped with the old layout — a bounded, rare
        //    loss the swap accepts.
        let master = self.master.as_mut().expect("master set in on_start");
        for gid in 0..self.pending.len() {
            if let Some(grad) = self.pending[gid].take() {
                let missed = std::mem::take(&mut self.missed_exchanges[gid]);
                let lr = ctx.current_lr() * rna_ps::staleness_discount(missed);
                master.axpy(-lr, &grad);
                ctx.pool_release(grad);
            }
        }
        // 2. Steal every worker's cache and liveness so accumulated but
        //    unreduced work crosses the swap.
        let n = self.worker_group.len();
        let mut caches: Vec<Option<GradientCache>> = (0..n).map(|_| None).collect();
        let mut live = vec![false; n];
        for g in &mut self.groups {
            for w in g.members.clone() {
                live[w] = g.is_live(w);
                caches[w] = g.take_cache(&self.config, w);
            }
        }
        // 3. The proposal covers live members only; park every other
        //    identity (dormant joiners, departed, crashed) in the smallest
        //    group, deterministically (ties break to the lowest index).
        for w in 0..n {
            if !layout.iter().any(|g| g.contains(&w)) {
                let target = (0..layout.len())
                    .min_by_key(|&i| (layout[i].len(), i))
                    .expect("regroup proposal has at least one group");
                layout[target].push(w);
            }
        }
        // 4. Rebuild the group states on the new layout, aligned to the
        //    maximum old round so the global round clock never runs
        //    backwards, with caches transplanted and non-live members
        //    dormant.
        let round = self.groups.iter().map(GroupState::round).max().unwrap_or(0);
        self.groups = layout
            .iter()
            .enumerate()
            .map(|(id, members)| GroupState::new(id, members.clone(), &self.config))
            .collect();
        self.worker_group = group_of(&layout, n);
        let k = self.groups.len();
        self.pending = vec![None; k];
        self.missed_exchanges = vec![0; k];
        self.ps_residuals = vec![None; k];
        for g in &mut self.groups {
            for w in g.members.clone() {
                if let Some(cache) = caches[w].take() {
                    g.adopt_cache(w, cache);
                }
                if !live[w] {
                    g.set_dormant(w);
                }
            }
            g.recover_for_takeover(round);
        }
        // 5. Rebalance the PS shard keys: every slot reseeds from the
        //    replica-backed blend already folded into the master, so no
        //    pull can wedge on a dead primary mid-handoff.
        let master = self.master.as_ref().expect("master set in on_start");
        let moved = self.server.as_mut().map_or(0, |s| s.rebalance(master, k));
        ctx.counters_mut().regroup_events += 1;
        ctx.counters_mut().ps_keys_rebalanced += moved;
        self.last_swap_edge = self.round_edges;
        self.last_ratio = ratio;
        // 6. Atomic swap done: restart every group's compute and election.
        let config = &self.config;
        for g in &mut self.groups {
            g.resume_all(ctx, config);
            g.start_probe_round(ctx, config);
        }
        true
    }
}

impl Protocol for HierRnaProtocol {
    type Msg = RnaMsg;

    fn name(&self) -> &'static str {
        "rna-hier"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, RnaMsg>) {
        assert_eq!(
            self.worker_group.len(),
            ctx.num_workers(),
            "grouping must cover exactly the spec's workers"
        );
        self.master = Some(ctx.params(0));
        self.server = Some(ReplicatedGroupServer::new(ctx.params(0), self.groups.len()));
        self.ps_crashes_done = vec![false; ctx.fault_plan().ps_shard_crashes().len()];
        for w in 0..ctx.num_workers() {
            if ctx.churn_plan().join_of(w).is_some() {
                // Planned joiner: dormant until its admission round.
                self.groups[self.worker_group[w]].set_dormant(w);
            } else {
                ctx.begin_compute(w);
            }
        }
        for g in &mut self.groups {
            g.start_probe_round(ctx, &self.config);
        }
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx<'_, RnaMsg>, worker: usize, iter: u64) {
        if self.departed[worker] {
            // The worker left at a round edge while this iteration was in
            // flight; its gradient no longer has a home.
            let _ = ctx.take_gradient(worker);
            return;
        }
        if self.policy.is_some() {
            if let Some(took) = ctx.last_compute_time(worker) {
                self.speed.observe(worker, took);
            }
        }
        let gid = self.worker_group[worker];
        self.groups[gid].handle_compute_done(ctx, &self.config, worker, iter);
        if self.pending_regroup.is_some() {
            self.try_commit_regroup(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, RnaMsg>, _from: usize, to: usize, msg: RnaMsg) {
        // A committed topology swap may shrink the group count; messages
        // addressed to a no-longer-existing group id are stale by
        // definition and expire here.
        match msg {
            RnaMsg::Probe { group, round } => {
                let config = &self.config;
                if let Some(g) = self.groups.get_mut(group) {
                    g.handle_probe(ctx, config, to, round);
                }
            }
            RnaMsg::ProbeReply {
                group,
                round,
                worker,
            } => {
                let config = &self.config;
                if let Some(g) = self.groups.get_mut(group) {
                    g.handle_reply(ctx, config, worker, round);
                }
            }
            RnaMsg::ReduceDone { group, round } => {
                let Some((reduced, contributors, applied)) = self
                    .groups
                    .get_mut(group)
                    .and_then(|g| g.take_reduce_result(round))
                else {
                    return;
                };
                let scale = if self.config.dynamic_lr_scaling {
                    contributors as f32
                } else {
                    1.0
                };
                // Delta-sample the alloc hook around the data-path work
                // (accumulate, exchange, apply) but not the round advance,
                // whose compute launches allocate on the out-of-scope
                // compute path.
                self.maybe_crash_ps_shard(ctx, group);
                let allocs_before = rna_tensor::alloc::count();
                self.accumulate(ctx, group, &reduced, scale);
                let exchange = (self.groups[group].round() + 1).is_multiple_of(self.ps_every);
                let ps_reachable = self.groups[group]
                    .representative()
                    .is_some_and(|rep| ctx.link_up(rep, ctx.ps_id()));
                let deferred = exchange && ps_reachable;
                if deferred {
                    self.ps_exchange(ctx, group);
                } else {
                    if exchange {
                        // The group is cut off from the PS: keep training on
                        // the local accumulation and reconcile on heal.
                        ctx.counters_mut().partition_rounds += 1;
                        self.missed_exchanges[group] += 1;
                    }
                    // Preview the update group-locally; the accumulated
                    // gradient reaches the master at the next exchange.
                    self.groups[group].apply_reduce(
                        ctx,
                        &self.config,
                        &reduced,
                        contributors,
                        &applied,
                    );
                }
                ctx.pool_release(reduced);
                ctx.counters_mut().datapath_allocs += rna_tensor::alloc::count() - allocs_before;
                if deferred {
                    // Defer the round advance until the master broadcast
                    // returns.
                    self.groups[group].advance_round_deferred(contributors);
                } else {
                    self.groups[group].complete_round(ctx, contributors);
                    self.after_round_edge(ctx, group);
                }
            }
            RnaMsg::ProbeRetry {
                group,
                round,
                attempt,
            } => {
                let config = &self.config;
                if let Some(g) = self.groups.get_mut(group) {
                    g.handle_probe_retry(ctx, config, round, attempt);
                }
            }
            RnaMsg::PsDone { group, blended } => {
                // A group with a deferred round always survives the swap
                // untouched (`idle_for_swap` refuses to commit while one
                // is outstanding), so a valid id here is never stale.
                if group >= self.groups.len() {
                    ctx.pool_release(blended);
                    return;
                }
                let allocs_before = rna_tensor::alloc::count();
                for &w in &self.groups[group].members.clone() {
                    ctx.set_params(w, &blended);
                }
                ctx.pool_release(blended);
                ctx.counters_mut().datapath_allocs += rna_tensor::alloc::count() - allocs_before;
                if let Some(contributors) = self.groups[group].take_deferred() {
                    self.groups[group].complete_round(ctx, contributors);
                    self.after_round_edge(ctx, group);
                }
            }
            RnaMsg::StandbyTakeover { .. } => {
                // Controller failover is modeled for flat RNA only; the
                // hierarchical protocol never arms this timer.
            }
        }
    }

    fn on_crash(&mut self, ctx: &mut Ctx<'_, RnaMsg>, worker: usize) {
        let gid = self.worker_group[worker];
        // The crashed worker's estimate is history; it re-earns trust
        // after a restart.
        self.speed.forget(worker);
        self.groups[gid].handle_crash(ctx, &self.config, worker);
        if self.pending_regroup.is_some() {
            // The crashed member no longer gates the drain.
            self.try_commit_regroup(ctx);
        }
    }

    fn on_rejoin(&mut self, ctx: &mut Ctx<'_, RnaMsg>, worker: usize) {
        let gid = self.worker_group[worker];
        self.groups[gid].handle_rejoin(ctx, &self.config, worker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Engine;
    use rna_workload::HeterogeneityModel;

    fn mixed_spec(n: usize, seed: u64, rounds: u64) -> TrainSpec {
        TrainSpec::smoke_test(n, seed)
            .with_hetero(HeterogeneityModel::mixed_groups(n, 0, 10, 50, 60))
            .with_max_rounds(rounds)
    }

    #[test]
    fn auto_grouping_splits_mixed_cluster() {
        let spec = mixed_spec(8, 1, 10);
        let p = HierRnaProtocol::auto(&spec, RnaConfig::default());
        assert_eq!(p.num_groups(), 2);
        let members = p.group_members();
        // First half (fast) together, second half (slow) together.
        let mut g0 = members[0].clone();
        g0.sort_unstable();
        let mut g1 = members[1].clone();
        g1.sort_unstable();
        let (fast, slow) = if g0.contains(&0) { (g0, g1) } else { (g1, g0) };
        assert_eq!(fast, vec![0, 1, 2, 3]);
        assert_eq!(slow, vec![4, 5, 6, 7]);
    }

    #[test]
    fn hier_lossy_codec_shrinks_wire_and_replays_identically() {
        use rna_tensor::Compression;
        let run = |codec| {
            let spec = mixed_spec(6, 3, 60);
            let p = HierRnaProtocol::auto(&spec, RnaConfig::default().with_compression(codec));
            Engine::new(spec, p).run()
        };
        let lossless = run(Compression::Lossless);
        let fp16a = run(Compression::Fp16);
        let fp16b = run(Compression::Fp16);
        assert_eq!(fp16a.wall_time, fp16b.wall_time);
        assert_eq!(fp16a.comm_bytes, fp16b.comm_bytes);
        assert_eq!(fp16a.final_loss(), fp16b.final_loss());
        assert!(
            fp16a.bytes_on_wire < lossless.bytes_on_wire,
            "fp16 wire {} vs lossless {}",
            fp16a.bytes_on_wire,
            lossless.bytes_on_wire
        );
        assert!(fp16a.bytes_saved > 0);
        assert_eq!(lossless.codec_error_l2, 0.0);
        assert!(fp16a.codec_error_l2 > 0.0);
    }

    #[test]
    fn hier_trains_and_converges() {
        let spec = mixed_spec(6, 3, 120);
        let p = HierRnaProtocol::auto(&spec, RnaConfig::default());
        let r = Engine::new(spec, p).run();
        assert!(r.global_rounds >= 100);
        let pts = r.history.points();
        assert!(
            pts.last().unwrap().loss < pts[0].loss,
            "{} -> {}",
            pts[0].loss,
            pts.last().unwrap().loss
        );
    }

    #[test]
    fn hier_is_deterministic() {
        let run = || {
            let spec = mixed_spec(6, 9, 60);
            let p = HierRnaProtocol::auto(&spec, RnaConfig::default());
            Engine::new(spec, p).run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.final_loss(), b.final_loss());
    }

    #[test]
    fn homogeneous_cluster_stays_one_group() {
        let spec = TrainSpec::smoke_test(4, 2);
        let p = HierRnaProtocol::auto(&spec, RnaConfig::default());
        assert_eq!(p.num_groups(), 1);
    }

    #[test]
    fn ps_cadence_reduces_exchanges() {
        // With ps_every = 4, comm bytes drop relative to ps_every = 1
        // (fewer gradient pushes), all else equal.
        let run = |every| {
            let spec = mixed_spec(6, 5, 60);
            let p = HierRnaProtocol::auto(&spec, RnaConfig::default()).with_ps_every(every);
            Engine::new(spec, p).run()
        };
        let frequent = run(1);
        let sparse = run(4);
        assert!(sparse.comm_bytes < frequent.comm_bytes);
    }

    #[test]
    fn explicit_grouping_is_respected() {
        let p = HierRnaProtocol::new(vec![vec![0, 2], vec![1, 3]], RnaConfig::default());
        assert_eq!(p.num_groups(), 2);
        assert_eq!(p.group_members()[0], vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn empty_grouping_panics() {
        HierRnaProtocol::new(vec![], RnaConfig::default());
    }

    #[test]
    fn gradient_push_preserves_quality() {
        // The async gradient-PS must converge to a quality comparable to
        // flat RNA on the same mixed-heterogeneity run.
        use crate::rna::RnaProtocol;
        let n = 8;
        let spec = |seed| mixed_spec(n, seed, 250);
        let flat = Engine::new(spec(7), RnaProtocol::new(n, RnaConfig::default(), 0)).run();
        let hier = Engine::new(
            spec(7),
            HierRnaProtocol::new(
                vec![(0..4).collect(), (4..8).collect()],
                RnaConfig::default(),
            ),
        )
        .run();
        let f = flat.final_loss().unwrap();
        let h = hier.final_loss().unwrap();
        assert!(h < f * 3.0 + 0.05, "hier {h} vs flat {f}");
    }

    #[test]
    fn ps_shard_crash_degrades_to_replica() {
        use crate::fault::FaultPlan;
        let spec = mixed_spec(6, 11, 60)
            .with_fault_plan(FaultPlan::none().crash_ps_shard(0, 5).crash_ps_shard(1, 9));
        let p = HierRnaProtocol::auto(&spec, RnaConfig::default());
        let r = Engine::new(spec, p).run();
        // The exchange degrades to the mirrors instead of wedging.
        assert_eq!(r.global_rounds, 60);
        assert_eq!(r.ps_failovers, 2);
        let pts = r.history.points();
        assert!(pts.last().unwrap().loss < pts[0].loss);
    }

    #[test]
    fn slow_group_sees_fast_group_progress() {
        let spec = mixed_spec(6, 7, 80);
        let p = HierRnaProtocol::auto(&spec, RnaConfig::default());
        let r = Engine::new(spec, p).run();
        assert!(r.global_rounds >= 60);
        assert!(r.mean_participation() > 0.3);
    }
}
