//! Hierarchical synchronization for deterministic heterogeneity (§4): the
//! parameter-server stage of [`crate::rna::RnaProtocol`].
//!
//! The cluster is partitioned into speed-homogeneous groups
//! ([`crate::grouping::partition_groups`]); each group runs RNA internally
//! ([`crate::rna::GroupState`]) under the one protocol that also runs flat
//! RNA. Each group is then "a node in the traditional PS": the paper's
//! three-phase exchange becomes
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
//! The §2.2 asynchronous parameter server is this stage's singleton case
//! ([`crate::rna::RnaProtocol::async_ps`]): one group per worker under the
//! barrier, so each worker blocks on its own push and pull, and one server
//! whose link serializes every exchange — the communication hotspot.
//!
//! With an exchange cadence above 1
//! ([`crate::rna::RnaProtocol::with_ps_every`]), intermediate rounds apply
//! updates group-locally as a preview and the accumulated gradient is
//! pushed at the next exchange; the broadcast then replaces the preview
//! with the master view. The stage also owns the online regroup loop
//! ([`crate::rna::RnaProtocol::with_regroup_policy`]).

use rna_simnet::SimTime;
use rna_tensor::codec::FeedbackEncoder;
use rna_tensor::{Compression, Tensor};

use crate::cache::GradientCache;
use crate::fault::ToleranceConfig;
use crate::grouping::group_of;
use crate::membership::{hetero_ratio, regroup_decision, RegroupPolicy, SpeedEstimator};
use crate::rna::{empty_cache, GroupState, RnaMsg};
use crate::sim::Ctx;
use crate::RnaConfig;

/// The asynchronous inter-group gradient exchange through a parameter
/// server, plus the online regroup loop that reshapes the groups.
#[derive(Debug)]
pub(crate) struct PsStage {
    /// The asynchronous master parameters: the whole PS state, and the
    /// broadcast source of every exchange.
    pub(crate) master: Option<Tensor>,
    /// Accumulated `Σ scale·ḡ` per group since its last exchange.
    pending: Vec<Option<Tensor>>,
    /// Group rounds between PS exchanges.
    pub(crate) every: u64,
    /// Exchanges each group skipped because the PS was unreachable
    /// (partition). Reset when the group reconciles on heal.
    missed_exchanges: Vec<u64>,
    /// When the single server's link is next free: `Some` serializes every
    /// push and pull on it (async-PS's hotspot); `None`, the hierarchy,
    /// prices each exchange on its own.
    pub(crate) server_free_at: Option<SimTime>,
    /// Per-group error-feedback encoders for the lossy PS push (the pull
    /// stays full-precision — the master must reach every group exactly).
    encoders: Vec<FeedbackEncoder>,
    /// Reusable encode scratch for the PS push.
    codec_buf: Vec<u8>,
    /// Per-worker EWMA of observed compute times — the live counterpart
    /// of the launch-time probe the §4 split keys off. Fed on every
    /// `ComputeDone` while a regroup policy is armed.
    pub(crate) speed: SpeedEstimator,
    /// Online-regroup policy; `None` (the default) disables regrouping
    /// entirely, leaving pre-existing runs untouched.
    pub(crate) policy: Option<RegroupPolicy>,
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

impl PsStage {
    /// The stage for `num_groups` groups over `n` workers, pushing under
    /// `codec`.
    pub(crate) fn new(num_groups: usize, n: usize, codec: Compression) -> Self {
        PsStage {
            master: None,
            pending: vec![None; num_groups],
            every: 1,
            missed_exchanges: vec![0; num_groups],
            server_free_at: None,
            encoders: vec![FeedbackEncoder::new(codec); num_groups],
            codec_buf: Vec::new(),
            speed: SpeedEstimator::new(n, RegroupPolicy::default().alpha),
            policy: None,
            round_edges: 0,
            last_swap_edge: 0,
            last_ratio: -1.0,
            pending_regroup: None,
        }
    }

    /// Seeds the master from the initial model.
    pub(crate) fn start(&mut self, ctx: &mut Ctx<'_, RnaMsg>) {
        self.master = Some(ctx.params(0));
    }

    /// Applies group `gid`'s accumulated gradient to the master at the
    /// round's learning rate, discounted by the exchanges the group missed
    /// (which this resets), and returns the updated master.
    fn apply(&mut self, ctx: &Ctx<'_, RnaMsg>, gid: usize, grad: &Tensor) -> &Tensor {
        let missed = std::mem::take(&mut self.missed_exchanges[gid]);
        let lr = ctx.current_lr() * staleness_discount(missed);
        let master = self.master.as_mut().expect("master set in start");
        master.axpy(-lr, grad);
        master
    }

    /// Takes a group's reduced gradient: accumulate it at the round's
    /// learning-rate `scale`, and on an exchange round push it to the
    /// master. Returns whether the exchange launched (the round edge then
    /// waits for `PsDone`); otherwise `RnaProtocol` applies the update
    /// group-locally. A group cut off from the PS on an exchange round
    /// keeps training on its local accumulation and reconciles on heal.
    pub(crate) fn push(
        &mut self,
        ctx: &mut Ctx<'_, RnaMsg>,
        config: &RnaConfig,
        group: &GroupState,
        reduced: &Tensor,
        scale: f32,
        contributors: usize,
    ) -> bool {
        let gid = group.id;
        // Pooled buffers arrive zeroed, so the accumulator starts from
        // exact zero.
        self.pending[gid]
            .get_or_insert_with(|| ctx.pool_mut().acquire(reduced.len()))
            .axpy(scale, reduced);
        let exchange = (group.round() + 1).is_multiple_of(self.every);
        let reachable = group
            .representative()
            .is_some_and(|rep| ctx.link_up(rep, ctx.ps_id()));
        if exchange && reachable {
            self.exchange(ctx, config, group, contributors);
            return true;
        }
        if exchange {
            ctx.counters_mut().partition_rounds += 1;
            self.missed_exchanges[gid] += 1;
        }
        false
    }

    /// Launches the asynchronous exchange: the accumulated gradient travels
    /// to the PS and the refreshed master comes back, paying push + pull on
    /// the star link (queued behind earlier exchanges on a single server's
    /// link) plus the intra-group broadcast.
    ///
    /// A gradient accumulated across `missed_exchanges` skipped exchanges
    /// (the group was partitioned from the PS) is reconciled with a
    /// staleness discount — the Hop-style bounded-staleness reading — so a
    /// long-isolated group cannot yank the master with a huge stale sum.
    fn exchange(
        &mut self,
        ctx: &mut Ctx<'_, RnaMsg>,
        config: &RnaConfig,
        group: &GroupState,
        contributors: usize,
    ) {
        let gid = group.id;
        let mut grad = self.pending[gid].take().expect("accumulated by push");
        let codec = config.compression;
        if !codec.is_lossless() {
            // Lossy push: the PS receives decode(encode(grad + residual));
            // the dropped remainder stays in the group's residual and rides
            // the next push (error feedback).
            self.codec_buf.clear();
            let (_, err) =
                self.encoders[gid].encode(&mut grad, &mut self.codec_buf, ctx.codec_rng());
            ctx.counters_mut().codec_error_l2 += err;
        }
        // The master applies the gradient at *send* time: the PS serializes
        // pushes, so the state the group later broadcasts already includes
        // this contribution plus whatever other groups landed meanwhile.
        let master = self.apply(ctx, gid, &grad);
        // The broadcast payload snapshots the master; both it and the
        // drained accumulator cycle through the pool.
        let mut snapshot = ctx.pool_mut().acquire(master.len());
        snapshot.copy_from(master);
        ctx.pool_release(grad);
        let bytes = ctx.grad_bytes();
        let cost = ctx.cost();
        // The push travels encoded; the pull (refreshed master) is always
        // full precision. Lossless takes the legacy formulas verbatim.
        let push_bytes = if codec.is_lossless() {
            bytes
        } else {
            codec.frame_bytes((bytes / 4) as usize)
        };
        let now = ctx.now();
        let start = self.server_free_at.map_or(now, |free| now.max(free));
        let done = start + cost.point_to_point(push_bytes) + cost.point_to_point(bytes);
        if let Some(free_at) = &mut self.server_free_at {
            *free_at = done;
        }
        let duration = done - now + cost.ring_broadcast(group.members.len(), bytes);
        ctx.charge_bytes(push_bytes + bytes);
        ctx.note_wire_bytes(push_bytes + bytes, bytes * 2);
        ctx.send_after(
            ctx.controller_id(),
            duration,
            RnaMsg::PsDone {
                group: gid,
                master: snapshot,
                contributors,
            },
        );
    }

    /// The regroup step of the round edge: count the edge, run the online
    /// regroup check unless a swap is already armed, and report whether one
    /// is (`RnaProtocol` then holds the group at its edge).
    pub(crate) fn regroup_armed(
        &mut self,
        ctx: &mut Ctx<'_, RnaMsg>,
        groups: &mut [GroupState],
    ) -> bool {
        self.round_edges += 1;
        if self.pending_regroup.is_none() {
            self.maybe_regroup(ctx, groups);
        }
        self.pending_regroup.is_some()
    }

    /// The online-regroup check (§4, run live): when the policy's cadence
    /// is due, every active worker's EWMA estimate is trusted, and the
    /// heterogeneity ratio has drifted past the threshold, re-run the
    /// ζ-split over the estimates. A split that differs from the current
    /// grouping arms a pending swap and quiesces every group.
    fn maybe_regroup(&mut self, ctx: &mut Ctx<'_, RnaMsg>, groups: &mut [GroupState]) {
        let Some(policy) = self.policy else { return };
        if ctx.stopped() || !policy.due(self.round_edges, self.last_swap_edge) {
            return;
        }
        let mut members: Vec<usize> = groups.iter().flat_map(GroupState::live_members).collect();
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
        let current: Vec<Vec<usize>> = groups
            .iter()
            .map(GroupState::live_members)
            .filter(|m| !m.is_empty())
            .collect();
        match regroup_decision(&current, &members, &times) {
            Some(proposal) => {
                self.pending_regroup = Some((proposal, ratio));
                for g in groups {
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
    /// group states aligned to the maximum round, and restart every group.
    pub(crate) fn try_commit_regroup(
        &mut self,
        ctx: &mut Ctx<'_, RnaMsg>,
        groups: &mut Vec<GroupState>,
        worker_group: &mut Vec<usize>,
        config: &RnaConfig,
        tolerance: &ToleranceConfig,
    ) {
        if self.pending_regroup.is_none() {
            return;
        }
        if ctx.stopped() {
            // The run ended mid-drain: abandon the swap.
            self.pending_regroup = None;
            for g in groups.iter_mut() {
                g.end_quiesce();
            }
            return;
        }
        if !groups.iter().all(|g| g.drained(ctx)) {
            return;
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
        for gid in 0..self.pending.len() {
            if let Some(grad) = self.pending[gid].take() {
                self.apply(ctx, gid, &grad);
                ctx.pool_release(grad);
            }
        }
        // 2. Steal every worker's cache and liveness so accumulated but
        //    unreduced work crosses the swap.
        let n = worker_group.len();
        let mut caches: Vec<Option<GradientCache>> = (0..n).map(|_| None).collect();
        let mut live = vec![false; n];
        for g in groups.iter_mut() {
            for w in g.members.clone() {
                live[w] = g.is_live(w);
                caches[w] = g.swap_cache(w, empty_cache(config));
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
        let round = groups.iter().map(GroupState::round).max().unwrap_or(0);
        let mode = groups[0].election.mode();
        *groups = layout
            .iter()
            .enumerate()
            .map(|(id, members)| GroupState::new(id, members.clone(), config, tolerance, mode))
            .collect();
        *worker_group = group_of(&layout, n);
        let k = groups.len();
        self.pending = vec![None; k];
        self.missed_exchanges = vec![0; k];
        self.encoders = vec![FeedbackEncoder::new(config.compression); k];
        for g in groups.iter_mut() {
            for w in g.members.clone() {
                if let Some(cache) = caches[w].take() {
                    g.swap_cache(w, cache);
                }
                if !live[w] {
                    g.set_dormant(w);
                }
            }
            g.recover_for_takeover(round);
        }
        // 5. Every new group pulls from the master, which the flush above
        //    already brought up to date.
        ctx.counters_mut().regroup_events += 1;
        self.last_swap_edge = self.round_edges;
        self.last_ratio = ratio;
        // 6. Atomic swap done: restart every group's compute and election.
        for g in groups.iter_mut() {
            g.resume_all(ctx, config);
            g.open_election(ctx, config);
        }
    }
}

/// Weight of a gradient that sat out `missed` PS exchanges while its group
/// was partitioned from the server: `1 / (1 + missed)`, the Hop-style
/// bounded-staleness reading (Luo et al.).
fn staleness_discount(missed: u64) -> f32 {
    1.0 / (1.0 + missed as f32)
}

#[cfg(test)]
mod tests {
    use super::staleness_discount;
    use crate::rna::RnaProtocol;
    use crate::sim::{Engine, TrainSpec};
    use crate::RnaConfig;
    use rna_simnet::SimDuration;
    use rna_workload::HeterogeneityModel;

    fn mixed_spec(n: usize, seed: u64, rounds: u64) -> TrainSpec {
        TrainSpec::smoke_test(n, seed)
            .with_hetero(HeterogeneityModel::mixed_groups(n, 0, 10, 50, 60))
            .with_max_rounds(rounds)
    }

    #[test]
    fn staleness_discount_decays_harmonically() {
        assert_eq!(staleness_discount(0), 1.0);
        assert_eq!(staleness_discount(1), 0.5);
        assert_eq!(staleness_discount(4), 0.2);
        assert!(staleness_discount(1_000_000) > 0.0);
    }

    #[test]
    fn auto_grouping_splits_mixed_cluster() {
        let spec = mixed_spec(8, 1, 10);
        let p = RnaProtocol::auto(&spec, RnaConfig::default());
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
            let p = RnaProtocol::auto(&spec, RnaConfig::default().with_compression(codec));
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
        let p = RnaProtocol::auto(&spec, RnaConfig::default());
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
            let p = RnaProtocol::auto(&spec, RnaConfig::default());
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
        let p = RnaProtocol::auto(&spec, RnaConfig::default());
        assert_eq!(p.num_groups(), 1);
    }

    #[test]
    fn ps_cadence_reduces_exchanges() {
        // With ps_every = 4, comm bytes drop relative to ps_every = 1
        // (fewer gradient pushes), all else equal.
        let run = |every| {
            let spec = mixed_spec(6, 5, 60);
            let p = RnaProtocol::auto(&spec, RnaConfig::default()).with_ps_every(every);
            Engine::new(spec, p).run()
        };
        let frequent = run(1);
        let sparse = run(4);
        assert!(sparse.comm_bytes < frequent.comm_bytes);
    }

    #[test]
    fn explicit_grouping_is_respected() {
        let p = RnaProtocol::grouped(vec![vec![0, 2], vec![1, 3]], RnaConfig::default());
        assert_eq!(p.num_groups(), 2);
        assert_eq!(p.group_members()[0], vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn empty_grouping_panics() {
        RnaProtocol::grouped(vec![], RnaConfig::default());
    }

    #[test]
    fn gradient_push_preserves_quality() {
        // The async gradient-PS must converge to a quality comparable to
        // flat RNA on the same mixed-heterogeneity run.
        let n = 8;
        let spec = |seed| mixed_spec(n, seed, 250);
        let flat = Engine::new(spec(7), RnaProtocol::new(n, RnaConfig::default(), 0)).run();
        let hier = Engine::new(
            spec(7),
            RnaProtocol::grouped(
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
    fn slow_group_sees_fast_group_progress() {
        let spec = mixed_spec(6, 7, 80);
        let p = RnaProtocol::auto(&spec, RnaConfig::default());
        let r = Engine::new(spec, p).run();
        assert!(r.global_rounds >= 60);
        assert!(r.mean_participation() > 0.3);
    }

    #[test]
    fn async_ps_trains() {
        let spec = TrainSpec::smoke_test(4, 1).with_max_rounds(200);
        let r = Engine::new(spec, RnaProtocol::async_ps(4)).run();
        let pts = r.history.points();
        assert!(pts.last().unwrap().loss < pts[0].loss);
        assert!((r.mean_participation() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn stragglers_hurt_only_themselves() {
        // Small model so the server link is NOT the bottleneck — the
        // asymmetry must then come purely from compute speed.
        let n = 4;
        let mut spec = TrainSpec::smoke_test(n, 3)
            .with_hetero(HeterogeneityModel::deterministic(&[0, 0, 0, 45]))
            .with_max_rounds(300);
        spec.profile = rna_workload::ModelProfile::resnet56().with_compute(
            rna_workload::ComputeTimeModel::Constant(SimDuration::from_millis(5)),
        );
        let r = Engine::new(spec, RnaProtocol::async_ps(n)).run();
        assert!(
            r.worker_iterations[0] > r.worker_iterations[3] * 2,
            "{:?}",
            r.worker_iterations
        );
    }

    #[test]
    fn server_link_is_the_hotspot() {
        // With a big model over a slow link, the server serializes flows:
        // doubling the workers must NOT double the exchange throughput.
        let run = |n: usize| {
            let mut spec = TrainSpec::smoke_test(n, 7)
                .with_max_rounds(100_000)
                .with_max_time(SimDuration::from_secs(5));
            spec.link = rna_simnet::LinkModel::ethernet_10g();
            // Full VGG16-sized pushes saturate 10 GbE quickly.
            spec.profile = rna_workload::ModelProfile::vgg16().with_compute(
                rna_workload::ComputeTimeModel::Constant(SimDuration::from_millis(5)),
            );
            let r = Engine::new(spec, RnaProtocol::async_ps(n)).run();
            r.global_rounds as f64 / r.wall_time.as_secs_f64()
        };
        let t4 = run(4);
        let t8 = run(8);
        assert!(
            t8 < t4 * 1.3,
            "server link should cap throughput: {t4} vs {t8} exchanges/s"
        );
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            Engine::new(
                TrainSpec::smoke_test(4, 9).with_max_rounds(80),
                RnaProtocol::async_ps(4),
            )
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.final_loss(), b.final_loss());
    }

    #[test]
    fn a_restarted_async_ps_worker_returns() {
        use crate::fault::FaultPlan;
        let spec = TrainSpec::smoke_test(4, 5)
            .with_fault_plan(FaultPlan::none().restart(2, 10, 20_000))
            .with_max_rounds(200);
        let r = Engine::new(spec, RnaProtocol::async_ps(4)).run();
        // Seeded from the master, the worker computes again after its dwell.
        assert!(r.worker_iterations[2] > 20, "{:?}", r.worker_iterations);
    }

    #[test]
    fn a_partition_reaches_async_ps() {
        use crate::fault::NetFaultPlan;
        // The golden table's partition scenario: workers 0 and 1 lose the
        // server for 60 ms and skip the exchange that falls in the window.
        let spec = TrainSpec::smoke_test(6, 17)
            .with_hetero(HeterogeneityModel::dynamic_uniform(6, 0, 20))
            .with_max_rounds(40)
            .with_net_fault_plan(NetFaultPlan::none().partition(vec![0, 1], 30_000, 90_000));
        let r = Engine::new(spec, RnaProtocol::async_ps(6)).run();
        assert!(r.partition_rounds >= 1, "{}", r.partition_rounds);
    }
}
