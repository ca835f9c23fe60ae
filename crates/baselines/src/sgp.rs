//! SGP: stochastic gradient push (Assran et al., ICML'19).
//!
//! Gossip over a time-varying exponential graph: at iteration `k`, worker
//! `i` pushes its model to out-neighbor `(i + 2^(k mod ⌈log₂ n⌉)) mod n`
//! and mixes what it receives 50/50. No collective primitives — each
//! process talks to one neighbor — but "all the processes need to finish
//! the current iteration before going to the next" (§9), so SGP has a
//! per-iteration barrier and takes O(log P) rounds to propagate an update
//! where RNA takes O(1).
//!
//! A push needs its link up when the round's exchange launches: a push over
//! a cut link (a partition or a flap) is neither sent nor charged, its
//! receiver keeps its parameters, and the round counts in
//! `partition_rounds`.

use rna_core::sim::{Ctx, Protocol};
use rna_simnet::trace::SpanKind;
use rna_tensor::Tensor;

/// Messages used by SGP.
#[derive(Debug, Clone)]
pub enum SgpMsg {
    /// Self-scheduled completion of the round's neighbor exchanges.
    MixDone {
        /// The round that finished.
        round: u64,
    },
}

/// The push-gossip protocol on a directed exponential graph.
///
/// # Examples
///
/// ```
/// use rna_baselines::SgpProtocol;
/// use rna_core::sim::{Engine, TrainSpec};
///
/// let result = Engine::new(TrainSpec::smoke_test(4, 1), SgpProtocol::new(4)).run();
/// assert!(result.global_rounds > 0);
/// ```
#[derive(Debug)]
pub struct SgpProtocol {
    arrived: Vec<bool>,
    count: usize,
    round: u64,
    /// Whether each worker's push of the current round crosses its link.
    pushed: Vec<bool>,
}

impl SgpProtocol {
    /// Creates the protocol for `n` workers.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one worker");
        SgpProtocol {
            arrived: vec![false; n],
            count: 0,
            round: 0,
            pushed: vec![false; n],
        }
    }

    /// The out-neighbor of `i` at round `k` on the exponential graph.
    pub fn neighbor(i: usize, k: u64, n: usize) -> usize {
        if n == 1 {
            return 0;
        }
        let levels = usize::BITS - (n - 1).leading_zeros(); // ⌈log2 n⌉
        let hop = 1usize << (k % u64::from(levels.max(1))) as u32;
        (i + hop) % n
    }
}

impl Protocol for SgpProtocol {
    type Msg = SgpMsg;

    fn name(&self) -> &'static str {
        "sgp"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, SgpMsg>) {
        for w in 0..ctx.num_workers() {
            ctx.begin_compute(w);
        }
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx<'_, SgpMsg>, worker: usize, _iter: u64) {
        // Apply the local gradient immediately (SGP's local SGD step).
        let (_, grad) = ctx.take_gradient(worker).expect("gradient pending");
        ctx.apply_local(worker, &grad, 1.0);
        if !self.arrived[worker] {
            self.arrived[worker] = true;
            self.count += 1;
        }
        if self.count == ctx.num_workers() {
            // Everyone finished the iteration: exchange with this round's
            // neighbors. All point-to-point pushes overlap, so the round
            // pays one model transfer.
            let n = ctx.num_workers();
            for (sender, pushed) in self.pushed.iter_mut().enumerate() {
                *pushed = ctx.link_up(sender, SgpProtocol::neighbor(sender, self.round, n));
            }
            let pushes = self.pushed.iter().filter(|&&p| p).count();
            if pushes < n {
                ctx.counters_mut().partition_rounds += 1;
            }
            let duration = ctx.cost().point_to_point(ctx.grad_bytes());
            ctx.charge_bytes(ctx.grad_bytes() * pushes as u64);
            for w in 0..n {
                ctx.set_span(w, SpanKind::Communicate);
            }
            ctx.send_after(
                ctx.controller_id(),
                duration,
                SgpMsg::MixDone { round: self.round },
            );
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SgpMsg>, _from: usize, _to: usize, msg: SgpMsg) {
        let SgpMsg::MixDone { round } = msg;
        if round != self.round {
            return;
        }
        // Mix: every worker averages its model with its in-neighbor's push,
        // if that push crossed.
        let n = ctx.num_workers();
        let old: Vec<Tensor> = (0..n).map(|w| ctx.params(w)).collect();
        for (sender, sender_params) in old.iter().enumerate() {
            let receiver = SgpProtocol::neighbor(sender, round, n);
            if receiver != sender && self.pushed[sender] {
                let mut mixed = ctx.params(receiver);
                mixed.lerp(sender_params, 0.5);
                ctx.set_params(receiver, &mixed);
            }
        }
        ctx.finish_round(1.0);
        self.round += 1;
        self.arrived.iter_mut().for_each(|a| *a = false);
        self.count = 0;
        if !ctx.stopped() {
            for w in 0..n {
                ctx.begin_compute(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rna_core::fault::NetFaultPlan;
    use rna_core::sim::{Engine, TrainSpec};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn exponential_neighbors_cycle() {
        // n = 8 → levels 3 → hops 1, 2, 4 repeating.
        assert_eq!(SgpProtocol::neighbor(0, 0, 8), 1);
        assert_eq!(SgpProtocol::neighbor(0, 1, 8), 2);
        assert_eq!(SgpProtocol::neighbor(0, 2, 8), 4);
        assert_eq!(SgpProtocol::neighbor(0, 3, 8), 1);
        assert_eq!(SgpProtocol::neighbor(7, 0, 8), 0);
        assert_eq!(SgpProtocol::neighbor(0, 5, 1), 0);
    }

    #[test]
    fn sgp_trains() {
        let spec = TrainSpec::smoke_test(4, 1).with_max_rounds(150);
        let r = Engine::new(spec, SgpProtocol::new(4)).run();
        let pts = r.history.points();
        assert!(pts.last().unwrap().loss < pts[0].loss);
        assert_eq!(r.global_rounds, 150);
    }

    #[test]
    fn per_iteration_barrier_keeps_counts_equal() {
        let spec = TrainSpec::smoke_test(5, 2).with_max_rounds(50);
        let r = Engine::new(spec, SgpProtocol::new(5)).run();
        assert!(r.worker_iterations.iter().all(|&i| i == 50));
    }

    /// SGP that records, at every mix, whether worker 0's parameters
    /// moved.
    struct WatchWorker0 {
        sgp: SgpProtocol,
        moved: Rc<RefCell<Vec<bool>>>,
    }

    impl Protocol for WatchWorker0 {
        type Msg = SgpMsg;

        fn name(&self) -> &'static str {
            "sgp"
        }

        fn on_start(&mut self, ctx: &mut Ctx<'_, SgpMsg>) {
            self.sgp.on_start(ctx);
        }

        fn on_compute_done(&mut self, ctx: &mut Ctx<'_, SgpMsg>, worker: usize, iter: u64) {
            self.sgp.on_compute_done(ctx, worker, iter);
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, SgpMsg>, from: usize, to: usize, msg: SgpMsg) {
            let before = ctx.params(0);
            self.sgp.on_message(ctx, from, to, msg);
            let moved = ctx.params(0).as_slice() != before.as_slice();
            self.moved.borrow_mut().push(moved);
        }
    }

    /// Worker 0 cut off for the whole run: whatever the round's hop, its
    /// own push and the push to it are neither sent nor charged, and no mix
    /// moves its parameters; on a clean fabric every mix does.
    #[test]
    fn a_cut_push_leaves_the_receiver_alone() {
        let run = |net| {
            let moved = Rc::new(RefCell::new(Vec::new()));
            let spec = TrainSpec::smoke_test(4, 6)
                .with_net_fault_plan(net)
                .with_max_rounds(20);
            let watch = WatchWorker0 {
                sgp: SgpProtocol::new(4),
                moved: moved.clone(),
            };
            let r = Engine::new(spec, watch).run();
            let moved = moved.borrow().clone();
            (r, moved)
        };
        // An hour of virtual time, longer than the run.
        let (cut, cut_moved) = run(NetFaultPlan::none().partition(vec![0], 0, 3_600_000_000));
        let (clean, clean_moved) = run(NetFaultPlan::none());
        assert_eq!(cut.global_rounds, 20);
        assert_eq!(
            cut_moved,
            vec![false; 20],
            "the cut receiver keeps its parameters"
        );
        assert_eq!(clean_moved, vec![true; 20]);
        assert_eq!(
            cut.counters.partition_rounds, 20,
            "every round skips a push"
        );
        assert_eq!(clean.counters.partition_rounds, 0);
        assert_eq!(cut.comm_bytes, clean.comm_bytes / 2, "two of four pushes");
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            Engine::new(
                TrainSpec::smoke_test(4, 3).with_max_rounds(40),
                SgpProtocol::new(4),
            )
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.final_loss(), b.final_loss());
        assert_eq!(a.wall_time, b.wall_time);
    }
}
