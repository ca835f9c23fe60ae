//! The Horovod-style BSP baseline.
//!
//! Every iteration: all workers compute; each informs the coordinator its
//! tensor is ready (`NEGOTIATE_ALLREDUCE`); when the *last* worker reports,
//! the ring AllReduce of the mean gradient runs; everyone applies the same
//! update and starts the next iteration together. The strict barrier is the
//! "long-tail" victim the paper motivates against (Figure 1/3a).

use rna_collectives::partial_allreduce;
use rna_core::sim::{Ctx, Protocol};
use rna_simnet::trace::SpanKind;
use rna_tensor::Tensor;

/// Messages used by the BSP engine.
#[derive(Debug, Clone)]
pub enum BspMsg {
    /// Worker → coordinator: gradient ready for round `round`.
    Ready {
        /// The reporting worker.
        worker: usize,
        /// The round being negotiated.
        round: u64,
    },
    /// Self-scheduled completion of the ring AllReduce.
    ReduceDone {
        /// The round that finished.
        round: u64,
    },
}

/// Bulk-synchronous ring AllReduce (Horovod with tensor fusion enabled —
/// the whole gradient moves as one fused tensor).
///
/// # Examples
///
/// ```
/// use rna_baselines::HorovodProtocol;
/// use rna_core::sim::{Engine, TrainSpec};
///
/// let result = Engine::new(TrainSpec::smoke_test(4, 1), HorovodProtocol::new(4)).run();
/// assert!(result.mean_participation() > 0.99); // BSP: everyone, every round
/// ```
#[derive(Debug)]
pub struct HorovodProtocol {
    grads: Vec<Option<Tensor>>,
    ready: usize,
    round: u64,
    reduced: Option<Tensor>,
}

impl HorovodProtocol {
    /// Creates the protocol for `n` workers.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one worker");
        HorovodProtocol {
            grads: vec![None; n],
            ready: 0,
            round: 0,
            reduced: None,
        }
    }
}

impl Protocol for HorovodProtocol {
    type Msg = BspMsg;

    fn name(&self) -> &'static str {
        "horovod"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, BspMsg>) {
        for w in 0..ctx.num_workers() {
            ctx.begin_compute(w);
        }
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx<'_, BspMsg>, worker: usize, _iter: u64) {
        // NEGOTIATE_ALLREDUCE: report readiness to the coordinator.
        let round = self.round;
        ctx.send(
            worker,
            ctx.controller_id(),
            64,
            BspMsg::Ready { worker, round },
        );
        // The worker now blocks on the barrier (the engine already marked
        // it Wait).
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, BspMsg>, _from: usize, _to: usize, msg: BspMsg) {
        match msg {
            BspMsg::Ready { worker, round } => {
                if round != self.round || self.grads[worker].is_some() {
                    return;
                }
                if let Some((_, grad)) = ctx.take_gradient(worker) {
                    self.grads[worker] = Some(grad);
                    self.ready += 1;
                }
                if self.ready == ctx.num_workers() {
                    // Barrier complete: run the collective.
                    let refs: Vec<Option<&Tensor>> =
                        self.grads.iter().map(Option::as_ref).collect();
                    let outcome =
                        partial_allreduce(&refs).expect("all gradients present at the barrier");
                    self.reduced = Some(outcome.reduced);
                    let n = ctx.num_workers();
                    let bytes = ctx.grad_bytes();
                    let duration = ctx.cost().ring_allreduce(n, bytes);
                    ctx.charge_bytes(ctx.cost().ring_bytes_per_worker(n, bytes) * n as u64);
                    for w in 0..n {
                        ctx.set_span(w, SpanKind::Communicate);
                    }
                    ctx.send_after(
                        ctx.controller_id(),
                        duration,
                        BspMsg::ReduceDone { round: self.round },
                    );
                }
            }
            BspMsg::ReduceDone { round } => {
                if round != self.round {
                    return;
                }
                let reduced = self.reduced.take().expect("reduce in flight");
                let all: Vec<usize> = (0..ctx.num_workers()).collect();
                // Linear Scaling Rule over all n workers, unlike the real
                // worlds' barrier (DESIGN.md, "One trigger").
                ctx.apply_reduced(&all, &reduced, ctx.num_workers() as f32);
                ctx.finish_round(1.0);
                self.round += 1;
                self.grads.iter_mut().for_each(|g| *g = None);
                self.ready = 0;
                if !ctx.stopped() {
                    for w in 0..ctx.num_workers() {
                        ctx.begin_compute(w);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rna_core::sim::{Engine, TrainSpec};
    use rna_core::StopReason;
    use rna_workload::HeterogeneityModel;

    #[test]
    fn bsp_trains_and_counts_full_participation() {
        let spec = TrainSpec::smoke_test(4, 1).with_max_rounds(100);
        let r = Engine::new(spec, HorovodProtocol::new(4)).run();
        assert_eq!(r.stop_reason, StopReason::MaxRounds);
        assert_eq!(r.global_rounds, 100);
        assert!((r.mean_participation() - 1.0).abs() < 1e-9);
        // Every worker executed exactly one iteration per round.
        assert!(r.worker_iterations.iter().all(|&i| i == 100));
        let pts = r.history.points();
        assert!(pts.last().unwrap().loss < pts[0].loss);
    }

    #[test]
    fn replicas_stay_identical() {
        // With a strict barrier all replicas apply identical updates, so a
        // second run must produce identical evaluation trajectories.
        let run = || {
            Engine::new(
                TrainSpec::smoke_test(3, 8).with_max_rounds(30),
                HorovodProtocol::new(3),
            )
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.final_loss(), b.final_loss());
        assert_eq!(a.wall_time, b.wall_time);
    }

    #[test]
    fn straggler_bounds_round_time() {
        // One worker with a fixed 40 ms delay drags every BSP round.
        let n = 4;
        let spec = TrainSpec::smoke_test(n, 3)
            .with_hetero(HeterogeneityModel::deterministic(&[0, 0, 0, 40]))
            .with_max_rounds(40);
        let r = Engine::new(spec, HorovodProtocol::new(n)).run();
        // Round = 5 ms compute + 40 ms straggler + collective.
        assert!(
            r.mean_round_time() >= rna_simnet::SimDuration::from_millis(45),
            "round time {}",
            r.mean_round_time()
        );
        // Fast workers show substantial Wait time; the straggler shows none
        // (it is always the last to arrive).
        let fast_wait = r.breakdown[0].wait;
        let slow_wait = r.breakdown[3].wait;
        assert!(fast_wait > slow_wait * 5);
    }

    #[test]
    fn single_worker_bsp_works() {
        let spec = TrainSpec::smoke_test(1, 2).with_max_rounds(20);
        let r = Engine::new(spec, HorovodProtocol::new(1)).run();
        assert_eq!(r.global_rounds, 20);
    }
}
