//! AD-PSGD: asynchronous decentralized parallel SGD (Lian et al. 2017).
//!
//! Each worker loops independently: compute a gradient, apply it locally,
//! then *atomically average* its model with one uniformly random neighbor.
//! There is no global barrier, so stragglers only slow themselves — but the
//! atomic averaging serializes conflicting sessions, which is the
//! synchronization overhead the paper holds against it (§2.2, §9), and the
//! pairwise gossip mixes information slowly, which is why its accuracy
//! trails the collective-based approaches (Tables 3/4).
//!
//! A session needs its pair's link up when it launches; a cut pair (a
//! partition or a flap) does not average, and the requester computes its
//! next iteration instead, counted in `partition_rounds`.
//!
//! Conflict model: each worker's communication endpoint can host one
//! averaging session at a time. A session between `a` and `b` starts at
//! `max(now, free(a), free(b))` — a time-based serialization that cannot
//! deadlock (the scheduling-conflict hazard Prague fixes with group
//! scheduling; the paper cites it as AD-PSGD's manual-effort cost).

use rna_core::sim::{Ctx, Protocol};
use rna_simnet::trace::SpanKind;
use rna_simnet::{SimDuration, SimTime};

/// Time an atomic averaging session holds both endpoints' locks, on top
/// of the model transfer.
const LOCK_OVERHEAD: SimDuration = SimDuration::from_millis(1);

/// Messages used by AD-PSGD.
#[derive(Debug, Clone)]
pub enum GossipMsg {
    /// Self-scheduled completion of an averaging session.
    AvgDone {
        /// The worker that requested the averaging (blocked on it).
        requester: usize,
        /// The randomly selected passive peer.
        peer: usize,
    },
}

/// The AD-PSGD protocol.
///
/// # Examples
///
/// ```
/// use rna_baselines::AdPsgdProtocol;
/// use rna_core::sim::{Engine, TrainSpec};
///
/// let result = Engine::new(TrainSpec::smoke_test(4, 1), AdPsgdProtocol::new(4)).run();
/// assert!(result.global_rounds > 0);
/// ```
#[derive(Debug)]
pub struct AdPsgdProtocol {
    free_at: Vec<SimTime>,
}

impl AdPsgdProtocol {
    /// Creates the protocol for `n` workers with the default 1 ms atomic
    /// lock overhead per session.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (gossip needs a neighbor).
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "AD-PSGD needs at least two workers");
        AdPsgdProtocol {
            free_at: vec![SimTime::ZERO; n],
        }
    }
}

impl Protocol for AdPsgdProtocol {
    type Msg = GossipMsg;

    fn name(&self) -> &'static str {
        "ad-psgd"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, GossipMsg>) {
        for w in 0..ctx.num_workers() {
            ctx.begin_compute(w);
        }
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx<'_, GossipMsg>, worker: usize, _iter: u64) {
        // Local SGD step with the worker's own gradient.
        let (_, grad) = ctx.take_gradient(worker).expect("gradient pending");
        ctx.apply_local(worker, &grad, 1.0);

        // Select a random neighbor (fully connected gossip graph).
        let n = ctx.num_workers();
        let peer = {
            let r = ctx.rng().choose_one(n - 1);
            if r >= worker {
                r + 1
            } else {
                r
            }
        };

        // A pair the network has cut cannot open a session: the requester
        // counts the skipped averaging and computes again.
        if !ctx.link_up(worker, peer) {
            ctx.counters_mut().partition_rounds += 1;
            ctx.begin_compute(worker);
            return;
        }

        // Atomic averaging session: serialized on both endpoints.
        let now = ctx.now();
        let earliest = now.max(self.free_at[worker]).max(self.free_at[peer]);
        let transfer = ctx.cost().point_to_point(ctx.grad_bytes());
        let done = earliest + transfer + LOCK_OVERHEAD;
        self.free_at[worker] = done;
        self.free_at[peer] = done;
        ctx.charge_bytes(ctx.grad_bytes() * 2);
        ctx.set_span(worker, SpanKind::Communicate);
        ctx.send_after(
            ctx.controller_id(),
            done - now,
            GossipMsg::AvgDone {
                requester: worker,
                peer,
            },
        );
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, GossipMsg>,
        _from: usize,
        _to: usize,
        msg: GossipMsg,
    ) {
        let GossipMsg::AvgDone { requester, peer } = msg;
        ctx.average_pair(requester, peer);
        ctx.finish_round(2.0 / ctx.num_workers() as f64);
        // The requester was blocked on the atomic averaging; the passive
        // peer never stopped computing.
        if !ctx.stopped() && !ctx.is_computing(requester) {
            ctx.begin_compute(requester);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rna_core::fault::NetFaultPlan;
    use rna_core::sim::{Engine, TrainSpec};
    use rna_workload::HeterogeneityModel;

    #[test]
    fn adpsgd_trains() {
        let spec = TrainSpec::smoke_test(4, 1).with_max_rounds(200);
        let r = Engine::new(spec, AdPsgdProtocol::new(4)).run();
        let pts = r.history.points();
        assert!(pts.len() >= 2);
        assert!(
            pts.last().unwrap().loss < pts[0].loss,
            "{} -> {}",
            pts[0].loss,
            pts.last().unwrap().loss
        );
    }

    #[test]
    fn participation_is_pairwise() {
        let spec = TrainSpec::smoke_test(8, 2).with_max_rounds(100);
        let r = Engine::new(spec, AdPsgdProtocol::new(8)).run();
        assert!((r.mean_participation() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn stragglers_do_not_block_fast_workers() {
        // Worker 3 is 10× slower; the fast workers' iteration counts must
        // be far higher — no global barrier.
        let n = 4;
        let spec = TrainSpec::smoke_test(n, 3)
            .with_hetero(HeterogeneityModel::deterministic(&[0, 0, 0, 45]))
            .with_max_rounds(300);
        let r = Engine::new(spec, AdPsgdProtocol::new(n)).run();
        let fast = r.worker_iterations[0];
        let slow = r.worker_iterations[3];
        // Sessions with a busy (often slow) peer still serialize, so the
        // speed ratio is below the raw 10× compute ratio — but far above
        // the 1× a barrier would force.
        assert!(
            fast > slow * 2,
            "fast {fast} vs slow {slow} — barrier leaked in"
        );
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            Engine::new(
                TrainSpec::smoke_test(4, 7).with_max_rounds(60),
                AdPsgdProtocol::new(4),
            )
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.final_loss(), b.final_loss());
    }

    /// Two workers cut apart for the whole run never average: every
    /// launch is a counted skip, and the requesters keep computing.
    #[test]
    fn a_cut_pair_does_not_average() {
        // An hour of virtual time, longer than the run.
        let net = NetFaultPlan::none().partition(vec![0], 0, 3_600_000_000);
        let spec = TrainSpec::smoke_test(2, 4)
            .with_net_fault_plan(net)
            .with_max_time(SimDuration::from_millis(500));
        let r = Engine::new(spec, AdPsgdProtocol::new(2)).run();
        assert_eq!(r.global_rounds, 0, "no session completes");
        assert_eq!(r.comm_bytes, 0, "no model crosses the cut");
        let iterations: u64 = r.worker_iterations.iter().sum();
        assert!(iterations > 10, "the requesters compute on: {iterations}");
        assert_eq!(r.counters.partition_rounds, iterations);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_worker() {
        AdPsgdProtocol::new(1);
    }
}
