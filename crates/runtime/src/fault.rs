//! Executing a [`NetFaultPlan`] on real OS threads.
//!
//! The plans themselves — which worker crashes, hangs, slows, or restarts,
//! and which links drop, flap, or partition — are defined once in
//! [`rna_core::fault`], and a worker's plan is read by the same
//! [`rna_core::fault::FaultScript`] in every world. This module adds the
//! runtime-side network machinery: a [`NetShim`] the controller consults
//! on every logical message.

pub use rna_core::fault::{
    live_majority, probe_round_stalled, ConfigError, FaultPlan, NetFaultPlan, ToleranceConfig,
    WorkerFate, WorkerFault, LIVENESS_TIMEOUT_US, PROBE_BACKOFF_US, ROUND_DEADLINE_US,
};
use rna_simnet::{NetFaults, SimDuration, SimTime};

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
    /// Panics if the plan references out-of-range nodes
    /// ([`NetFaultPlan::validate`]).
    pub fn new(plan: &NetFaultPlan, num_workers: usize) -> Self {
        plan.validate(num_workers);
        let controller = num_workers;
        NetShim {
            faults: (!plan.is_empty()).then(|| plan.compile(controller)),
            controller,
        }
    }

    /// Whether any fault is configured (retry timers and drop rolls are
    /// skipped entirely on a clean fabric).
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
        match self.faults.as_mut() {
            None => true,
            Some(f) => f.admits(a, b, at(now_us)),
        }
    }

    /// Whether the `a ↔ b` link is administratively up at `now_us` (no
    /// down-window or partition covers it; lossy drops don't count).
    pub fn link_up(&self, a: usize, b: usize, now_us: u64) -> bool {
        self.faults
            .as_ref()
            .is_none_or(|f| f.link_up(a, b, at(now_us)))
    }
}

fn at(now_us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(now_us)
}

#[cfg(test)]
mod tests {
    use super::*;

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
