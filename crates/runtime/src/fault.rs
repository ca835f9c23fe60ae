//! Executing a [`FaultPlan`] and a [`NetFaultPlan`] on real OS threads.
//!
//! The plans themselves — which worker crashes, hangs, slows, or restarts,
//! and which links drop, flap, or partition — are defined once in
//! [`rna_core::fault`] so the simulator and this runtime share semantics.
//! This module adds the runtime-side machinery: a [`FaultExecutor`] each
//! worker thread consults at the top of every iteration and a [`NetShim`]
//! the controller consults on every logical message.

use std::time::Duration;

pub use rna_core::fault::{
    live_majority, probe_round_stalled, ConfigError, FaultPlan, NetFaultPlan, ToleranceConfig,
    WorkerFate, WorkerFault, LIVENESS_TIMEOUT_US, PROBE_BACKOFF_US, ROUND_DEADLINE_US,
};
use rna_simnet::{NetFaults, SimDuration, SimTime};

/// What a worker thread must do before starting an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterDirective {
    /// Run the iteration normally.
    Proceed,
    /// Freeze (no heartbeats) for the duration, then run the iteration.
    HangFor(Duration),
    /// Die: exit the worker loop without computing.
    Crash,
    /// Die now, then come back after the duration: the worker drops out of
    /// the liveness view, sleeps, and rejoins by pulling the current model.
    Restart(Duration),
}

/// Per-worker interpreter of a [`FaultPlan`], consulted once per
/// iteration by the worker thread. Tracks the worker's [`WorkerFate`] as
/// faults fire (crash outranks hang outranks slowdown in the report).
#[derive(Debug, Clone)]
pub struct FaultExecutor {
    faults: Vec<WorkerFault>,
    fate: WorkerFate,
    restart_fired: bool,
}

impl FaultExecutor {
    /// Extracts `worker`'s slice of the plan.
    pub fn new(plan: &FaultPlan, worker: usize) -> Self {
        FaultExecutor {
            faults: plan.for_worker(worker).collect(),
            fate: WorkerFate::Healthy,
            restart_fired: false,
        }
    }

    /// Called when the worker is about to start iteration `iter` (i.e. it
    /// has completed exactly `iter` iterations). Returns the directive and
    /// records the fate.
    pub fn on_iteration_start(&mut self, iter: u64) -> IterDirective {
        for f in &self.faults {
            if let WorkerFault::CrashAt { at_iter } = *f {
                if at_iter == iter {
                    self.fate = WorkerFate::Crashed { at_iter };
                    return IterDirective::Crash;
                }
            }
        }
        for f in &self.faults {
            if let WorkerFault::RestartAt {
                at_iter,
                rejoin_after_us,
            } = *f
            {
                if at_iter == iter && !self.restart_fired {
                    self.restart_fired = true;
                    self.fate = WorkerFate::Restarted {
                        at_iter,
                        rejoined: false,
                    };
                    return IterDirective::Restart(Duration::from_micros(rejoin_after_us));
                }
            }
        }
        for f in &self.faults {
            if let WorkerFault::HangAt { at_iter, for_us } = *f {
                if at_iter == iter {
                    if !self.fate.is_dead() && self.fate == WorkerFate::Healthy {
                        self.fate = WorkerFate::Hung { at_iter };
                    }
                    return IterDirective::HangFor(Duration::from_micros(for_us));
                }
            }
        }
        for f in &self.faults {
            if let WorkerFault::SlowFrom { from_iter, .. }
            | WorkerFault::GrayFrom { from_iter, .. } = *f
            {
                if from_iter <= iter && self.fate == WorkerFate::Healthy {
                    self.fate = WorkerFate::Slowed { from_iter };
                }
            }
        }
        IterDirective::Proceed
    }

    /// Extra compute delay injected into iteration `iter` by slow-forever
    /// faults — constant stragglers plus gray-degradation ramps, through
    /// the shared [`WorkerFault::slowdown_at`] arithmetic so this world
    /// cannot drift from the simulator.
    pub fn extra_compute_delay(&self, iter: u64) -> Duration {
        let us: u64 = self.faults.iter().map(|f| f.slowdown_at(iter)).sum();
        Duration::from_micros(us)
    }

    /// Marks a restarted worker as back in the cluster. Called by the
    /// worker thread once its rejoin sleep elapses and it re-enters the
    /// loop; a restart whose sleep outlives the run stays `rejoined:
    /// false` and counts as dead.
    pub fn mark_rejoined(&mut self) {
        if let WorkerFate::Restarted { at_iter, .. } = self.fate {
            self.fate = WorkerFate::Restarted {
                at_iter,
                rejoined: true,
            };
        }
    }

    /// The fate observed so far (final once the worker exits its loop).
    pub fn fate(&self) -> WorkerFate {
        self.fate
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
    fn executor_crashes_at_exact_iteration() {
        let plan = FaultPlan::none().crash(2, 4);
        let mut ex = FaultExecutor::new(&plan, 2);
        for i in 0..4 {
            assert_eq!(ex.on_iteration_start(i), IterDirective::Proceed);
        }
        assert_eq!(ex.on_iteration_start(4), IterDirective::Crash);
        assert_eq!(ex.fate(), WorkerFate::Crashed { at_iter: 4 });
    }

    #[test]
    fn executor_ignores_other_workers() {
        let plan = FaultPlan::none().crash(2, 0);
        let mut ex = FaultExecutor::new(&plan, 1);
        assert_eq!(ex.on_iteration_start(0), IterDirective::Proceed);
        assert_eq!(ex.fate(), WorkerFate::Healthy);
    }

    #[test]
    fn executor_hangs_then_proceeds() {
        let plan = FaultPlan::none().hang(0, 3, 250);
        let mut ex = FaultExecutor::new(&plan, 0);
        assert_eq!(ex.on_iteration_start(2), IterDirective::Proceed);
        assert_eq!(
            ex.on_iteration_start(3),
            IterDirective::HangFor(Duration::from_micros(250))
        );
        assert_eq!(ex.on_iteration_start(4), IterDirective::Proceed);
        assert_eq!(ex.fate(), WorkerFate::Hung { at_iter: 3 });
    }

    #[test]
    fn executor_accumulates_slowdowns() {
        let plan = FaultPlan::none().slow(0, 2, 100).slow(0, 5, 50);
        let mut ex = FaultExecutor::new(&plan, 0);
        assert_eq!(ex.extra_compute_delay(1), Duration::ZERO);
        assert_eq!(ex.extra_compute_delay(2), Duration::from_micros(100));
        assert_eq!(ex.extra_compute_delay(7), Duration::from_micros(150));
        ex.on_iteration_start(3);
        assert_eq!(ex.fate(), WorkerFate::Slowed { from_iter: 2 });
    }

    #[test]
    fn executor_ramps_gray_degradation() {
        let plan = FaultPlan::none().gray(0, 3, 200, 700);
        let mut ex = FaultExecutor::new(&plan, 0);
        assert_eq!(ex.extra_compute_delay(2), Duration::ZERO);
        assert_eq!(ex.extra_compute_delay(3), Duration::from_micros(200));
        assert_eq!(ex.extra_compute_delay(4), Duration::from_micros(400));
        assert_eq!(ex.extra_compute_delay(6), Duration::from_micros(700));
        assert_eq!(
            ex.extra_compute_delay(1_000),
            Duration::from_micros(700),
            "capped"
        );
        assert_eq!(ex.on_iteration_start(3), IterDirective::Proceed);
        assert_eq!(ex.fate(), WorkerFate::Slowed { from_iter: 3 });
    }

    #[test]
    fn crash_outranks_hang_at_same_iteration() {
        let plan = FaultPlan::none().hang(0, 1, 10).crash(0, 1);
        let mut ex = FaultExecutor::new(&plan, 0);
        assert_eq!(ex.on_iteration_start(1), IterDirective::Crash);
        assert!(ex.fate().is_dead());
    }

    #[test]
    fn executor_restart_fires_once_and_rejoins() {
        let plan = FaultPlan::none().restart(0, 2, 1_000);
        let mut ex = FaultExecutor::new(&plan, 0);
        assert_eq!(ex.on_iteration_start(1), IterDirective::Proceed);
        assert_eq!(
            ex.on_iteration_start(2),
            IterDirective::Restart(Duration::from_micros(1_000))
        );
        assert!(ex.fate().is_dead(), "down until the rejoin completes");
        ex.mark_rejoined();
        assert_eq!(
            ex.fate(),
            WorkerFate::Restarted {
                at_iter: 2,
                rejoined: true
            }
        );
        assert!(!ex.fate().is_dead());
        // Fired once: resuming at the same iteration proceeds normally.
        assert_eq!(ex.on_iteration_start(2), IterDirective::Proceed);
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
