//! The fault model shared by the three execution worlds.
//!
//! The paper's claim is that partial collectives earn their keep in the
//! failure regime, not just under benign jitter — so the discrete-event
//! simulator ([`crate::sim`]) and the real worlds (`rna-runtime`'s threads
//! and subprocesses) must agree on *what* a fault is and *how* the
//! protocol reacts. This module is the single source of those semantics:
//!
//! * [`FaultPlan`] / [`WorkerFault`] — a seedable, deterministic injection
//!   script (crash at iteration `k`, hang for a duration, run slow
//!   forever, crash and come back) consumed by every world.
//! * [`FaultScript`] — the one reading of a plan: one worker's interpreter,
//!   asked at the top of every iteration what the plan does to it. The
//!   simulator's `Ctx::begin_compute`, the shared real-world worker loop
//!   and the process coordinator's death classifier all call it, so a plan
//!   means the same thing in all three worlds.
//! * [`WorkerFate`] — the post-mortem verdict both worlds report.
//! * [`NetFaultPlan`] — the network-level counterpart: per-link message
//!   drop probabilities, link flaps (timed down-windows), and timed
//!   partitions. It compiles to the `rna_simnet::NetFaults` mechanism that
//!   both the DES fabric and the threaded runtime's channel shim execute.
//! * [`ToleranceConfig`] — the liveness/retry/deadline timeouts: the
//!   controller lease in both worlds, the probe-retry ladder that
//!   [`crate::election::Election`] validates and climbs in both worlds, and
//!   the liveness window and round deadline the real worlds use to presume a
//!   silent worker dead (the simulator delivers crashes as exact events).
//!
//! When a round fires and when a probe set is resampled is
//! [`crate::election`]'s, not this module's.

use rna_simnet::{NetFaults, SimDuration, SimTime};
use rna_tensor::wire::{self, Reader};

/// One injected fault against one worker.
///
/// Iteration indices count completed local iterations: a fault `at_iter: 5`
/// triggers when the worker would otherwise begin its 6th iteration, so the
/// worker completes exactly 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// The worker dies permanently after completing `at_iter` iterations.
    /// Its final cached gradient is discarded, never reduced.
    CrashAt {
        /// Completed-iteration count at which the worker dies.
        at_iter: u64,
    },
    /// The worker freezes for `for_us` microseconds after completing
    /// `at_iter` iterations, then resumes. While frozen it sends no
    /// heartbeats; a hang longer than [`LIVENESS_TIMEOUT_US`] is
    /// indistinguishable from a crash until the worker returns.
    HangAt {
        /// Completed-iteration count at which the hang starts.
        at_iter: u64,
        /// Hang duration in microseconds of real (threaded) time.
        for_us: u64,
    },
    /// A slowdown, not a failure: from `from_iter` on, the worker's extra
    /// per-iteration time *ramps up* by `step_us` each iteration, capped
    /// at `cap_us`. At iteration `i >= from_iter` the extra delay is
    /// `min((i - from_iter + 1) * step_us, cap_us)`. With `step_us ==
    /// cap_us` it is a constant persistent straggler ([`FaultPlan::slow`]);
    /// a shallower ramp is gray degradation ([`FaultPlan::gray`]) — a node
    /// quietly souring (thermal throttling, a dying disk, a noisy
    /// neighbour), the regime online regrouping reacts to, because the
    /// launch-time speed probe saw a healthy worker. The worker keeps
    /// heartbeating and stays live.
    GrayFrom {
        /// Completed-iteration count at which the degradation begins.
        from_iter: u64,
        /// Per-iteration ramp increment in microseconds.
        step_us: u64,
        /// Ceiling on the extra per-iteration time in microseconds.
        cap_us: u64,
    },
    /// The worker crashes after completing `at_iter` iterations, then
    /// comes back `rejoin_after_us` microseconds later: it pulls the
    /// current model, is re-admitted to the liveness view, and resumes
    /// contributing. Gradients cached at crash time are lost, exactly as
    /// for [`WorkerFault::CrashAt`].
    RestartAt {
        /// Completed-iteration count at which the worker dies.
        at_iter: u64,
        /// Dwell time between the crash and the rejoin, in microseconds
        /// (virtual time in the simulator, real time on threads).
        rejoin_after_us: u64,
    },
}

impl WorkerFault {
    /// The iteration at which this fault first bites.
    pub fn trigger_iter(&self) -> u64 {
        match *self {
            WorkerFault::CrashAt { at_iter } => at_iter,
            WorkerFault::HangAt { at_iter, .. } => at_iter,
            WorkerFault::GrayFrom { from_iter, .. } => from_iter,
            WorkerFault::RestartAt { at_iter, .. } => at_iter,
        }
    }

    /// Whether this fault takes the worker down: a crash or a crash-restart.
    /// Barrier protocols (BSP) reject plans holding one.
    pub fn kills(&self) -> bool {
        matches!(
            self,
            WorkerFault::CrashAt { .. } | WorkerFault::RestartAt { .. }
        )
    }

    /// The extra compute delay this fault (if it is a slowdown) adds to
    /// iteration `iter`, in microseconds.
    pub fn slowdown_at(&self, iter: u64) -> u64 {
        match *self {
            WorkerFault::GrayFrom {
                from_iter,
                step_us,
                cap_us,
            } if iter >= from_iter => (iter - from_iter + 1).saturating_mul(step_us).min(cap_us),
            _ => 0,
        }
    }
}

/// A deterministic injection script: which worker suffers which fault.
///
/// Plans are plain data — no randomness of their own — so the same plan
/// fed to the simulator and the threaded runtime injects the same
/// failures, which is what makes the cross-world fault tests meaningful.
///
/// # Examples
///
/// ```
/// use rna_core::fault::{FaultPlan, IterDirective, WorkerFault};
///
/// let plan = FaultPlan::none().crash(3, 5).slow(1, 0, 30_000);
/// assert_eq!(plan.faults().len(), 2);
/// assert_eq!(plan.script(3).on_iteration_start(5), IterDirective::Crash);
/// assert_eq!(plan.script(1).slowdown_us(7), 30_000);
/// assert!(matches!(
///     plan.for_worker(1).next(),
///     Some(WorkerFault::GrayFrom { .. })
/// ));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<(usize, WorkerFault)>,
    /// Global rounds at which the *active controller* dies (one failover
    /// each; the warm standby takes over after the lease expires).
    controller_crashes: Vec<u64>,
}

impl FaultPlan {
    /// The empty plan: every worker runs healthy.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds a crash: `worker` dies after completing `at_iter` iterations.
    pub fn crash(mut self, worker: usize, at_iter: u64) -> Self {
        self.faults.push((worker, WorkerFault::CrashAt { at_iter }));
        self
    }

    /// Adds a hang: `worker` freezes for `for_us` microseconds after
    /// completing `at_iter` iterations.
    pub fn hang(mut self, worker: usize, at_iter: u64, for_us: u64) -> Self {
        self.faults
            .push((worker, WorkerFault::HangAt { at_iter, for_us }));
        self
    }

    /// Adds a permanent slowdown: from `from_iter` on, `worker` takes
    /// `extra_us` extra microseconds per iteration (a ramp already at its
    /// cap).
    pub fn slow(self, worker: usize, from_iter: u64, extra_us: u64) -> Self {
        self.gray(worker, from_iter, extra_us, extra_us)
    }

    /// Adds a gray-degradation ramp: from `from_iter` on, `worker`'s
    /// extra per-iteration time grows by `step_us` each iteration, capped
    /// at `cap_us`. See [`WorkerFault::GrayFrom`].
    pub fn gray(mut self, worker: usize, from_iter: u64, step_us: u64, cap_us: u64) -> Self {
        self.faults.push((
            worker,
            WorkerFault::GrayFrom {
                from_iter,
                step_us,
                cap_us,
            },
        ));
        self
    }

    /// Adds a crash-restart: `worker` dies after completing `at_iter`
    /// iterations, then rejoins `rejoin_after_us` microseconds later,
    /// pulling the current model and resuming contribution.
    pub fn restart(mut self, worker: usize, crash_iter: u64, rejoin_after_us: u64) -> Self {
        self.faults.push((
            worker,
            WorkerFault::RestartAt {
                at_iter: crash_iter,
                rejoin_after_us,
            },
        ));
        self
    }

    /// Adds a controller crash: the *active controller* dies as global
    /// round `at_round` begins. Probes already in flight are lost, workers
    /// keep computing into their caches, and the warm standby takes over
    /// once the controller's lease expires — bumping the term so stale
    /// replies from the dead incarnation are harmless.
    ///
    /// Unlike the worker faults, this targets the control plane (node `n`
    /// in the simulator's numbering), so it is not subject to the
    /// `max_worker` cluster-size validation.
    pub fn crash_controller(mut self, at_round: u64) -> Self {
        self.controller_crashes.push(at_round);
        self.controller_crashes.sort_unstable();
        self
    }

    /// The sorted global rounds at which the active controller dies.
    pub fn controller_crashes(&self) -> &[u64] {
        &self.controller_crashes
    }

    /// The round at which controller incarnation `term` dies, if the plan
    /// kills it: the `term`-th planned controller crash. Incarnations count
    /// from 0 and each takeover starts the next, so this is the one reading
    /// of the crash schedule in both the simulator and the real worlds.
    pub fn controller_crash(&self, term: u64) -> Option<u64> {
        let term = usize::try_from(term).ok()?;
        self.controller_crashes.get(term).copied()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.controller_crashes.is_empty()
    }

    /// All `(worker, fault)` entries in insertion order.
    pub fn faults(&self) -> &[(usize, WorkerFault)] {
        &self.faults
    }

    /// The faults aimed at one worker, in plan order.
    pub fn for_worker(&self, worker: usize) -> impl Iterator<Item = WorkerFault> + '_ {
        self.faults
            .iter()
            .filter(move |(w, _)| *w == worker)
            .map(|(_, f)| *f)
    }

    /// `worker`'s interpreter of this plan (see [`FaultScript`]).
    pub fn script(&self, worker: usize) -> FaultScript {
        FaultScript::new(self.for_worker(worker).collect())
    }

    /// The largest worker index the plan touches, if any (used to validate
    /// a plan against a cluster size).
    pub fn max_worker(&self) -> Option<usize> {
        self.faults.iter().map(|(w, _)| *w).max()
    }
}

/// What a worker must do before it starts an iteration: the verdict of
/// [`FaultScript::on_iteration_start`]. Durations are microseconds —
/// virtual time in the simulator, real time elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterDirective {
    /// Run the iteration normally.
    Proceed,
    /// Freeze for this many microseconds (no heartbeats), then run the
    /// iteration.
    HangFor(u64),
    /// Die for good without computing.
    Crash,
    /// Die now and come back this many microseconds later, pulling the
    /// current model.
    Restart(u64),
}

/// One worker's reading of a [`FaultPlan`] — the only one. Every world asks
/// it what the plan does as the worker is about to start each iteration,
/// and what the plan adds to that iteration's compute time, so a plan
/// injects the same faults everywhere. It also keeps the worker's
/// [`WorkerFate`] as faults fire: a crash or restart outranks a hang, which
/// outranks a slowdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultScript {
    faults: Vec<WorkerFault>,
    fate: WorkerFate,
    restart_fired: bool,
}

impl FaultScript {
    /// A script over one worker's faults, in plan order.
    pub fn new(faults: Vec<WorkerFault>) -> Self {
        FaultScript {
            faults,
            fate: WorkerFate::Healthy,
            restart_fired: false,
        }
    }

    /// Called when the worker is about to start iteration `iter` (it has
    /// completed exactly `iter`). A crash due at `iter` kills it. Otherwise
    /// a restart due at `iter` takes it down — one restart per worker, so
    /// the rejoined worker re-entering `iter` runs it. Otherwise the hangs
    /// due at `iter` freeze it for their summed durations.
    pub fn on_iteration_start(&mut self, iter: u64) -> IterDirective {
        let (mut restart, mut hang) = (None, None);
        for f in &self.faults {
            match *f {
                WorkerFault::CrashAt { at_iter } if at_iter == iter => {
                    self.fate = WorkerFate::Crashed { at_iter };
                    return IterDirective::Crash;
                }
                WorkerFault::RestartAt {
                    at_iter,
                    rejoin_after_us,
                } if at_iter == iter && !self.restart_fired => {
                    restart = restart.or(Some(rejoin_after_us));
                }
                WorkerFault::HangAt { at_iter, for_us } if at_iter == iter => {
                    hang = Some(hang.unwrap_or(0) + for_us);
                }
                _ => {}
            }
        }
        if let Some(down_us) = restart {
            self.restart_fired = true;
            self.fate = WorkerFate::Restarted {
                at_iter: iter,
                rejoined: false,
            };
            return IterDirective::Restart(down_us);
        }
        let downed = matches!(
            self.fate,
            WorkerFate::Crashed { .. } | WorkerFate::Restarted { .. }
        );
        if let Some(us) = hang {
            if !downed {
                self.fate = WorkerFate::Hung { at_iter: iter };
            }
            return IterDirective::HangFor(us);
        }
        if self.fate == WorkerFate::Healthy {
            let slowed = self.faults.iter().find_map(|f| match *f {
                WorkerFault::GrayFrom { from_iter, .. } if from_iter <= iter => Some(from_iter),
                _ => None,
            });
            if let Some(from_iter) = slowed {
                self.fate = WorkerFate::Slowed { from_iter };
            }
        }
        IterDirective::Proceed
    }

    /// The extra compute time, in microseconds, the plan's slowdowns
    /// (summed) add to iteration `iter`.
    pub fn slowdown_us(&self, iter: u64) -> u64 {
        self.faults.iter().map(|f| f.slowdown_at(iter)).sum()
    }

    /// Marks a restarted worker as back in the cluster. A restart whose
    /// down window outlives the run stays `rejoined: false` and counts as
    /// dead.
    pub fn mark_rejoined(&mut self) {
        if let WorkerFate::Restarted { at_iter, .. } = self.fate {
            self.fate = WorkerFate::Restarted {
                at_iter,
                rejoined: true,
            };
        }
    }

    /// The fate observed so far.
    pub fn fate(&self) -> WorkerFate {
        self.fate
    }

    /// Whether the worker's restart has fired.
    pub fn restart_fired(&self) -> bool {
        self.restart_fired
    }

    /// Reinstates the state a checkpoint recorded.
    pub fn restore(&mut self, restart_fired: bool, fate: WorkerFate) {
        self.restart_fired = restart_fired;
        self.fate = fate;
    }
}

/// The post-mortem verdict on one worker, reported by both worlds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkerFate {
    /// Ran to the end of training without incident.
    #[default]
    Healthy,
    /// Died permanently after completing `at_iter` iterations.
    Crashed {
        /// Completed-iteration count at death.
        at_iter: u64,
    },
    /// Froze at `at_iter` (and, in the threaded world, later recovered —
    /// a hang that outlives the run is reported as [`WorkerFate::Crashed`]
    /// by the controller's liveness verdict, not here).
    Hung {
        /// Completed-iteration count at which the hang started.
        at_iter: u64,
    },
    /// Ran as a persistent straggler from `from_iter` on.
    Slowed {
        /// Completed-iteration count at which the slowdown began.
        from_iter: u64,
    },
    /// Crashed after `at_iter` iterations and was scheduled to rejoin.
    /// `rejoined` reports whether the rejoin actually happened before the
    /// run ended (a restart scheduled past the end of training is just a
    /// crash).
    Restarted {
        /// Completed-iteration count at the crash.
        at_iter: u64,
        /// Whether the worker made it back into the cluster.
        rejoined: bool,
    },
    /// Left gracefully under a `ChurnPlan`: contributed through
    /// `at_round`, final gradient drained, then removed.
    Retired {
        /// Last global round the worker contributed to.
        at_round: u64,
    },
    /// Forcibly removed under a `ChurnPlan` as round `at_round` began;
    /// in-flight work toward that round was discarded.
    Evicted {
        /// First global round the worker was excluded from.
        at_round: u64,
    },
}

impl WorkerFate {
    /// Whether the worker was dead (permanently) at the end of the run.
    /// Planned departures ([`WorkerFate::Retired`], [`WorkerFate::Evicted`])
    /// are not deaths — see [`WorkerFate::is_departed`].
    pub fn is_dead(&self) -> bool {
        matches!(
            self,
            WorkerFate::Crashed { .. }
                | WorkerFate::Restarted {
                    rejoined: false,
                    ..
                }
        )
    }

    /// Whether the worker left the cluster under a churn plan (retired or
    /// evicted) rather than by failure.
    pub fn is_departed(&self) -> bool {
        matches!(
            self,
            WorkerFate::Retired { .. } | WorkerFate::Evicted { .. }
        )
    }

    /// Appends the fate in its one binary form — a kind byte, the
    /// iteration or round it names (0 for `Healthy`), and for `Restarted`
    /// the `rejoined` flag — shared by the DES checkpoint and the process
    /// world's `Fate` frame.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let (kind, at) = match *self {
            WorkerFate::Healthy => (0, 0),
            WorkerFate::Crashed { at_iter } => (1, at_iter),
            WorkerFate::Hung { at_iter } => (2, at_iter),
            WorkerFate::Slowed { from_iter } => (3, from_iter),
            WorkerFate::Restarted { at_iter, .. } => (4, at_iter),
            WorkerFate::Retired { at_round } => (5, at_round),
            WorkerFate::Evicted { at_round } => (6, at_round),
        };
        out.push(kind);
        wire::put_u64(out, at);
        if let WorkerFate::Restarted { rejoined, .. } = *self {
            wire::put_bool(out, rejoined);
        }
    }

    /// Reads a fate written by [`WorkerFate::encode_into`]; `None` on
    /// truncation, an unknown kind, or a `rejoined` flag that is not a
    /// boolean.
    pub fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let kind = r.bytes_exact(1)?[0];
        let at = r.u64()?;
        Some(match kind {
            0 => WorkerFate::Healthy,
            1 => WorkerFate::Crashed { at_iter: at },
            2 => WorkerFate::Hung { at_iter: at },
            3 => WorkerFate::Slowed { from_iter: at },
            4 => WorkerFate::Restarted {
                at_iter: at,
                rejoined: r.bool()?,
            },
            5 => WorkerFate::Retired { at_round: at },
            6 => WorkerFate::Evicted { at_round: at },
            _ => return None,
        })
    }
}

/// Real-time heartbeat age (microseconds) past which the threaded
/// controller presumes a silent worker dead. Chosen ≫ any benign compute
/// interval the test/bench configurations use (tens of milliseconds), and
/// ≪ the round deadline, so crashes are detected within a few rounds.
pub const LIVENESS_TIMEOUT_US: u64 = 150_000;

/// How long (microseconds) the threaded RNA controller waits on an
/// unresponsive probed set before resampling initiator candidates from the
/// live workers (re-probe backoff).
pub const PROBE_BACKOFF_US: u64 = 2_000;

/// Hard per-round deadline (microseconds) in the threaded runtime: a
/// round that cannot assemble any contribution by the deadline is
/// completed *degraded* (no update applied) rather than blocking forever.
pub const ROUND_DEADLINE_US: u64 = 5_000_000;

/// Default ceiling on the exponential re-probe backoff (microseconds):
/// doubling stops here so a long partition cannot push the retry interval
/// past the round deadline.
pub const PROBE_BACKOFF_CAP_US: u64 = 128_000;

/// A structurally invalid timeout or cadence configuration.
///
/// Returned by [`ToleranceConfig::validate`] (and the recovery module's
/// checkpoint-cadence validation) instead of letting a zero window silently
/// declare every worker dead or spin a retry loop hot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `liveness_timeout_us == 0`: every worker would be presumed dead the
    /// instant it was probed.
    ZeroLivenessWindow,
    /// `round_deadline_us == 0`: every round would complete degraded
    /// before any gradient could arrive.
    ZeroDeadlineWindow,
    /// `probe_backoff_us == 0`: the re-probe loop would spin without
    /// pacing (and exponential doubling of zero never backs off).
    ZeroProbeBackoff,
    /// `probe_backoff_cap_us < probe_backoff_us`: a ceiling below the base
    /// makes the very first backoff interval already "over cap".
    BackoffCapBelowBase {
        /// The configured initial backoff.
        base_us: u64,
        /// The configured (smaller) ceiling.
        cap_us: u64,
    },
    /// A checkpoint cadence of zero rounds: there is no round boundary at
    /// which such a checkpoint could ever be cut.
    ZeroCheckpointCadence,
    /// A structurally impossible `ChurnPlan`: duplicate events, a leave
    /// scheduled at or before the same worker's join, an out-of-capacity
    /// identity, or a plan that drains the cluster. `worker` is
    /// `usize::MAX` for whole-plan problems.
    ChurnPlanMalformed {
        /// The offending worker (or `usize::MAX`).
        worker: usize,
        /// What is wrong, in one clause.
        why: &'static str,
    },
    /// A regroup policy that can never fire: zero check cadence or an
    /// EWMA smoothing factor outside `(0, 1]`.
    ZeroRegroupCadence,
    /// An address-book file (the `addr\nkey` pair the process-world
    /// coordinator publishes for external workers) failed to parse.
    /// `line` is 1-based; 0 means the file as a whole.
    AddrBookMalformed {
        /// The offending line (1-based; 0 for whole-file problems).
        line: usize,
        /// What is wrong, in one clause.
        why: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroLivenessWindow => {
                write!(f, "liveness timeout must be positive")
            }
            ConfigError::ZeroDeadlineWindow => {
                write!(f, "round deadline must be positive")
            }
            ConfigError::ZeroProbeBackoff => {
                write!(f, "probe backoff must be positive")
            }
            ConfigError::BackoffCapBelowBase { base_us, cap_us } => {
                write!(
                    f,
                    "probe backoff cap ({cap_us} us) is below the base ({base_us} us)"
                )
            }
            ConfigError::ZeroCheckpointCadence => {
                write!(f, "checkpoint cadence must be at least one round")
            }
            ConfigError::ChurnPlanMalformed { worker, why } => {
                if *worker == usize::MAX {
                    write!(f, "malformed churn plan: {why}")
                } else {
                    write!(f, "malformed churn plan for worker {worker}: {why}")
                }
            }
            ConfigError::ZeroRegroupCadence => {
                write!(
                    f,
                    "regroup policy needs a positive check cadence and an EWMA alpha in (0, 1]"
                )
            }
            ConfigError::AddrBookMalformed { line, why } => {
                if *line == 0 {
                    write!(f, "malformed address book: {why}")
                } else {
                    write!(f, "malformed address book at line {line}: {why}")
                }
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The failure-detection and retry timeouts of the threaded controller,
/// previously hard-coded as the `*_US` constants (which remain as the
/// [`Default`] values). Fault tests can tighten these instead of paying
/// real 150 ms liveness waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToleranceConfig {
    /// Heartbeat age past which a silent worker is presumed dead. Also the
    /// controller lease: a standby takes over when the active controller
    /// has not heartbeat within this window.
    pub liveness_timeout_us: u64,
    /// Initial re-probe backoff; doubles per retry within a round.
    pub probe_backoff_us: u64,
    /// Ceiling for the exponential re-probe backoff.
    pub probe_backoff_cap_us: u64,
    /// Hard per-round deadline before the round completes degraded.
    pub round_deadline_us: u64,
}

impl Default for ToleranceConfig {
    fn default() -> Self {
        ToleranceConfig {
            liveness_timeout_us: LIVENESS_TIMEOUT_US,
            probe_backoff_us: PROBE_BACKOFF_US,
            probe_backoff_cap_us: PROBE_BACKOFF_CAP_US,
            round_deadline_us: ROUND_DEADLINE_US,
        }
    }
}

impl ToleranceConfig {
    /// Tight timeouts for fault tests: sub-10 ms failure detection so a
    /// crash test does not sit through 150 ms liveness waits per victim.
    /// Still ≫ the 1–2 ms compute intervals the quick configs use.
    pub fn tight() -> Self {
        ToleranceConfig {
            liveness_timeout_us: 8_000,
            probe_backoff_us: 500,
            probe_backoff_cap_us: 32_000,
            round_deadline_us: 1_000_000,
        }
    }

    /// Builds a validated configuration, rejecting zero windows and a
    /// backoff ceiling below the base with a typed [`ConfigError`].
    ///
    /// # Errors
    ///
    /// See the [`ConfigError`] variants for each rejected shape.
    pub fn new(
        liveness_timeout_us: u64,
        probe_backoff_us: u64,
        probe_backoff_cap_us: u64,
        round_deadline_us: u64,
    ) -> Result<Self, ConfigError> {
        let config = ToleranceConfig {
            liveness_timeout_us,
            probe_backoff_us,
            probe_backoff_cap_us,
            round_deadline_us,
        };
        config.validate()?;
        Ok(config)
    }

    /// Checks the invariants [`ToleranceConfig::new`] enforces. Callers
    /// that build the struct literally (or deserialize it) should validate
    /// before use; [`crate::election::Election::new`] does, in every world.
    ///
    /// # Errors
    ///
    /// See the [`ConfigError`] variants for each rejected shape.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.liveness_timeout_us == 0 {
            return Err(ConfigError::ZeroLivenessWindow);
        }
        if self.round_deadline_us == 0 {
            return Err(ConfigError::ZeroDeadlineWindow);
        }
        if self.probe_backoff_us == 0 {
            return Err(ConfigError::ZeroProbeBackoff);
        }
        if self.probe_backoff_cap_us < self.probe_backoff_us {
            return Err(ConfigError::BackoffCapBelowBase {
                base_us: self.probe_backoff_us,
                cap_us: self.probe_backoff_cap_us,
            });
        }
        Ok(())
    }
}

/// A deterministic *network* fault script, shared by both worlds the same
/// way [`FaultPlan`] is: per-link message-drop probabilities, link flaps
/// (timed down-windows), and timed partitions that split the cluster into
/// components.
///
/// Node numbering follows the simulator convention: workers are `0..n`,
/// node `n` is the controller, node `n + 1` the parameter server/master.
/// All windows are in microseconds — virtual time in the DES, elapsed real
/// time in the threaded runtime — so one plan expresses the same chaos in
/// both worlds.
///
/// The plan is pure data; [`NetFaultPlan::compile`] lowers it to the
/// [`rna_simnet::NetFaults`] mechanism with the controller as a *bridge*
/// node that both sides of a partition can still reach. The paper's
/// scheduler (§3.1) is stateless and replicable per side, so modeling it
/// as reachable keeps an isolated group's internal RNA coordination alive
/// while its data paths (peer links, PS link) are genuinely severed.
///
/// # Examples
///
/// ```
/// use rna_core::fault::NetFaultPlan;
///
/// let plan = NetFaultPlan::none()
///     .with_seed(7)
///     .drop_link(4, 0, 0.2)           // controller↔worker-0 loses 20%
///     .flap(0, 1, 10_000, 20_000)     // link down for 10 ms
///     .partition(vec![2, 3], 5_000, 50_000);
/// plan.validate(4);
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetFaultPlan {
    seed: u64,
    drops: Vec<(usize, usize, f64)>,
    flaps: Vec<(usize, usize, u64, u64)>,
    partitions: Vec<(Vec<usize>, u64, u64)>,
    delays: Vec<(usize, usize, u64)>,
    corrupts: Vec<(usize, usize, f64)>,
}

impl NetFaultPlan {
    /// The empty plan: a perfectly reliable fabric.
    pub fn none() -> Self {
        NetFaultPlan::default()
    }

    /// Sets the seed for the per-edge drop streams.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Each message on the `a`↔`b` link is dropped with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn drop_link(mut self, a: usize, b: usize, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability {p} not in [0, 1]"
        );
        self.drops.push((a, b, p));
        self
    }

    /// The `a`↔`b` link is down for the window `[from_us, until_us)`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn flap(mut self, a: usize, b: usize, from_us: u64, until_us: u64) -> Self {
        assert!(from_us < until_us, "empty flap window");
        self.flaps.push((a, b, from_us, until_us));
        self
    }

    /// Partitions the cluster for `[from_us, until_us)`: every link between
    /// a worker in `component` and a node outside it is severed (the
    /// controller excepted — see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if `component` is empty or the window is empty.
    pub fn partition(mut self, component: Vec<usize>, from_us: u64, until_us: u64) -> Self {
        assert!(!component.is_empty(), "empty partition component");
        assert!(from_us < until_us, "empty partition window");
        self.partitions.push((component, from_us, until_us));
        self
    }

    /// Every message on the `a`↔`b` link is delayed by `extra_us` before
    /// delivery. Only the process world's fault proxy realizes delays (on
    /// the physical hop); the shim-based worlds ignore them — their link
    /// model is binary (delivered or not), and an added delay would desync
    /// the DES clock from the plan the other worlds execute.
    ///
    /// # Panics
    ///
    /// Panics if `extra_us` is zero (an empty delay is not a fault).
    pub fn delay_link(mut self, a: usize, b: usize, extra_us: u64) -> Self {
        assert!(extra_us > 0, "zero-delay link fault");
        self.delays.push((a, b, extra_us));
        self
    }

    /// Each message on the `a`↔`b` link is *corrupted* with probability
    /// `p`. The shim-based worlds lower corruption to a drop (a mangled
    /// message is never applied); the process world's fault proxy flips
    /// real bytes or truncates the frame on the physical hop, so the
    /// receiver's typed decode errors — not the plan — discard it.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn corrupt_link(mut self, a: usize, b: usize, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "corruption probability {p} not in [0, 1]"
        );
        self.corrupts.push((a, b, p));
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.drops.is_empty()
            && self.flaps.is_empty()
            && self.partitions.is_empty()
            && self.delays.is_empty()
            && self.corrupts.is_empty()
    }

    /// The seed the drop streams derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-link drop entries `(a, b, p)`.
    pub fn drops(&self) -> &[(usize, usize, f64)] {
        &self.drops
    }

    /// The link down-windows `(a, b, from_us, until_us)`.
    pub fn flaps(&self) -> &[(usize, usize, u64, u64)] {
        &self.flaps
    }

    /// The per-link delay entries `(a, b, extra_us)`.
    pub fn delays(&self) -> &[(usize, usize, u64)] {
        &self.delays
    }

    /// The per-link corruption entries `(a, b, p)`.
    pub fn corrupts(&self) -> &[(usize, usize, f64)] {
        &self.corrupts
    }

    /// Splits the plan for the process world's fault proxy into
    /// `(physical, virtual)` halves. Entries naming the controller link
    /// (`a` or `b` equals `controller`) are *physical*: the proxy realizes
    /// them on the actual worker↔coordinator socket. Everything else —
    /// partitions (which model peer↔peer cuts the flat runtime has no
    /// socket for) and faults on links not touching the controller — stays
    /// *virtual* and is interpreted by the controller-side shim, exactly
    /// as without a proxy. Both halves keep the seed, so a split plan
    /// rolls the same per-edge streams as the unsplit one.
    pub fn split_physical(&self, controller: usize) -> (NetFaultPlan, NetFaultPlan) {
        let touches = |a: usize, b: usize| a == controller || b == controller;
        let mut physical = NetFaultPlan {
            partitions: Vec::new(),
            ..self.clone()
        };
        physical.retain_links(touches);
        let mut virt = self.clone();
        virt.retain_links(|a, b| !touches(a, b));
        (physical, virt)
    }

    /// Checks every node index against a cluster of `num_workers` workers:
    /// partition components may name only workers (`< num_workers`); link
    /// endpoints may also name the controller (`num_workers`) and the
    /// PS/master node (`num_workers + 1`).
    ///
    /// # Panics
    ///
    /// Panics on the first out-of-range index.
    pub fn validate(&self, num_workers: usize) {
        let max_node = num_workers + 1;
        for (kind, a, b) in self.link_endpoints() {
            assert!(
                a <= max_node && b <= max_node,
                "{kind} endpoint out of range: ({a}, {b}) with {num_workers} workers"
            );
        }
        for (component, ..) in &self.partitions {
            for &w in component {
                assert!(
                    w < num_workers,
                    "partition member {w} out of range for {num_workers} workers"
                );
            }
        }
    }

    /// Every per-link entry's endpoints, tagged with its kind: drops,
    /// flaps, delays, then corrupts, each in insertion order.
    fn link_endpoints(&self) -> impl Iterator<Item = (&'static str, usize, usize)> + '_ {
        let drops = self.drops.iter().map(|&(a, b, _)| ("drop", a, b));
        let flaps = self.flaps.iter().map(|&(a, b, ..)| ("flap", a, b));
        let delays = self.delays.iter().map(|&(a, b, _)| ("delay", a, b));
        let corrupts = self.corrupts.iter().map(|&(a, b, _)| ("corrupt", a, b));
        drops.chain(flaps).chain(delays).chain(corrupts)
    }

    /// Keeps only the per-link entries whose endpoints satisfy `keep`.
    fn retain_links(&mut self, keep: impl Fn(usize, usize) -> bool) {
        self.drops.retain(|&(a, b, _)| keep(a, b));
        self.flaps.retain(|&(a, b, ..)| keep(a, b));
        self.delays.retain(|&(a, b, _)| keep(a, b));
        self.corrupts.retain(|&(a, b, _)| keep(a, b));
    }

    /// Lowers the plan to the [`rna_simnet::NetFaults`] mechanism for a
    /// cluster whose controller is node `controller` (bridged across
    /// partitions; see the type docs).
    pub fn compile(&self, controller: usize) -> NetFaults {
        let at = |us: u64| SimTime::ZERO + SimDuration::from_micros(us);
        let mut f = NetFaults::new(self.seed);
        for &(a, b, p) in &self.drops {
            f = f.with_drop(a, b, p);
        }
        // The binary link model has no corruption: a mangled message is a
        // message the receiver never applies, so corruption lowers to a
        // drop with the same probability. Delays have no lowering at all
        // (see `delay_link`) and are realized only by the fault proxy.
        for &(a, b, p) in &self.corrupts {
            f = f.with_drop(a, b, p);
        }
        for &(a, b, from, until) in &self.flaps {
            f = f.with_down(a, b, at(from), at(until));
        }
        for (component, from, until) in &self.partitions {
            f = f.with_cut(component.clone(), vec![controller], at(*from), at(*until));
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::election::{live_majority, probe_round_stalled, quorum_initiator};

    #[test]
    fn fate_codec_roundtrips_and_rejects_malformed_input() {
        for fate in [
            WorkerFate::Healthy,
            WorkerFate::Crashed { at_iter: 2 },
            WorkerFate::Hung { at_iter: 3 },
            WorkerFate::Slowed { from_iter: 4 },
            WorkerFate::Restarted {
                at_iter: 5,
                rejoined: true,
            },
            WorkerFate::Restarted {
                at_iter: u64::MAX,
                rejoined: false,
            },
            WorkerFate::Retired { at_round: 40 },
            WorkerFate::Evicted { at_round: 41 },
        ] {
            let mut buf = Vec::new();
            fate.encode_into(&mut buf);
            let mut r = Reader::new(&buf);
            assert_eq!(WorkerFate::decode(&mut r), Some(fate));
            assert_eq!(r.remaining(), 0, "{fate:?}");
            for cut in 0..buf.len() {
                assert_eq!(
                    WorkerFate::decode(&mut Reader::new(&buf[..cut])),
                    None,
                    "{fate:?} cut={cut}"
                );
            }
        }
        // Unknown kind, and a rejoined flag that is not a boolean.
        assert_eq!(WorkerFate::decode(&mut Reader::new(&[7; 9])), None);
        let mut bad_flag = Vec::new();
        WorkerFate::Restarted {
            at_iter: 1,
            rejoined: true,
        }
        .encode_into(&mut bad_flag);
        *bad_flag.last_mut().unwrap() = 2;
        assert_eq!(WorkerFate::decode(&mut Reader::new(&bad_flag)), None);
    }

    #[test]
    fn plan_builders_accumulate() {
        let plan = FaultPlan::none().crash(0, 3).hang(1, 4, 500).slow(2, 0, 9);
        assert_eq!(plan.faults().len(), 3);
        assert_eq!(
            plan.for_worker(0).collect::<Vec<_>>(),
            [WorkerFault::CrashAt { at_iter: 3 }]
        );
        assert_eq!(plan.for_worker(3).count(), 0);
        assert_eq!(plan.max_worker(), Some(2));
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn trigger_iters() {
        assert_eq!(WorkerFault::CrashAt { at_iter: 7 }.trigger_iter(), 7);
        assert_eq!(
            WorkerFault::HangAt {
                at_iter: 2,
                for_us: 1
            }
            .trigger_iter(),
            2
        );
        let slow = FaultPlan::none().slow(0, 4, 1).faults()[0].1;
        assert_eq!(slow.trigger_iter(), 4);
        assert_eq!(
            WorkerFault::GrayFrom {
                from_iter: 6,
                step_us: 2,
                cap_us: 10
            }
            .trigger_iter(),
            6
        );
    }

    #[test]
    fn gray_ramp_grows_then_caps() {
        let gray = WorkerFault::GrayFrom {
            from_iter: 10,
            step_us: 300,
            cap_us: 1_000,
        };
        assert_eq!(gray.slowdown_at(9), 0);
        assert_eq!(gray.slowdown_at(10), 300);
        assert_eq!(gray.slowdown_at(11), 600);
        assert_eq!(gray.slowdown_at(12), 900);
        assert_eq!(gray.slowdown_at(13), 1_000, "capped");
        assert_eq!(gray.slowdown_at(10_000), 1_000);
        // A constant straggler is a ramp already at its cap: every
        // iteration from its first is slowed by exactly the extra time.
        let plan = FaultPlan::none().slow(1, 5, 700);
        let slow = plan.faults()[0].1;
        assert_eq!(slow.slowdown_at(4), 0);
        assert_eq!(slow.slowdown_at(5), 700);
        assert_eq!(slow.slowdown_at(500), 700);
        let script = plan.script(1);
        assert!((0..5).all(|i| script.slowdown_us(i) == 0));
        assert!((5..64).all(|i| script.slowdown_us(i) == 700));
        assert_eq!(script.slowdown_us(u64::MAX), 700, "saturated ramp");
        // Non-slowdown faults never slow anything.
        assert_eq!(WorkerFault::CrashAt { at_iter: 3 }.slowdown_at(9), 0);
        // The builder registers it like any other fault.
        let plan = FaultPlan::none().gray(2, 10, 300, 1_000);
        assert!(matches!(
            plan.for_worker(2).next(),
            Some(WorkerFault::GrayFrom { .. })
        ));
        assert_eq!(plan.max_worker(), Some(2));
    }

    #[test]
    fn majority_shrinks_with_deaths() {
        assert_eq!(live_majority(8), 5);
        assert_eq!(live_majority(7), 4);
        assert_eq!(live_majority(4), 3);
        assert_eq!(live_majority(3), 2);
        assert_eq!(live_majority(2), 2);
        assert_eq!(live_majority(1), 1);
        // Even an empty electorate demands one contributor, so a fully
        // dead cluster can never fire a round by accident.
        assert_eq!(live_majority(0), 1);
    }

    #[test]
    fn quorum_fires_on_its_count_and_names_the_first_ready() {
        // The majority arm: two of four live short of `live_majority(4)`.
        let majority =
            |ready: &[usize], live| quorum_initiator(ready.iter().copied(), live_majority(live));
        assert_eq!(majority(&[2, 3], 4), None);
        assert_eq!(majority(&[1, 2, 3], 4), Some(1));
        assert_eq!(majority(&[3, 5], 2), Some(3));
        assert_eq!(majority(&[], 0), None);
        // The barrier (need = every member) and one backup (need = n − 1).
        assert_eq!(quorum_initiator([0, 1, 2].into_iter(), 4), None);
        assert_eq!(quorum_initiator([0, 1, 2, 3].into_iter(), 4), Some(0));
        assert_eq!(quorum_initiator([1, 2, 3].into_iter(), 3), Some(1));
        // Nothing ready never fires, even when nothing is needed.
        assert_eq!(quorum_initiator(std::iter::empty(), 0), None);
    }

    #[test]
    fn stalled_probe_rounds() {
        let live = [true, false, false, true];
        assert!(probe_round_stalled(&[1, 2], &live));
        assert!(!probe_round_stalled(&[1, 3], &live));
        assert!(!probe_round_stalled(&[], &live));
    }

    #[test]
    fn fates_report_death() {
        assert!(WorkerFate::Crashed { at_iter: 0 }.is_dead());
        assert!(!WorkerFate::Healthy.is_dead());
        assert!(!WorkerFate::Hung { at_iter: 1 }.is_dead());
        assert!(!WorkerFate::Slowed { from_iter: 1 }.is_dead());
        assert!(WorkerFate::Restarted {
            at_iter: 3,
            rejoined: false
        }
        .is_dead());
        assert!(!WorkerFate::Restarted {
            at_iter: 3,
            rejoined: true
        }
        .is_dead());
        // Planned departures are not deaths, but they are departures.
        assert!(!WorkerFate::Retired { at_round: 5 }.is_dead());
        assert!(!WorkerFate::Evicted { at_round: 5 }.is_dead());
        assert!(WorkerFate::Retired { at_round: 5 }.is_departed());
        assert!(WorkerFate::Evicted { at_round: 5 }.is_departed());
        assert!(!WorkerFate::Healthy.is_departed());
        assert!(!WorkerFate::Crashed { at_iter: 0 }.is_departed());
    }

    #[test]
    fn restart_is_a_kill_but_not_a_crash() {
        let plan = FaultPlan::none().restart(2, 5, 40_000);
        let mut script = plan.script(2);
        assert_eq!(script.on_iteration_start(5), IterDirective::Restart(40_000));
        assert!(
            !matches!(script.fate(), WorkerFate::Crashed { .. }),
            "restarts are not permanent"
        );
        let restart = WorkerFault::RestartAt {
            at_iter: 5,
            rejoin_after_us: 1,
        };
        assert!(restart.kills());
        assert_eq!(restart.trigger_iter(), 5);
        assert!(WorkerFault::CrashAt { at_iter: 3 }.kills());
        assert!(!FaultPlan::none().slow(0, 0, 1).faults()[0].1.kills());
    }

    // The one interpreter, as every world executes it.

    #[test]
    fn executor_crashes_at_exact_iteration() {
        let plan = FaultPlan::none().crash(2, 4);
        let mut ex = plan.script(2);
        for i in 0..4 {
            assert_eq!(ex.on_iteration_start(i), IterDirective::Proceed);
        }
        assert_eq!(ex.on_iteration_start(4), IterDirective::Crash);
        assert_eq!(ex.fate(), WorkerFate::Crashed { at_iter: 4 });
    }

    #[test]
    fn executor_ignores_other_workers() {
        let plan = FaultPlan::none().crash(2, 0);
        let mut ex = plan.script(1);
        assert_eq!(ex.on_iteration_start(0), IterDirective::Proceed);
        assert_eq!(ex.fate(), WorkerFate::Healthy);
    }

    #[test]
    fn executor_hangs_then_proceeds() {
        let plan = FaultPlan::none().hang(0, 3, 250);
        let mut ex = plan.script(0);
        assert_eq!(ex.on_iteration_start(2), IterDirective::Proceed);
        assert_eq!(ex.on_iteration_start(3), IterDirective::HangFor(250));
        assert_eq!(ex.on_iteration_start(4), IterDirective::Proceed);
        assert_eq!(ex.fate(), WorkerFate::Hung { at_iter: 3 });
    }

    #[test]
    fn executor_accumulates_slowdowns() {
        let plan = FaultPlan::none().slow(0, 2, 100).slow(0, 5, 50);
        let mut ex = plan.script(0);
        assert_eq!(ex.slowdown_us(1), 0);
        assert_eq!(ex.slowdown_us(2), 100);
        assert_eq!(ex.slowdown_us(7), 150);
        ex.on_iteration_start(3);
        assert_eq!(ex.fate(), WorkerFate::Slowed { from_iter: 2 });
    }

    #[test]
    fn executor_ramps_gray_degradation() {
        let plan = FaultPlan::none().gray(0, 3, 200, 700);
        let mut ex = plan.script(0);
        assert_eq!(ex.slowdown_us(2), 0);
        assert_eq!(ex.slowdown_us(3), 200);
        assert_eq!(ex.slowdown_us(4), 400);
        assert_eq!(ex.slowdown_us(6), 700);
        assert_eq!(ex.slowdown_us(1_000), 700, "capped");
        assert_eq!(ex.on_iteration_start(3), IterDirective::Proceed);
        assert_eq!(ex.fate(), WorkerFate::Slowed { from_iter: 3 });
    }

    #[test]
    fn crash_outranks_hang_at_same_iteration() {
        let plan = FaultPlan::none().hang(0, 1, 10).crash(0, 1);
        let mut ex = plan.script(0);
        assert_eq!(ex.on_iteration_start(1), IterDirective::Crash);
        assert!(ex.fate().is_dead());
    }

    #[test]
    fn executor_restart_fires_once_and_rejoins() {
        let plan = FaultPlan::none().restart(0, 2, 1_000);
        let mut ex = plan.script(0);
        assert_eq!(ex.on_iteration_start(1), IterDirective::Proceed);
        assert_eq!(ex.on_iteration_start(2), IterDirective::Restart(1_000));
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
    fn the_earliest_kill_fires_and_a_hang_outranks_a_slowdown() {
        // Two crashes: the first one reached kills, whatever the plan order.
        let mut two = FaultPlan::none().crash(0, 9).crash(0, 4).script(0);
        assert_eq!(two.on_iteration_start(4), IterDirective::Crash);
        // A crash and a restart due together: the crash is final.
        let mut both = FaultPlan::none().restart(0, 3, 50).crash(0, 3).script(0);
        assert_eq!(both.on_iteration_start(3), IterDirective::Crash);
        assert_eq!(both.fate(), WorkerFate::Crashed { at_iter: 3 });
        // A restart and a later crash: the worker comes back, then dies for
        // good, and the crash is its fate.
        let mut again = FaultPlan::none().restart(0, 2, 50).crash(0, 5).script(0);
        assert_eq!(again.on_iteration_start(2), IterDirective::Restart(50));
        again.mark_rejoined();
        assert_eq!(again.on_iteration_start(2), IterDirective::Proceed);
        assert_eq!(again.on_iteration_start(5), IterDirective::Crash);
        assert_eq!(again.fate(), WorkerFate::Crashed { at_iter: 5 });
        // Hangs due together freeze for their sum, and a hang is reported
        // over a slowdown that began earlier.
        let mut ex = FaultPlan::none()
            .slow(0, 1, 10)
            .hang(0, 5, 100)
            .hang(0, 5, 20)
            .script(0);
        assert_eq!(ex.on_iteration_start(2), IterDirective::Proceed);
        assert_eq!(ex.fate(), WorkerFate::Slowed { from_iter: 1 });
        assert_eq!(ex.on_iteration_start(5), IterDirective::HangFor(120));
        assert_eq!(ex.fate(), WorkerFate::Hung { at_iter: 5 });
    }

    #[test]
    fn stalled_probe_tolerates_degenerate_inputs() {
        // Out-of-range probed indices count as dead, never panic.
        assert!(probe_round_stalled(&[7], &[false, false]));
        assert!(!probe_round_stalled(&[7, 0], &[true, false]));
        // Empty live view: anything probed is stalled.
        assert!(probe_round_stalled(&[0], &[]));
        // Single live member.
        assert!(!probe_round_stalled(&[0], &[true]));
    }

    #[test]
    fn tolerance_default_matches_constants() {
        let t = ToleranceConfig::default();
        assert_eq!(t.liveness_timeout_us, LIVENESS_TIMEOUT_US);
        assert_eq!(t.probe_backoff_us, PROBE_BACKOFF_US);
        assert_eq!(t.probe_backoff_cap_us, PROBE_BACKOFF_CAP_US);
        assert_eq!(t.round_deadline_us, ROUND_DEADLINE_US);
        let tight = ToleranceConfig::tight();
        assert!(tight.liveness_timeout_us < t.liveness_timeout_us);
        assert!(tight.round_deadline_us < t.round_deadline_us);
        t.validate().unwrap();
        tight.validate().unwrap();
    }

    #[test]
    fn tolerance_validation_rejects_zero_windows() {
        assert_eq!(
            ToleranceConfig::new(0, 1, 1, 1),
            Err(ConfigError::ZeroLivenessWindow)
        );
        assert_eq!(
            ToleranceConfig::new(1, 1, 1, 0),
            Err(ConfigError::ZeroDeadlineWindow)
        );
        assert_eq!(
            ToleranceConfig::new(1, 0, 1, 1),
            Err(ConfigError::ZeroProbeBackoff)
        );
        assert_eq!(
            ToleranceConfig::new(1, 500, 499, 1),
            Err(ConfigError::BackoffCapBelowBase {
                base_us: 500,
                cap_us: 499
            })
        );
        assert!(ToleranceConfig::new(1, 500, 500, 1).is_ok());
        // Errors render as readable messages, not Debug soup.
        let msg = ConfigError::BackoffCapBelowBase {
            base_us: 500,
            cap_us: 499,
        }
        .to_string();
        assert!(msg.contains("below the base"), "{msg}");
    }

    #[test]
    fn control_plane_faults_accumulate_and_sort() {
        let plan = FaultPlan::none().crash_controller(9).crash_controller(3);
        assert_eq!(plan.controller_crashes(), &[3, 9]);
        assert_eq!(plan.controller_crash(0), Some(3));
        assert_eq!(plan.controller_crash(1), Some(9));
        assert_eq!(plan.controller_crash(2), None);
        assert!(!plan.is_empty());
        // Control-plane targets are not workers: cluster-size validation
        // keys off worker faults only.
        assert_eq!(plan.max_worker(), None);
    }

    #[test]
    fn net_plan_builders_and_validation() {
        let plan = NetFaultPlan::none()
            .with_seed(3)
            .drop_link(4, 0, 0.25)
            .flap(1, 2, 100, 200)
            .partition(vec![2, 3], 0, 1_000);
        assert!(!plan.is_empty());
        assert_eq!(plan.seed(), 3);
        plan.validate(4); // controller 4, PS 5 are legal drop endpoints
        assert!(NetFaultPlan::none().is_empty());
    }

    #[test]
    fn net_plan_compiles_with_controller_bridge() {
        let at = |us: u64| rna_simnet::SimTime::ZERO + SimDuration::from_micros(us);
        let f = NetFaultPlan::none()
            .partition(vec![2, 3], 10, 20)
            .compile(4);
        assert!(!f.link_up(2, 0, at(15)), "island↔outside severed");
        assert!(f.link_up(2, 4, at(15)), "controller bridges the cut");
        assert!(f.link_up(2, 3, at(15)));
        assert!(!f.link_up(3, 5, at(15)), "PS is on the majority side");
        assert!(f.link_up(2, 0, at(25)), "heals after the window");
    }

    #[test]
    fn net_plan_splits_at_the_controller_link() {
        // Controller 4: per kind, one entry touching it, one that does not;
        // the partition is virtual. The whole plan is the two halves joined
        // kind by kind, and splitting it must give the halves back, seeds
        // included.
        let physical = NetFaultPlan::none()
            .with_seed(9)
            .drop_link(4, 0, 0.25)
            .flap(1, 4, 100, 200)
            .delay_link(4, 3, 50)
            .corrupt_link(0, 4, 0.1);
        let virt = NetFaultPlan::none()
            .with_seed(9)
            .drop_link(0, 1, 0.5)
            .flap(1, 2, 300, 400)
            .delay_link(2, 3, 60)
            .corrupt_link(3, 1, 0.2)
            .partition(vec![2, 3], 0, 1_000);
        let plan = NetFaultPlan {
            seed: 9,
            drops: [physical.drops.clone(), virt.drops.clone()].concat(),
            flaps: [physical.flaps.clone(), virt.flaps.clone()].concat(),
            partitions: virt.partitions.clone(),
            delays: [physical.delays.clone(), virt.delays.clone()].concat(),
            corrupts: [physical.corrupts.clone(), virt.corrupts.clone()].concat(),
        };
        assert_eq!(plan.split_physical(4), (physical, virt));
    }

    #[test]
    #[should_panic(expected = "partition member 9 out of range")]
    fn net_plan_rejects_out_of_range_partition_member() {
        NetFaultPlan::none().partition(vec![9], 0, 10).validate(4);
    }

    #[test]
    #[should_panic(expected = "drop endpoint out of range")]
    fn net_plan_rejects_out_of_range_drop_endpoint() {
        NetFaultPlan::none().drop_link(0, 6, 0.5).validate(4);
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn net_plan_rejects_bad_probability() {
        let _ = NetFaultPlan::none().drop_link(0, 1, -0.1);
    }

    #[test]
    #[should_panic(expected = "empty flap window")]
    fn net_plan_rejects_empty_flap() {
        let _ = NetFaultPlan::none().flap(0, 1, 50, 50);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Worker-fault builders accept any mix of duplicate workers
            /// and fault kinds without panicking, and the accessors stay
            /// consistent with what was inserted.
            #[test]
            fn fault_plan_builders_total(
                ops in proptest::collection::vec(
                    (0usize..8, 0u64..50, 1u64..10_000, 0u8..5), 0..24)
            ) {
                let mut plan = FaultPlan::none();
                for &(w, iter, us, kind) in &ops {
                    plan = match kind {
                        0 => plan.crash(w, iter),
                        1 => plan.hang(w, iter, us),
                        2 => plan.slow(w, iter, us),
                        3 => plan.gray(w, iter, us, us * 4),
                        _ => plan.restart(w, iter, us),
                    };
                }
                prop_assert_eq!(plan.faults().len(), ops.len());
                prop_assert_eq!(plan.is_empty(), ops.is_empty());
                prop_assert_eq!(
                    plan.max_worker(),
                    ops.iter().map(|&(w, ..)| w).max()
                );
                for w in 0..8 {
                    let count = plan.for_worker(w).count();
                    prop_assert_eq!(
                        count,
                        ops.iter().filter(|&&(ow, ..)| ow == w).count()
                    );
                    // The script never kills a worker the plan does not.
                    let mut script = plan.script(w);
                    for iter in 0..50 {
                        if matches!(
                            script.on_iteration_start(iter),
                            IterDirective::Crash | IterDirective::Restart(_)
                        ) {
                            prop_assert!(plan
                                .for_worker(w)
                                .any(|f| f.kills() && f.trigger_iter() == iter));
                        }
                    }
                }
            }

            /// Net-fault builders accept duplicate links and overlapping
            /// windows; compiled link state is down inside any window that
            /// covers `t` and up outside all of them.
            #[test]
            fn net_plan_overlapping_windows(
                windows in proptest::collection::vec(
                    (0u64..1_000, 1u64..1_000), 1..6),
                t in 0u64..2_500
            ) {
                let mut plan = NetFaultPlan::none();
                for &(from, len) in &windows {
                    plan = plan.flap(0, 1, from, from + len);
                }
                plan.validate(2);
                let f = plan.compile(2);
                let now = rna_simnet::SimTime::ZERO + SimDuration::from_micros(t);
                let covered = windows
                    .iter()
                    .any(|&(from, len)| from <= t && t < from + len);
                prop_assert_eq!(f.link_up(0, 1, now), !covered);
            }

            /// In-range plans always validate; the check is total.
            #[test]
            fn net_plan_validate_accepts_in_range(
                n in 2usize..12,
                links in proptest::collection::vec((0usize..14, 0usize..14, 0f64..1.0), 0..8),
            ) {
                let mut plan = NetFaultPlan::none();
                for &(a, b, p) in &links {
                    plan = plan.drop_link(a.min(n + 1), b.min(n + 1), p);
                }
                plan.validate(n);
            }

            /// `live_majority` is always in `[1, live]`-ish bounds and
            /// monotone.
            #[test]
            fn live_majority_bounds(live in 0usize..1_000) {
                let m = live_majority(live);
                prop_assert!(m >= 1);
                prop_assert!(m <= live.max(1));
                prop_assert!(live_majority(live + 1) >= m);
            }

            /// `probe_round_stalled` never panics, for any index soup.
            #[test]
            fn probe_round_stalled_total(
                probed in proptest::collection::vec(0usize..32, 0..8),
                live_bits in proptest::collection::vec(0u8..2, 0..16),
            ) {
                let live: Vec<bool> = live_bits.iter().map(|&b| b == 1).collect();
                let stalled = probe_round_stalled(&probed, &live);
                if probed.is_empty() {
                    prop_assert!(!stalled);
                }
                if probed.iter().any(|&l| live.get(l) == Some(&true)) {
                    prop_assert!(!stalled);
                }
            }
        }
    }
}
