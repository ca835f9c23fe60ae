//! Elastic membership: deterministic churn plans and online regrouping.
//!
//! The paper fixes the worker set at launch; real heterogeneous fleets
//! churn — spot instances vanish, new nodes arrive, and a fast worker can
//! degrade into a persistent straggler until the launch-time ζ-split
//! grouping (§4, [`crate::grouping`]) is wrong. This module supplies the
//! three pieces all execution worlds share:
//!
//! * [`ChurnPlan`] — a seedable-free, deterministic membership script
//!   (join / retire / evict at global rounds), so the same plan fed to
//!   the simulator, the threaded runtime, and the process runtime admits
//!   and removes the same identities at the same rounds, and same-seed DES
//!   replays stay bit-identical. Every world reads it through one
//!   function, [`ChurnEvent::edge`] — the round an event takes effect and
//!   what it does — by way of [`ChurnPlan::edges`] and
//!   [`ChurnPlan::tenure`].
//! * [`SpeedEstimator`] — per-worker EWMA of observed per-iteration times,
//!   fed from virtual-time deltas in the DES and heartbeat/iteration
//!   timings in the real runtimes.
//! * [`RegroupPolicy`] / [`regroup_decision`] — when measured
//!   heterogeneity drifts, re-run the paper's ζ-split on the *live*
//!   estimates and propose a new grouping; the hierarchical protocol
//!   swaps topologies atomically at a quiesce point.
//!
//! ## Membership semantics (identical in every world)
//!
//! All plans are expressed against a fixed *capacity* `n`: the maximum
//! number of worker identities the run will ever hold. Joiners exist from
//! construction but are **dormant** — they compute nothing, join no
//! election, and count in no majority — until their join round. Vectors
//! never shrink; retirement and eviction deactivate an identity in place.
//! This is what makes bit-identical replay trivial and keeps churn-free
//! runs byte-identical to their pre-elastic behaviour.
//!
//! * **Join at round `r`** — the worker is dormant for rounds `< r` and
//!   active from round `r` on. Admission streams it the current model
//!   snapshot (counted in `snapshot_bytes_streamed`) and grants it RNG
//!   streams from a disjoint namespace, so the data streams of incumbent
//!   workers are untouched.
//! * **Retire at round `r`** — graceful: the worker is active *through*
//!   round `r`, its final contribution is drained and reduced, and it is
//!   removed when round `r` completes. Zero contributed rounds are lost.
//! * **Evict at round `r`** — immediate: the worker is active only for
//!   rounds `< r`; whatever it computed toward round `r` is dropped, the
//!   same way a crash drops a cached gradient.

use std::ops::RangeBounds;

use rna_simnet::SimDuration;

use crate::fault::{ConfigError, WorkerFate};
use crate::grouping::partition_groups;

/// The RNG stream grant of joiner `w`, the same in every world: it forks
/// its sampler from the grant and its compute stream from the grant + 1.
/// The namespace (`5 << 32`) is disjoint from every member stream, so
/// incumbents replay their sequences without knowing who joined.
pub fn join_grant(w: usize) -> u64 {
    (5 << 32) + 2 * w as u64
}

/// One membership event against one worker identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// The worker becomes active at global round `at_round` (dormant
    /// before).
    Join {
        /// First global round the worker participates in.
        at_round: u64,
    },
    /// Graceful leave: the worker contributes through round `at_round`
    /// (its in-flight gradient is drained, not dropped) and is removed
    /// when that round completes.
    Retire {
        /// Last global round the worker contributes to.
        at_round: u64,
    },
    /// Forced leave: the worker is removed as round `at_round` begins;
    /// anything it computed toward that round is discarded.
    Evict {
        /// First global round the worker is excluded from.
        at_round: u64,
    },
}

impl ChurnEvent {
    /// The global round the event names.
    pub fn at_round(&self) -> u64 {
        match *self {
            ChurnEvent::Join { at_round, .. } => at_round,
            ChurnEvent::Retire { at_round } => at_round,
            ChurnEvent::Evict { at_round } => at_round,
        }
    }

    /// The one reading of a churn event: the first global round whose
    /// membership it changes, and how. A join at `r` admits the worker for
    /// round `r`; a retirement at `r` drains it through `r`, so it is gone
    /// from round `r + 1`; an eviction at `r` removes it from round `r`.
    pub fn edge(&self) -> (u64, Edge) {
        match *self {
            ChurnEvent::Join { at_round, .. } => (at_round, Edge::Join),
            ChurnEvent::Retire { at_round } => (
                at_round.saturating_add(1),
                Edge::Leave(WorkerFate::Retired { at_round }),
            ),
            ChurnEvent::Evict { at_round } => {
                (at_round, Edge::Leave(WorkerFate::Evicted { at_round }))
            }
        }
    }
}

/// What a churn event does to its worker's membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// The worker becomes a member, streamed the current model.
    Join,
    /// The worker stops being a member and leaves with this fate.
    Leave(WorkerFate),
}

/// One worker's membership window under a [`ChurnPlan`]: a member from
/// round `join` (0 when it is there at launch) until its `leave` event
/// takes effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tenure {
    /// The round it is admitted for, if it joins mid-run.
    pub join: Option<u64>,
    /// The retirement or eviction that ends its membership, if any; its
    /// [`ChurnEvent::edge`] is the first round it is no longer a member of
    /// and the fate it leaves with.
    pub leave: Option<ChurnEvent>,
}

impl Tenure {
    /// Whether the worker is a member for global round `round`.
    pub fn active_at(&self, round: u64) -> bool {
        self.join.is_none_or(|r| round >= r) && self.leave.is_none_or(|e| round < e.edge().0)
    }
}

/// A deterministic membership script: which identity joins or leaves at
/// which global round.
///
/// Plans are plain data — no randomness — so the same plan fed to all
/// three execution worlds produces the same admissions and removals at
/// the same rounds, which is what the cross-world churn tests pin.
///
/// # Examples
///
/// ```
/// use rna_core::membership::ChurnPlan;
///
/// // Capacity 8: workers 0..6 start active, 6 and 7 join mid-run,
/// // worker 1 retires gracefully after round 20.
/// let plan = ChurnPlan::none().join(6, 10).join(7, 14).retire(1, 20);
/// plan.validate(8).unwrap();
/// assert!(!plan.active_at(6, 9));
/// assert!(plan.active_at(6, 10));
/// assert!(plan.active_at(1, 20)); // retiree drains through its round
/// assert!(!plan.active_at(1, 21));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnPlan {
    events: Vec<(usize, ChurnEvent)>,
}

impl ChurnPlan {
    /// The empty plan: the launch membership runs unchanged.
    pub fn none() -> Self {
        ChurnPlan::default()
    }

    /// Adds a join: `worker` is dormant until global round `at_round`,
    /// then admitted.
    pub fn join(mut self, worker: usize, at_round: u64) -> Self {
        self.events.push((worker, ChurnEvent::Join { at_round }));
        self
    }

    /// Adds a graceful retirement: `worker` contributes through round
    /// `at_round`, then leaves with its final contribution drained.
    pub fn retire(mut self, worker: usize, at_round: u64) -> Self {
        self.events.push((worker, ChurnEvent::Retire { at_round }));
        self
    }

    /// Adds an eviction: `worker` is removed as round `at_round` begins.
    pub fn evict(mut self, worker: usize, at_round: u64) -> Self {
        self.events.push((worker, ChurnEvent::Evict { at_round }));
        self
    }

    /// Whether the plan changes nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The membership edges ([`ChurnEvent::edge`]) whose round falls in
    /// `rounds`, in plan order. Every world reads the plan through this:
    /// the real controller takes the edges one round boundary crosses
    /// (`k + 1..=k + 1`), the simulator everything due by its group's next
    /// round (`..=next`, once each), and a run's end the departures due by
    /// its last round.
    pub fn edges<'a>(
        &'a self,
        rounds: impl RangeBounds<u64> + 'a,
    ) -> impl Iterator<Item = (usize, Edge)> + 'a {
        self.events.iter().filter_map(move |&(w, e)| {
            let (round, edge) = e.edge();
            rounds.contains(&round).then_some((w, edge))
        })
    }

    /// `worker`'s membership window: its first join edge and first leave
    /// edge (a validated plan has at most one of each).
    pub fn tenure(&self, worker: usize) -> Tenure {
        let mut tenure = Tenure {
            join: None,
            leave: None,
        };
        for &(_, e) in self.events.iter().filter(|&&(w, _)| w == worker) {
            match e.edge() {
                (round, Edge::Join) => tenure.join = tenure.join.or(Some(round)),
                (_, Edge::Leave(_)) => tenure.leave = tenure.leave.or(Some(e)),
            }
        }
        tenure
    }

    /// Whether `worker` is an active member for global round `round`: a
    /// retiree is active *through* its retire round, an evictee only
    /// strictly before its evict round.
    pub fn active_at(&self, worker: usize, round: u64) -> bool {
        self.tenure(worker).active_at(round)
    }

    /// The largest worker index the plan touches, if any.
    pub fn max_worker(&self) -> Option<usize> {
        self.events.iter().map(|(w, _)| *w).max()
    }

    /// Checks the plan against a cluster of `capacity` identities, returning
    /// the first structural problem as a typed [`ConfigError`] instead of
    /// wedging mid-run.
    ///
    /// Rejected shapes: an event naming a worker `>= capacity`; duplicate
    /// events of the same kind for one worker; both a retirement and an
    /// eviction for one worker; a join at round 0 (launch members need no
    /// join event); a leave scheduled at or before the same worker's
    /// join (the identity would never participate); an eviction at round
    /// 0; and a plan that leaves no active worker at some event round.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ChurnPlanMalformed`] per the shapes above.
    pub fn validate(&self, capacity: usize) -> Result<(), ConfigError> {
        let malformed = |worker, why| Err(ConfigError::ChurnPlanMalformed { worker, why });
        for &(w, e) in &self.events {
            if w >= capacity {
                return malformed(w, "event names a worker beyond cluster capacity");
            }
            let dup = self
                .events
                .iter()
                .filter(|(ow, oe)| {
                    *ow == w && std::mem::discriminant(oe) == std::mem::discriminant(&e)
                })
                .count();
            if dup > 1 {
                return malformed(w, "duplicate events of the same kind for one worker");
            }
            let leaves = self
                .events
                .iter()
                .filter(|&&(ow, oe)| ow == w && matches!(oe.edge(), (_, Edge::Leave(_))))
                .count();
            if leaves > 1 {
                return malformed(w, "both a retirement and an eviction for one worker");
            }
            if let Tenure {
                join: Some(join),
                leave: Some(leave),
            } = self.tenure(w)
            {
                if leave.edge().0 <= join {
                    return malformed(w, "leaves at or before its join round");
                }
            }
            match e {
                ChurnEvent::Join { at_round: 0 } => {
                    return malformed(w, "join at round 0; launch members need no join event");
                }
                ChurnEvent::Evict { at_round: 0 } => {
                    return malformed(w, "evicted at round 0; the identity never participates");
                }
                _ => {}
            }
        }
        // The cluster must never drain completely: check every round at
        // which membership changes.
        for &(_, e) in &self.events {
            let r = e.at_round();
            for round in [r, r.saturating_add(1)] {
                if (0..capacity).all(|w| !self.active_at(w, round)) {
                    return malformed(
                        usize::MAX,
                        "plan leaves no active worker at some event round",
                    );
                }
            }
        }
        Ok(())
    }
}

/// Per-worker EWMA of observed per-iteration times, the live counterpart
/// of the launch-time probe the paper's §4 grouping keys off.
///
/// Fed virtual-time deltas in the DES and heartbeat/iteration timings in
/// the real runtimes; read by [`regroup_decision`] when the
/// [`RegroupPolicy`] says heterogeneity may have drifted.
#[derive(Debug, Clone)]
pub struct SpeedEstimator {
    alpha: f64,
    ewma_ns: Vec<f64>,
    samples: Vec<u64>,
}

impl SpeedEstimator {
    /// An estimator over `capacity` worker identities with smoothing
    /// factor `alpha` (weight of the newest sample).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in `(0, 1]`.
    pub fn new(capacity: usize, alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA alpha {alpha} not in (0, 1]"
        );
        SpeedEstimator {
            alpha,
            ewma_ns: vec![0.0; capacity],
            samples: vec![0; capacity],
        }
    }

    /// Records one observed iteration duration for `worker`.
    pub fn observe(&mut self, worker: usize, took: SimDuration) {
        let ns = took.as_nanos() as f64;
        if self.samples[worker] == 0 {
            self.ewma_ns[worker] = ns;
        } else {
            self.ewma_ns[worker] += self.alpha * (ns - self.ewma_ns[worker]);
        }
        self.samples[worker] += 1;
    }

    /// How many samples `worker` has contributed.
    pub fn samples(&self, worker: usize) -> u64 {
        self.samples[worker]
    }

    /// The current estimate for `worker`, if it has any samples.
    pub fn estimate(&self, worker: usize) -> Option<SimDuration> {
        if self.samples[worker] == 0 {
            None
        } else {
            Some(SimDuration::from_nanos(self.ewma_ns[worker].max(1.0) as u64))
        }
    }

    /// The estimates for an explicit member list, or `None` if any member
    /// has no samples yet (a regroup must not run on guesses).
    pub fn estimates(&self, members: &[usize]) -> Option<Vec<SimDuration>> {
        members.iter().map(|&w| self.estimate(w)).collect()
    }

    /// The smallest sample count across `members` (0 for an empty list).
    pub fn min_samples(&self, members: &[usize]) -> u64 {
        members.iter().map(|&w| self.samples[w]).min().unwrap_or(0)
    }

    /// Discards `worker`'s history (e.g. after an eviction, so a reused
    /// identity does not inherit stale speed).
    pub fn forget(&mut self, worker: usize) {
        self.ewma_ns[worker] = 0.0;
        self.samples[worker] = 0;
    }
}

/// When the hierarchical protocol checks for — and commits — an online
/// regroup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegroupPolicy {
    /// Check cadence: consider a regroup every this many global rounds.
    pub check_every_rounds: u64,
    /// Minimum rounds between committed topology swaps (a swap is
    /// disruptive: the PS rebalances keys and caches reset).
    pub cooldown_rounds: u64,
    /// Minimum EWMA samples every active worker must have before its
    /// estimate is trusted.
    pub min_samples: u64,
    /// EWMA smoothing factor handed to [`SpeedEstimator::new`].
    pub alpha: f64,
    /// How far the measured heterogeneity ratio ζ/v must drift from its
    /// value at the last committed grouping before a re-split is even
    /// attempted. 0.0 re-evaluates on every check.
    pub drift_threshold: f64,
}

impl Default for RegroupPolicy {
    fn default() -> Self {
        RegroupPolicy {
            check_every_rounds: 8,
            cooldown_rounds: 16,
            min_samples: 3,
            alpha: 0.3,
            drift_threshold: 0.25,
        }
    }
}

impl RegroupPolicy {
    /// Checks the policy's invariants with a typed error, mirroring
    /// [`ToleranceConfig::validate`](crate::fault::ToleranceConfig::validate).
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroRegroupCadence`] when `check_every_rounds` is 0
    /// (the check would never fire) or `alpha` leaves `(0, 1]`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.check_every_rounds == 0 || !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(ConfigError::ZeroRegroupCadence);
        }
        Ok(())
    }

    /// Whether round `round` is a check point under the cadence and the
    /// cooldown since `last_swap_round`.
    pub fn due(&self, round: u64, last_swap_round: u64) -> bool {
        round > 0
            && round.is_multiple_of(self.check_every_rounds)
            && round.saturating_sub(last_swap_round) >= self.cooldown_rounds
    }
}

/// The measured heterogeneity ratio ζ/v: the fastest-to-slowest gap over
/// the mean per-iteration time. The paper splits while ζ > v, i.e. while
/// this ratio exceeds 1. Returns 0.0 for fewer than two workers or a
/// zero mean.
pub fn hetero_ratio(times: &[SimDuration]) -> f64 {
    if times.len() < 2 {
        return 0.0;
    }
    let min = times.iter().min().copied().unwrap().as_nanos();
    let max = times.iter().max().copied().unwrap().as_nanos();
    let mean = times.iter().map(SimDuration::as_nanos).sum::<u64>() / times.len() as u64;
    if mean == 0 {
        return 0.0;
    }
    (max - min) as f64 / mean as f64
}

/// Canonicalizes a grouping: members sorted within each group, groups
/// sorted by first member, empty groups dropped. Two groupings are the
/// same partition iff their canonical forms are equal.
pub fn canonical_groups(groups: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| {
            let mut m = g.clone();
            m.sort_unstable();
            m
        })
        .collect();
    out.sort_by_key(|g| g[0]);
    out
}

/// Re-runs the paper's ζ-split ([`partition_groups`]) on live speed
/// estimates and proposes a new grouping when it differs from the
/// current one.
///
/// `members[i]`'s estimated per-iteration time is `times[i]`; both are
/// indexed by *position*, and member ids are global worker ids. Returns
/// the proposed grouping in canonical form ([`canonical_groups`]) only
/// when it is a genuinely different partition of the same member set —
/// `None` means "keep the current topology".
///
/// # Panics
///
/// Panics if `members` and `times` disagree in length.
pub fn regroup_decision(
    current: &[Vec<usize>],
    members: &[usize],
    times: &[SimDuration],
) -> Option<Vec<Vec<usize>>> {
    assert_eq!(
        members.len(),
        times.len(),
        "one speed estimate per member required"
    );
    if members.is_empty() {
        return None;
    }
    let split = partition_groups(times);
    let proposed = canonical_groups(
        &split
            .iter()
            .map(|g| g.iter().map(|&local| members[local]).collect())
            .collect::<Vec<Vec<usize>>>(),
    );
    if proposed == canonical_groups(current) {
        None
    } else {
        Some(proposed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(m: u64) -> SimDuration {
        SimDuration::from_millis(m)
    }

    #[test]
    fn plan_builders_accumulate() {
        let plan = ChurnPlan::none().join(6, 10).retire(1, 20).evict(2, 5);
        assert_eq!(
            plan.tenure(6),
            Tenure {
                join: Some(10),
                leave: None
            }
        );
        // A retiree leaves the round after its last; an evictee leaves its
        // own.
        let retired = WorkerFate::Retired { at_round: 20 };
        let leave = |w| plan.tenure(w).leave.map(|e| e.edge());
        assert_eq!(leave(1), Some((21, Edge::Leave(retired))));
        let evicted = WorkerFate::Evicted { at_round: 5 };
        assert_eq!(leave(2), Some((5, Edge::Leave(evicted))));
        assert_eq!(plan.tenure(1).join, None);
        assert_eq!(plan.max_worker(), Some(6));
        // Edges come out in plan order, filtered by round.
        assert_eq!(
            plan.edges(..).collect::<Vec<_>>(),
            [
                (6, Edge::Join),
                (1, Edge::Leave(retired)),
                (2, Edge::Leave(evicted))
            ]
        );
        assert_eq!(
            plan.edges(5..=10).collect::<Vec<_>>(),
            [(6, Edge::Join), (2, Edge::Leave(evicted))]
        );
        assert_eq!(
            plan.edges(21..=21).collect::<Vec<_>>(),
            [(1, Edge::Leave(retired))]
        );
        assert_eq!(plan.edges(..5).count(), 0);
        assert!(!plan.is_empty());
        assert!(ChurnPlan::none().is_empty());
    }

    #[test]
    fn activity_windows() {
        let plan = ChurnPlan::none().join(3, 10).retire(1, 20).evict(2, 5);
        // Launch member with no events: always active.
        assert!(plan.active_at(0, 0));
        assert!(plan.active_at(0, 1_000));
        // Joiner: dormant before its round.
        assert!(!plan.active_at(3, 0));
        assert!(!plan.active_at(3, 9));
        assert!(plan.active_at(3, 10));
        assert!(plan.active_at(3, 99));
        // Retiree: drains through its round inclusive.
        assert!(plan.active_at(1, 20));
        assert!(!plan.active_at(1, 21));
        // Evictee: excluded from its round on.
        assert!(plan.active_at(2, 4));
        assert!(!plan.active_at(2, 5));
        let active_set = |round| {
            (0..4)
                .filter(|&w| plan.active_at(w, round))
                .collect::<Vec<_>>()
        };
        assert_eq!(active_set(0), vec![0, 1, 2]);
        assert_eq!(active_set(10), vec![0, 1, 3]);
        assert_eq!(active_set(30), vec![0, 3]);
    }

    #[test]
    fn join_then_leave_windows() {
        let plan = ChurnPlan::none().join(0, 5).retire(0, 9);
        assert!(!plan.active_at(0, 4));
        assert!(plan.active_at(0, 5));
        assert!(plan.active_at(0, 9));
        assert!(!plan.active_at(0, 10));
        plan.validate(2).unwrap();
    }

    #[test]
    fn validation_rejects_malformed_shapes() {
        let cases: Vec<(ChurnPlan, &str)> = vec![
            (ChurnPlan::none().join(5, 3), "beyond cluster capacity"),
            (ChurnPlan::none().join(1, 3).join(1, 7), "duplicate events"),
            (
                ChurnPlan::none().retire(1, 3).evict(1, 7),
                "both a retirement and an eviction",
            ),
            (ChurnPlan::none().join(1, 0), "join at round 0"),
            (
                ChurnPlan::none().join(1, 8).retire(1, 3),
                "leaves at or before its join round",
            ),
            (ChurnPlan::none().evict(1, 0), "evicted at round 0"),
            (
                ChurnPlan::none().join(1, 8).evict(1, 8),
                "at or before its join round",
            ),
            (
                ChurnPlan::none()
                    .evict(0, 2)
                    .evict(1, 2)
                    .retire(2, 1)
                    .retire(3, 1),
                "no active worker",
            ),
        ];
        for (plan, needle) in cases {
            match plan.validate(4) {
                Err(ConfigError::ChurnPlanMalformed { why, .. }) => {
                    assert!(why.contains(needle), "{why:?} missing {needle:?}");
                }
                other => panic!("expected malformed ({needle}), got {other:?}"),
            }
        }
    }

    #[test]
    fn estimator_converges_and_gates() {
        let mut est = SpeedEstimator::new(3, 0.5);
        assert_eq!(est.estimate(0), None);
        assert_eq!(est.estimates(&[0, 1]), None);
        for _ in 0..20 {
            est.observe(0, ms(100));
            est.observe(1, ms(400));
        }
        let e0 = est.estimate(0).unwrap();
        let e1 = est.estimate(1).unwrap();
        assert_eq!(e0, ms(100));
        assert_eq!(e1, ms(400));
        assert_eq!(est.samples(0), 20);
        assert_eq!(est.min_samples(&[0, 1, 2]), 0);
        assert_eq!(est.min_samples(&[0, 1]), 20);
        assert_eq!(est.estimates(&[0, 1]), Some(vec![e0, e1]));
        // A drifting worker's estimate follows the drift.
        for _ in 0..20 {
            est.observe(0, ms(500));
        }
        assert!(est.estimate(0).unwrap() > ms(490));
        est.forget(0);
        assert_eq!(est.estimate(0), None);
        assert_eq!(est.min_samples(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "not in (0, 1]")]
    fn estimator_rejects_bad_alpha() {
        let _ = SpeedEstimator::new(2, 0.0);
    }

    #[test]
    fn policy_cadence_and_cooldown() {
        let policy = RegroupPolicy {
            check_every_rounds: 4,
            cooldown_rounds: 8,
            ..RegroupPolicy::default()
        };
        policy.validate().unwrap();
        assert!(!policy.due(0, 0)); // round 0 is launch grouping
        assert!(!policy.due(4, 0)); // inside cooldown
        assert!(policy.due(8, 0));
        assert!(!policy.due(9, 0)); // off-cadence
        assert!(!policy.due(12, 8)); // cooldown since last swap
        assert!(policy.due(16, 8));
        assert!(RegroupPolicy {
            check_every_rounds: 0,
            ..RegroupPolicy::default()
        }
        .validate()
        .is_err());
        assert!(RegroupPolicy {
            alpha: 1.5,
            ..RegroupPolicy::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn hetero_ratio_matches_split_criterion() {
        // ζ = 300 ms, v = 250 ms → ratio 1.2 > 1, the paper splits.
        let r = hetero_ratio(&[ms(100), ms(400)]);
        assert!((r - 1.2).abs() < 1e-9, "{r}");
        assert_eq!(hetero_ratio(&[ms(100)]), 0.0);
        assert_eq!(hetero_ratio(&[]), 0.0);
        assert_eq!(hetero_ratio(&[SimDuration::ZERO, SimDuration::ZERO]), 0.0);
    }

    #[test]
    fn regroup_decision_matches_offline_split() {
        // Active members 0,2,3,5 (1 and 4 left): two clear speed tiers.
        let members = [0usize, 2, 3, 5];
        let times = [ms(100), ms(400), ms(100), ms(400)];
        let current = vec![vec![0, 2, 3, 5]]; // launch: one flat group
        let proposed = regroup_decision(&current, &members, &times).unwrap();
        // Pin against the offline split on the same speed vector.
        let offline = partition_groups(&times);
        let mapped: Vec<Vec<usize>> = offline
            .iter()
            .map(|g| g.iter().map(|&l| members[l]).collect())
            .collect();
        assert_eq!(proposed, canonical_groups(&mapped));
        assert_eq!(proposed, vec![vec![0, 3], vec![2, 5]]);
    }

    #[test]
    fn regroup_decision_keeps_equivalent_partition() {
        let members = [0usize, 1, 2, 3];
        let times = [ms(100), ms(400), ms(100), ms(400)];
        // Current grouping already matches the split (listed in a
        // different order — canonicalization must see through that).
        let current = vec![vec![3, 1], vec![2, 0]];
        assert_eq!(regroup_decision(&current, &members, &times), None);
        // Homogeneous speeds with a flat current topology: no change.
        let flat = vec![vec![0, 1, 2, 3]];
        assert_eq!(regroup_decision(&flat, &members, &[ms(100); 4]), None);
        // Empty member set never proposes anything.
        assert_eq!(regroup_decision(&flat, &[], &[]), None);
    }

    #[test]
    fn regroup_decision_coalesces_when_homogeneous() {
        // A previously split cluster whose speeds converged proposes the
        // flat topology again.
        let members = [0usize, 1, 2, 3];
        let current = vec![vec![0, 1], vec![2, 3]];
        let proposed = regroup_decision(&current, &members, &[ms(100); 4]).unwrap();
        assert_eq!(proposed, vec![vec![0, 1, 2, 3]]);
    }
}
