//! Elastic membership across all THREE execution worlds: mid-run joins,
//! graceful retirements, and evictions driven by a deterministic
//! `ChurnPlan`, plus the DES-only online regroup (EWMA speed estimates
//! feeding the §4 ζ-split, committed as an atomic topology swap).
//!
//! The invariants pinned here are the issue's acceptance bar: a cluster
//! that grows 6 → 8 still reaches the convergence tolerance, a retiree
//! loses zero contributed rounds in every world, churn accounting agrees
//! across the simulator, the threaded runtime and real subprocesses, and
//! a same-seed DES replay of a run that commits a topology swap is
//! bit-identical.

use rna_core::fault::{FaultPlan, WorkerFate};
use rna_core::grouping::partition_groups;
use rna_core::membership::{
    canonical_groups, hetero_ratio, regroup_decision, ChurnPlan, RegroupPolicy, SpeedEstimator,
};
use rna_core::rna::{Election, RnaProtocol};
use rna_core::sim::{Engine, TrainSpec};
use rna_core::{RnaConfig, RunResult};
use rna_runtime::{run_process, run_threaded, ProcessConfig, SyncMode, ThreadedConfig};
use rna_simnet::SimDuration;

/// Generous admission budget — comfortably above every world's liveness
/// lease, so validation accepts the plan everywhere.
const ADMIT_US: u64 = 500_000;

/// `RNA_CHAOS_SEED` varies the soak seeds so CI can sweep several without
/// recompiling (see `ci.sh`); the hard convergence pin keeps its fixed
/// seed.
fn churn_seed() -> u64 {
    std::env::var("RNA_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(13)
}

// ---------------------------------------------------------------------
// DES: churn soak, determinism, grow-to-convergence.
// ---------------------------------------------------------------------

fn des_churn_run(seed: u64) -> RunResult {
    // Capacity 8: six launch members, workers 6 and 7 join mid-run,
    // worker 1 retires gracefully, worker 2 is evicted.
    let plan = ChurnPlan::none()
        .join(6, 10, ADMIT_US)
        .join(7, 14, ADMIT_US)
        .retire(1, 25)
        .evict(2, 20);
    let spec = TrainSpec::smoke_test(8, churn_seed())
        .with_max_rounds(120)
        .with_churn_plan(plan);
    Engine::new(spec, RnaProtocol::new(8, RnaConfig::default(), seed)).run()
}

#[test]
fn des_churn_soak_accounts_for_every_membership_event() {
    let r = des_churn_run(0);
    assert_eq!(r.global_rounds, 120, "churn must not cost the round budget");
    assert_eq!(r.workers_joined, 2);
    assert_eq!(r.workers_retired, 2, "one retirement + one eviction");
    assert!(r.snapshot_bytes_streamed > 0, "admission streams the model");
    assert_eq!(r.worker_fates[1], WorkerFate::Retired { at_round: 25 });
    assert_eq!(r.worker_fates[2], WorkerFate::Evicted { at_round: 20 });
    // The retiree drained its final contribution — it worked through
    // round 25 and no further; the evictee stopped strictly earlier.
    assert!(r.worker_iterations[1] > 0, "retiree contributed");
    assert!(r.worker_iterations[2] > 0, "evictee contributed before cut");
    assert!(
        r.worker_iterations[1] < r.worker_iterations[0],
        "retiree stops early: {:?}",
        r.worker_iterations
    );
    // Joiners were dormant until admission, then contributed. (No "<"
    // pin against a launch member: the lead bound caps every live worker
    // at frontier + staleness_bound, and a round-10 joiner has plenty of
    // wall time to catch that cap.)
    for w in [6, 7] {
        assert!(r.worker_iterations[w] > 0, "joiner {w} contributed");
        assert!(
            r.worker_iterations[w] <= r.worker_iterations[0],
            "joiner {w} cannot outrun a launch member: {:?}",
            r.worker_iterations
        );
    }
    let pts = r.history.points();
    assert!(
        pts.last().unwrap().loss < pts[0].loss,
        "churn run still converges: {} -> {}",
        pts[0].loss,
        pts.last().unwrap().loss
    );
}

#[test]
fn des_churn_replay_is_bit_identical() {
    let a = des_churn_run(0);
    let b = des_churn_run(0);
    assert_eq!(a.wall_time, b.wall_time);
    assert_eq!(a.comm_bytes, b.comm_bytes);
    assert_eq!(a.worker_iterations, b.worker_iterations);
    assert_eq!(a.workers_joined, b.workers_joined);
    assert_eq!(a.workers_retired, b.workers_retired);
    assert_eq!(a.snapshot_bytes_streamed, b.snapshot_bytes_streamed);
    assert_eq!(a.final_loss(), b.final_loss());
}

#[test]
fn des_joins_leave_pre_churn_streams_untouched() {
    // A plan whose first event lies beyond the horizon must replay the
    // no-churn run bit-for-bit: joiner RNG grants come from a disjoint
    // namespace, so arming them cannot perturb anyone else's streams.
    let base = TrainSpec::smoke_test(4, 29).with_max_rounds(60);
    let armed = base
        .clone()
        .with_churn_plan(ChurnPlan::none().retire(3, 1_000));
    let a = Engine::new(base, RnaProtocol::new(4, RnaConfig::default(), 0)).run();
    let b = Engine::new(armed, RnaProtocol::new(4, RnaConfig::default(), 0)).run();
    assert_eq!(a.wall_time, b.wall_time);
    assert_eq!(a.comm_bytes, b.comm_bytes);
    assert_eq!(a.worker_iterations, b.worker_iterations);
    assert_eq!(a.final_loss(), b.final_loss());
}

#[test]
fn des_cluster_grows_from_six_to_eight_and_converges() {
    // The acceptance scenario: a 6-worker run grows to 8 via the plan and
    // still reaches the pinned convergence tolerance.
    let plan = ChurnPlan::none().join(6, 8, ADMIT_US).join(7, 12, ADMIT_US);
    let spec = TrainSpec::smoke_test(8, 17)
        .with_max_rounds(300)
        .with_churn_plan(plan);
    let r = Engine::new(spec, RnaProtocol::new(8, RnaConfig::default(), 0)).run();
    assert_eq!(r.workers_joined, 2);
    assert!(r.worker_iterations[6] > 0 && r.worker_iterations[7] > 0);
    let final_loss = r.final_loss().unwrap();
    assert!(final_loss < 0.75, "grown cluster converges: {final_loss}");
}

// ---------------------------------------------------------------------
// DES hierarchy: online regroup under a persistent gray straggler.
// ---------------------------------------------------------------------

fn hier_gray_run() -> RunResult {
    // Eight workers launched as one homogeneous group; worker 3 silently
    // degrades from iteration 5 on (ramping to +20 ms per iteration, a 5×
    // slowdown on the 5 ms smoke profile). The launch-time split saw a
    // healthy cluster, so only the *online* estimator can separate it.
    let spec = TrainSpec::smoke_test(8, churn_seed() ^ 0xE1A5)
        .with_max_rounds(200)
        .with_fault_plan(FaultPlan::none().gray(3, 5, 2_000, 20_000));
    let p = RnaProtocol::grouped(vec![(0..8).collect()], RnaConfig::default())
        .with_regroup_policy(RegroupPolicy::default());
    Engine::new(spec, p).run()
}

#[test]
fn online_regroup_fires_under_gray_degradation() {
    let r = hier_gray_run();
    assert_eq!(r.global_rounds, 200, "a regroup must not eat the budget");
    assert!(
        r.regroup_events >= 1,
        "persistent straggler must trigger a topology swap: {:?}",
        r.regroup_events
    );
    assert!(r.ps_keys_rebalanced > 0, "a committed swap rehomes PS keys");
    assert_eq!(r.worker_fates[3], WorkerFate::Slowed { from_iter: 5 });
    let pts = r.history.points();
    assert!(
        pts.last().unwrap().loss < pts[0].loss,
        "regrouped run still converges: {} -> {}",
        pts[0].loss,
        pts.last().unwrap().loss
    );
}

#[test]
fn online_regroup_replay_is_bit_identical() {
    // The swap commits at a quiesce point chosen purely from simulated
    // state, so a same-seed replay must reproduce it exactly.
    let a = hier_gray_run();
    let b = hier_gray_run();
    assert_eq!(a.regroup_events, b.regroup_events);
    assert_eq!(a.ps_keys_rebalanced, b.ps_keys_rebalanced);
    assert_eq!(a.wall_time, b.wall_time);
    assert_eq!(a.comm_bytes, b.comm_bytes);
    assert_eq!(a.worker_iterations, b.worker_iterations);
    assert_eq!(a.final_loss(), b.final_loss());
}

#[test]
fn regroup_decision_pins_to_the_offline_zeta_split() {
    // The online path must propose exactly what the §4 recursion computes
    // offline on the same estimates — the estimator feeding ζ changes
    // *when* a split happens, never *what* the split is.
    let mut est = SpeedEstimator::new(6, 0.3);
    for _ in 0..6 {
        for w in 0..6 {
            let ms = if w >= 4 { 25 } else { 5 };
            est.observe(w, SimDuration::from_millis(ms));
        }
    }
    let members: Vec<usize> = (0..6).collect();
    let times = est.estimates(&members).expect("all members sampled");
    assert!(
        hetero_ratio(&times) > RegroupPolicy::default().drift_threshold,
        "the scenario is heterogeneous enough to matter"
    );
    let current = vec![members.clone()];
    let proposal = regroup_decision(&current, &members, &times).expect("a split must be proposed");
    assert_eq!(proposal, canonical_groups(&partition_groups(&times)));
    // And the ζ-split actually separates the slow pair.
    assert!(proposal.len() >= 2, "slow workers split out: {proposal:?}");
    // A cluster already on the right split proposes nothing.
    assert_eq!(regroup_decision(&proposal, &members, &times), None);
}

// ---------------------------------------------------------------------
// All three worlds on the same plan.
// ---------------------------------------------------------------------

#[test]
fn all_three_worlds_agree_on_the_same_churn_plan() {
    // Worker 4 joins at round 8, worker 1 retires after round 20 — in the
    // simulator, in OS threads, and in real subprocesses over TCP, under
    // RNA's probe election and under eager-SGD's majority trigger.
    for (election, mode) in [
        (Election::Probe, SyncMode::Rna),
        (Election::Majority, SyncMode::EagerMajority),
    ] {
        three_worlds_agree_on_a_churn_plan(election, mode);
    }
}

fn three_worlds_agree_on_a_churn_plan(election: Election, mode: SyncMode) {
    let n = 5;
    let plan = ChurnPlan::none().join(4, 8, ADMIT_US).retire(1, 20);

    // World one: discrete-event simulation, same 30-round budget as the
    // runtimes' quick config.
    let spec = TrainSpec::smoke_test(n, 7)
        .with_max_rounds(30)
        .with_churn_plan(plan.clone());
    let protocol = RnaProtocol::new(n, RnaConfig::default(), 0).with_election(election);
    let s = Engine::new(spec, protocol).run();
    assert_eq!(s.global_rounds, 30);
    assert_eq!(s.workers_joined, 1);
    assert_eq!(s.workers_retired, 1);
    assert_eq!(s.worker_fates[1], WorkerFate::Retired { at_round: 20 });
    assert!(s.snapshot_bytes_streamed > 0);
    assert!(s.worker_iterations[4] > 0, "simulated joiner contributed");

    // World two: OS threads in one process.
    let t = run_threaded(&ThreadedConfig::quick(n, mode).with_churn_plan(plan.clone()));
    assert_eq!(t.rounds, 30, "retirement drains; no round is lost");
    assert_eq!(t.workers_joined, 1);
    assert_eq!(t.workers_retired, 1);
    assert!(matches!(t.worker_fates[1], WorkerFate::Retired { .. }));
    assert!(t.snapshot_bytes_streamed > 0);
    assert!(t.worker_iterations[1] > 0, "threaded retiree contributed");
    assert!(t.worker_iterations[4] > 0, "threaded joiner contributed");
    assert!(t.final_loss < 1.4, "threaded loss {}", t.final_loss);

    // World three: subprocesses over TCP — admission is a real handshake
    // against the coordinator's accept loop.
    let mut config = ProcessConfig::quick(n, mode);
    config.base = config.base.with_churn_plan(plan);
    let p = run_process(&config);
    assert_eq!(p.run.rounds, 30, "retirement drains; no round is lost");
    assert_eq!(p.run.workers_joined, 1);
    assert_eq!(p.run.workers_retired, 1);
    assert!(matches!(p.run.worker_fates[1], WorkerFate::Retired { .. }));
    assert!(p.run.snapshot_bytes_streamed > 0);
    assert!(
        p.run.worker_iterations[1] > 0,
        "process retiree contributed"
    );
    assert!(p.run.worker_iterations[4] > 0, "process joiner contributed");
    assert!(p.run.final_loss < 1.4, "process loss {}", p.run.final_loss);
    assert_eq!(p.worker_respawns, 0, "planned departures are not respawned");

    // Cross-world accounting: the same plan produces the same membership
    // ledger everywhere it is comparable.
    assert_eq!(s.workers_joined, t.workers_joined);
    assert_eq!(t.workers_joined, p.run.workers_joined);
    assert_eq!(s.workers_retired, t.workers_retired);
    assert_eq!(t.workers_retired, p.run.workers_retired);
    // The threaded and process worlds run the identical model, so the
    // admission snapshot is byte-for-byte the same size.
    assert_eq!(t.snapshot_bytes_streamed, p.run.snapshot_bytes_streamed);
}

#[test]
#[should_panic(expected = "invalid churn plan")]
fn runtime_rejects_admission_deadline_below_the_lease() {
    // Satellite guard: the typed ConfigError surfaces at the runtime
    // boundary before any thread is spawned.
    let config = ThreadedConfig::quick(3, SyncMode::Rna);
    let lease = config.tolerance.liveness_timeout_us;
    let bad = config.with_churn_plan(ChurnPlan::none().join(2, 5, lease - 1));
    let _ = run_threaded(&bad);
}
