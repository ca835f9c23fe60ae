//! Chaos soak: every fault class at once, in both execution worlds.
//!
//! The scenario from the issue's acceptance bar — eight workers in two
//! hierarchical groups, 20% loss on two controller links, a timed
//! partition isolating the slow group, and one crash-restart worker —
//! must converge with zero deadlocks, report every fault through the
//! run-result counters, and stay bit-identical across same-seed replays.
//! BSP under the same plan is pinned to its expected failure mode: the
//! simulator stalls (event queue drains), the threaded runtime rejects
//! the plan outright.
//!
//! `RNA_CHAOS_SEED` varies the base seed so CI can sweep several seeds
//! without recompiling (see `ci.sh`).

use std::time::Duration;

use rna_baselines::HorovodProtocol;
use rna_core::fault::{FaultPlan, NetFaultPlan, WorkerFate};
use rna_core::rna::RnaProtocol;
use rna_core::sim::{Engine, TrainSpec};
use rna_core::{RnaConfig, StopReason};
use rna_runtime::{run_threaded, SyncMode, ThreadedConfig, ToleranceConfig};
use rna_workload::HeterogeneityModel;

const N: usize = 8;

fn chaos_seed() -> u64 {
    std::env::var("RNA_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(11)
}

/// The simulator-side chaos plan: 20% loss on the controller's links to
/// workers 0 and 1, the slow group (4–7) partitioned from the parameter
/// server for a mid-run window, and worker 2 crash-restarting.
fn sim_chaos_spec(seed: u64) -> TrainSpec {
    TrainSpec::smoke_test(N, seed)
        .with_hetero(HeterogeneityModel::mixed_groups(N, 0, 10, 50, 60))
        .with_max_rounds(200)
        .with_fault_plan(FaultPlan::none().restart(2, 5, 50_000))
        .with_net_fault_plan(
            NetFaultPlan::none()
                .with_seed(seed ^ 0xC0FFEE)
                .drop_link(N, 0, 0.2)
                .drop_link(N, 1, 0.2)
                .partition(vec![4, 5, 6, 7], 100_000, 700_000),
        )
}

fn sim_chaos_run(seed: u64) -> rna_core::RunResult {
    let spec = sim_chaos_spec(seed);
    let p = RnaProtocol::grouped(
        vec![(0..4).collect(), (4..8).collect()],
        RnaConfig::default(),
    );
    Engine::new(spec, p).run()
}

#[test]
fn simulated_chaos_soak_converges_and_accounts_for_every_fault() {
    let r = sim_chaos_run(chaos_seed());
    assert_eq!(r.global_rounds, 200, "the round budget completes");
    assert!(r.messages_dropped > 0, "lossy links must fire");
    assert!(r.probe_retries > 0, "dropped probes must be retried");
    assert!(r.partition_rounds > 0, "the partition must be observed");
    assert_eq!(
        r.worker_fates[2],
        WorkerFate::Restarted {
            at_iter: 5,
            rejoined: true
        }
    );
    assert!(
        r.worker_iterations[2] > 5,
        "restarted worker contributes after rejoin: {:?}",
        r.worker_iterations
    );
    let pts = r.history.points();
    assert!(
        pts.last().unwrap().loss < pts[0].loss,
        "chaos run still converges: {} -> {}",
        pts[0].loss,
        pts.last().unwrap().loss
    );
}

#[test]
fn simulated_chaos_is_bit_identical_across_replays() {
    // Chaos must not cost determinism: per-edge RNG streams are keyed by
    // (seed, edge), so two same-seed runs replay every drop identically.
    let a = sim_chaos_run(chaos_seed());
    let b = sim_chaos_run(chaos_seed());
    assert_eq!(a.wall_time, b.wall_time);
    assert_eq!(a.global_rounds, b.global_rounds);
    assert_eq!(a.comm_bytes, b.comm_bytes);
    assert_eq!(a.messages_dropped, b.messages_dropped);
    assert_eq!(a.probe_retries, b.probe_retries);
    assert_eq!(a.partition_rounds, b.partition_rounds);
    assert_eq!(a.worker_iterations, b.worker_iterations);
    assert_eq!(a.final_loss(), b.final_loss());
}

#[test]
fn bsp_stalls_under_the_same_chaos_plan() {
    // The contrast case: Horovod's barrier cannot ride out a lossy,
    // partitioned fabric. Its event queue drains (a lost gradient is a
    // barrier slot that never fills) far short of the round budget.
    let spec = sim_chaos_spec(chaos_seed()).with_fault_plan(FaultPlan::none());
    let r = Engine::new(spec, HorovodProtocol::new(N)).run();
    assert_eq!(r.stop_reason, StopReason::Idle, "BSP must wedge");
    assert!(
        r.global_rounds < 200,
        "BSP cannot finish the budget: {} rounds",
        r.global_rounds
    );
}

#[test]
fn threaded_chaos_soak_completes_without_deadlock() {
    // Same fault classes on real OS threads, watchdogged: 20% loss on two
    // controller links, workers 4–7 partitioned for a mid-run window, and
    // worker 2 crash-restarting. Every budgeted round completes, the
    // degraded-round count stays bounded, and the rejoiner contributes.
    let seed = chaos_seed();
    let mut config = ThreadedConfig::quick(N, SyncMode::Rna)
        .with_fault_plan(FaultPlan::none().restart(2, 3, 5_000))
        .with_net_fault_plan(
            NetFaultPlan::none()
                .with_seed(seed ^ 0xC0FFEE)
                .drop_link(N, 0, 0.2)
                .drop_link(N, 1, 0.2)
                .partition(vec![4, 5, 6, 7], 20_000, 80_000),
        )
        .with_tolerance(ToleranceConfig::tight());
    config.seed = seed;
    config.rounds = 60;

    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(run_threaded(&config));
    });
    let r = rx
        .recv_timeout(Duration::from_secs(180))
        .expect("threaded chaos run deadlocked past the watchdog");
    handle.join().expect("runner thread panicked");

    assert_eq!(r.rounds, 60, "every budgeted round completes");
    assert!(
        r.rounds_degraded < r.rounds / 2,
        "degraded rounds stay bounded: {} of {}",
        r.rounds_degraded,
        r.rounds
    );
    assert!(r.messages_dropped > 0, "the shim saw the lossy links");
    assert!(r.partition_rounds > 0, "the partition window was observed");
    assert!(
        r.partition_rounds < r.rounds,
        "the partition heals: {} of {} rounds cut",
        r.partition_rounds,
        r.rounds
    );
    assert_eq!(
        r.worker_fates[2],
        WorkerFate::Restarted {
            at_iter: 3,
            rejoined: true
        }
    );
    assert!(
        r.worker_iterations[2] > 3,
        "restarted worker contributes after rejoin: {:?}",
        r.worker_iterations
    );
    assert_eq!(r.live_workers(), N);
    assert!(r.final_loss.is_finite());
}

#[test]
#[should_panic(expected = "BSP cannot survive network faults")]
fn threaded_bsp_rejects_the_chaos_plan() {
    let config = ThreadedConfig::quick(N, SyncMode::Bsp).with_net_fault_plan(
        NetFaultPlan::none()
            .with_seed(chaos_seed())
            .drop_link(N, 0, 0.2),
    );
    run_threaded(&config);
}
