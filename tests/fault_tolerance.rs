//! Fault injection: what happens when a worker *dies* (an extension beyond
//! the paper's slowdowns — the limiting case of a straggler).
//!
//! BSP deadlocks: the barrier waits forever for the dead worker's gradient
//! and training freezes. RNA's randomized probing routes around the corpse:
//! dead members are excluded from election, stalled probe rounds are
//! resampled, and the partial collective simply counts one more null
//! contribution.

use rna_baselines::HorovodProtocol;
use rna_core::fault::FaultPlan;
use rna_core::rna::RnaProtocol;
use rna_core::sim::{Engine, TrainSpec};
use rna_core::{RnaConfig, StopReason, SyncMode};
use rna_simnet::SimDuration;

fn crash_spec(n: usize, seed: u64, victim: usize) -> TrainSpec {
    TrainSpec::smoke_test(n, seed)
        .with_max_rounds(100_000)
        .with_max_time(SimDuration::from_secs(8))
        .with_crash(victim, SimDuration::from_millis(500))
}

#[test]
fn bsp_freezes_when_a_worker_dies() {
    let n = 4;
    let r = Engine::new(crash_spec(n, 1, 3), HorovodProtocol::new(n)).run();
    // The barrier never completes again: the event queue drains (Idle) and
    // round progress stops near the crash instant.
    assert_eq!(r.stop_reason, StopReason::Idle);
    assert!(
        r.wall_time < SimDuration::from_secs(1),
        "BSP should stall at the crash, stalled at {}",
        r.wall_time
    );
    let frozen_rounds = r.global_rounds;
    assert!(frozen_rounds < 100, "rounds {frozen_rounds}");
}

#[test]
fn rna_keeps_training_through_a_crash() {
    let n = 4;
    let r = Engine::new(
        crash_spec(n, 1, 3),
        RnaProtocol::new(n, RnaConfig::default(), 0),
    )
    .run();
    // Training continues well past the crash.
    assert!(
        r.wall_time > SimDuration::from_secs(7),
        "RNA stalled at {}",
        r.wall_time
    );
    assert!(r.global_rounds > 100, "rounds {}", r.global_rounds);
    // The dead worker's iteration count froze; survivors kept going.
    assert!(r.worker_iterations[0] > r.worker_iterations[3] * 2);
    // And the model still improved.
    let pts = r.history.points();
    assert!(pts.last().unwrap().loss < pts[0].loss);
}

#[test]
fn rna_survives_crash_of_a_probed_worker() {
    // Crash several workers in quick succession — with d = 2 probes over a
    // 4-worker cluster, probe rounds will repeatedly land on victims; the
    // resample-on-crash rule must keep the protocol live.
    let n = 4;
    let spec = TrainSpec::smoke_test(n, 9)
        .with_max_rounds(100_000)
        .with_max_time(SimDuration::from_secs(8))
        .with_crash(1, SimDuration::from_millis(200))
        .with_crash(2, SimDuration::from_millis(300))
        .with_crash(3, SimDuration::from_millis(400));
    let r = Engine::new(spec, RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    // A single survivor still trains (RNA degenerates to sequential SGD).
    assert!(
        r.wall_time > SimDuration::from_secs(7),
        "stalled at {}",
        r.wall_time
    );
    assert!(r.worker_iterations[0] > 50);
}

#[test]
fn hierarchical_rna_survives_a_group_member_crash() {
    let n = 6;
    let spec = TrainSpec::smoke_test(n, 5)
        .with_max_rounds(100_000)
        .with_max_time(SimDuration::from_secs(8))
        .with_crash(4, SimDuration::from_millis(500));
    let groups = vec![vec![0, 1, 2], vec![3, 4, 5]];
    let r = Engine::new(spec, RnaProtocol::grouped(groups, RnaConfig::default())).run();
    assert!(
        r.wall_time > SimDuration::from_secs(7),
        "stalled at {}",
        r.wall_time
    );
    // Both the intact group and the degraded group keep iterating.
    assert!(r.worker_iterations[0] > 100);
    assert!(r.worker_iterations[3] > 100);
    assert_eq!(r.worker_iterations[4], r.worker_iterations[4]);
}

#[test]
fn crash_before_start_is_tolerated() {
    // Victim dies at t = 0: it never contributes anything.
    let n = 3;
    let spec = TrainSpec::smoke_test(n, 7)
        .with_max_rounds(150)
        .with_crash(2, SimDuration::ZERO);
    let r = Engine::new(spec, RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    assert!(r.global_rounds > 50, "rounds {}", r.global_rounds);
    assert_eq!(r.worker_iterations[2].min(1), r.worker_iterations[2].min(1));
    let pts = r.history.points();
    assert!(pts.last().unwrap().loss < pts[0].loss);
}

#[test]
fn iteration_indexed_crash_freezes_the_victim_exactly() {
    // The FaultPlan path (shared with the threaded runtime): the victim
    // completes exactly 5 iterations, survivors keep training.
    let n = 4;
    let spec = TrainSpec::smoke_test(n, 11)
        .with_max_rounds(200)
        .with_crash_at_iter(3, 5);
    let r = Engine::new(spec, RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    assert_eq!(r.worker_iterations[3], 5);
    assert!(
        r.worker_iterations[0] > 20,
        "iters {:?}",
        r.worker_iterations
    );
    assert!(r.global_rounds >= 100, "rounds {}", r.global_rounds);
    assert!(r.mean_participation() < 1.0);
}

#[test]
fn eager_majority_survives_majority_death_in_the_simulator() {
    // Before liveness tracking the eager trigger demanded a majority of
    // *all* workers and deadlocked (event queue drains: Idle, frozen
    // rounds) once half the cluster died. The electorate must shrink.
    let n = 4;
    let spec = TrainSpec::smoke_test(n, 13)
        .with_max_rounds(150)
        .with_fault_plan(FaultPlan::none().crash(0, 3).crash(1, 4).crash(2, 4));
    let r = Engine::new(
        spec,
        RnaProtocol::new(n, RnaConfig::default(), 0).with_election(SyncMode::EagerMajority),
    )
    .run();
    assert_eq!(r.global_rounds, 150, "majority must re-form over survivors");
    assert!(
        r.worker_iterations[3] > 10,
        "iters {:?}",
        r.worker_iterations
    );
}

#[test]
fn simulated_hang_recovers_where_crash_does_not() {
    // A hang is the recoverable cousin of a crash: the worker freezes for
    // 200 ms of virtual time, then rejoins and keeps iterating.
    let n = 3;
    let hang = TrainSpec::smoke_test(n, 17)
        .with_max_rounds(100_000)
        .with_max_time(SimDuration::from_secs(2))
        .with_fault_plan(FaultPlan::none().hang(2, 5, 200_000));
    let crash = TrainSpec::smoke_test(n, 17)
        .with_max_rounds(100_000)
        .with_max_time(SimDuration::from_secs(2))
        .with_fault_plan(FaultPlan::none().crash(2, 5));
    let proto = |s| Engine::new(s, RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    let (h, c) = (proto(hang), proto(crash));
    assert_eq!(c.worker_iterations[2], 5, "crashed: frozen forever");
    assert!(
        h.worker_iterations[2] > 5,
        "hung: resumes after the freeze ({} iters)",
        h.worker_iterations[2]
    );
}

#[test]
fn restarted_worker_rejoins_and_keeps_contributing() {
    // Crash-restart: worker 2 dies after 5 iterations and rejoins 50 ms of
    // virtual time later — it must pull the live model, re-enter the
    // election, and finish the run with more iterations than it died with.
    use rna_core::fault::WorkerFate;
    let n = 4;
    let spec = TrainSpec::smoke_test(n, 13)
        .with_max_rounds(200)
        .with_fault_plan(FaultPlan::none().restart(2, 5, 50_000));
    let r = Engine::new(spec, RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    assert_eq!(r.global_rounds, 200);
    assert_eq!(
        r.worker_fates[2],
        WorkerFate::Restarted {
            at_iter: 5,
            rejoined: true
        }
    );
    assert!(
        r.worker_iterations[2] > 5,
        "rejoined worker contributes: {:?}",
        r.worker_iterations
    );
}

#[test]
fn lossy_controller_links_trigger_probe_retries() {
    // Half of all probe traffic to workers 0 and 1 vanishes. The retry
    // timers must re-issue elections (idempotent round ids, exponential
    // backoff) instead of wedging, and the run still completes its budget.
    use rna_core::fault::NetFaultPlan;
    let n = 4;
    let spec = TrainSpec::smoke_test(n, 19)
        .with_max_rounds(150)
        .with_net_fault_plan(
            NetFaultPlan::none()
                .with_seed(7)
                .drop_link(n, 0, 0.5)
                .drop_link(n, 1, 0.5),
        );
    let r = Engine::new(spec, RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    assert_eq!(r.global_rounds, 150, "elections must not wedge");
    assert!(r.messages_dropped > 0, "the fabric must have eaten probes");
    assert!(r.probe_retries > 0, "dropped probes must be retried");
    let pts = r.history.points();
    assert!(pts.last().unwrap().loss < pts[0].loss, "still trains");
}

#[test]
fn partitioned_hier_group_trains_locally_and_reconciles() {
    // A timed partition isolates the slow group (workers 4–7) from the
    // parameter server mid-run. The isolated group keeps training on its
    // local accumulation (partition_rounds counts the skipped exchanges),
    // then reconciles with a staleness-discounted push once the fabric
    // heals — and the run converges.
    use rna_core::fault::NetFaultPlan;
    use rna_workload::HeterogeneityModel;
    let n = 8;
    let spec = TrainSpec::smoke_test(n, 23)
        .with_hetero(HeterogeneityModel::mixed_groups(n, 0, 10, 50, 60))
        .with_max_rounds(150)
        .with_net_fault_plan(NetFaultPlan::none().with_seed(3).partition(
            vec![4, 5, 6, 7],
            100_000,
            800_000,
        ));
    let p = RnaProtocol::grouped(
        vec![(0..4).collect(), (4..8).collect()],
        RnaConfig::default(),
    );
    let r = Engine::new(spec, p).run();
    assert!(r.global_rounds >= 100, "rounds {}", r.global_rounds);
    assert!(
        r.partition_rounds > 0,
        "isolated exchanges must be counted: {:?}",
        r.partition_rounds
    );
    let pts = r.history.points();
    assert!(
        pts.last().unwrap().loss < pts[0].loss,
        "{} -> {}",
        pts[0].loss,
        pts.last().unwrap().loss
    );
}
