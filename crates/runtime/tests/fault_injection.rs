//! Fault injection on real OS threads: the controller must route around
//! crashed workers, outwait hung ones, and never block indefinitely.
//!
//! Every run goes through a watchdog so a livelock or deadlock fails the
//! test with a diagnosis instead of hanging the suite.

use std::time::Duration;

use rna_runtime::{
    run_threaded, FaultPlan, NetFaultPlan, SyncMode, ThreadedConfig, ToleranceConfig, WorkerFate,
};

/// Runs the config on a helper thread and panics if it does not finish
/// within a generous bound — the acceptance criterion is that
/// `run_threaded` never blocks indefinitely under any injected plan.
fn run_bounded(config: ThreadedConfig) -> rna_runtime::ThreadedResult {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(run_threaded(&config));
    });
    let result = rx
        .recv_timeout(Duration::from_secs(180))
        .expect("run_threaded blocked past the watchdog timeout");
    handle.join().expect("runner thread panicked");
    result
}

#[test]
fn rna_survives_a_crashed_worker() {
    // The headline scenario: worker 3 dies after exactly 5 iterations of a
    // 30-round run. All rounds still complete, the victim is reported
    // dead, participation is visibly partial, and the model still trains.
    let config =
        ThreadedConfig::quick(4, SyncMode::Rna).with_fault_plan(FaultPlan::none().crash(3, 5));
    let r = run_bounded(config);
    assert_eq!(r.rounds, 30);
    assert!(r.worker_fates[3].is_dead(), "fates {:?}", r.worker_fates);
    assert_eq!(r.worker_fates[3], WorkerFate::Crashed { at_iter: 5 });
    assert_eq!(
        r.worker_iterations[3], 5,
        "the victim completes exactly its crash iteration count"
    );
    assert_eq!(r.live_workers(), 3);
    assert!(
        r.mean_participation < 1.0,
        "participation {}",
        r.mean_participation
    );
    assert!(r.mean_participation > 0.0);
    assert!(r.final_loss < 1.4, "loss {}", r.final_loss);
}

#[test]
fn eager_majority_survives_a_crashed_worker() {
    let config = ThreadedConfig::quick(4, SyncMode::EagerMajority)
        .with_fault_plan(FaultPlan::none().crash(1, 5));
    let r = run_bounded(config);
    assert_eq!(r.rounds, 30);
    assert!(r.worker_fates[1].is_dead());
    assert!(r.mean_participation < 1.0);
    assert!(r.final_loss < 1.4, "loss {}", r.final_loss);
}

#[test]
fn rna_outwaits_a_hung_worker() {
    // Worker 2 freezes for 300 ms — twice the liveness timeout, so it
    // goes heartbeat-stale and drops out of election — then resumes. The
    // run completes and the worker is reported hung, not dead.
    let config = ThreadedConfig::quick(4, SyncMode::Rna)
        .with_fault_plan(FaultPlan::none().hang(2, 3, 300_000));
    let r = run_bounded(config);
    assert_eq!(r.rounds, 30);
    assert_eq!(r.worker_fates[2], WorkerFate::Hung { at_iter: 3 });
    assert_eq!(r.live_workers(), 4, "a hang is not a death");
    assert!(r.final_loss.is_finite());
}

#[test]
fn eager_majority_outwaits_a_hung_worker() {
    let config = ThreadedConfig::quick(4, SyncMode::EagerMajority)
        .with_fault_plan(FaultPlan::none().hang(0, 3, 300_000));
    let r = run_bounded(config);
    assert_eq!(r.rounds, 30);
    assert_eq!(r.worker_fates[0], WorkerFate::Hung { at_iter: 3 });
    assert!(r.final_loss.is_finite());
}

#[test]
fn rna_resamples_when_every_probed_worker_is_dead() {
    // 3 of 4 workers die almost immediately: with d = 2 probes, most probe
    // rounds initially land entirely on corpses. Resampling must steer
    // election to the lone survivor and all 30 rounds must complete.
    let config = ThreadedConfig::quick(4, SyncMode::Rna)
        .with_fault_plan(FaultPlan::none().crash(1, 2).crash(2, 2).crash(3, 2));
    let r = run_bounded(config);
    assert_eq!(r.rounds, 30);
    assert_eq!(r.live_workers(), 1);
    assert!(r.worker_iterations[0] > 5, "survivor keeps iterating");
    assert!(r.final_loss.is_finite());
}

#[test]
fn eager_majority_survives_majority_death() {
    // ⌈n/2⌉ + 1 workers die: a majority over *all* workers can never
    // assemble again, so the electorate must shrink to the survivors
    // (this deadlocked forever before liveness tracking).
    let config = ThreadedConfig::quick(4, SyncMode::EagerMajority)
        .with_fault_plan(FaultPlan::none().crash(0, 2).crash(2, 3).crash(3, 2));
    let r = run_bounded(config);
    assert_eq!(r.rounds, 30);
    assert_eq!(r.live_workers(), 1);
    assert!(r.worker_iterations[1] > 5);
    assert!(r.final_loss.is_finite());
}

#[test]
fn whole_cluster_death_degrades_instead_of_blocking() {
    for mode in [SyncMode::Rna, SyncMode::EagerMajority] {
        let config = ThreadedConfig::quick(3, mode)
            .with_fault_plan(FaultPlan::none().crash(0, 1).crash(1, 1).crash(2, 1));
        let r = run_bounded(config);
        assert_eq!(r.rounds, 30, "{mode:?}");
        assert_eq!(r.live_workers(), 0, "{mode:?}");
        assert!(
            r.rounds_degraded > 0,
            "{mode:?}: rounds after the die-off must complete degraded"
        );
        assert!(r.final_loss.is_finite());
    }
}

#[test]
fn slow_forever_worker_is_reported_and_survived() {
    // Worker 3 takes +30 ms per iteration from iteration 2 on — a
    // permanent straggler, not a failure. RNA keeps training at the fast
    // workers' pace and reports the fate.
    let config = ThreadedConfig::quick(4, SyncMode::Rna)
        .with_fault_plan(FaultPlan::none().slow(3, 2, 30_000));
    let r = run_bounded(config);
    assert_eq!(r.rounds, 30);
    assert_eq!(r.worker_fates[3], WorkerFate::Slowed { from_iter: 2 });
    assert_eq!(r.live_workers(), 4);
    assert!(
        r.worker_iterations[3] < *r.worker_iterations.iter().max().unwrap(),
        "straggler lags the cluster: {:?}",
        r.worker_iterations
    );
    assert!(r.final_loss < 1.4, "loss {}", r.final_loss);
}

#[test]
fn healthy_runs_report_no_degradation() {
    let r = run_bounded(ThreadedConfig::quick(4, SyncMode::Rna));
    assert_eq!(r.rounds_degraded, 0);
    assert!(r.worker_fates.iter().all(|f| *f == WorkerFate::Healthy));
    assert_eq!(r.live_workers(), 4);
    assert_eq!(r.messages_dropped, 0);
    assert_eq!(r.probe_retries, 0);
    assert_eq!(r.partition_rounds, 0);
}

#[test]
fn rna_survives_a_crash_restart_rejoin() {
    // Worker 2 dies after 5 iterations and comes back 10 ms later: it must
    // be re-admitted to the liveness view, resume contributing, and end the
    // run counted among the living. The run lasts about 40 ms, so the down
    // window ends well before it does.
    let mut config = ThreadedConfig::quick(4, SyncMode::Rna)
        .with_fault_plan(FaultPlan::none().restart(2, 5, 10_000));
    config.rounds = 60;
    let r = run_bounded(config);
    assert_eq!(r.rounds, 60);
    assert_eq!(
        r.worker_fates[2],
        WorkerFate::Restarted {
            at_iter: 5,
            rejoined: true
        }
    );
    assert_eq!(r.live_workers(), 4, "a completed restart is not a death");
    assert!(
        r.worker_iterations[2] > 5,
        "the restarted worker contributes after rejoining: {:?}",
        r.worker_iterations
    );
    assert!(r.final_loss < 1.4, "loss {}", r.final_loss);
}

#[test]
fn rna_trains_through_lossy_controller_links() {
    // 30% loss on two controller↔worker links: probes are retried, lost
    // gradients become nulls in the partial collective, and the run still
    // completes and trains.
    let config = ThreadedConfig::quick(4, SyncMode::Rna).with_net_fault_plan(
        NetFaultPlan::none()
            .with_seed(21)
            .drop_link(4, 0, 0.3)
            .drop_link(4, 1, 0.3),
    );
    let r = run_bounded(config);
    assert_eq!(r.rounds, 30);
    assert!(r.messages_dropped > 0, "the shim must have eaten something");
    assert_eq!(r.partition_rounds, 0, "lossy is not partitioned");
    assert!(r.worker_fates.iter().all(|f| *f == WorkerFate::Healthy));
    assert!(r.final_loss < 1.4, "loss {}", r.final_loss);
}

#[test]
fn rna_rides_out_a_timed_partition() {
    // Workers 2 and 3 are severed from the controller between 20 ms and
    // 80 ms into the run. Rounds during the window run on the reachable
    // half; after the heal the severed workers' caches reconcile and every
    // budgeted round completes.
    let mut config = ThreadedConfig::quick(4, SyncMode::Rna)
        .with_net_fault_plan(NetFaultPlan::none().with_seed(5).partition(
            vec![2, 3],
            20_000,
            80_000,
        ))
        .with_tolerance(ToleranceConfig::tight());
    config.rounds = 60;
    let r = run_bounded(config);
    assert_eq!(r.rounds, 60);
    assert!(
        r.partition_rounds > 0,
        "some rounds must have seen the partition"
    );
    assert!(
        r.partition_rounds < r.rounds,
        "the partition heals: {} of {} rounds cut",
        r.partition_rounds,
        r.rounds
    );
    assert_eq!(r.live_workers(), 4, "a partition is not a death");
    assert!(r.final_loss.is_finite());
}

#[test]
#[should_panic(expected = "BSP cannot survive a crash")]
fn bsp_rejects_restart_plans() {
    let config = ThreadedConfig::quick(2, SyncMode::Bsp)
        .with_fault_plan(FaultPlan::none().restart(0, 1, 10_000));
    run_threaded(&config);
}

#[test]
#[should_panic(expected = "BSP cannot survive network faults")]
fn bsp_rejects_net_fault_plans() {
    let config = ThreadedConfig::quick(2, SyncMode::Bsp)
        .with_net_fault_plan(NetFaultPlan::none().drop_link(2, 0, 0.1));
    run_threaded(&config);
}
