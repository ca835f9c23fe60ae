//! Cross-check: the threaded runtime and the discrete-event simulator tell
//! the same story about RNA vs BSP.
//!
//! The simulator is where all quantitative results come from; this test
//! pins its qualitative claims to real OS-thread executions so they cannot
//! be artifacts of the event model.

use rna_baselines::HorovodProtocol;
use rna_core::fault::FaultPlan;
use rna_core::rna::RnaProtocol;
use rna_core::sim::{Engine, TrainSpec};
use rna_core::RnaConfig;
use rna_runtime::{run_threaded, SyncMode, ThreadedConfig};
use rna_workload::HeterogeneityModel;

#[test]
fn both_worlds_agree_rna_beats_bsp_with_a_straggler() {
    // Threaded world: 4 threads, one 20 ms straggler.
    let t_bsp =
        run_threaded(&ThreadedConfig::quick(4, SyncMode::Bsp).with_straggler(20_000, 21_000));
    let t_rna =
        run_threaded(&ThreadedConfig::quick(4, SyncMode::Rna).with_straggler(20_000, 21_000));
    let threaded_speedup = t_bsp.wall.as_secs_f64() / t_rna.wall.as_secs_f64().max(1e-9);

    // Simulated world: same shape (4 workers, ~1.5 ms compute, one 20 ms
    // deterministic straggler, 30 rounds each).
    let n = 4;
    let sim_spec = |seed| {
        let mut s = TrainSpec::smoke_test(n, seed)
            .with_hetero(HeterogeneityModel::deterministic(&[0, 0, 0, 20]))
            .with_max_rounds(30);
        s.profile = s
            .profile
            .with_compute(rna_workload::ComputeTimeModel::Uniform {
                lo: rna_simnet::SimDuration::from_micros(1_000),
                hi: rna_simnet::SimDuration::from_micros(2_000),
            });
        s
    };
    let s_bsp = Engine::new(sim_spec(1), HorovodProtocol::new(n)).run();
    let s_rna = Engine::new(sim_spec(1), RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    let sim_speedup = s_bsp.wall_time.as_secs_f64() / s_rna.wall_time.as_secs_f64().max(1e-9);

    assert!(
        threaded_speedup > 1.0,
        "threaded speedup {threaded_speedup}"
    );
    assert!(sim_speedup > 1.0, "simulated speedup {sim_speedup}");
}

#[test]
fn both_worlds_train_to_working_accuracy() {
    let t_rna = run_threaded(&ThreadedConfig::quick(3, SyncMode::Rna));
    assert!(
        t_rna.final_accuracy > 0.5,
        "threaded acc {}",
        t_rna.final_accuracy
    );

    let spec = TrainSpec::smoke_test(3, 2).with_max_rounds(60);
    let s_rna = Engine::new(spec, RnaProtocol::new(3, RnaConfig::default(), 0)).run();
    assert!(
        s_rna.best_accuracy().unwrap() > 0.5,
        "simulated acc {:?}",
        s_rna.best_accuracy()
    );
}

#[test]
fn threaded_participation_is_partial_like_simulated() {
    let t = run_threaded(&ThreadedConfig::quick(4, SyncMode::Rna).with_straggler(15_000, 16_000));
    // With a straggler, some rounds must exclude it.
    assert!(
        t.mean_participation < 1.0,
        "participation {}",
        t.mean_participation
    );
    assert!(t.mean_participation > 0.0);
}

#[test]
fn both_worlds_agree_rna_survives_the_same_crash_plan() {
    // One shared FaultPlan — worker 3 dies after exactly 5 iterations —
    // fed to both worlds. Both must complete their round budget, freeze
    // the victim at 5 iterations, show partial participation, and still
    // reduce the loss.
    let n = 4;
    let plan = FaultPlan::none().crash(3, 5);

    let t = run_threaded(&ThreadedConfig::quick(n, SyncMode::Rna).with_fault_plan(plan.clone()));
    assert_eq!(t.rounds, 30);
    assert!(t.worker_fates[3].is_dead());
    assert_eq!(t.worker_iterations[3], 5);
    assert!(t.mean_participation < 1.0 && t.mean_participation > 0.0);
    assert!(t.final_loss < 1.4, "threaded loss {}", t.final_loss);

    let spec = TrainSpec::smoke_test(n, 7)
        .with_max_rounds(120)
        .with_fault_plan(plan);
    let s = Engine::new(spec, RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    assert_eq!(s.global_rounds, 120);
    assert_eq!(
        s.worker_iterations[3], 5,
        "the simulator agrees on the victim's exact iteration count"
    );
    assert!(s.worker_iterations[0] > 5, "simulated survivors continue");
    assert!(s.mean_participation() < 1.0);
    let pts = s.history.points();
    assert!(
        pts.last().unwrap().loss < pts[0].loss,
        "simulated loss falls"
    );
}

#[test]
fn both_worlds_agree_eager_majority_shrinks_to_survivors() {
    // Same plans in both worlds. Half the cluster dies early: the eager
    // majority must re-form over the survivors everywhere. A crash-restart
    // victim must come back into the electorate everywhere.
    let n = 4;
    eager_majority_survives(n, FaultPlan::none().crash(2, 2).crash(3, 2), false);
    // The threaded run lasts about 35 ms, so the victim is down for far
    // less than that and has rounds left to iterate in once back.
    eager_majority_survives(n, FaultPlan::none().restart(3, 2, 10_000), true);
}

fn eager_majority_survives(n: usize, plan: FaultPlan, restart: bool) {
    use rna_core::fault::WorkerFate;
    let rejoined = |fate: &WorkerFate| matches!(fate, WorkerFate::Restarted { rejoined: true, .. });

    let t = run_threaded(
        &ThreadedConfig::quick(n, SyncMode::EagerMajority).with_fault_plan(plan.clone()),
    );
    assert_eq!(t.rounds, 30);
    assert!(t.final_loss.is_finite());
    if restart {
        assert!(rejoined(&t.worker_fates[3]), "{:?}", t.worker_fates);
        assert!(t.worker_iterations[3] > 2, "threaded victim iterates on");
        assert_eq!(t.live_workers(), n);
    } else {
        assert_eq!(t.live_workers(), 2);
    }

    let spec = TrainSpec::smoke_test(n, 3)
        .with_max_rounds(120)
        .with_fault_plan(plan);
    let s = Engine::new(
        spec,
        RnaProtocol::new(n, RnaConfig::default(), 0).with_election(SyncMode::EagerMajority),
    )
    .run();
    assert_eq!(s.global_rounds, 120, "simulated majority must not deadlock");
    assert!(s.worker_iterations[0] > 2);
    if restart {
        assert!(rejoined(&s.worker_fates[3]), "{:?}", s.worker_fates);
        assert!(s.worker_iterations[3] > 2, "simulated victim iterates on");
    } else {
        assert_eq!(s.worker_iterations[2], 2);
        assert_eq!(s.worker_iterations[3], 2);
    }
}

#[test]
fn both_worlds_agree_on_chaos_crash_restart_and_lossy_links() {
    // One shared chaos scenario — worker 3 dies for good at iteration 4,
    // worker 2 crash-restarts at iteration 5, and the controller's links
    // to workers 0 and 1 drop 20% of probe traffic — fed to both worlds
    // with identical plans. Both must freeze the dead victim at exactly 4
    // iterations, bring the restarted worker back as a contributor, and
    // complete every budgeted round.
    use rna_core::fault::{NetFaultPlan, WorkerFate};
    use rna_runtime::ToleranceConfig;
    let n = 4;
    // The threaded run lasts about 40 ms: the restart's down window ends
    // well before it does.
    let plan = FaultPlan::none().crash(3, 4).restart(2, 5, 10_000);
    let net = NetFaultPlan::none()
        .with_seed(9)
        .drop_link(n, 0, 0.2)
        .drop_link(n, 1, 0.2);

    let mut config = ThreadedConfig::quick(n, SyncMode::Rna)
        .with_fault_plan(plan.clone())
        .with_net_fault_plan(net.clone())
        .with_tolerance(ToleranceConfig::tight());
    config.rounds = 60;
    let t = run_threaded(&config);
    assert_eq!(t.rounds, 60);
    assert_eq!(t.worker_iterations[3], 4, "threaded victim frozen at 4");
    assert!(matches!(
        t.worker_fates[2],
        WorkerFate::Restarted { rejoined: true, .. }
    ));
    assert!(t.worker_iterations[2] > 5, "threaded rejoiner contributes");
    assert!(t.messages_dropped > 0, "threaded shim saw the lossy links");

    let spec = TrainSpec::smoke_test(n, 7)
        .with_max_rounds(120)
        .with_fault_plan(plan)
        .with_net_fault_plan(net);
    let s = Engine::new(spec, RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    assert_eq!(s.global_rounds, 120);
    assert_eq!(s.worker_iterations[3], 4, "simulated victim frozen at 4");
    assert!(matches!(
        s.worker_fates[2],
        WorkerFate::Restarted { rejoined: true, .. }
    ));
    assert!(s.worker_iterations[2] > 5, "simulated rejoiner contributes");
    assert!(
        s.messages_dropped > 0,
        "simulated fabric saw the lossy links"
    );
}

#[test]
fn both_worlds_read_a_plan_with_two_crashes_and_a_slowed_hang_alike() {
    // Worker 1's plan lists a crash at 9 before one at 4, and worker 2 slows
    // from iteration 1 and then hangs at 3. Both worlds read the plan through
    // the same script: the earliest crash kills, and the hang is what the
    // fate reports.
    use rna_core::fault::WorkerFate;
    use rna_runtime::ToleranceConfig;
    let n = 3;
    let plan = FaultPlan::none()
        .crash(1, 9)
        .crash(1, 4)
        .slow(2, 1, 200)
        .hang(2, 3, 2_000);
    let t = run_threaded(
        &ThreadedConfig::quick(n, SyncMode::Rna)
            .with_fault_plan(plan.clone())
            .with_tolerance(ToleranceConfig::tight()),
    );
    let spec = TrainSpec::smoke_test(n, 5)
        .with_max_rounds(60)
        .with_fault_plan(plan);
    let s = Engine::new(spec, RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    for (world, iters, fates) in [
        ("threaded", &t.worker_iterations, &t.worker_fates),
        ("simulated", &s.worker_iterations, &s.worker_fates),
    ] {
        assert_eq!(iters[1], 4, "{world}: the earliest crash kills");
        assert_eq!(fates[1], WorkerFate::Crashed { at_iter: 4 }, "{world}");
        assert_eq!(fates[2], WorkerFate::Hung { at_iter: 3 }, "{world}");
    }
}
