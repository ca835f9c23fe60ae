//! The headline property: RNA tolerates stragglers better than BSP.
//!
//! Integration-level reproductions of the paper's qualitative claims under
//! both straggler sources — dynamic system heterogeneity (§8.1) and
//! inherent load imbalance (§2.3.1).

use rna_baselines::HorovodProtocol;
use rna_core::rna::RnaProtocol;
use rna_core::sim::{Engine, TrainSpec};
use rna_core::{RnaConfig, SyncMode};
use rna_simnet::SimDuration;
use rna_workload::{ComputeTimeModel, HeterogeneityModel};

fn dynamic_spec(n: usize, seed: u64, rounds: u64) -> TrainSpec {
    TrainSpec::smoke_test(n, seed)
        .with_hetero(HeterogeneityModel::dynamic_uniform(n, 0, 50))
        .with_max_rounds(rounds)
}

#[test]
fn rna_rounds_are_faster_than_bsp_under_dynamic_heterogeneity() {
    let n = 8;
    let bsp = Engine::new(dynamic_spec(n, 5, 100), HorovodProtocol::new(n)).run();
    let rna = Engine::new(
        dynamic_spec(n, 5, 100),
        RnaProtocol::new(n, RnaConfig::default(), 0),
    )
    .run();
    assert!(
        rna.mean_round_time() < bsp.mean_round_time(),
        "rna {} vs bsp {}",
        rna.mean_round_time(),
        bsp.mean_round_time()
    );
}

#[test]
fn rna_reaches_target_loss_faster_than_bsp() {
    let n = 8;
    let rounds = 4000;
    let mut spec = dynamic_spec(n, 9, rounds);
    spec.max_time = SimDuration::from_secs(120);
    let bsp = Engine::new(spec.clone(), HorovodProtocol::new(n)).run();
    let rna = Engine::new(spec, RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    let target = bsp.history.loss_milestone(0.7).unwrap();
    let bsp_t = bsp.time_to_loss(target).expect("bsp reaches its own loss");
    let rna_t = rna.time_to_loss(target);
    let rna_t = rna_t.unwrap_or(f64::INFINITY);
    assert!(
        rna_t < bsp_t,
        "RNA {rna_t}s should beat BSP {bsp_t}s to target {target}"
    );
}

#[test]
fn wait_time_shrinks_under_rna() {
    // Figure 1 vs Figure 3b: the fast workers' waiting share collapses
    // when the barrier is relaxed.
    let n = 4;
    let spec = |seed| {
        TrainSpec::smoke_test(n, seed)
            .with_hetero(HeterogeneityModel::deterministic(&[0, 0, 0, 40]))
            .with_max_rounds(120)
    };
    let bsp = Engine::new(spec(3), HorovodProtocol::new(n)).run();
    let rna = Engine::new(spec(3), RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    let wait_fraction = |r: &rna_core::RunResult, w: usize| {
        let b = &r.breakdown[w];
        b.waiting().as_secs_f64() / b.total().as_secs_f64().max(1e-12)
    };
    // Worker 0 is fast in both runs; under BSP it waits for the straggler.
    let bsp_wait = wait_fraction(&bsp, 0);
    let rna_wait = wait_fraction(&rna, 0);
    assert!(
        rna_wait < bsp_wait,
        "fast worker waits: rna {rna_wait:.3} vs bsp {bsp_wait:.3}"
    );
    assert!(bsp_wait > 0.4, "bsp fast worker should mostly wait");
}

#[test]
fn inherent_imbalance_also_benefits() {
    // Long-tail compute (no injected delays): the data itself straggles.
    let n = 8;
    let make_spec = |seed| {
        let mut s = TrainSpec::smoke_test(n, seed).with_max_rounds(100_000);
        s.profile = s
            .profile
            .with_compute(ComputeTimeModel::long_tail_ms(30.0, 20.0, 5.0, 200.0));
        s.max_time = SimDuration::from_secs(40);
        s
    };
    let bsp = Engine::new(make_spec(13), HorovodProtocol::new(n)).run();
    let rna = Engine::new(make_spec(13), RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    // Throughput (iterations/sec) must be higher for RNA: BSP is bounded
    // by the per-round maximum of the long tail.
    assert!(
        rna.iteration_throughput() > bsp.iteration_throughput(),
        "rna {} it/s vs bsp {} it/s",
        rna.iteration_throughput(),
        bsp.iteration_throughput()
    );
}

#[test]
fn eager_majority_is_hostage_to_deterministic_slow_half() {
    // §9's critique: eager-SGD's majority trigger cannot dodge a slow
    // *deterministic* half, while RNA's probing usually can (probing two
    // random workers finds a fast one with p = 3/4 when half are fast).
    let n = 8;
    let hetero = HeterogeneityModel::from_delays(
        (0..n)
            .map(|i| {
                if i < n / 2 {
                    rna_workload::DelayModel::None
                } else {
                    rna_workload::DelayModel::Fixed(SimDuration::from_millis(45))
                }
            })
            .collect(),
    );
    let spec = |seed| {
        TrainSpec::smoke_test(n, seed)
            .with_hetero(hetero.clone())
            .with_max_rounds(150)
    };
    let eager = Engine::new(
        spec(1),
        RnaProtocol::new(n, RnaConfig::default(), 0).with_election(SyncMode::EagerMajority),
    )
    .run();
    let rna = Engine::new(spec(1), RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    assert!(
        rna.mean_round_time() < eager.mean_round_time(),
        "rna {} vs eager {}",
        rna.mean_round_time(),
        eager.mean_round_time()
    );
}

/// The DES stretches two orders of magnitude past the paper's testbed: at
/// 1 k, 10 k and 100 k workers (36-float softmax, §8.1 dynamic stragglers)
/// every requested round completes. The virtual-time budget is effectively
/// unlimited, so a run that falls short wedged — it did not run out of
/// clock. Release-mode only (ci.sh runs it with `--release -- --ignored`
/// under a watchdog, which doubles as the order-of-magnitude speed floor).
#[test]
#[ignore = "100k-worker DES run: release mode only, see ci.sh"]
fn des_completes_its_rounds_at_1k_10k_and_100k_workers() {
    for (n, rounds) in [(1_000, 40), (10_000, 10), (100_000, 3)] {
        let spec = TrainSpec::smoke_test(n, 1)
            .with_hetero(HeterogeneityModel::dynamic_uniform(n, 0, 20))
            .with_max_rounds(rounds)
            .with_max_time(SimDuration::from_secs(86_400));
        let r = Engine::new(spec, RnaProtocol::new(n, RnaConfig::default(), 0)).run();
        assert_eq!(r.global_rounds, rounds, "{n}-worker run stopped early");
    }
}
