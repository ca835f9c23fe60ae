//! Cross-protocol simulation invariants, checked over a grid of seeds and
//! protocols. These are the properties that make every number in
//! EXPERIMENTS.md trustworthy: conserved accounting, monotone clocks, and
//! bounded resource usage — independent of which synchronization policy
//! ran.

use rna_baselines::{
    AdPsgdProtocol, AsyncPsProtocol, BackupWorkersProtocol, HorovodProtocol, SgpProtocol,
};
use rna_core::rna::{Election, RnaProtocol};
use rna_core::sim::{Engine, TrainSpec};
use rna_core::{RnaConfig, RunResult};
use rna_simnet::SimDuration;
use rna_workload::HeterogeneityModel;

fn spec(n: usize, seed: u64) -> TrainSpec {
    TrainSpec::smoke_test(n, seed)
        .with_hetero(HeterogeneityModel::dynamic_uniform(n, 0, 25))
        .with_max_rounds(60)
}

fn run_all(n: usize, seed: u64) -> Vec<RunResult> {
    vec![
        Engine::new(spec(n, seed), HorovodProtocol::new(n)).run(),
        Engine::new(
            spec(n, seed),
            RnaProtocol::new(n, RnaConfig::default(), 0).with_election(Election::Majority),
        )
        .run(),
        Engine::new(spec(n, seed), AdPsgdProtocol::new(n)).run(),
        Engine::new(spec(n, seed), SgpProtocol::new(n)).run(),
        Engine::new(spec(n, seed), BackupWorkersProtocol::new(n, 1)).run(),
        Engine::new(spec(n, seed), AsyncPsProtocol::new(n)).run(),
        Engine::new(spec(n, seed), RnaProtocol::new(n, RnaConfig::default(), 0)).run(),
        Engine::new(
            spec(n, seed),
            RnaProtocol::grouped(
                vec![(0..n / 2).collect(), (n / 2..n).collect()],
                RnaConfig::default(),
            ),
        )
        .run(),
    ]
}

#[test]
fn participation_is_a_valid_fraction() {
    for seed in [3u64, 17] {
        for r in run_all(6, seed) {
            let p = r.mean_participation();
            assert!(
                (0.0..=1.0 + 1e-9).contains(&p),
                "{} seed {seed}: participation {p}",
                r.protocol
            );
        }
    }
}

#[test]
fn histories_are_time_and_round_monotone() {
    for r in run_all(6, 5) {
        for w in r.history.points().windows(2) {
            assert!(w[1].time_s >= w[0].time_s, "{}", r.protocol);
            assert!(w[1].iteration >= w[0].iteration, "{}", r.protocol);
        }
        for p in r.history.points() {
            assert!(p.loss.is_finite(), "{}: non-finite loss", r.protocol);
            assert!(
                (0.0..=1.0).contains(&p.accuracy),
                "{}: accuracy {}",
                r.protocol,
                p.accuracy
            );
        }
    }
}

#[test]
fn breakdown_never_exceeds_wall_time() {
    for r in run_all(6, 7) {
        let wall = r.wall_time.as_secs_f64();
        for (w, b) in r.breakdown.iter().enumerate() {
            let total = b.total().as_secs_f64();
            assert!(
                total <= wall + 1e-6,
                "{} worker {w}: accounted {total} > wall {wall}",
                r.protocol
            );
        }
    }
}

#[test]
fn workload_trace_matches_iteration_counts() {
    for r in run_all(6, 9) {
        for w in 0..6 {
            let recorded = r.workload_trace.durations(w).len() as u64;
            // Every *completed* iteration was recorded at its start; at most
            // one in-flight iteration per worker can exceed the completed
            // count (crashed/cancelled ones never complete).
            assert!(
                recorded >= r.worker_iterations[w] && recorded <= r.worker_iterations[w] + 1,
                "{} worker {w}: recorded {recorded} vs completed {}",
                r.protocol,
                r.worker_iterations[w]
            );
        }
    }
}

#[test]
fn iteration_counts_respect_compute_floor() {
    // No worker can complete iterations faster than its minimum compute
    // time (5 ms in the smoke profile) allows.
    for r in run_all(6, 11) {
        let floor = SimDuration::from_millis(5).as_secs_f64();
        let wall = r.wall_time.as_secs_f64();
        for (w, &iters) in r.worker_iterations.iter().enumerate() {
            assert!(
                iters as f64 * floor <= wall + 1e-6,
                "{} worker {w}: {iters} iterations in {wall}s",
                r.protocol
            );
        }
    }
}

#[test]
fn comm_bytes_scale_with_rounds() {
    // Doubling the round budget must not shrink total traffic.
    let n = 6;
    let short = Engine::new(
        spec(n, 13).with_max_rounds(30),
        RnaProtocol::new(n, RnaConfig::default(), 0),
    )
    .run();
    let long = Engine::new(
        spec(n, 13).with_max_rounds(60),
        RnaProtocol::new(n, RnaConfig::default(), 0),
    )
    .run();
    assert!(long.comm_bytes >= short.comm_bytes);
    assert!(long.global_rounds >= short.global_rounds);
}

#[test]
fn timeline_fractions_are_bounded() {
    use rna_simnet::trace::SpanKind;
    for r in run_all(4, 15) {
        for w in 0..4 {
            let total: f64 = [SpanKind::Compute, SpanKind::Wait, SpanKind::Communicate]
                .into_iter()
                .map(|k| r.timeline.fraction(w, k))
                .sum();
            assert!(
                total <= 1.0 + 1e-9,
                "{} worker {w}: timeline covers {total}",
                r.protocol
            );
        }
    }
}

#[test]
fn seed_grid_determinism() {
    // Spot-check determinism across the whole registry on a second seed
    // (the dedicated determinism suite covers one seed in depth).
    let a = run_all(4, 23);
    let b = run_all(4, 23);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.wall_time, y.wall_time, "{}", x.protocol);
        assert_eq!(x.comm_bytes, y.comm_bytes, "{}", x.protocol);
        assert_eq!(x.final_loss(), y.final_loss(), "{}", x.protocol);
    }
}
