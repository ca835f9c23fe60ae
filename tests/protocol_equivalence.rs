//! Cross-protocol equivalence and sanity properties.
//!
//! When nothing goes wrong — no stragglers, full participation — the
//! relaxed protocols must behave like their strict ancestors: RNA with
//! everyone contributing applies the same kind of update BSP does, and all
//! protocols must drive the same task to a comparable loss.

use rna_baselines::{AdPsgdProtocol, HorovodProtocol, SgpProtocol};
use rna_core::rna::RnaProtocol;
use rna_core::sim::{Engine, TrainSpec};
use rna_core::{RnaConfig, RunResult, SyncMode};
use rna_workload::HeterogeneityModel;

fn homogeneous_spec(n: usize, seed: u64, rounds: u64) -> TrainSpec {
    TrainSpec::smoke_test(n, seed)
        .with_hetero(HeterogeneityModel::homogeneous(n))
        .with_max_rounds(rounds)
}

fn run_all(n: usize, seed: u64, rounds: u64) -> Vec<RunResult> {
    let spec = homogeneous_spec(n, seed, rounds);
    vec![
        Engine::new(spec.clone(), HorovodProtocol::new(n)).run(),
        Engine::new(
            spec.clone(),
            RnaProtocol::new(n, RnaConfig::default(), 0).with_election(SyncMode::EagerMajority),
        )
        .run(),
        Engine::new(spec.clone(), AdPsgdProtocol::new(n)).run(),
        Engine::new(spec.clone(), SgpProtocol::new(n)).run(),
        Engine::new(spec, RnaProtocol::new(n, RnaConfig::default(), seed)).run(),
    ]
}

#[test]
fn every_protocol_reduces_loss_on_homogeneous_cluster() {
    for r in run_all(4, 11, 200) {
        let pts = r.history.points();
        assert!(pts.len() >= 2, "{}: too few evaluations", r.protocol);
        assert!(
            pts.last().unwrap().loss < pts[0].loss * 0.8,
            "{}: loss {} -> {}",
            r.protocol,
            pts[0].loss,
            pts.last().unwrap().loss
        );
    }
}

#[test]
fn final_losses_are_comparable_without_stragglers() {
    // On an easy convex task with no heterogeneity, the collective-based
    // protocols (full or partial AllReduce) land within a small factor of
    // each other. AD-PSGD is *expected* to trail: pairwise gossip mixes
    // slowly and each update is a single local gradient — the quality gap
    // the paper reports in Tables 3/4.
    let results = run_all(4, 23, 250);
    let losses: Vec<f64> = results
        .iter()
        .map(|r| r.final_loss().expect("evaluated"))
        .collect();
    let best = losses.iter().cloned().fold(f64::INFINITY, f64::min);
    for (r, &loss) in results.iter().zip(&losses) {
        if r.protocol == "ad-psgd" {
            // Worse than the collectives, but still trained. Pairwise
            // gossip lands a 4–12x loss reduction on this task depending
            // on the seed (each update is one local gradient and mixing
            // is slow), so assert the floor of that band: well clear of
            // "stalled" without demanding a lucky seed.
            let initial = r.history.points()[0].loss;
            assert!(loss < initial / 3.0, "ad-psgd barely trained: {loss}");
            continue;
        }
        assert!(
            loss < best * 4.0 + 0.05,
            "{} final loss {loss} vs best {best}",
            r.protocol
        );
    }
}

#[test]
fn bsp_and_rna_reach_similar_accuracy() {
    let n = 4;
    let spec = homogeneous_spec(n, 31, 250);
    let bsp = Engine::new(spec.clone(), HorovodProtocol::new(n)).run();
    let rna = Engine::new(spec, RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    let bsp_acc = bsp.best_accuracy().unwrap();
    let rna_acc = rna.best_accuracy().unwrap();
    assert!(
        (bsp_acc - rna_acc).abs() < 0.12,
        "accuracy gap: bsp {bsp_acc} vs rna {rna_acc}"
    );
}

#[test]
fn rna_participation_near_full_when_homogeneous() {
    // Without stragglers most workers have fresh gradients at each round.
    let n = 6;
    let spec = homogeneous_spec(n, 7, 150);
    let rna = Engine::new(spec, RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    assert!(
        rna.mean_participation() > 0.4,
        "participation {}",
        rna.mean_participation()
    );
}

#[test]
fn comm_bytes_reflect_protocol_structure() {
    let results = run_all(4, 3, 60);
    let by_name = |name: &str| {
        results
            .iter()
            .find(|r| r.protocol == name)
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    // Ring-collective protocols move ~2(n-1)/n x bytes per worker per
    // round; AD-PSGD moves 2 model copies per session; SGP one per worker
    // per round. All must be nonzero and BSP must be the per-round
    // heaviest or equal.
    for r in &results {
        assert!(r.comm_bytes > 0, "{} moved no bytes", r.protocol);
    }
    let bsp = by_name("horovod");
    let bsp_per_round = bsp.comm_bytes as f64 / bsp.global_rounds as f64;
    let sgp = by_name("sgp");
    let sgp_per_round = sgp.comm_bytes as f64 / sgp.global_rounds as f64;
    assert!(
        bsp_per_round > sgp_per_round,
        "ring round ({bsp_per_round}) should outweigh gossip round ({sgp_per_round})"
    );
}

#[test]
fn worker_iteration_accounting_is_consistent() {
    for r in run_all(3, 17, 80) {
        assert_eq!(r.worker_iterations.len(), 3, "{}", r.protocol);
        assert!(
            r.total_iterations() >= r.global_rounds.min(80),
            "{}: {} iterations for {} rounds",
            r.protocol,
            r.total_iterations(),
            r.global_rounds
        );
        // Breakdown covers all workers and accounts nonzero time.
        assert_eq!(r.breakdown.len(), 3);
        assert!(r.breakdown.iter().all(|b| !b.total().is_zero()));
    }
}
