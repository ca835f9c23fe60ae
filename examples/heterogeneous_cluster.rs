//! Hierarchical synchronization on a cluster with deterministic tiers.
//!
//! Builds the paper's Table 2 testbed (K80 / 1080Ti / 2080Ti GPUs),
//! derives the ζ > v grouping, and compares flat RNA against hierarchical
//! RNA — the §4 scenario where the probabilistic approach alone cannot
//! absorb a *deterministic* slowdown.
//!
//! ```sh
//! cargo run --example heterogeneous_cluster
//! ```

use rna_core::grouping::partition_groups;
use rna_core::rna::RnaProtocol;
use rna_core::sim::{Engine, TrainSpec};
use rna_core::RnaConfig;
use rna_simnet::SimDuration;
use rna_workload::cluster::ClusterSpec;
use rna_workload::HeterogeneityModel;

fn main() {
    // A 12-GPU slice of the Table 2 testbed: 4 K80s, 4 1080Tis, 4 2080Tis.
    let tiers: Vec<_> = ClusterSpec::paper_testbed()
        .tiers()
        .iter()
        .copied()
        .step_by(3)
        .take(12)
        .collect();
    let cluster = ClusterSpec::from_tiers(tiers);
    let n = cluster.num_workers();
    println!("cluster tiers:");
    for (w, t) in cluster.tiers().iter().enumerate() {
        println!(
            "  worker {w}: {} ({}x compute time)",
            t.name(),
            t.slowdown_factor()
        );
    }

    let hetero = HeterogeneityModel::homogeneous(n).with_speed_factors(cluster.speed_factors());
    let spec = TrainSpec::smoke_test(n, 7)
        .with_hetero(hetero.clone())
        .with_max_rounds(500);

    // ζ > v grouping over expected iteration times.
    let nominal = SimDuration::from_millis(5);
    let times: Vec<SimDuration> = (0..n).map(|w| hetero.expected(w, nominal)).collect();
    let groups = partition_groups(&times);
    println!("\nζ > v grouping: {} groups", groups.len());
    for (g, members) in groups.iter().enumerate() {
        println!("  group {g}: workers {members:?}");
    }

    println!("\nflat RNA...");
    let flat = Engine::new(spec.clone(), RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    println!("hierarchical RNA...");
    let hier = Engine::new(spec, RnaProtocol::grouped(groups, RnaConfig::default())).run();

    println!();
    println!("                 flat RNA      hierarchical RNA");
    println!(
        "rounds           {:<13} {}",
        flat.global_rounds, hier.global_rounds
    );
    println!(
        "mean round time  {:<13} {}",
        flat.mean_round_time().to_string(),
        hier.mean_round_time()
    );
    println!(
        "final loss       {:<13.4} {:.4}",
        flat.final_loss().unwrap_or(f64::NAN),
        hier.final_loss().unwrap_or(f64::NAN)
    );
    println!(
        "final accuracy   {:<13.3} {:.3}",
        flat.final_accuracy().unwrap_or(0.0),
        hier.final_accuracy().unwrap_or(0.0)
    );
    println!(
        "iterations/worker spread: flat {:?} vs hier {:?}",
        (
            flat.worker_iterations.iter().min().unwrap(),
            flat.worker_iterations.iter().max().unwrap()
        ),
        (
            hier.worker_iterations.iter().min().unwrap(),
            hier.worker_iterations.iter().max().unwrap()
        ),
    );
}
