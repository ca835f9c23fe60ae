//! Golden digests of the simulator: one FNV-1a digest per DES protocol and
//! scenario, over everything a run reports that a protocol change could
//! move — the history bits, the `Counters` ledger, the virtual wall time,
//! the wire bytes, every worker's iteration count and every fate.
//!
//! Rows are every DES protocol × {clean, crash + restart, churn,
//! partition}, plus the int8 wire codec for RNA's probe and majority
//! elections, plus two rows for the hierarchy's parameter-server paths: an
//! online regroup forced by a gray straggler in one launch group, and the
//! int8 PS push. Each of those two asserts that its path fired, and a
//! second test checks that every fault scenario reaches its protocol: its
//! row differs from the protocol's clean row. The table is the one place
//! a change to the simulator, a protocol or the data path shows
//! up as a named, reviewable diff: on a mismatch the test prints the whole
//! recomputed table, and a deliberate re-pin is that table pasted over
//! `GOLDEN` in the same change that moves it.
//!
//! `Counters::datapath_allocs` is left out: its hook counts only in debug
//! builds, so it differs between profiles while the numbers never do.

use rna_baselines::{AdPsgdProtocol, HorovodProtocol, SgpProtocol};
use rna_core::fault::{FaultPlan, NetFaultPlan};
use rna_core::membership::{ChurnPlan, RegroupPolicy};
use rna_core::rna::RnaProtocol;
use rna_core::sim::{Engine, Protocol, TrainSpec};
use rna_core::stats::Counters;
use rna_core::{RnaConfig, RunResult, SyncMode};
use rna_tensor::wire::fnv1a;
use rna_tensor::Compression;
use rna_workload::HeterogeneityModel;

/// Cluster size of every row.
const N: usize = 6;

/// The pinned table: `(protocol/scenario[/codec], digest)`, in the order
/// [`table`] computes it.
const GOLDEN: &[(&str, u64)] = &[
    ("rna/clean", 0xc2c08874275894af),
    ("eager-sgd/clean", 0x727a1bb79def29d4),
    ("rna-hier/clean", 0x8f00c3b2e506d780),
    ("horovod/clean", 0xd0cbfd3d0c0beae6),
    ("backup/clean", 0xa91688fd4bd47609),
    ("ad-psgd/clean", 0x86d47d37f72835c4),
    ("sgp/clean", 0x8fa0987c0accac77),
    ("async-ps/clean", 0x7d9557b7f32ee45a),
    ("rna/crash+restart", 0x85e56b420af0614a),
    ("eager-sgd/crash+restart", 0x9f2303619fa2f29f),
    ("rna-hier/crash+restart", 0x6f1ae29d80011e3f),
    ("horovod/crash+restart", 0xa0c4ccf36f87aa54),
    ("backup/crash+restart", 0xe786fe07c7dddc96),
    ("ad-psgd/crash+restart", 0xd7e865f337fed91f),
    ("sgp/crash+restart", 0x4aeb8c0e7cf142e9),
    ("async-ps/crash+restart", 0x5e6a8f6f83fb8c4c),
    ("rna/churn", 0x22726e5db748c871),
    ("eager-sgd/churn", 0xc9c165f061abbb77),
    ("rna-hier/churn", 0xf94ed20abb945501),
    ("horovod/churn", 0xc1d60ecfeafb450f),
    ("backup/churn", 0xf88a4e4fd54f5c7d),
    ("ad-psgd/churn", 0x12e6c7dc50719da2),
    ("sgp/churn", 0xc61f3628c78cf3cd),
    ("async-ps/churn", 0xd501be31935028b9),
    ("rna/partition", 0x5266d5e5a7b35a70),
    ("eager-sgd/partition", 0xe0b0bca78601d214),
    ("rna-hier/partition", 0xe0b5114ae868d493),
    ("horovod/partition", 0xa857ff7c82e85b4c),
    ("backup/partition", 0xe9c4eee8386bd9bf),
    ("ad-psgd/partition", 0x4c717149a863e53c),
    ("sgp/partition", 0x1331ecc3a94353cc),
    ("async-ps/partition", 0xa55498342bdce634),
    ("rna/clean/int8", 0x00cbbc64152f72db),
    ("eager-sgd/clean/int8", 0x4e3de630aa89b707),
    ("rna/crash+restart/int8", 0xaf7d13896caf3307),
    ("eager-sgd/crash+restart/int8", 0x78155c21fb085595),
    ("rna/churn/int8", 0xa8609bee1539d215),
    ("eager-sgd/churn/int8", 0xe9147d9a56363c61),
    ("rna/partition/int8", 0x05e3aac84f289b7e),
    ("eager-sgd/partition/int8", 0x90f70f3a5c91e146),
    ("rna-hier/regroup", 0x4fce8e56057acf7a),
    ("rna-hier/clean/int8", 0x19f0e4551a329152),
];

/// The four scenarios, each on the same jittered six-worker cluster.
fn scenario(name: &str) -> TrainSpec {
    let spec = TrainSpec::smoke_test(N, 17)
        .with_hetero(HeterogeneityModel::dynamic_uniform(N, 0, 20))
        .with_max_rounds(40);
    match name {
        "clean" => spec,
        "crash+restart" => {
            spec.with_fault_plan(FaultPlan::none().crash(5, 8).restart(2, 6, 20_000))
        }
        "churn" => spec.with_churn_plan(ChurnPlan::none().join(4, 6).retire(1, 15).evict(3, 22)),
        "partition" => {
            spec.with_net_fault_plan(NetFaultPlan::none().partition(vec![0, 1], 30_000, 90_000))
        }
        other => unreachable!("unknown scenario {other}"),
    }
}

/// FNV-1a over the run's reported bits.
fn digest(r: &RunResult) -> u64 {
    let mut bytes = Vec::new();
    for p in r.history.points() {
        for word in [
            p.time_s.to_bits(),
            p.iteration,
            p.loss.to_bits(),
            p.accuracy.to_bits(),
        ] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    Counters {
        datapath_allocs: 0,
        ..r.counters
    }
    .encode_into(&mut bytes);
    for word in [r.wall_time.as_nanos(), r.comm_bytes] {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    for &iters in &r.worker_iterations {
        bytes.extend_from_slice(&iters.to_le_bytes());
    }
    for fate in &r.worker_fates {
        fate.encode_into(&mut bytes);
    }
    fnv1a(&bytes)
}

fn run<P: Protocol>(spec: TrainSpec, protocol: P) -> u64 {
    digest(&Engine::new(spec, protocol).run())
}

fn rna(config: RnaConfig, election: SyncMode) -> RnaProtocol {
    RnaProtocol::new(N, config, 0).with_election(election)
}

/// The hierarchy: two groups of three, coupled through the PS stage.
fn hier(config: RnaConfig) -> RnaProtocol {
    let groups = vec![(0..N / 2).collect(), (N / 2..N).collect()];
    RnaProtocol::grouped(groups, config)
}

/// One row per protocol × scenario, then the int8 rows.
fn table() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for scene in ["clean", "crash+restart", "churn", "partition"] {
        let s = || scenario(scene);
        let lossless = RnaConfig::default();
        let cells = [
            ("rna", run(s(), rna(lossless.clone(), SyncMode::Rna))),
            (
                "eager-sgd",
                run(s(), rna(lossless.clone(), SyncMode::EagerMajority)),
            ),
            ("rna-hier", run(s(), hier(RnaConfig::default()))),
            ("horovod", run(s(), HorovodProtocol::new(N))),
            (
                "backup",
                run(s(), rna(lossless.clone(), SyncMode::Backup(1))),
            ),
            ("ad-psgd", run(s(), AdPsgdProtocol::new(N))),
            ("sgp", run(s(), SgpProtocol::new(N))),
            ("async-ps", run(s(), RnaProtocol::async_ps(N))),
        ];
        rows.extend(cells.map(|(name, d)| (format!("{name}/{scene}"), d)));
    }
    for scene in ["clean", "crash+restart", "churn", "partition"] {
        let int8 = || RnaConfig::default().with_compression(Compression::Int8);
        for (name, election) in [
            ("rna", SyncMode::Rna),
            ("eager-sgd", SyncMode::EagerMajority),
        ] {
            let d = run(scenario(scene), rna(int8(), election));
            rows.push((format!("{name}/{scene}/int8"), d));
        }
    }
    // The hierarchy's PS paths, each checked to fire on its own row.
    let gray = scenario("clean").with_fault_plan(FaultPlan::none().gray(2, 5, 2_000, 20_000));
    let one_group = RnaProtocol::grouped(vec![(0..N).collect()], RnaConfig::default())
        .with_regroup_policy(RegroupPolicy::default());
    let r = Engine::new(gray, one_group).run();
    assert!(r.regroup_events >= 1, "the gray straggler forces a swap");
    rows.push(("rna-hier/regroup".to_owned(), digest(&r)));
    let int8 = RnaConfig::default().with_compression(Compression::Int8);
    let r = Engine::new(scenario("clean"), hier(int8)).run();
    assert!(r.bytes_saved > 0, "the PS push is int8-encoded");
    rows.push(("rna-hier/clean/int8".to_owned(), digest(&r)));
    rows
}

#[test]
fn every_des_protocol_matches_its_golden_digest() {
    let got = table();
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(k, d)| (k.to_owned(), d)).collect();
    if got != want {
        let mut msg = String::from("golden digests moved:\n");
        for (name, d) in &got {
            match want.iter().find(|(k, _)| k == name) {
                Some((_, w)) if w == d => {}
                Some((_, w)) => msg += &format!("  {name}: {w:#018x} -> {d:#018x}\n"),
                None => msg += &format!("  {name}: new row {d:#018x}\n"),
            }
        }
        msg += "\nthe recomputed table, to paste over GOLDEN after review:\n\n";
        msg += "const GOLDEN: &[(&str, u64)] = &[\n";
        for (name, d) in &got {
            msg += &format!("    (\"{name}\", {d:#018x}),\n");
        }
        msg += "];\n";
        panic!("{msg}");
    }
}

#[test]
fn every_fault_scenario_reaches_its_protocol() {
    let rows = table();
    let mut unreached = Vec::new();
    for (name, d) in &rows {
        let scene = name.split('/').nth(1).expect("protocol/scenario");
        if !["crash+restart", "churn", "partition"].contains(&scene) {
            continue;
        }
        let clean = name.replacen(scene, "clean", 1);
        if rows.iter().any(|(k, c)| *k == clean && c == d) {
            unreached.push(name.as_str());
        }
    }
    assert!(
        unreached.is_empty(),
        "fault rows equal to their protocol's clean row: {unreached:?}"
    );
}
