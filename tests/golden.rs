//! Golden digests of the simulator: one FNV-1a digest per DES protocol and
//! scenario, over everything a run reports that a protocol change could
//! move — the history bits, the `Counters` ledger, the virtual wall time,
//! the wire bytes, every worker's iteration count and every fate.
//!
//! Rows are every DES protocol × {clean, crash + restart, churn,
//! partition}, plus the int8 wire codec for RNA's probe and majority
//! elections, plus three rows for the hierarchy's parameter-server paths:
//! two PS-shard crashes, an online regroup forced by a gray straggler in
//! one launch group, and the int8 PS push. Each of those three asserts that its path fired. The table is the
//! one place a change to the simulator, a protocol or the data path shows
//! up as a named, reviewable diff: on a mismatch the test prints the whole
//! recomputed table, and a deliberate re-pin is that table pasted over
//! `GOLDEN` in the same change that moves it.
//!
//! `Counters::datapath_allocs` is left out: its hook counts only in debug
//! builds, so it differs between profiles while the numbers never do.

use rna_baselines::{AdPsgdProtocol, AsyncPsProtocol, HorovodProtocol, SgpProtocol};
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
    ("rna/clean", 0x79af364151a88e0f),
    ("eager-sgd/clean", 0x12465c6a1fa28a74),
    ("rna-hier/clean", 0x8ab80c6c96466a60),
    ("horovod/clean", 0xd7132c027107e2c6),
    ("backup/clean", 0x3729ddb7b7a024a9),
    ("ad-psgd/clean", 0x2a40d98e04e27b84),
    ("sgp/clean", 0x13f32af1c7eaf5b7),
    ("async-ps/clean", 0xb455b3b704dbf386),
    ("rna/crash+restart", 0x4dc089647467a82a),
    ("eager-sgd/crash+restart", 0x1d470774e96d743f),
    ("rna-hier/crash+restart", 0xbde8c5b431cab05f),
    ("horovod/crash+restart", 0xd8c65333fa863354),
    ("backup/crash+restart", 0x8d695e49d54473f6),
    ("ad-psgd/crash+restart", 0x873e8a6b956542df),
    ("sgp/crash+restart", 0x39e97a934f4ee9a9),
    ("async-ps/crash+restart", 0xc34c8a0249549ced),
    ("rna/churn", 0xbdbd6c34d71dc3f1),
    ("eager-sgd/churn", 0x09c8c36e84ca9377),
    ("rna-hier/churn", 0xa2b216d195a96f21),
    ("horovod/churn", 0xa65e8feafa3f8e0f),
    ("backup/churn", 0xda76590f9b6efbfd),
    ("ad-psgd/churn", 0x1c39b213833b2762),
    ("sgp/churn", 0x26274a985daa088d),
    ("async-ps/churn", 0xad405dee0e5e5cec),
    ("rna/partition", 0x54d88d50cce1af50),
    ("eager-sgd/partition", 0x7d9a5313d0492534),
    ("rna-hier/partition", 0x6ff6e21c6a978173),
    ("horovod/partition", 0x80438f1db7d048ac),
    ("backup/partition", 0x9cbf5bbe4bb5235f),
    ("ad-psgd/partition", 0x2a40d98e04e27b84),
    ("sgp/partition", 0x13f32af1c7eaf5b7),
    ("async-ps/partition", 0xb455b3b704dbf386),
    ("rna/clean/int8", 0x15b879f56f0ae07b),
    ("eager-sgd/clean/int8", 0x008c39d0a4f7a467),
    ("rna/crash+restart/int8", 0x2957186d2d7457a7),
    ("eager-sgd/crash+restart/int8", 0x97cd6962d08b4895),
    ("rna/churn/int8", 0x909dc9729ffd8c15),
    ("eager-sgd/churn/int8", 0x80d9064b15092a01),
    ("rna/partition/int8", 0x5cac47e057c9bede),
    ("eager-sgd/partition/int8", 0x9851c890cb5da646),
    ("rna-hier/ps-shard-crash", 0x7732fc57746787d6),
    ("rna-hier/regroup", 0x464d43e1d323e721),
    ("rna-hier/clean/int8", 0xf8ba97f7e1b187b2),
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
        "churn" => spec.with_churn_plan(
            ChurnPlan::none()
                .join(4, 6, 500_000)
                .retire(1, 15)
                .evict(3, 22),
        ),
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
            ("async-ps", run(s(), AsyncPsProtocol::new(N))),
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
    let shards = FaultPlan::none().crash_ps_shard(0, 4).crash_ps_shard(1, 7);
    let r = Engine::new(
        scenario("clean").with_fault_plan(shards),
        hier(RnaConfig::default()),
    )
    .run();
    assert_eq!(r.ps_failovers, 2, "both shard crashes fire");
    rows.push(("rna-hier/ps-shard-crash".to_owned(), digest(&r)));
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
