//! Golden digests of the simulator: one FNV-1a digest per DES protocol and
//! scenario, over everything a run reports that a protocol change could
//! move — the history bits, the `Counters` ledger, the virtual wall time,
//! the wire bytes, every worker's iteration count and every fate.
//!
//! Rows are every DES protocol × {clean, crash + restart, churn,
//! partition}, plus the int8 wire codec for the two `RnaProtocol`
//! elections (the other protocols ignore `RnaConfig`). The table is the
//! one place a change to the simulator, a protocol or the data path shows
//! up as a named, reviewable diff: on a mismatch the test prints the whole
//! recomputed table, and a deliberate re-pin is that table pasted over
//! `GOLDEN` in the same change that moves it.
//!
//! `Counters::datapath_allocs` is left out: its hook counts only in debug
//! builds, so it differs between profiles while the numbers never do.

use rna_baselines::{
    AdPsgdProtocol, AsyncPsProtocol, BackupWorkersProtocol, HorovodProtocol, SgpProtocol,
};
use rna_core::fault::{FaultPlan, NetFaultPlan};
use rna_core::membership::ChurnPlan;
use rna_core::rna::{Election, RnaProtocol};
use rna_core::sim::{Engine, Protocol, TrainSpec};
use rna_core::stats::Counters;
use rna_core::{RnaConfig, RunResult};
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
    ("horovod/clean", 0x08c2bdcfa5a22b4f),
    ("backup/clean", 0x60f729918794f32a),
    ("ad-psgd/clean", 0x2a40d98e04e27b84),
    ("sgp/clean", 0x13f32af1c7eaf5b7),
    ("async-ps/clean", 0xb455b3b704dbf386),
    ("rna/crash+restart", 0x4dc089647467a82a),
    ("eager-sgd/crash+restart", 0x1d470774e96d743f),
    ("rna-hier/crash+restart", 0xbde8c5b431cab05f),
    ("horovod/crash+restart", 0xf393a3b309a83cbc),
    ("backup/crash+restart", 0xb5d99b9e1f20f31d),
    ("ad-psgd/crash+restart", 0x873e8a6b956542df),
    ("sgp/crash+restart", 0x39e97a934f4ee9a9),
    ("async-ps/crash+restart", 0xc34c8a0249549ced),
    ("rna/churn", 0xbdbd6c34d71dc3f1),
    ("eager-sgd/churn", 0x09c8c36e84ca9377),
    ("rna-hier/churn", 0xa2b216d195a96f21),
    ("horovod/churn", 0x31c66cc2eab902d6),
    ("backup/churn", 0x25cf9d5525e47d97),
    ("ad-psgd/churn", 0x1c39b213833b2762),
    ("sgp/churn", 0x26274a985daa088d),
    ("async-ps/churn", 0xad405dee0e5e5cec),
    ("rna/partition", 0x54d88d50cce1af50),
    ("eager-sgd/partition", 0x7d9a5313d0492534),
    ("rna-hier/partition", 0x6ff6e21c6a978173),
    ("horovod/partition", 0x08c2bdcfa5a22b4f),
    ("backup/partition", 0x60f729918794f32a),
    ("ad-psgd/partition", 0x2a40d98e04e27b84),
    ("sgp/partition", 0x13f32af1c7eaf5b7),
    ("async-ps/partition", 0xb455b3b704dbf386),
    ("rna/clean/int8", 0x4455509cddac1a55),
    ("eager-sgd/clean/int8", 0x1fd6f3c28fad65f9),
    ("rna/crash+restart/int8", 0x7cc75ac67dc91567),
    ("eager-sgd/crash+restart/int8", 0xfb739a9425df8a1b),
    ("rna/churn/int8", 0x31e33010c26f92b4),
    ("eager-sgd/churn/int8", 0xc1a54a9ed42c7c10),
    ("rna/partition/int8", 0xa0eb2936b78e493c),
    ("eager-sgd/partition/int8", 0xc8d03a7a153361dc),
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

fn rna(config: RnaConfig, election: Election) -> RnaProtocol {
    RnaProtocol::new(N, config, 0).with_election(election)
}

/// One row per protocol × scenario, then the int8 rows.
fn table() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for scene in ["clean", "crash+restart", "churn", "partition"] {
        let s = || scenario(scene);
        let hier = || {
            let groups = vec![(0..N / 2).collect(), (N / 2..N).collect()];
            RnaProtocol::grouped(groups, RnaConfig::default())
        };
        let lossless = RnaConfig::default();
        let cells = [
            ("rna", run(s(), rna(lossless.clone(), Election::Probe))),
            ("eager-sgd", run(s(), rna(lossless, Election::Majority))),
            ("rna-hier", run(s(), hier())),
            ("horovod", run(s(), HorovodProtocol::new(N))),
            ("backup", run(s(), BackupWorkersProtocol::new(N, 1))),
            ("ad-psgd", run(s(), AdPsgdProtocol::new(N))),
            ("sgp", run(s(), SgpProtocol::new(N))),
            ("async-ps", run(s(), AsyncPsProtocol::new(N))),
        ];
        rows.extend(cells.map(|(name, d)| (format!("{name}/{scene}"), d)));
    }
    for scene in ["clean", "crash+restart", "churn", "partition"] {
        let int8 = || RnaConfig::default().with_compression(Compression::Int8);
        for (name, election) in [("rna", Election::Probe), ("eager-sgd", Election::Majority)] {
            let d = run(scenario(scene), rna(int8(), election));
            rows.push((format!("{name}/{scene}/int8"), d));
        }
    }
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
