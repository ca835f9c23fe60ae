//! Reproducibility: every protocol run is a pure function of its seed.
//!
//! The whole evaluation depends on this — the paper's comparisons are only
//! meaningful if re-running a configuration yields the same trace.

use rna_baselines::{AdPsgdProtocol, HorovodProtocol, SgpProtocol};
use rna_core::rna::{Election, RnaProtocol};
use rna_core::sim::{Engine, TrainSpec};
use rna_core::{RnaConfig, RunResult};
use rna_workload::HeterogeneityModel;

fn spec(seed: u64) -> TrainSpec {
    let n = 5;
    TrainSpec::smoke_test(n, seed)
        .with_hetero(HeterogeneityModel::dynamic_uniform(n, 0, 30))
        .with_max_rounds(80)
}

fn assert_identical(a: &RunResult, b: &RunResult) {
    assert_eq!(a.wall_time, b.wall_time, "{}", a.protocol);
    assert_eq!(a.global_rounds, b.global_rounds, "{}", a.protocol);
    assert_eq!(a.worker_iterations, b.worker_iterations, "{}", a.protocol);
    assert_eq!(a.comm_bytes, b.comm_bytes, "{}", a.protocol);
    assert_eq!(a.final_loss(), b.final_loss(), "{}", a.protocol);
    assert_eq!(
        a.history.points().len(),
        b.history.points().len(),
        "{}",
        a.protocol
    );
}

type NamedRun = (&'static str, Box<dyn Fn() -> RunResult>);

#[test]
fn all_protocols_are_seed_deterministic() {
    let n = 5;
    let runs: Vec<NamedRun> = vec![
        (
            "horovod",
            Box::new(move || Engine::new(spec(1), HorovodProtocol::new(n)).run()),
        ),
        (
            "eager",
            Box::new(move || {
                Engine::new(
                    spec(2),
                    RnaProtocol::new(n, RnaConfig::default(), 0).with_election(Election::Majority),
                )
                .run()
            }),
        ),
        (
            "adpsgd",
            Box::new(move || Engine::new(spec(3), AdPsgdProtocol::new(n)).run()),
        ),
        (
            "sgp",
            Box::new(move || Engine::new(spec(4), SgpProtocol::new(n)).run()),
        ),
        (
            "rna",
            Box::new(move || {
                Engine::new(spec(5), RnaProtocol::new(n, RnaConfig::default(), 0)).run()
            }),
        ),
        (
            "hier",
            Box::new(move || {
                let groups = vec![vec![0, 1, 2], vec![3, 4]];
                Engine::new(spec(6), RnaProtocol::grouped(groups, RnaConfig::default())).run()
            }),
        ),
    ];
    for (name, run) in runs {
        let a = run();
        let b = run();
        assert_identical(&a, &b);
        assert!(!a.protocol.is_empty(), "{name}");
    }
}

#[test]
fn different_seeds_differ() {
    let n = 5;
    let a = Engine::new(spec(100), RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    let b = Engine::new(spec(101), RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    // Different delay draws → different timing; extremely unlikely to tie.
    assert_ne!(a.wall_time, b.wall_time);
}

#[test]
fn history_is_monotone_in_time() {
    let n = 5;
    let r = Engine::new(spec(7), RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    let pts = r.history.points();
    for w in pts.windows(2) {
        assert!(w[1].time_s >= w[0].time_s);
        assert!(w[1].iteration >= w[0].iteration);
    }
}

#[test]
fn experiment_runner_is_deterministic() {
    use rna_experiments::runners::fig10;
    use rna_experiments::ExperimentScale;
    let a = fig10::run(ExperimentScale::Quick);
    let b = fig10::run(ExperimentScale::Quick);
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.summary.p50, rb.summary.p50);
        assert_eq!(ra.summary.mean, rb.summary.mean);
    }
}

// --- Whole-run trajectory pins ---------------------------------------------
//
// Captured on the commit before the fused evaluation and the blocked dense
// kernel landed (PR 17, 359afd8). Every evaluated loss and accuracy, the
// final top-5, the wire bytes and the virtual clock must stay where they
// were, to the bit: a kernel that reorders one floating-point sum moves a
// logit by an ulp, the ulp moves a gradient, and the trajectory diverges.

use rna_core::sim::TaskKind;
use rna_core::Compression;
use rna_simnet::SimDuration;

/// `[loss bits, accuracy bits]` per history point, then `final_top5` bits,
/// `bytes_on_wire` and `wall_time` in nanoseconds.
fn fingerprint(r: &RunResult) -> Vec<u64> {
    let mut f: Vec<u64> = r
        .history
        .points()
        .iter()
        .flat_map(|p| [p.loss.to_bits(), p.accuracy.to_bits()])
        .collect();
    f.extend([
        r.final_top5.to_bits(),
        r.bytes_on_wire,
        r.wall_time.as_nanos(),
    ]);
    f
}

/// The `des-mlp64k` benchmark shape: 8 workers, `Mlp` 256-240-16, int8 with
/// stochastic rounding and error feedback, evaluated every 10 rounds.
fn mlp64k_run() -> RunResult {
    let n = 8;
    let mut spec = TrainSpec::smoke_test(n, 3)
        .with_hetero(HeterogeneityModel::dynamic_uniform(n, 0, 50))
        .with_max_rounds(30)
        .with_max_time(SimDuration::from_secs(86_400));
    spec.task = TaskKind::Classification {
        dim: 256,
        classes: 16,
        hidden: Some(240),
        samples: 2048,
        spread: 4.0,
    };
    spec.eval_every = 10;
    let rna = RnaProtocol::new(
        n,
        RnaConfig::default().with_compression(Compression::Int8),
        0,
    );
    Engine::new(spec, rna).run()
}

const MLP64K_PINS: [u64; 11] = [
    0x3ff2c64700000000,
    0x3fe6ec98c0000000,
    0x3fe3e56a60000000,
    0x3feb262e60000000,
    0x3fdeae9060000000,
    0x3fec2a9000000000,
    0x3fdeae9060000000,
    0x3fec2a9000000000,
    0x3fefafe200000000,
    0x27fd95540,
    0x14b33c14,
];

const SOFTMAX36_PINS: [u64; 37] = [
    0x3fdebd67e0000000,
    0x3fe9b9b9c0000000,
    0x3fd4145f00000000,
    0x3ff0000000000000,
    0x3fcf13cb80000000,
    0x3fef5f5f60000000,
    0x3fc9c6ea80000000,
    0x3ff0000000000000,
    0x3fc64f9c40000000,
    0x3ff0000000000000,
    0x3fc43f82e0000000,
    0x3ff0000000000000,
    0x3fc2cd6f00000000,
    0x3ff0000000000000,
    0x3fc0e438c0000000,
    0x3fef5f5f60000000,
    0x3fc00eb100000000,
    0x3fef5f5f60000000,
    0x3fbcf4c580000000,
    0x3ff0000000000000,
    0x3fbc078200000000,
    0x3fef5f5f60000000,
    0x3fb9e828a0000000,
    0x3ff0000000000000,
    0x3fb9279460000000,
    0x3fef5f5f60000000,
    0x3fb88416e0000000,
    0x3fef5f5f60000000,
    0x3fb8f090c0000000,
    0x3fef5f5f60000000,
    0x3fb7733da0000000,
    0x3fef5f5f60000000,
    0x3fb7733da0000000,
    0x3fef5f5f60000000,
    0x3ff0000000000000,
    0xf3c019c80,
    0x427dd7c4,
];

/// Under both codec dispatches: int8 stochastic rounding consumes a draw per
/// element, so a vector kernel that routes one draw differently from the
/// scalar reference lands on another trajectory. (Forcing the scalar path is
/// process-wide; the other tests here are indifferent to it by the same
/// contract.)
#[test]
fn mlp64k_trajectory_is_pinned_to_the_bit() {
    for forced_scalar in [true, false] {
        rna_tensor::simd::set_forced_scalar(forced_scalar);
        assert_eq!(
            fingerprint(&mlp64k_run()),
            MLP64K_PINS,
            "forced_scalar = {forced_scalar}"
        );
    }
}

/// The Elman RNN on variable-length sequences (lengths 3–12, 10 hidden
/// units: two row blocks and a remainder), 5 workers, lossless, evaluated
/// every 10 rounds.
fn rnn_run() -> RunResult {
    let n = 5;
    let mut spec = TrainSpec::smoke_test(n, 9)
        .with_hetero(HeterogeneityModel::dynamic_uniform(n, 0, 30))
        .with_max_rounds(40);
    spec.task = TaskKind::Sequence {
        input_dim: 4,
        classes: 4,
        hidden: 10,
        samples: 360,
        noise: 0.5,
        min_len: 3,
        max_len: 12,
    };
    spec.eval_every = 10;
    Engine::new(spec, RnaProtocol::new(n, RnaConfig::default(), 0)).run()
}

/// Captured before the RNN's tanh moved off the host libm onto
/// `rna_tensor::dense::tanh_in_place`.
const RNN_PINS: [u64; 13] = [
    0x3fe2b175a0000000,
    0x3fec71c720000000,
    0x3fd2923be0000000,
    0x3fedc71c80000000,
    0x3fc191d7a0000000,
    0x3ff0000000000000,
    0x3fa9fdd080000000,
    0x3ff0000000000000,
    0x3fa9fdd080000000,
    0x3ff0000000000000,
    0x3ff0000000000000,
    0x79e00ce40,
    0x233843fe,
];

/// Under both dispatches: the RNN's forward runs the dispatching `matmat`
/// and `tanh_in_place`, its backward `outer_acc` and `back`.
#[test]
fn rnn_trajectory_is_pinned_to_the_bit() {
    for forced_scalar in [true, false] {
        rna_tensor::simd::set_forced_scalar(forced_scalar);
        assert_eq!(
            fingerprint(&rnn_run()),
            RNN_PINS,
            "forced_scalar = {forced_scalar}"
        );
    }
}

#[test]
fn softmax36_trajectory_is_pinned_to_the_bit() {
    let r = Engine::new(spec(5), RnaProtocol::new(5, RnaConfig::default(), 0)).run();
    assert_eq!(fingerprint(&r), SOFTMAX36_PINS);
}
