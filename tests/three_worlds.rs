//! Cross-check across all THREE execution worlds: the discrete-event
//! simulator, the threaded runtime, and the multi-process runtime over
//! real TCP sockets.
//!
//! The same `FaultPlan` drives a simulated crash, a thread that stops
//! looping, and a subprocess that genuinely `abort()`s mid-protocol —
//! every world must freeze the victim at the identical iteration, finish
//! its round budget, and still reduce the loss. This is what keeps the
//! simulator's quantitative claims honest: the event model, the
//! shared-memory model, and the socket model cannot drift apart without
//! one of these assertions catching it.

use rna_core::fault::FaultPlan;
use rna_core::rna::RnaProtocol;
use rna_core::sim::{Engine, TrainSpec};
use rna_core::RnaConfig;
use rna_runtime::{
    run_process, run_threaded, Compression, ProcessConfig, SyncMode, ThreadedConfig,
};

/// Frame-count identity for a codec on the quick model (36 parameters):
/// `bytes_on_wire / frame_bytes(codec)` and
/// `(bytes_on_wire + bytes_saved) / frame_bytes(lossless)` are the same
/// frame count, so the cross-multiplied products must match exactly.
fn assert_codec_accounting(bytes_on_wire: u64, bytes_saved: u64, codec: Compression, world: &str) {
    let lossless = Compression::Lossless.frame_bytes(36);
    let lossy = codec.frame_bytes(36);
    assert!(bytes_on_wire > 0, "{world}: no bytes accounted");
    assert!(bytes_saved > 0, "{world}: lossy codec saved nothing");
    assert_eq!(
        bytes_on_wire * lossless,
        (bytes_on_wire + bytes_saved) * lossy,
        "{world}: byte accounting is not frame-exact"
    );
}

#[test]
fn all_three_worlds_agree_on_the_same_crash_plan() {
    // Worker 2 dies after exactly 5 iterations, everywhere.
    let n = 3;
    let plan = FaultPlan::none().crash(2, 5);

    // World one: discrete-event simulation.
    let spec = TrainSpec::smoke_test(n, 7)
        .with_max_rounds(120)
        .with_fault_plan(plan.clone());
    let s = Engine::new(spec, RnaProtocol::new(n, RnaConfig::default(), 0)).run();
    assert_eq!(s.global_rounds, 120);
    assert_eq!(s.worker_iterations[2], 5, "simulated victim frozen at 5");
    assert!(s.worker_iterations[0] > 5, "simulated survivors continue");

    // World two: OS threads in one process.
    let t = run_threaded(&ThreadedConfig::quick(n, SyncMode::Rna).with_fault_plan(plan.clone()));
    assert_eq!(t.rounds, 30);
    assert!(t.worker_fates[2].is_dead());
    assert_eq!(t.worker_iterations[2], 5, "threaded victim frozen at 5");
    assert!(t.final_loss < 1.4, "threaded loss {}", t.final_loss);

    // World three: subprocesses over TCP. The "crash" is a real
    // `abort()` — the coordinator learns of it from the dead socket.
    let mut config = ProcessConfig::quick(n, SyncMode::Rna);
    config.base = config.base.with_fault_plan(plan);
    let p = run_process(&config);
    assert_eq!(p.run.rounds, 30);
    assert!(p.run.worker_fates[2].is_dead());
    assert_eq!(p.run.worker_iterations[2], 5, "process victim frozen at 5");
    assert_eq!(p.run.live_workers(), 2);
    assert!(p.run.final_loss < 1.4, "process loss {}", p.run.final_loss);
    assert_eq!(p.worker_respawns, 0, "a planned crash is not respawned");
}

#[test]
fn threaded_and_process_worlds_converge_alike() {
    let t = run_threaded(&ThreadedConfig::quick(3, SyncMode::Rna));
    let p = run_process(&ProcessConfig::quick(3, SyncMode::Rna));
    for (world, loss, acc) in [
        ("threaded", t.final_loss, t.final_accuracy),
        ("process", p.run.final_loss, p.run.final_accuracy),
    ] {
        assert!(loss < 1.4, "{world} loss {loss}");
        assert!(acc > 0.5, "{world} acc {acc}");
    }
    // Both worlds run the same model, same seed, same number of workers —
    // their evaluation datasets are bit-identical, so wildly different
    // outcomes would mean one world's data path is broken.
    assert!((t.final_loss - p.run.final_loss).abs() < 0.5);
}

#[test]
fn byte_accounting_is_frame_exact_in_both_real_worlds() {
    // Fp16 on the 36-parameter quick model: every gradient frame is 88
    // bytes where lossless would be 160. The saved-bytes counter must be
    // exact in both real worlds, and both measure it the same way: the
    // worker encodes before it deposits (a thread into its scratch, a
    // subprocess into the frame it writes to the socket) and the mirror
    // tallies the length of the frame that was actually produced. The
    // identity holds only if every measured frame matches the DES's formula
    // byte-for-byte.
    let codec = Compression::Fp16;
    let t = run_threaded(&ThreadedConfig::quick(3, SyncMode::Rna).with_compression(codec));
    assert_codec_accounting(t.bytes_on_wire, t.bytes_saved, codec, "threaded");

    let mut config = ProcessConfig::quick(3, SyncMode::Rna);
    config.base = config.base.with_compression(codec);
    let p = run_process(&config);
    assert_codec_accounting(p.run.bytes_on_wire, p.run.bytes_saved, codec, "process");
}

#[test]
fn socket_measured_bytes_match_the_formula_for_every_codec() {
    // The same frame-exactness, across the whole codec family, against
    // real sockets. Every frame a worker encodes must arrive at exactly
    // the size the DES *charges* — and fp16 must meet
    // the 0.55x floor: 88 of every 160 lossless-equivalent bytes, exactly.
    for codec in [
        Compression::Fp16,
        Compression::Int8,
        Compression::TopK { permille: 250 },
    ] {
        let mut config = ProcessConfig::quick(3, SyncMode::Rna);
        config.base = config.base.with_compression(codec);
        let p = run_process(&config);
        assert_eq!(p.run.rounds, 30, "{codec:?}: run must complete");
        assert_codec_accounting(
            p.run.bytes_on_wire,
            p.run.bytes_saved,
            codec,
            "process-measured",
        );
        assert!(
            p.run.codec_error_l2 > 0.0,
            "{codec:?}: worker-side error feedback reported no quantization error"
        );
    }

    // The fp16 floor, stated on the measured totals: wire bytes are at
    // most 0.55x what the same frames would have cost lossless (88/160
    // exactly, so the inequality is tight).
    let mut config = ProcessConfig::quick(3, SyncMode::Rna);
    config.base = config.base.with_compression(Compression::Fp16);
    let p = run_process(&config);
    let lossless_equiv = p.run.bytes_on_wire + p.run.bytes_saved;
    assert!(
        p.run.bytes_on_wire * 100 <= lossless_equiv * 55,
        "fp16 socket bytes {} exceed 0.55x of the lossless-equivalent {}",
        p.run.bytes_on_wire,
        lossless_equiv
    );
}

#[test]
fn residuals_survive_a_severed_socket_as_worker_state() {
    // Error-feedback residuals live in the worker process, not the
    // coordinator: severing the socket mid-run (a real partition healed
    // by the worker's reconnect loop) must not disturb the codec path —
    // the run completes, the accounting stays frame-exact, and the same
    // seed routes the same counters run over run.
    let run = || {
        let mut config = ProcessConfig::quick(3, SyncMode::Rna).with_sever(0, 6);
        config.base.rounds = 40;
        config.base = config.base.with_compression(Compression::Int8);
        run_process(&config)
    };
    let a = run();
    assert_eq!(a.run.rounds, 40);
    assert!(a.sockets_severed >= 1, "the sever never fired");
    assert!(a.reconnect_attempts >= 1, "the worker never re-handshook");
    assert_eq!(a.worker_respawns, 0, "a sever heals without a respawn");
    assert_eq!(a.run.live_workers(), 3);
    assert_codec_accounting(
        a.run.bytes_on_wire,
        a.run.bytes_saved,
        Compression::Int8,
        "severed-int8",
    );

    let b = run();
    assert_eq!(
        (
            a.run.rounds,
            a.sockets_severed,
            a.worker_respawns,
            a.auth_rejects,
        ),
        (
            b.run.rounds,
            b.sockets_severed,
            b.worker_respawns,
            b.auth_rejects,
        ),
        "same-seed reruns must route the sever identically under a codec"
    );
}
