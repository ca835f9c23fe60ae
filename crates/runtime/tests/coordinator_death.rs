//! Survivability of the process world's *control plane*: the coordinator
//! is killed mid-run and restarted from its disk checkpoints, workers
//! reconnect through capped backoff, hostile handshakes are rejected and
//! counted, and the PR 2 chaos matrix runs over real sockets through the
//! per-link fault proxy.
//!
//! Every run goes through a watchdog so a livelock fails the test with a
//! diagnosis instead of hanging the suite. `RNA_CHAOS_SEED` reseeds the
//! chaos plan (CI sweeps several); everything else is pinned.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use rna_core::fault::{ToleranceConfig, WorkerFate};
use rna_runtime::proto::{compute_mac, read_msg, write_msg, Msg};
use rna_runtime::{
    run_threaded, AddrBook, Compression, NetFaultPlan, ProcessConfig, ProcessResult, SyncMode,
    ThreadedConfig,
};

fn quick(n: usize, mode: SyncMode) -> ProcessConfig {
    ProcessConfig::quick(n, mode).with_worker_exe(env!("CARGO_BIN_EXE_rna-worker"))
}

/// Runs the config on a helper thread and panics if it does not finish
/// within a generous bound — a coordinator restart that wedges must fail
/// loudly, not hang the suite.
fn run_bounded(config: ProcessConfig) -> ProcessResult {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(rna_runtime::run_process(&config));
    });
    let result = rx
        .recv_timeout(Duration::from_secs(180))
        .expect("run_process blocked past the watchdog timeout");
    handle.join().expect("runner thread panicked");
    result
}

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rna-coord-death-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// 3 workers, 40 rounds, checkpoints every 5 rounds, and the coordinator
/// murdered at rounds 8, 16, and 24.
fn killing_soak(dir: &Path) -> ProcessResult {
    killing_soak_with(dir, Compression::Lossless)
}

fn killing_soak_with(dir: &Path, codec: Compression) -> ProcessResult {
    let mut config = quick(3, SyncMode::Rna)
        .with_coord_kill(8)
        .with_coord_kill(16)
        .with_coord_kill(24);
    config.base.rounds = 40;
    config.base = config
        .base
        .with_compression(codec)
        .with_tolerance(ToleranceConfig::tight())
        .with_checkpoint_every(5)
        .with_recovery_dir(dir);
    run_bounded(config)
}

/// The deterministically routed counters of a run — everything that must
/// replay bit-identically under the same seed. Timing-dependent
/// observables (loss, per-worker iteration counts, byte totals) are
/// deliberately excluded.
fn counters(r: &ProcessResult) -> [u64; 10] {
    [
        r.run.rounds,
        r.coordinator_restarts,
        r.reconnect_attempts,
        r.auth_rejects,
        r.worker_respawns,
        r.sockets_severed,
        r.proxy_faults_injected,
        r.run.controller_failovers,
        r.run.failover_rounds_lost,
        r.run.checkpoints_written,
    ]
}

#[test]
fn coordinator_kills_recover_from_disk_and_workers_reconnect() {
    let dir = scratch_dir("soak-a");
    let r = killing_soak(&dir);

    assert_eq!(r.run.rounds, 40);
    assert_eq!(r.coordinator_restarts, 3, "every scheduled kill fired");
    // Each kill severs all three workers, and each reconnects exactly once.
    assert_eq!(r.reconnect_attempts, 9, "3 kills x 3 workers re-handshakes");
    assert_eq!(r.auth_rejects, 0, "live incarnations re-admit cleanly");
    assert_eq!(r.worker_respawns, 0, "a dead coordinator kills no workers");
    // Checkpoints cut at rounds 5, 10, 15, 20, ...; kills at 8, 16, 24
    // land on recovery points 5, 15, 20, honestly redoing 3 + 1 + 4 rounds.
    assert_eq!(r.run.failover_rounds_lost, 8, "redone rounds are counted");
    assert_eq!(r.run.live_workers(), 3);
    assert!(r.run.final_loss < 1.4, "loss {}", r.run.final_loss);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn same_seed_reruns_replay_the_counters_bit_identically() {
    let dir_a = scratch_dir("replay-a");
    let dir_b = scratch_dir("replay-b");
    let a = killing_soak(&dir_a);
    let b = killing_soak(&dir_b);
    assert_eq!(
        counters(&a),
        counters(&b),
        "a same-seed rerun must route every survivability counter identically"
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn compressed_soak_replays_and_routes_like_the_plain_one() {
    // The killing soak under a lossy wire codec: the workers' residuals
    // and stochastic-rounding streams are worker-local state, so three
    // coordinator kills (each severing every socket, each worker
    // reconnecting with its residual intact) must neither disturb how the
    // run is routed nor how a same-seed rerun replays.
    let dir_a = scratch_dir("cmp-replay-a");
    let dir_b = scratch_dir("cmp-replay-b");
    let dir_c = scratch_dir("cmp-replay-c");
    let a = killing_soak_with(&dir_a, Compression::Fp16);
    let b = killing_soak_with(&dir_b, Compression::Fp16);
    assert_eq!(
        counters(&a),
        counters(&b),
        "a compressed same-seed rerun must replay its counters bit-identically"
    );
    let plain = killing_soak(&dir_c);
    assert_eq!(
        counters(&a),
        counters(&plain),
        "the wire codec must not change how the survivability machinery routes"
    );
    // Survivors' byte accounting stays frame-exact through three
    // coordinator restarts: measured frames always match the formula.
    let lossless = Compression::Lossless.frame_bytes(36);
    let lossy = Compression::Fp16.frame_bytes(36);
    assert!(a.run.bytes_on_wire > 0 && a.run.bytes_saved > 0);
    assert_eq!(
        a.run.bytes_on_wire * lossless,
        (a.run.bytes_on_wire + a.run.bytes_saved) * lossy,
        "socket-measured accounting lost frame-exactness across restarts"
    );
    assert!(a.run.final_loss < 1.4, "loss {}", a.run.final_loss);
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
    let _ = std::fs::remove_dir_all(&dir_c);
}

#[test]
fn sigkilled_worker_under_a_codec_restarts_its_residual_cleanly() {
    // A SIGKILL the fault plan never announced, with int8-sr on the wire:
    // the respawned incarnation starts a *fresh* residual (exactly like a
    // failed-over controller used to), resumes from the checkpointed
    // iteration, and the accounting stays frame-exact — a half-written
    // frame from the killed process must be dropped by the reader, never
    // double-counted.
    let mut config = quick(3, SyncMode::Rna).with_kill9(1, 8);
    config.base.rounds = 40;
    config.base = config
        .base
        .with_compression(Compression::Int8)
        .with_tolerance(ToleranceConfig::tight());
    let r = run_bounded(config);
    assert_eq!(r.run.rounds, 40);
    assert!(r.worker_respawns >= 1, "no respawn after SIGKILL");
    assert_eq!(r.run.live_workers(), 3);
    let lossless = Compression::Lossless.frame_bytes(36);
    let lossy = Compression::Int8.frame_bytes(36);
    assert_eq!(
        r.run.bytes_on_wire * lossless,
        (r.run.bytes_on_wire + r.run.bytes_saved) * lossy,
        "a SIGKILL mid-frame corrupted the measured accounting"
    );
    assert!(r.run.final_loss < 1.4, "loss {}", r.run.final_loss);
}

#[test]
fn a_respawned_worker_is_readmitted_after_the_round_counter_rolls_back() {
    // Worker 0 is fast, so it runs its whole lead ahead of the round
    // counter. It is SIGKILLed at round 12 and respawned to resume at its
    // iteration count; the coordinator dies at round 14 and restarts from
    // the cut at round 10. The respawned incarnation now resumes more than
    // the lead bound past the restored counter, but not past the highest
    // round the coordinator ever published, so its re-handshake must be
    // admitted and its lead gate must park it until the redone rounds
    // catch up. A refused Setup would exit the process and force one
    // respawn after another until the counter climbed back.
    let dir = scratch_dir("rollback-respawn");
    let mut config = quick(3, SyncMode::Rna)
        .with_kill9(0, 12)
        .with_coord_kill(14);
    config.base.rounds = 40;
    config.base.max_lead = 3;
    config.base.compute_us = vec![(200, 400), (4_000, 6_000), (4_000, 6_000)];
    config.base = config
        .base
        .with_tolerance(ToleranceConfig::tight())
        .with_checkpoint_every(5)
        .with_recovery_dir(&dir);
    let r = run_bounded(config);
    assert_eq!(r.run.rounds, 40);
    assert_eq!(r.coordinator_restarts, 1);
    assert_eq!(r.worker_respawns, 1, "the SIGKILL is the only death");
    let WorkerFate::Restarted { at_iter, rejoined } = r.run.worker_fates[0] else {
        panic!("fates: {:?}", r.run.worker_fates);
    };
    assert!(rejoined, "fates: {:?}", r.run.worker_fates);
    assert!(
        r.run.worker_iterations[0] > at_iter,
        "the respawned worker never iterated past its kill point {at_iter}: {:?}",
        r.run.worker_iterations
    );
    assert_eq!(r.run.live_workers(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

fn dial(addr: &str) -> TcpStream {
    let s = TcpStream::connect(addr).expect("coordinator reachable");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    s
}

/// A rejected handshake ends with the coordinator hanging up without a
/// `Setup`; the next read on the probe side must fail.
fn expect_hangup(mut s: TcpStream, what: &str) {
    assert!(
        read_msg(&mut s).is_err(),
        "{what}: the coordinator must hang up without admitting the peer"
    );
}

#[test]
fn stale_and_replayed_hellos_are_rejected_and_counted() {
    let dir = scratch_dir("probes");
    let book_path = dir.join("addr");

    let mut config = quick(3, SyncMode::Rna).with_addr_file(&book_path);
    // Slow the rounds to a few ms each so the probes comfortably land
    // while the run is live.
    config.base.compute_us = vec![(5_000, 10_000); 3];

    let probe_book = book_path.clone();
    let probes = std::thread::spawn(move || {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let book = loop {
            if let Ok(b) = AddrBook::load(&probe_book) {
                break b;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "address book never appeared"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        let mut scratch = Vec::new();

        // 1. A worker index outside the cluster.
        let mut s = dial(&book.addr);
        write_msg(
            &mut s,
            &Msg::Hello {
                worker: 99,
                incarnation: 0,
            },
            &mut scratch,
        )
        .expect("hello");
        expect_hangup(s, "unknown worker");

        // 2. An incarnation the supervisor is not expecting — a replayed
        // Hello from a dead incarnation's transcript.
        let mut s = dial(&book.addr);
        write_msg(
            &mut s,
            &Msg::Hello {
                worker: 0,
                incarnation: 7,
            },
            &mut scratch,
        )
        .expect("hello");
        expect_hangup(s, "stale incarnation");

        // 3. A plausible identity with a garbage MAC.
        let mut s = dial(&book.addr);
        write_msg(
            &mut s,
            &Msg::Hello {
                worker: 0,
                incarnation: 0,
            },
            &mut scratch,
        )
        .expect("hello");
        assert!(
            matches!(read_msg(&mut s), Ok(Msg::Challenge { .. })),
            "a plausible Hello earns a challenge"
        );
        write_msg(
            &mut s,
            &Msg::Auth {
                mac: 0xDEAD_BEEF_DEAD_BEEF,
            },
            &mut scratch,
        )
        .expect("auth");
        expect_hangup(s, "garbage mac");

        // 4. A *genuine* MAC recorded from one handshake and replayed
        // against the next. Abandoning the first exchange is an IO event
        // (not counted); the replay itself must be a typed reject.
        let mut s1 = dial(&book.addr);
        write_msg(
            &mut s1,
            &Msg::Hello {
                worker: 0,
                incarnation: 0,
            },
            &mut scratch,
        )
        .expect("hello");
        let Ok(Msg::Challenge {
            nonce: n1,
            term: t1,
        }) = read_msg(&mut s1)
        else {
            panic!("no challenge for the recorded handshake");
        };
        let recorded = compute_mac(&book.key, n1, t1, 0, 0);
        drop(s1);

        let mut s2 = dial(&book.addr);
        write_msg(
            &mut s2,
            &Msg::Hello {
                worker: 0,
                incarnation: 0,
            },
            &mut scratch,
        )
        .expect("hello");
        let Ok(Msg::Challenge { nonce: n2, .. }) = read_msg(&mut s2) else {
            panic!("no challenge for the replaying handshake");
        };
        assert_ne!(n1, n2, "every handshake must face a fresh nonce");
        write_msg(&mut s2, &Msg::Auth { mac: recorded }, &mut scratch).expect("auth");
        expect_hangup(s2, "replayed mac");
    });

    let r = run_bounded(config);
    probes.join().expect("probe thread");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        r.auth_rejects, 4,
        "unknown worker + stale incarnation + garbage mac + replayed mac"
    );
    assert_eq!(r.run.rounds, 30, "probes never disturb the run");
    assert_eq!(r.run.live_workers(), 3);
    assert_eq!(r.reconnect_attempts, 0);
    assert!(r.run.final_loss < 1.4, "loss {}", r.run.final_loss);
}

#[test]
fn fault_proxy_chaos_matrix_runs_over_real_sockets() {
    let seed: u64 = std::env::var("RNA_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);
    // The PR 2 chaos matrix, stated once: a timed partition (virtual by
    // construction), lossy links, a flap window, a delayed link, and
    // corrupting links — node 4 is the controller for a 4-worker cluster.
    let plan = NetFaultPlan::none()
        .with_seed(seed)
        .partition(vec![1], 20_000, 80_000)
        .drop_link(0, 4, 0.10)
        .drop_link(4, 0, 0.10)
        .corrupt_link(2, 4, 0.05)
        .corrupt_link(4, 2, 0.05)
        .delay_link(4, 3, 2_000)
        .flap(1, 4, 50_000, 250_000);

    // Crosscheck: the identical plan must also hold up virtually (the
    // shim lowers corrupts to drops and leaves delays to the proxy).
    let threaded = ThreadedConfig::quick(4, SyncMode::Rna)
        .with_net_fault_plan(plan.clone())
        .with_tolerance(ToleranceConfig::tight());
    let t = run_threaded(&threaded);
    assert_eq!(t.rounds, 30, "the virtual world completes the same plan");

    // The physical half of the plan runs against every wire codec: the
    // proxy's pump is payload-agnostic (it parses only the outer length
    // prefix), so compressed frames flow through it unchanged — and a
    // byte flipped *inside* an encoded payload must surface at the
    // coordinator as a typed `CodecError` that severs the socket, never a
    // panic or a hang (the watchdog turns a hang into a failure).
    for codec in [Compression::Lossless, Compression::Fp16, Compression::Int8] {
        let mut config = quick(4, SyncMode::Rna).with_fault_proxy();
        config.base.rounds = 40;
        config.base = config
            .base
            .with_compression(codec)
            .with_net_fault_plan(plan.clone())
            .with_tolerance(ToleranceConfig::tight());
        let r = run_bounded(config);

        // Acceptance is structural, not statistical: every round completes,
        // nobody panics on a corrupted or truncated frame, and the cluster
        // ends whole (severed links heal by reconnect, dead reads by retry).
        // Loss is deliberately unasserted — a flipped gradient byte may
        // legally poison the numbers without breaking the protocol.
        assert_eq!(r.run.rounds, 40, "{codec:?}");
        assert_eq!(r.run.live_workers(), 4, "{codec:?}");
        assert!(
            r.proxy_faults_injected > 0,
            "{codec:?}: the proxy never injected anything"
        );
    }
}
