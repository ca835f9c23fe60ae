//! Integration tests for the process world: real subprocesses, real
//! sockets, real SIGKILLs. Every run binds an ephemeral localhost port,
//! so parallel test processes never collide.

use rna_core::fault::{ToleranceConfig, WorkerFate};
use rna_runtime::{run_process, Compression, FaultPlan, ProcessConfig, SyncMode};

fn quick(n: usize, mode: SyncMode) -> ProcessConfig {
    ProcessConfig::quick(n, mode).with_worker_exe(env!("CARGO_BIN_EXE_rna-worker"))
}

#[test]
fn process_world_trains_over_real_sockets() {
    let r = run_process(&quick(3, SyncMode::Rna));
    assert_eq!(r.run.rounds, 30);
    assert!(r.run.final_loss < 1.4, "loss {}", r.run.final_loss);
    assert!(r.run.final_accuracy > 0.5, "acc {}", r.run.final_accuracy);
    assert!(r.run.worker_iterations.iter().all(|&i| i > 0));
    assert_eq!(r.run.live_workers(), 3);
    assert!(r.run.bytes_on_wire > 0);
    assert_eq!(r.worker_respawns, 0);
    assert_eq!(r.sockets_severed, 0);
}

#[test]
fn eager_majority_also_runs_as_processes() {
    let r = run_process(&quick(3, SyncMode::EagerMajority));
    assert_eq!(r.run.rounds, 30);
    assert!(r.run.final_loss < 1.4, "loss {}", r.run.final_loss);
    assert!(r.run.mean_participation > 0.0);
}

#[test]
fn planned_crash_is_a_real_process_death() {
    // Worker 2's fault plan aborts its process at iteration 5; the run
    // must finish without it and report the crash fate.
    let mut config = quick(3, SyncMode::Rna);
    config.base = config
        .base
        .with_fault_plan(FaultPlan::none().crash(2, 5))
        .with_tolerance(ToleranceConfig::tight());
    let r = run_process(&config);
    assert_eq!(r.run.rounds, 30);
    assert_eq!(
        r.run.worker_fates[2],
        WorkerFate::Crashed { at_iter: 5 },
        "fates: {:?}",
        r.run.worker_fates
    );
    // The mirror freezes exactly where the abort happened.
    assert_eq!(r.run.worker_iterations[2], 5);
    assert_eq!(r.run.live_workers(), 2);
    assert!(r.run.final_loss < 1.4, "loss {}", r.run.final_loss);
    // A planned crash is not an unplanned respawn.
    assert_eq!(r.worker_respawns, 0);
}

#[test]
fn a_crash_due_with_a_restart_is_a_crash_to_the_coordinator_too() {
    // Worker 2's plan holds a restart and a crash at the same iteration.
    // The worker's script crashes (a crash is final); the coordinator reads
    // the same plan through the same script, so it classifies the abort as
    // that crash instead of respawning the worker as the restart.
    let mut config = quick(3, SyncMode::Rna);
    config.base = config
        .base
        .with_fault_plan(FaultPlan::none().restart(2, 5, 10_000).crash(2, 5))
        .with_tolerance(ToleranceConfig::tight());
    let r = run_process(&config);
    assert_eq!(r.run.rounds, 30);
    assert_eq!(
        r.run.worker_fates[2],
        WorkerFate::Crashed { at_iter: 5 },
        "fates: {:?}",
        r.run.worker_fates
    );
    assert_eq!(r.run.worker_iterations[2], 5);
    assert_eq!(r.worker_respawns, 0);
}

#[test]
fn sigkilled_worker_rejoins_from_checkpoint() {
    // A real SIGKILL at round 8 — the fault plan never announced it, the
    // worker had no chance to say goodbye. The coordinator must notice
    // the dead socket, respawn the process, and hand it a Setup that
    // resumes from the checkpointed iteration count.
    let mut config = quick(3, SyncMode::Rna).with_kill9(1, 8);
    config.base.rounds = 40;
    config.base = config.base.with_tolerance(ToleranceConfig::tight());
    let r = run_process(&config);
    assert_eq!(r.run.rounds, 40);
    assert!(r.worker_respawns >= 1, "no respawn after SIGKILL");
    assert!(
        matches!(
            r.run.worker_fates[1],
            WorkerFate::Restarted { rejoined: true, .. }
        ),
        "fates: {:?}",
        r.run.worker_fates
    );
    // The rejoined worker kept iterating past its checkpoint.
    assert_eq!(r.run.live_workers(), 3);
    assert!(r.run.final_loss < 1.4, "loss {}", r.run.final_loss);
}

#[test]
fn severed_socket_is_a_real_partition_and_heals_by_reconnect() {
    // The worker process survives the sever: a dead socket is a socket
    // event, not a death, and the incarnation re-handshakes under backoff
    // instead of being respawned from a checkpoint.
    let mut config = quick(3, SyncMode::Rna).with_sever(0, 6);
    config.base.rounds = 40;
    config.base = config.base.with_tolerance(ToleranceConfig::tight());
    let r = run_process(&config);
    assert_eq!(r.run.rounds, 40);
    assert!(r.sockets_severed >= 1, "the sever never fired");
    assert_eq!(r.worker_respawns, 0, "a sever must heal without a respawn");
    assert!(
        r.reconnect_attempts >= 1,
        "the severed worker never re-handshook"
    );
    assert_eq!(r.auth_rejects, 0, "a live incarnation re-admits cleanly");
    assert_eq!(r.run.live_workers(), 3);
    assert!(r.run.final_loss < 1.4, "loss {}", r.run.final_loss);
}

#[test]
fn unplanned_death_without_respawn_is_a_crash_fate() {
    let mut config = quick(3, SyncMode::Rna)
        .with_kill9(2, 5)
        .with_respawn_unplanned(false);
    config.base = config.base.with_tolerance(ToleranceConfig::tight());
    let r = run_process(&config);
    assert_eq!(r.run.rounds, 30);
    assert_eq!(r.worker_respawns, 0);
    assert!(
        matches!(r.run.worker_fates[2], WorkerFate::Crashed { .. }),
        "fates: {:?}",
        r.run.worker_fates
    );
    assert_eq!(r.run.live_workers(), 2);
}

#[test]
fn compressed_hop_smoke() {
    // The ci.sh compressed-hop stanza re-runs this across seeds and
    // codecs: `RNA_CHAOS_SEED` reseeds the whole run (dataset, straggler
    // draws, codec streams) and `RNA_HOP_CODEC` picks the wire codec,
    // both without recompiling. Whatever the combination, the run must
    // complete, every worker must stay live, and the socket-measured
    // byte totals must satisfy the frame-exact identity — each frame
    // that physically arrived was exactly formula-sized.
    let seed = std::env::var("RNA_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(11u64);
    let codec = match std::env::var("RNA_HOP_CODEC").as_deref() {
        Ok("int8") => Compression::Int8,
        Ok("topk") => Compression::TopK { permille: 250 },
        Ok("lossless") => Compression::Lossless,
        _ => Compression::Fp16,
    };
    let mut config = quick(3, SyncMode::Rna);
    config.base.seed = seed;
    config.base = config.base.with_compression(codec);
    let r = run_process(&config);
    assert_eq!(r.run.rounds, 30, "seed {seed} {codec:?}: run must complete");
    assert_eq!(r.run.live_workers(), 3, "seed {seed} {codec:?}");
    assert!(
        r.run.final_loss < 1.4,
        "seed {seed} {codec:?}: loss {}",
        r.run.final_loss
    );
    assert!(r.run.bytes_on_wire > 0, "seed {seed} {codec:?}");
    let lossless = Compression::Lossless.frame_bytes(36);
    assert_eq!(
        r.run.bytes_on_wire * lossless,
        (r.run.bytes_on_wire + r.run.bytes_saved) * codec.frame_bytes(36),
        "seed {seed} {codec:?}: socket-measured bytes are not frame-exact"
    );
}

#[test]
fn bsp_is_rejected_in_the_process_world() {
    let result = std::panic::catch_unwind(|| run_process(&quick(2, SyncMode::Bsp)));
    assert!(result.is_err(), "BSP must be rejected");
}

#[test]
fn external_worker_joins_via_the_address_book() {
    // Worker 3 is not spawned by the coordinator: it is an externally
    // managed worker (here: a thread running the worker entry point, the
    // same code the `rna-worker` binary wraps) that discovers the run
    // through the address book and is admitted at its join round.
    use rna_core::membership::ChurnPlan;
    use rna_runtime::worker::run_worker;
    use rna_runtime::AddrBook;

    let dir = std::env::temp_dir().join(format!("rna-addr-book-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let book = dir.join("addr");
    let _ = std::fs::remove_file(&book);

    let mut config = quick(4, SyncMode::Rna)
        .with_external(3)
        .with_addr_file(&book);
    config.base = config.base.with_churn_plan(ChurnPlan::none().join(3, 5));
    // Slow the rounds down to a few ms each: the external worker's
    // handshake retry ticks every 50 ms, and the admission window (rounds
    // 5..30) must comfortably contain several retries.
    config.base.compute_us = vec![(5_000, 10_000); 4];

    let book_path = book.clone();
    let joiner = std::thread::spawn(move || {
        // Poll for the book exactly like a pre-spawned external worker
        // would, then dial in with the published address and cluster key.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            if let Ok(parsed) = AddrBook::load(&book_path) {
                return run_worker(&parsed.addr, 3, &parsed.key, 0);
            }
            assert!(
                std::time::Instant::now() < deadline,
                "address book never appeared"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    });

    let r = run_process(&config);
    joiner
        .join()
        .expect("joiner thread")
        .expect("external worker ran to Stop");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(r.run.rounds, 30);
    assert_eq!(r.run.workers_joined, 1, "the external join was admitted");
    assert!(
        r.run.snapshot_bytes_streamed > 0,
        "admission streamed bytes"
    );
    assert!(
        r.run.worker_iterations[3] > 0,
        "external joiner contributed: {:?}",
        r.run.worker_iterations
    );
    assert_eq!(r.run.worker_fates[3], WorkerFate::Healthy);
    assert_eq!(r.worker_respawns, 0, "external workers are never respawned");
    assert!(r.run.final_loss < 1.4, "loss {}", r.run.final_loss);
}
