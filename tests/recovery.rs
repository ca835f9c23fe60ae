//! Control-plane fault tolerance, end to end in both execution worlds.
//!
//! The simulator side proves the strong property: a checkpoint→kill→resume
//! cycle is *bit-identical* to the uninterrupted run on a clean fabric —
//! the checkpoint captures every byte the continuation depends on (model,
//! optimizer velocity, gradient caches, staleness counters, RNG stream
//! positions). The threaded side proves the practical property: a
//! controller thread that really dies is replaced by a warm standby, and a
//! process that really dies resumes from disk, with the redone progress
//! reported honestly.
//!
//! `RNA_CHAOS_SEED` varies the base seed so CI can sweep several seeds
//! without recompiling.

use rna_core::fault::FaultPlan;
use rna_core::membership::ChurnPlan;
use rna_core::recovery::{CheckpointStore, RecoveryConfig, RecoveryError};
use rna_core::rna::RnaProtocol;
use rna_core::sim::{Engine, TrainSpec};
use rna_core::{RnaConfig, RunResult};
use rna_runtime::{resume_threaded, run_threaded, SyncMode, ThreadedConfig, ToleranceConfig};
use rna_workload::HeterogeneityModel;

const N: usize = 5;

fn chaos_seed() -> u64 {
    std::env::var("RNA_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(11)
}

fn spec(seed: u64, rounds: u64) -> TrainSpec {
    TrainSpec::smoke_test(N, seed)
        .with_hetero(HeterogeneityModel::dynamic_uniform(N, 0, 30))
        .with_max_rounds(rounds)
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rna-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_identical(a: &RunResult, b: &RunResult) {
    assert_eq!(a.wall_time, b.wall_time);
    assert_eq!(a.global_rounds, b.global_rounds);
    assert_eq!(a.worker_iterations, b.worker_iterations);
    assert_eq!(a.comm_bytes, b.comm_bytes);
    assert_eq!(a.final_loss(), b.final_loss());
    let (pa, pb) = (a.history.points(), b.history.points());
    assert_eq!(pa.len(), pb.len());
    for (x, y) in pa.iter().zip(pb) {
        assert_eq!(x.time_s, y.time_s);
        assert_eq!(x.loss, y.loss);
    }
}

/// The headline guarantee: kill the simulated run mid-stream, resume from
/// the newest disk checkpoint, and the continuation is bit-identical to
/// the run that was never interrupted — for RNA's probe and for backup
/// workers, whose checkpoint also carries the round each member's
/// gradient began. The checkpoint holds one replica per worker, all
/// equal on a clean fabric, and the resumed engine stores them once.
#[test]
fn des_checkpoint_kill_resume_is_bit_identical() {
    let seed = chaos_seed();
    let every = RecoveryConfig::new(10).unwrap();
    for election in [SyncMode::Rna, SyncMode::Backup(1)] {
        let protocol = || RnaProtocol::new(N, RnaConfig::default(), 0).with_election(election);

        let uninterrupted_dir = scratch_dir("uninterrupted");
        let uninterrupted = Engine::new(spec(seed, 40), protocol())
            .with_recovery(CheckpointStore::new(&uninterrupted_dir).unwrap(), every)
            .run();

        // "Kill": the first process only gets 25 of the 40 rounds; its
        // newest surviving checkpoint is from round 20.
        let dir = scratch_dir("killed");
        let partial = Engine::new(spec(seed, 25), protocol())
            .with_recovery(CheckpointStore::new(&dir).unwrap(), every)
            .run();
        assert!(partial.checkpoints_written >= 2, "{election:?}");

        let engine = Engine::resume(
            spec(seed, 40),
            protocol(),
            CheckpointStore::new(&dir).unwrap(),
            every,
        )
        .expect("resume from the killed run's checkpoints");
        assert_eq!(
            engine.stored_replicas(),
            1,
            "{election:?}: the restored replicas are identical and stored once"
        );
        let resumed = engine.run();

        assert_identical(&uninterrupted, &resumed);
        let _ = std::fs::remove_dir_all(&uninterrupted_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The same guarantee under every lossy wire codec: the checkpoint also
/// captures the codec RNG position (int8's stochastic rounding draws) and
/// the per-member error-feedback residuals, so a resumed lossy run replays
/// the interrupted one bit for bit.
#[test]
fn des_lossy_codec_kill_resume_is_bit_identical() {
    use rna_core::Compression;
    let seed = chaos_seed();
    for codec in [
        Compression::Fp16,
        Compression::Int8,
        Compression::top_k_10pct(),
    ] {
        let config = || RnaConfig::default().with_compression(codec);
        let every = RecoveryConfig::new(10).unwrap();

        let full_dir = scratch_dir("codec-full");
        let uninterrupted = Engine::new(spec(seed, 40), RnaProtocol::new(N, config(), 0))
            .with_recovery(CheckpointStore::new(&full_dir).unwrap(), every)
            .run();

        let dir = scratch_dir("codec-killed");
        let partial = Engine::new(spec(seed, 25), RnaProtocol::new(N, config(), 0))
            .with_recovery(CheckpointStore::new(&dir).unwrap(), every)
            .run();
        assert!(partial.checkpoints_written >= 2, "{codec:?}");

        let engine = Engine::resume(
            spec(seed, 40),
            RnaProtocol::new(N, config(), 0),
            CheckpointStore::new(&dir).unwrap(),
            every,
        )
        .expect("resume from the killed run's checkpoints");
        assert_eq!(engine.stored_replicas(), 1, "{codec:?}");
        let resumed = engine.run();

        assert_identical(&uninterrupted, &resumed);
        assert_eq!(
            uninterrupted.bytes_on_wire, resumed.bytes_on_wire,
            "{codec:?}"
        );
        assert_eq!(
            uninterrupted.codec_error_l2, resumed.codec_error_l2,
            "{codec:?}"
        );
        let _ = std::fs::remove_dir_all(&full_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A corrupted newest generation falls back to the previous one — and the
/// older starting point still converges to the identical final state,
/// because every checkpoint is a quiesce point of the same trajectory.
#[test]
fn des_corrupt_latest_falls_back_to_previous_generation() {
    let seed = chaos_seed() ^ 0x5EED;
    let every = RecoveryConfig::new(10).unwrap();

    let clean_dir = scratch_dir("clean");
    let clean = Engine::new(spec(seed, 40), RnaProtocol::new(N, RnaConfig::default(), 0))
        .with_recovery(CheckpointStore::new(&clean_dir).unwrap(), every)
        .run();

    let dir = scratch_dir("corrupt");
    let store = CheckpointStore::new(&dir).unwrap();
    let _ = Engine::new(spec(seed, 25), RnaProtocol::new(N, RnaConfig::default(), 0))
        .with_recovery(CheckpointStore::new(&dir).unwrap(), every)
        .run();

    // Flip bytes in the newest generation; the previous one must carry.
    std::fs::write(store.latest_path(), b"not a checkpoint at all").unwrap();
    let resumed = Engine::resume(
        spec(seed, 40),
        RnaProtocol::new(N, RnaConfig::default(), 0),
        CheckpointStore::new(&dir).unwrap(),
        every,
    )
    .expect("previous generation must survive a corrupt latest")
    .run();
    assert_identical(&clean, &resumed);

    // Wreck both generations (the resumed run above refreshed them): now
    // recovery must fail with a typed error, never a panic or a silent
    // fresh start.
    std::fs::write(store.latest_path(), b"not a checkpoint at all").unwrap();
    std::fs::write(store.previous_path(), b"").unwrap();
    let err = Engine::resume(
        spec(seed, 40),
        RnaProtocol::new(N, RnaConfig::default(), 0),
        CheckpointStore::new(&dir).unwrap(),
        every,
    )
    .err()
    .expect("both generations gone");
    assert!(matches!(err, RecoveryError::Corrupt(_)), "{err:?}");
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill and resume under a churn plan. The checkpoint cadence straddles a
/// join (round 8), an eviction (15) and a retirement (24), and the run is
/// killed after the join: the resumed run must rebuild which planned events
/// already fired from the checkpointed round, so the joiner is not admitted
/// twice and the departed stay gone, and replay the uninterrupted run bit for
/// bit, membership ledger included.
#[test]
fn des_churn_kill_resume_is_bit_identical() {
    let seed = chaos_seed() ^ 0xC4A2;
    let every = RecoveryConfig::new(10).unwrap();
    let n = N + 1;
    let plan = ChurnPlan::none().join(N, 8).evict(2, 15).retire(1, 24);
    let spec = |rounds| {
        TrainSpec::smoke_test(n, seed)
            .with_hetero(HeterogeneityModel::dynamic_uniform(n, 0, 30))
            .with_max_rounds(rounds)
            .with_churn_plan(plan.clone())
    };

    let full_dir = scratch_dir("churn-full");
    let uninterrupted = Engine::new(spec(40), RnaProtocol::new(n, RnaConfig::default(), 0))
        .with_recovery(CheckpointStore::new(&full_dir).unwrap(), every)
        .run();
    assert_eq!(uninterrupted.workers_joined, 1);
    assert_eq!(
        uninterrupted.workers_retired, 2,
        "one retirement + one eviction"
    );

    // The killed process gets 25 rounds; its newest checkpoint is round 20,
    // after the join and the eviction and before the retirement.
    let dir = scratch_dir("churn-killed");
    let partial = Engine::new(spec(25), RnaProtocol::new(n, RnaConfig::default(), 0))
        .with_recovery(CheckpointStore::new(&dir).unwrap(), every)
        .run();
    assert!(partial.checkpoints_written >= 2);

    let resumed = Engine::resume(
        spec(40),
        RnaProtocol::new(n, RnaConfig::default(), 0),
        CheckpointStore::new(&dir).unwrap(),
        every,
    )
    .expect("resume from the killed run's checkpoints")
    .run();

    assert_identical(&uninterrupted, &resumed);
    assert_eq!(uninterrupted.workers_joined, resumed.workers_joined);
    assert_eq!(uninterrupted.workers_retired, resumed.workers_retired);
    assert_eq!(
        uninterrupted.snapshot_bytes_streamed,
        resumed.snapshot_bytes_streamed
    );
    assert_eq!(uninterrupted.worker_fates, resumed.worker_fates);
    let _ = std::fs::remove_dir_all(&full_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Controller failover in the simulator is deterministic: same seed, same
/// crash plan, same result — and costs exactly the probe round in flight.
#[test]
fn des_controller_failover_is_deterministic() {
    let seed = chaos_seed() ^ 0xFA11;
    let run = || {
        Engine::new(
            spec(seed, 40).with_fault_plan(FaultPlan::none().crash_controller(12)),
            RnaProtocol::new(N, RnaConfig::default(), 0),
        )
        .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.controller_failovers, 1);
    assert_eq!(a.failover_rounds_lost, 1);
    assert_eq!(a.global_rounds, 40);
    assert_identical(&a, &b);
}

/// The threaded world under the same plan: the controller thread really
/// dies, the standby really waits out the lease, and the rounds redone
/// since the last checkpoint are reported.
#[test]
fn threaded_controller_kill_soak_converges() {
    let seed = chaos_seed();
    let mut config = ThreadedConfig::quick(4, SyncMode::Rna)
        .with_tolerance(ToleranceConfig::tight())
        .with_checkpoint_every(4)
        .with_fault_plan(FaultPlan::none().crash_controller(7).crash_controller(19));
    config.seed = seed;
    let r = run_threaded(&config);
    assert_eq!(r.rounds, 30);
    assert_eq!(r.controller_failovers, 2);
    // Cadence 4: crash at 7 redoes 3 rounds (checkpoint at 4), crash at 19
    // redoes 3 (checkpoint at 16).
    assert_eq!(r.failover_rounds_lost, 6);
    assert_eq!(r.live_workers(), 4);
    assert!(r.final_loss < 1.5, "loss {}", r.final_loss);
}

/// Kill the process after a partial budget, then resume from disk: the
/// resumed run finishes the budget and keeps improving on the checkpointed
/// model instead of restarting from scratch.
#[test]
fn threaded_checkpoint_roundtrip_across_processes() {
    let seed = chaos_seed() ^ 0xD15C;
    let dir = scratch_dir("threaded");
    let mut config = ThreadedConfig::quick(3, SyncMode::Rna)
        .with_checkpoint_every(5)
        .with_recovery_dir(&dir);
    config.seed = seed;
    config.rounds = 10;
    let first = run_threaded(&config);
    config.rounds = 30;
    let resumed = resume_threaded(&config).expect("disk checkpoint survives the process");
    assert_eq!(resumed.rounds, 30);
    assert!(
        resumed.final_loss < first.final_loss,
        "resumed {} vs first {}",
        resumed.final_loss,
        first.final_loss
    );
    let _ = std::fs::remove_dir_all(&dir);
}
