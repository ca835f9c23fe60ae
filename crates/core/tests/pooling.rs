//! End-to-end guarantee of the pooled reduce data path, over whole
//! training runs: **zero steady-state allocations**. Once the pool is warm,
//! reduce rounds perform no fresh tensor-buffer allocations — a 6× longer
//! run records exactly the same `datapath_allocs` as a short one, lossless
//! or through the int8 error-feedback encoders, whose residuals are
//! allocated by their first encode only. (The underlying hook is
//! debug-only, so these assertions are exercised by debug builds and
//! vacuous in release.)
//!
//! That pooling changes only *where buffers come from*, never the numbers in
//! them, is pinned kernel by kernel against the allocating reference
//! implementations: `cache.rs`, `partial.rs`, `ring.rs`, `kv.rs` unit tests
//! and `rna-tensor`'s `fused_kernels.rs`.

use rna_core::rna::RnaProtocol;
use rna_core::sim::{Engine, TrainSpec};
use rna_core::{RnaConfig, RunResult};
use rna_tensor::Compression;
use rna_workload::HeterogeneityModel;

fn mixed_spec(n: usize, seed: u64, rounds: u64) -> TrainSpec {
    TrainSpec::smoke_test(n, seed)
        .with_hetero(HeterogeneityModel::mixed_groups(n, 0, 10, 50, 60))
        .with_max_rounds(rounds)
}

/// The two wire codecs the steady-state tests run: the lossless path, and
/// int8, which sends every contribution and PS push through a warm
/// `FeedbackEncoder`.
const CODECS: [Compression; 2] = [Compression::Lossless, Compression::Int8];

fn run_flat(rounds: u64, codec: Compression) -> RunResult {
    let n = 6;
    let spec = mixed_spec(n, 42, rounds);
    let config = RnaConfig::default().with_compression(codec);
    Engine::new(spec, RnaProtocol::new(n, config, 0)).run()
}

fn run_hier(rounds: u64, codec: Compression) -> RunResult {
    let n = 6;
    let spec = mixed_spec(n, 11, rounds);
    let protocol = RnaProtocol::auto(&spec, RnaConfig::default().with_compression(codec));
    Engine::new(spec, protocol).run()
}

#[test]
fn steady_state_rounds_are_allocation_free() {
    if !cfg!(debug_assertions) {
        // The alloc hook is compiled out in release builds.
        return;
    }
    for codec in CODECS {
        let short = run_flat(20, codec);
        let long = run_flat(120, codec);
        assert!(long.global_rounds > short.global_rounds);
        assert_eq!(
            short.datapath_allocs,
            long.datapath_allocs,
            "{}: a warm pool must make every extra round allocation-free",
            codec.name()
        );
        assert!(
            short.datapath_allocs > 0,
            "warm-up must be visible to the debug alloc hook"
        );
    }
}

#[test]
fn hier_steady_state_rounds_are_allocation_free() {
    if !cfg!(debug_assertions) {
        return;
    }
    for codec in CODECS {
        let short = run_hier(20, codec);
        let long = run_hier(120, codec);
        assert!(long.global_rounds > short.global_rounds);
        assert_eq!(
            short.datapath_allocs,
            long.datapath_allocs,
            "{}: the hierarchical data path must also go allocation-free once warm",
            codec.name()
        );
    }
}

/// The real-thread controller's fused reduce region (cache drain, codec
/// transform, partial collective, apply) must also go allocation-free once
/// its pool is warm. Real threads make *which* rounds allocate timing-
/// dependent (warm-up spreads over the first few rounds as caches fill),
/// so instead of short-vs-long equality this pins an absolute ceiling far
/// below one allocation per round: 120 rounds with a leaky region would
/// record ≥ 120.
#[test]
fn threaded_steady_state_rounds_are_allocation_free() {
    use rna_runtime::{run_threaded, SyncMode, ThreadedConfig};
    if !cfg!(debug_assertions) {
        // The alloc hook is compiled out in release builds.
        return;
    }
    let n = 4;
    let mut config = ThreadedConfig::quick(n, SyncMode::Rna);
    config.rounds = 120;
    // Keep compute fast so the run stays well under a second.
    config.compute_us = vec![(100, 200); n];
    let r = run_threaded(&config);
    assert_eq!(r.rounds, 120);
    // Warm-up: n cache-drain buffers plus the reduce accumulator, with a
    // little slack for rounds where a contribution arrives late and the
    // pool briefly runs one buffer deeper.
    let ceiling = (2 * n + 4) as u64;
    assert!(
        r.datapath_allocs <= ceiling,
        "threaded reduce region allocates in steady state: {} allocs over {} rounds (ceiling {})",
        r.datapath_allocs,
        r.rounds,
        ceiling
    );
    assert!(
        r.datapath_allocs > 0,
        "warm-up must be visible to the debug alloc hook"
    );
}
