#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from the repo root before committing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q

# The frozen benchmark package (perf/, its own workspace) builds against the
# crates' public API: run its tests here so an API break fails CI instead of
# the benchmark pipeline.
echo "==> perf package tests (--release, offline)"
cargo test --release --offline --manifest-path perf/Cargo.toml

# Benchmark smoke: the pipeline's own entry point on the workload that runs
# the training kernels, the one that runs none of them, and the three that
# run the real worlds' controller and worker loop (RNA and the BSP barrier
# on threads, RNA over sockets). The last stdout line is the result;
# anything but a correct run with zero failed operations (a broken replay
# check, a frozen-benchmark check such as BSP's `bytes_on_wire == 0`, a
# public-API break, a hang) fails here instead of in the benchmark
# pipeline. The builds refresh perf/Cargo.lock, which is frozen between
# [benchmark] PRs, so it is restored either way.
echo "==> benchmark smoke (des-mlp64k, hop-64k, the three straggler workloads; watchdogged)"
smoke_failed=""
for workload in des-mlp64k hop-64k threaded-straggler threaded-straggler-bsp \
    process-straggler; do
  last="$(timeout 300 bash perf/run.sh --workload "${workload}" --seed 1 \
    --seconds 2 --trace 0 | tail -n 1)" || last=""
  if [[ "${last}" != *'"correct": true'* || "${last}" != *'"failed": 0,'* ]]; then
    echo "    ${workload}: ${last:-no result line}" >&2
    smoke_failed="${smoke_failed} ${workload}"
  fi
done
git checkout -q -- perf/Cargo.lock 2>/dev/null || true
if [[ -n "${smoke_failed}" ]]; then
  echo "benchmark smoke failed:${smoke_failed}" >&2
  exit 1
fi

# stress <label> <cargo-test-args...>: one release-mode test selection under
# each of three seeds (RNA_CHAOS_SEED reseeds the scenario without
# recompiling). Each pass runs under a watchdog so a protocol deadlock fails
# CI with a timeout instead of hanging it.
stress() {
  local label="$1"
  shift
  echo "==> ${label} (3 seeds, --release, watchdogged)"
  for seed in 11 23 37; do
    echo "    seed ${seed}"
    RNA_CHAOS_SEED="${seed}" timeout 600 cargo test -q --release "$@"
  done
}

# Chaos stress: the fault and chaos suites, simulator then threaded runtime.
stress "chaos stress (DES)" -p rna-experiments --test chaos --test fault_tolerance
stress "chaos stress (threaded)" -p rna-runtime --test fault_injection

# Control-plane stress: controller kills, checkpoint/resume roundtrips,
# and PS-shard failover.
stress "recovery stress" -p rna-experiments --test recovery

# Elastic-membership stress: mid-run joins, graceful retirements,
# evictions and the online ζ-split regroup in all three worlds.
stress "churn stress" -p rna-experiments --test churn

echo "==> faults bench smoke (watchdogged)"
timeout 900 cargo bench -q --bench faults

# Recovery floor: checkpoint roundtrips must be bit-exact and both worlds
# must survive their injected controller deaths, measured fresh in this
# run. The report lands at the repo root as the tracked baseline.
echo "==> recovery bench (--check, writes BENCH_PR4.json)"
timeout 600 cargo run -q --release -p rna-bench --bin recovery -- \
  --check --out BENCH_PR4.json

# Data-path perf floor: the fused reduce kernels must beat the seed's
# naive clone-scale-add path by >=2x, measured fresh in this run. The
# report lands at the repo root as the tracked baseline.
echo "==> data-path bench (--check, writes BENCH_PR3.json)"
timeout 600 cargo run -q --release -p rna-bench --bin datapath -- \
  --check --out BENCH_PR3.json

# Wire-compression floor: fp16 must shrink the gradient wire >=1.9x and
# top-k (k=10%) >=3.5x versus lossless, lossy runs must finish no later on
# the virtual clock, measured fresh in this run. The report lands at the
# repo root as the tracked baseline.
echo "==> codec bench (--check, writes BENCH_PR5.json)"
timeout 600 cargo run -q --release -p rna-bench --bin codec -- \
  --check --out BENCH_PR5.json

# Elasticity floor: the admission snapshot must roundtrip bit-exactly,
# the gray-straggler run must commit a topology swap that rehomes PS keys
# without eating its round budget, and the threaded churn run must account
# every membership event, measured fresh in this run. The report lands at
# the repo root as the tracked baseline.
echo "==> churn bench (--check, writes BENCH_PR7.json)"
timeout 600 cargo run -q --release -p rna-bench --bin churn -- \
  --check --out BENCH_PR7.json

# Scale + SIMD floor: the 100k-worker DES round must complete, the AVX2
# codec kernels must hold their GB/s floors where the host has them, and
# same-seed replays must be bit-identical across scalar, SIMD, and
# chunk-parallel dispatch. The report lands at the repo root as the
# tracked baseline.
echo "==> scale bench (--check, writes BENCH_scale.json)"
timeout 600 cargo run -q --release -p rna-bench --bin scale -- \
  --check --out BENCH_scale.json

# Compressed-hop floor: full process-world runs per codec with the byte
# totals measured at the coordinator's sockets, not charged by formula.
# The check fails unless fp16 wire bytes stay <= 0.55x the lossless
# equivalent, the fp16 round rate stays within 10% of raw-f32 (the codec
# runs in the worker, off the coordinator's critical path), and the
# encode-into-frame path never loses to encode-then-memcpy. The report
# lands at the repo root as the tracked baseline.
echo "==> compressed-hop bench (--check, writes BENCH_PR10.json)"
timeout 600 cargo build -q --release -p rna-runtime --bin rna-worker
timeout 600 cargo run -q --release -p rna-bench --bin hop -- \
  --check --out BENCH_PR10.json

# Process-world smoke: real subprocesses over TCP on ephemeral localhost
# ports, including a genuine SIGKILL + rejoin and a severed socket. A
# wedged coordinator (or a leaked worker holding a socket open) fails CI
# by timeout instead of hanging it.
echo "==> process-world smoke (real sockets + SIGKILL, watchdogged)"
timeout 600 cargo test -q --release -p rna-runtime --test process_world
timeout 600 cargo test -q --release -p rna-experiments --test three_worlds

# Compressed-hop smoke: the worker-side wire codec over real sockets,
# reseeded three ways and across two lossy codecs without recompiling.
# Every combination must complete its rounds with frame-exact
# socket-measured byte totals.
for codec in fp16 int8; do
  RNA_HOP_CODEC="${codec}" stress "compressed-hop smoke (${codec})" \
    -p rna-runtime --test process_world compressed_hop_smoke
done

# Survivability stress: coordinator kill + restart-from-disk with worker
# reconnects, hostile-handshake rejection, the same-seed counter replay,
# and the chaos matrix through the real-socket fault proxy
# (RNA_CHAOS_SEED reseeds the proxy's plan).
stress "coordinator-kill + fault-proxy stress" -p rna-runtime --test coordinator_death

# Codec property tests in debug mode: roundtrip invariants, error-feedback
# telescoping, and frame-size models get their debug_assert! coverage.
# The proto fuzz tests cover the socket-fed frame decoding path.
echo "==> codec + proto property tests (debug)"
timeout 600 cargo test -q -p rna-tensor codec
timeout 600 cargo test -q -p rna-runtime proto

# Scalar-reference parity: the whole tensor suite again with SIMD dispatch
# forced off, so the portable fallback path (what non-AVX2 hosts run) gets
# the same debug_assert! coverage as the vector path.
echo "==> tensor tests with forced-scalar dispatch (debug)"
RNA_FORCE_SCALAR=1 timeout 600 cargo test -q -p rna-tensor

# Zero-alloc guarantee: the debug-only allocation counter must show that
# warm pooled rounds allocate nothing (vacuous in release, so run debug).
# Covers the simulator pool and the threaded controller's reduce region.
echo "==> pooled data-path alloc check (debug)"
timeout 600 cargo test -q -p rna-core --test pooling

# Worker wire-encode zero-alloc assert: the same counter guards the
# worker's encode-into-frame path (a debug_assert inside the worker
# process — steady-state pushes may not allocate a tensor buffer). Run
# the smoke in debug with a real codec so the assert executes in the
# spawned debug workers; a violation aborts the worker and fails the run.
echo "==> worker encode zero-alloc assert (debug, int8 wire)"
RNA_HOP_CODEC=int8 timeout 600 cargo test -q -p rna-runtime \
  --test process_world compressed_hop_smoke

echo "==> CI green"
