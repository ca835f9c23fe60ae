#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from the repo root before committing.
set -euo pipefail
cd "$(dirname "$0")"

# CI leaves the tree as it found it. It is run before committing, so a step
# that rewrites a tracked file would land whatever it wrote; the tree is
# fingerprinted here and compared at the end (skipped outside a checkout).
tree_fingerprint() {
  git status --porcelain
  git diff | git hash-object --stdin
}
tree_before=""
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  tree_before="$(tree_fingerprint)"
fi

# Non-test lines per crate, the ROADMAP's size measure: printed for
# information, not gated.
echo "==> non-test lines per crate (information only)"
bash scripts/loc.sh

# Public functions only tests name: candidates for a deletion pass, printed
# for information, not gated.
echo "==> pub fns only tests use (information only)"
bash scripts/unused_pub.sh

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc warnings fail CI, so a deletion that leaves an intra-doc link
# dangling (or a public doc linking a private item) cannot land.
echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "==> cargo test -q"
cargo test -q

# The benchmark measures release builds, so the golden digest table is
# checked in release too, not only in the debug pass above, and so are the
# pinned MLP, RNN and softmax trajectories, the only tests that replay the
# training kernels end to end under every tier the host has. The keystream
# pins and the fused codec bodies against their oracle run here too: their
# unsafe vector kernels are what the benchmark runs, and only an optimized
# build shows how they behave under optimization.
echo "==> golden digest table, pinned trajectories, keystream and fused kernels (--release, watchdogged)"
timeout 600 cargo test -q --release -p rna-experiments --test golden
timeout 600 cargo test -q --release -p rna-experiments --test determinism
timeout 600 cargo test -q --release -p rna-simnet --test keystream
timeout 600 cargo test -q --release -p rna-tensor --test fused_kernels

# The paper tables: `repro all` (release) must print repro_output.txt byte
# for byte, so a change that moves a figure or table regenerates that file,
# and the EXPERIMENTS.md claims read from it, in the same commit.
echo "==> paper tables (repro all --release vs repro_output.txt, watchdogged)"
if ! timeout 600 cargo run -q --release -p rna-experiments --bin repro -- all |
  diff -u repro_output.txt - >&2; then
  echo "repro all no longer prints repro_output.txt" >&2
  exit 1
fi

# The examples are the documented entry points (the verify recipe drives
# them too), so each one is built and run, not only compiled: an API move
# that still type-checks but breaks an example at run time fails here. None
# writes a file, so the tree fingerprint below still holds.
echo "==> examples (--release, each run watchdogged)"
cargo build -q --release -p rna-experiments --examples
for example in examples/*.rs; do
  name="$(basename "${example}" .rs)"
  echo "    ${name}"
  timeout 120 "target/release/examples/${name}" >/dev/null
done

# The frozen benchmark package (perf/, its own workspace) builds against the
# crates' public API: run its tests here so an API break fails CI instead of
# the benchmark pipeline.
echo "==> perf package tests (--release, offline)"
cargo test --release --offline --manifest-path perf/Cargo.toml

# Benchmark smoke: the pipeline's own entry point on the workload that runs
# the training kernels, the one that runs none of them, the 10 000-worker
# DES run that drives the simulator's RNA routing at scale, and the three
# that run the real worlds' controller and worker loop (RNA and the BSP
# barrier on threads, RNA over sockets), then one traced pass, which runs
# every per-layer ledger row. The last stdout line is the result; anything
# but a correct run with zero failed operations (a broken replay check, a
# frozen-benchmark check such as BSP's `bytes_on_wire == 0`, a ledger row
# that stops measuring, a public-API break, a hang) fails here instead of
# in the benchmark pipeline. The builds refresh perf/Cargo.lock, which is
# frozen between [benchmark] PRs, so it is restored either way.
# The kernels run the widest SIMD tier the host has (portable, AVX2 or
# AVX-512), so the smoke's numbers compare only with numbers measured on the
# same tier; name it first. Each workload's rounds_per_s is echoed, ungated,
# so a gap between the process and threaded worlds shows in every log.
echo "==> SIMD tier"
cargo test -q --release -p rna-tensor --lib -- --exact simd::tests::names_the_active_tier \
  --nocapture | grep '^simd tier'

echo "==> benchmark smoke (des-mlp64k, hop-64k, des-scale10k, the three straggler workloads, one traced pass; watchdogged)"
smoke_failed=""
rate_re='"rounds_per_s": [{]"value": ([^,}]+)'
for run in des-mlp64k:0 hop-64k:0 des-scale10k:0 threaded-straggler:0 \
    threaded-straggler-bsp:0 process-straggler:0 des-mlp64k:1; do
  workload="${run%:*}"
  trace="${run#*:}"
  last="$(timeout 300 bash perf/run.sh --workload "${workload}" --seed 1 \
    --seconds 2 --trace "${trace}" | tail -n 1)" || last=""
  if [[ "${last}" =~ ${rate_re} ]]; then
    echo "    ${workload} --trace ${trace}: rounds_per_s ${BASH_REMATCH[1]}"
  fi
  if [[ "${last}" != *'"correct": true'* || "${last}" != *'"failed": 0,'* ]]; then
    echo "    ${workload} --trace ${trace}: ${last:-no result line}" >&2
    smoke_failed="${smoke_failed} ${run}"
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

# Control-plane stress: controller kills and checkpoint/resume roundtrips.
stress "recovery stress" -p rna-experiments --test recovery

# Elastic-membership stress: mid-run joins, graceful retirements,
# evictions and the online ζ-split regroup in all three worlds.
stress "churn stress" -p rna-experiments --test churn

# DES scale: the 1k / 10k / 100k-worker runs must complete every requested
# round. Too slow for debug, so the case is #[ignore]d and run here; the
# watchdog is the order-of-magnitude speed floor (the runs take seconds).
echo "==> DES scale to 100k workers (--release --ignored, watchdogged)"
timeout 300 cargo test -q --release -p rna-experiments --test straggler_tolerance \
  -- --ignored des_completes_its_rounds

# Process-world smoke: real subprocesses over TCP on ephemeral localhost
# ports, including a genuine SIGKILL + rejoin and a severed socket. A
# wedged coordinator (or a leaked worker holding a socket open) fails CI
# by timeout instead of hanging it.
echo "==> process-world smoke (real sockets + SIGKILL, watchdogged)"
timeout 600 cargo test -q --release -p rna-runtime --test process_world
timeout 600 cargo test -q --release -p rna-experiments --test three_worlds

# The stop must end a straggler's injected compute instead of waiting it
# out, in both real worlds. Checked again under the benchmark's condition,
# one CPU for the test and its worker subprocesses, where taskset works.
echo "==> teardown bound on one CPU (--release, watchdogged)"
pinned() {
  if command -v taskset >/dev/null 2>&1 && taskset -c 0 true 2>/dev/null; then
    taskset -c 0 "$@"
  else
    "$@"
  fi
}
pinned timeout 600 cargo test -q --release -p rna-runtime --test process_world -- \
  --exact stop_cuts_a_straggler_short_in_both_worlds

# Compressed-hop smoke: the worker-side wire codec over real sockets,
# reseeded three ways and across every lossy codec without recompiling,
# so each fused error-feedback body crosses a real socket (lossless does
# in the default-codec suites above). Every combination must complete its
# rounds with frame-exact socket-measured byte totals.
for codec in fp16 int8 topk; do
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

# Scalar-reference parity: the tensor, simnet and training suites again with
# SIMD dispatch forced off, so the portable fallbacks (what non-AVX2 hosts
# run), the ChaCha8 keystream's and the training kernels' included, get the
# same debug_assert! coverage as the vector path, and the models' gradient
# checks run on the baseline builds. The golden digest table then checks
# every DES protocol end to end on those builds, so an edit to the dispatch
# cannot pass on the vector path alone.
echo "==> tensor + simnet + training tests and the golden table with forced-scalar dispatch (debug)"
RNA_FORCE_SCALAR=1 timeout 600 cargo test -q -p rna-tensor -p rna-simnet -p rna-training
RNA_FORCE_SCALAR=1 timeout 600 cargo test -q -p rna-experiments --test golden

# The benchmark measures release builds, so the fused bodies against their
# oracle and the golden table run forced-scalar in release too: every
# dispatch × profile pair gives the norm's eight-lane order the same bits.
echo "==> fused kernels and the golden table with forced-scalar dispatch (--release)"
RNA_FORCE_SCALAR=1 timeout 600 cargo test -q --release -p rna-tensor --test fused_kernels
RNA_FORCE_SCALAR=1 timeout 600 cargo test -q --release -p rna-experiments --test golden

# The tanh port against the host libm on all 2^32 inputs, under every tier
# the host has. The oracle is f32::tanh, so this gate is for glibc 2.36
# x86-64 hosts (the tier-1 suite checks a captured table instead).
echo "==> exhaustive tanh sweep (--release --ignored, watchdogged)"
timeout 600 cargo test -q --release -p rna-tensor --lib -- --ignored \
  dense::tests::tanh_matches_the_host_libm_on_every_f32

# The same for the exp port. Its oracle is glibc 2.36's expf as the x86-64
# libm resolves it on an FMA host (its FMA build), the build the port
# follows; the plain build differs on two inputs.
echo "==> exhaustive exp sweep (--release --ignored, watchdogged)"
timeout 600 cargo test -q --release -p rna-tensor --lib -- --ignored \
  dense::tests::exp_matches_the_host_libm_on_every_f32

# Zero-alloc guarantee: the debug-only allocation counter must show that
# warm pooled rounds allocate nothing (vacuous in release, so run debug).
# Covers the simulator pool and the threaded controller's reduce region.
echo "==> pooled data-path alloc check (debug)"
timeout 600 cargo test -q -p rna-core --test pooling

# The large-allocation count (warm iterations allocate no gradient, and
# identical worker replicas are stored once) uses a counting global
# allocator that works in every profile; the benchmark measures release
# builds, so it runs in release too.
echo "==> large-allocation count (--release, watchdogged)"
timeout 600 cargo test -q --release -p rna-core --test compute_allocs

# Worker wire-encode zero-alloc assert: the same counter guards the
# error-feedback encode every world runs, `FeedbackEncoder::encode` in
# rna_tensor::codec (a debug_assert: only an encoder's first encode may
# allocate a tensor buffer, its residual). The pooled DES tests above run it
# through int8; here the smoke runs in debug with a real codec so the assert
# also executes in the spawned debug workers' socket links; a violation
# aborts the worker and fails the run.
echo "==> worker encode zero-alloc assert (debug, int8 wire)"
RNA_HOP_CODEC=int8 timeout 600 cargo test -q -p rna-runtime \
  --test process_world compressed_hop_smoke

if [[ -n "${tree_before}" && "$(tree_fingerprint)" != "${tree_before}" ]]; then
  echo "CI changed the working tree:" >&2
  diff <(echo "${tree_before}") <(tree_fingerprint) >&2 || true
  exit 1
fi

echo "==> CI green"
