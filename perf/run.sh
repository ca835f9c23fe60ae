#!/usr/bin/env bash
# Builds the program under test and the benchmark from source, then runs the
# benchmark with the arguments given, from the root of the checkout. Fails
# (non-zero, no result line) where the repository's sources are absent.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# The process world looks for rna-worker beside the running executable, so
# both binaries go to the same target directory.
cargo build --release --offline --quiet --manifest-path Cargo.toml -p rna-runtime --bin rna-worker
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml
perf="$CARGO_TARGET_DIR/release/perf"
# One CPU for the whole run, worker subprocesses included. On a small shared
# VM a wake-up that crosses CPUs costs more than the second CPU buys and
# varies with the neighbours: hop-64k measured 330-550 rounds/s on two CPUs
# and 905-951 on one. The programs see one CPU and size their fan-out to it.
if command -v taskset >/dev/null 2>&1 && taskset -c 0 true 2>/dev/null; then
    exec taskset -c 0 "$perf" "$@"
fi
echo "perf/run.sh: taskset is not usable here; running unpinned, expect noisier numbers" >&2
exec "$perf" "$@"
