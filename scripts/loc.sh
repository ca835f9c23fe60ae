#!/usr/bin/env bash
# Non-test lines per crate: for every .rs file under crates/<crate>/src, the
# lines above the file's first column-0 `#[cfg(test)]` (all of them when it
# has none), summed per crate, then the workspace total. Informational: the
# ROADMAP's line targets are stated in these numbers.
#
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
  name="$(basename "${crate}")"
  lines=0
  while IFS= read -r -d '' file; do
    n="$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "${file}")"
    lines=$((lines + n))
  done < <(find "${crate}src" -name '*.rs' -print0)
  printf '%-12s %6d\n' "${name}" "${lines}"
  total=$((total + lines))
done
printf '%-12s %6d\n' total "${total}"
