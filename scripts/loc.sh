#!/usr/bin/env bash
# Non-test lines per crate: for every .rs file under crates/<crate>/src, the
# lines above the file's first column-0 `#[cfg(test)]` (all of them when it
# has none), summed per crate, then the workspace total. A file whose first
# column-0 `#[cfg(test)]` is not followed by a `mod` line (a test helper
# above the test module) is named in a warning, since the count would stop
# early there. Last comes every .rs line under crates, tests, examples,
# perf/src and vendor, tests included. Informational: the ROADMAP's line
# targets are stated in these numbers.
#
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
  name="$(basename "${crate}")"
  lines=0
  while IFS= read -r -d '' file; do
    read -r n cut < <(awk '
      /^#\[cfg\(test\)\]/ { getline after; cut = (after ~ /^(pub(\([a-z]+\))? )?mod /); exit }
      { n++ }
      END { print n + 0, (cut == "" ? 1 : cut) }' "${file}")
    if [[ "${cut}" != 1 ]]; then
      echo "warning: ${file}: the first #[cfg(test)] is not on a mod; counted up to it" >&2
    fi
    lines=$((lines + n))
  done < <(find "${crate}src" -name '*.rs' -print0)
  printf '%-12s %6d\n' "${name}" "${lines}"
  total=$((total + lines))
done
printf '%-12s %6d\n' total "${total}"
all="$(find crates tests examples perf/src vendor -name '*.rs' -print0 | xargs -0 cat | wc -l)"
printf '%-12s %6d\n' 'all .rs' "${all}"
