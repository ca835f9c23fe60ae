#!/usr/bin/env bash
# Public functions only tests use: every `pub fn` under crates/*/src whose
# name appears in no other .rs file under crates, tests, examples or
# perf/src, and nowhere in its own file above the first column-0
# `#[cfg(test)]` (the cut scripts/loc.sh uses) but on its definition. The
# output is what a deletion pass can take, with the accessors kept on
# purpose for tests. Informational, not a gate.
#
#   bash scripts/unused_pub.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Identifier -> number of .rs files naming it.
declare -A files
while read -r count name; do
  files["${name}"]="${count}"
done < <(find crates tests examples perf/src -name '*.rs' -print0 |
  xargs -0 grep -oHE '[A-Za-z_][A-Za-z0-9_]*' | sort -u |
  cut -d: -f2 | sort | uniq -c)

while IFS=: read -r file name; do
  [[ "${files[${name}]}" == 1 ]] || continue
  uses="$(awk -v name="${name}" '
    /^#\[cfg\(test\)\]/ { exit }
    { n += gsub("(^|[^A-Za-z0-9_])" name "([^A-Za-z0-9_]|$)", "") }
    END { print n + 0 }' "${file}")"
  if [[ "${uses}" == 1 ]]; then
    echo "${file}: ${name}"
  fi
done < <(find crates/*/src -name '*.rs' -print0 |
  xargs -0 grep -oHE '^[[:space:]]*pub fn [A-Za-z_][A-Za-z0-9_]*' |
  sed -E 's/:[[:space:]]*pub fn /:/' | sort -u)
