#!/usr/bin/env bash
# Non-test line count: every .rs file under src/ and crates/*/src, read up
# to its first `#[cfg(test)]`, without blank lines and `//` comment lines
# (doc comments included). tests/, examples/ and benchmark/ are left out.
# Prints one "<count> <file>" line per file, then the total.
#
#   scripts/nontest-lines.sh            # from any directory
set -euo pipefail
cd "$(dirname "$0")/.."

find src crates/*/src -name '*.rs' | LC_ALL=C sort | while read -r file; do
  awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
       /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
       { n++ }
       END { printf "%6d %s\n", n, FILENAME }' "$file"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
