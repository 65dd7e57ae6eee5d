#!/usr/bin/env bash
# Non-test line count: for each .rs file under the given directories,
# the lines before its first `#[cfg(test)]` line (the whole file if it
# has none), then the total.
#
#   scripts/loc.sh crates/core/src
#   scripts/loc.sh crates/core/src crates/net/src
set -euo pipefail

if [ "$#" -eq 0 ]; then
    echo "usage: $0 <dir>..." >&2
    exit 2
fi

find "$@" -name '*.rs' -type f | LC_ALL=C sort | while read -r f; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    printf '%6d %s\n' "$n" "$f"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
