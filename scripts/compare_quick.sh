#!/usr/bin/env bash
# Compare `experiments` output between a git revision and the working
# tree. Usage:
#   scripts/compare_quick.sh <rev> [experiment ...]
# Each experiment is one argument holding its command line, e.g.
# "attack --quick". With none, runs ablations and the --quick smokes.
# Both trees are built offline into their own target directories under a
# temp directory, and every run happens in a temp working directory
# without --save, so nothing is written into the repo. Prints
# `identical` or a unified diff of stdout (plus a differing exit status)
# per experiment; exits 1 if any differ.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: $0 <rev> [experiment ...]" >&2
    exit 2
fi
rev=$1
shift
if [ $# -eq 0 ]; then
    set -- "ablations" "attack --quick" "fingerprint --quick" "oracle --quick" \
        "chaos --quick" "control --quick" "soak --quick"
fi

repo=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/base" "$tmp/run"
git -C "$repo" archive "$rev" | tar -x -C "$tmp/base"

build() { # <source tree> <target dir>
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/Cargo.toml" -p fiat-bench --bin experiments
}
build "$tmp/base" "$tmp/target-base"
build "$repo" "$tmp/target-head"

run() { # <target dir> <experiment> <output file>
    local status=0
    # The experiment string is a command line: split it on purpose.
    # shellcheck disable=SC2086
    (cd "$tmp/run" && "$1/release/experiments" $2) >"$3" || status=$?
    if [ "$status" -ne 0 ]; then
        echo "exit status $status" >>"$3"
    fi
}

differ=0
for exp in "$@"; do
    run "$tmp/target-base" "$exp" "$tmp/base.txt"
    run "$tmp/target-head" "$exp" "$tmp/head.txt"
    if diff -u --label "$rev: $exp" --label "worktree: $exp" "$tmp/base.txt" "$tmp/head.txt"; then
        echo "$exp: identical"
    else
        differ=1
    fi
done
exit "$differ"
