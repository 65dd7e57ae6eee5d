#!/usr/bin/env bash
# Run perfbench in alternating pairs: a git revision against the working
# tree. Usage:
#   scripts/bench_pairs.sh <rev> <workload> <pairs> <seconds> <seed>
# <rev> is exported with `git archive` and the working tree (target dirs
# excluded) is copied, both into a temp directory, and each copy builds
# its own perfbench there, so the repo's perfbench/Cargo.lock is never
# rewritten. Pair i runs the revision first when i is odd and the
# working tree first when i is even. Every run is untraced.
#
# Prints each run's `guard` and `operations` (failure count) lines,
# then per end-to-end metric each side's median and quartiles (linear
# interpolation at p*(n+1), as Python's statistics.quantiles gives them)
# and how many pairs the working tree won (ties count for neither side).
# For proof_storm the same table also covers auth_p50_us and
# migrate_p50_us from each run's `proofs per round:` line (lower wins).
#
# The end-to-end metrics, their direction (`better`) and their
# no-regression `bound` are read from BENCHMARK.json with jq. For each
# one the table adds the head-vs-base change of the median in % and
# `ok`, or `WORSE` when the head median is worse than the base median by
# more than the bound (a bound of 0.25 allows 25%). The last line is the
# verdict over all of them.
set -euo pipefail

if [ $# -ne 5 ]; then
    echo "usage: $0 <rev> <workload> <pairs> <seconds> <seed>" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=$4 seed=$5

repo=$(git rev-parse --show-toplevel)
# "<name> <better> <bound>" per end-to-end metric, separated by ";".
spec=$(jq -r '[.end_to_end[] | "\(.name) \(.better) \(.bound)"] | join(";")' "$repo/BENCHMARK.json")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/base" "$tmp/head" "$tmp/out"
git -C "$repo" archive "$rev" | tar -x -C "$tmp/base"
tar -C "$repo" --exclude=./.git --exclude=./target --exclude=./.bench_build \
    --exclude=./perfbench/target -cf - . | tar -x -C "$tmp/head"

for side in base head; do
    CARGO_TARGET_DIR="$tmp/target-$side" cargo build --release --quiet --offline \
        --manifest-path "$tmp/$side/perfbench/Cargo.toml"
done

run() { # <side> <pair>
    local out="$tmp/out/$1.$2" status=0
    (cd "$tmp/$1" && "$tmp/target-$1/release/perfbench" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0) >"$out" || status=$?
    awk -v tag="pair $2 $1:" '/^guard |^operations: / { print tag, $0 }' "$out"
    if [ "$status" -ne 0 ]; then
        echo "pair $2 $1: exit status $status"
    fi
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$i"
        run head "$i"
    else
        run head "$i"
        run base "$i"
    fi
done

echo "$workload seed $seed, $seconds s, $pairs pairs: base = $rev, head = working tree"
for side in base head; do
    for i in $(seq 1 "$pairs"); do
        awk -v side="$side" -v pair="$i" '
            $1 == "metric" { print side, pair, $2, $4 }
            /^proofs per round:/ {
                for (f = 1; f < NF; f++)
                    if ($f == "auth_p50_us" || $f == "migrate_p50_us") print side, pair, $f, $(f + 1)
            }' "$tmp/out/$side.$i"
    done
done | awk -v spec="$spec" '
function quantile(v, n, p,    pos, lo) {
    pos = p * (n + 1)
    if (pos <= 1) return v[1]
    if (pos >= n) return v[n]
    lo = int(pos)
    return v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
function sorted(side, m, v,    n, i, j, t) {
    n = 0
    for (i = 1; i <= pairs; i++)
        if ((side, m, i) in val) v[++n] = val[side, m, i]
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && v[j - 1] > v[j]; j--) {
            t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
        }
    return n
}
{
    val[$1, $3, $2] = $4
    seen[$3] = 1
    if ($2 > pairs) pairs = $2
}
END {
    count = split(spec, lines, ";")
    for (k = 1; k <= count; k++) {
        split(lines[k], f, " ")
        names[k] = f[1]
        if (f[2] == "higher") higher[f[1]] = 1
        bound[f[1]] = f[3]
    }
    if ("auth_p50_us" in seen) names[++count] = "auth_p50_us"
    if ("migrate_p50_us" in seen) names[++count] = "migrate_p50_us"
    worse = ""
    printf "%-14s %-34s %-34s %-9s %-8s %s\n", "metric", "base median [q1, q3]",
        "head median [q1, q3]", "head wins", "change", "verdict"
    for (k = 1; k <= count; k++) {
        m = names[k]
        delete b; delete h
        nb = sorted("base", m, b)
        nh = sorted("head", m, h)
        wins = 0; played = 0
        for (i = 1; i <= pairs; i++) {
            if (!(("base", m, i) in val) || !(("head", m, i) in val)) continue
            played++
            d = val["head", m, i] - val["base", m, i]
            if ((m in higher && d > 0) || (!(m in higher) && d < 0)) wins++
        }
        mb = quantile(b, nb, 0.5)
        mh = quantile(h, nh, 0.5)
        # pct: head-vs-base median change in %; worse_by: the same
        # change, signed so that positive means the head is worse.
        change = "n/a"
        worse_by = 0
        if (nb > 0 && nh > 0 && mb != 0) {
            pct = 100 * (mh - mb) / mb
            change = sprintf("%+.1f%%", pct)
            worse_by = (m in higher) ? -pct : pct
        }
        verdict = "-"
        if (m in bound) {
            verdict = "ok"
            if (change == "n/a" || worse_by > 100 * bound[m]) {
                verdict = "WORSE"
                worse = worse " " m
            }
        }
        printf "%-14s %-34s %-34s %-9s %-8s %s\n", m,
            sprintf("%.4g [%.4g, %.4g]", mb, quantile(b, nb, 0.25), quantile(b, nb, 0.75)),
            sprintf("%.4g [%.4g, %.4g]", mh, quantile(h, nh, 0.25), quantile(h, nh, 0.75)),
            sprintf("%d/%d", wins, played), change, verdict
    }
    if (worse == "")
        print "verdict: no metric worse than its bound"
    else
        print "verdict: WORSE than its bound:" worse
}'
