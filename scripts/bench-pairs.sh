#!/usr/bin/env bash
# Interleaved parent/change pairs of one workload of the repo benchmark.
#
#   scripts/bench-pairs.sh <parent-ref> <workload> [pairs] [seconds]
#
# Builds the benchmark of <parent-ref> in a temporary git worktree (under
# $TMPDIR) and the benchmark of the working tree, each into its own
# bench/target. Pair i then runs `zsl-bench steady --runs 1` on both sides
# with seed FIRST_SEED + i (FIRST_SEED defaults to 1), parent first on even
# i and change first on odd i, each side from its own tree's root. `pairs`
# defaults to 10 and `seconds` to BENCHMARK.json's run_seconds.
#
# Prints every pair's p50_ms, how many pairs the change won (lower p50 wins,
# ties count for neither side), then `zsl-bench compare` of the two record
# files, which stay under .bench_work/pairs-<time>/ with each side's log.
# Exits with the compare's status.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <parent-ref> <workload> [pairs] [seconds]" >&2
    exit 2
fi
ref=$1
workload=$2
pairs=${3:-10}
seconds=${4:-}
first_seed=${FIRST_SEED:-1}

root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --verify "$ref^{commit}")
parent=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
cleanup() {
    git -C "$root" worktree remove --force "$parent" >/dev/null 2>&1 || true
    rm -rf "$parent"
}
trap cleanup EXIT
git worktree add --detach "$parent" "$sha" >/dev/null

for tree in "$parent" "$root"; do
    echo "building the benchmark in $tree" >&2
    (cd "$tree" && cargo build --release --offline --quiet --manifest-path bench/Cargo.toml)
done

out="$root/.bench_work/pairs-$(date +%s)"
mkdir -p "$out"

# run <side> <tree> <seed>: one run, appended to <side>.jsonl; prints p50_ms.
run() {
    local side=$1 tree=$2 seed=$3
    if ! (cd "$tree" && bench/target/release/zsl-bench steady --runs 1 \
        --workloads "$workload" --first-seed "$seed" ${seconds:+--seconds "$seconds"} \
        --records "$out/$side.jsonl") >>"$out/$side.log" 2>&1; then
        echo "$side run with seed $seed failed; see $out/$side.log" >&2
        tail -n 20 "$out/$side.log" >&2
        exit 1
    fi
    tail -n 1 "$out/$side.jsonl" | grep -o '"p50_ms": {"value": [^,}]*' | sed 's/.*: //'
}

echo "$workload: parent $sha vs the working tree, $pairs pairs"
printf '%4s %8s %6s %14s %14s %7s\n' pair seed first parent_p50_ms change_p50_ms winner
wins=0
for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        first=parent
        base=$(run parent "$parent" "$seed")
        new=$(run change "$root" "$seed")
    else
        first=change
        new=$(run change "$root" "$seed")
        base=$(run parent "$parent" "$seed")
    fi
    winner=$(awk -v a="$base" -v b="$new" 'BEGIN { print (b < a) ? "change" : (a < b) ? "parent" : "tie" }')
    if [ "$winner" = change ]; then
        wins=$((wins + 1))
    fi
    printf '%4d %8d %6s %14.2f %14.2f %7s\n' "$i" "$seed" "$first" "$base" "$new" "$winner"
done
echo "the change won $wins of $pairs pairs on p50_ms"
echo "records: $out"

status=0
bench/target/release/zsl-bench compare "$out/parent.jsonl" "$out/change.jsonl" || status=$?
exit "$status"
