#!/usr/bin/env bash
# The ten-pair comparison a perf claim rests on, as one command:
#
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR [PAIRS=10] [SEED0=1] [WORKLOAD...]
#
# PARENT_DIR and CHANGE_DIR are two checkouts of this repository (the parent
# commit and the change). For pair i the benchmark runs once in each with
# seed SEED0+i, the side that goes first alternating from pair to pair; each
# run's result file is copied aside, and the script ends with the table of
# `run.sh compare <parent results> --against <change results>`.
#
# Without workload names a run is the full pass (`run.sh --seed N`, all seven
# workloads, its results.seed*.json kept). With names it is one
# `run.sh --workload W --seed N` per name, the per-run detail file
# W.seed*.e2e.json kept — a claim on one workload plus its must-not-move rows
# then costs those workloads only, not ten full passes.
#
# Result files land in $BENCH_PAIRS_OUT (default: ./bench_pairs.out, under
# the directory the script is started from). Both checkouts are built before
# the first timed run, so no pair pays for a compile.
set -euo pipefail

if [ "$#" -lt 2 ]; then
    sed -n '2,21p' "${BASH_SOURCE[0]}" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
pairs=${3:-10}
seed0=${4:-1}
workloads=("${@:5}")
out=${BENCH_PAIRS_OUT:-$PWD/bench_pairs.out}
mkdir -p "$out/parent" "$out/change"
out=$(cd "$out" && pwd)

for dir in "$parent" "$change"; do
    cargo build --quiet --release --offline --manifest-path "$dir/benchmark/Cargo.toml"
done

# run_side NAME DIR SEED: one pass (full, or the named workloads), its result
# files copied aside.
run_side() {
    local name=$1 dir=$2 seed=$3 w
    echo "== pair seed $seed: $name" >&2
    if [ "${#workloads[@]}" -eq 0 ]; then
        bash "$dir/benchmark/run.sh" --seed "$seed" >"$out/$name/run.seed$seed.log" 2>&1
        cp "$dir/benchmark/out/results.seed$seed.json" "$out/$name/"
        return
    fi
    for w in "${workloads[@]}"; do
        bash "$dir/benchmark/run.sh" --workload "$w" --seed "$seed" --trace 0 \
            >"$out/$name/run.$w.seed$seed.log" 2>&1
        cp "$dir/benchmark/out/$w.seed$seed.e2e.json" "$out/$name/"
    done
}

for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    if ((i % 2 == 0)); then
        run_side parent "$parent" "$seed"
        run_side change "$change" "$seed"
    else
        run_side change "$change" "$seed"
        run_side parent "$parent" "$seed"
    fi
done

bash "$change/benchmark/run.sh" compare "$out"/parent/*.json \
    --against "$out"/change/*.json | tee "$out/compare.txt"
