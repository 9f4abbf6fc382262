#!/usr/bin/env bash
# Runs the end-to-end benchmark's workloads at consecutive seeds and fails if
# any run's output check fails:
#
#   scripts/seed_sweep.sh DIR N [SEED0=1] [WORKLOAD...]
#
# DIR is a checkout of this repository. Each named workload (all seven of
# BENCHMARK.json when none is named) runs N times, at seeds SEED0 ..
# SEED0+N-1, as `run.sh --workload W --seed S --seconds 0.1 --trace 0`: the
# short measurement keeps a run to its set-up and a few points, which is
# where a seed-dependent input (grid shift, potential ripple) either holds
# the checks or breaks them. A ten-pair timing comparison draws ten seeds;
# this draws as many as asked.
#
# One line per run ("ok" or "FAIL" with the run's own check summary), then
# the failing runs again. Exits 1 if any run reported `correct: false` or
# exited non-zero. Logs land in $SEED_SWEEP_OUT (default:
# ./seed_sweep.out, under the directory the script is started from).
set -euo pipefail

if [ "$#" -lt 2 ]; then
    sed -n '2,18p' "${BASH_SOURCE[0]}" >&2
    exit 2
fi
dir=$(cd "$1" && pwd)
n=$2
seed0=${3:-1}
workloads=("${@:4}")
if [ "${#workloads[@]}" -eq 0 ]; then
    mapfile -t workloads < <(grep -o '"name": "[a-z0-9_]*", "why"' "$dir/BENCHMARK.json" |
        sed 's/"name": "\([a-z0-9_]*\)".*/\1/')
fi
out=${SEED_SWEEP_OUT:-$PWD/seed_sweep.out}
mkdir -p "$out"
out=$(cd "$out" && pwd)

cargo build --quiet --release --offline --manifest-path "$dir/benchmark/Cargo.toml"

failed=()
for w in "${workloads[@]}"; do
    for ((i = 0; i < n; i++)); do
        seed=$((seed0 + i))
        log="$out/$w.seed$seed.log"
        status=0
        bash "$dir/benchmark/run.sh" --workload "$w" --seed "$seed" --seconds 0.1 --trace 0 \
            >"$log" 2>&1 || status=$?
        if [ "$status" -eq 0 ] && tail -n 5 "$log" | grep -q '"correct": true'; then
            echo "ok    $w seed $seed"
        else
            summary=$(grep -m1 '^checked ' "$log" || echo "exit $status")
            echo "FAIL  $w seed $seed: $summary"
            failed+=("$w seed $seed ($log)")
        fi
    done
done

if [ "${#failed[@]}" -gt 0 ]; then
    echo "${#failed[@]} failing run(s):"
    printf '  %s\n' "${failed[@]}"
    exit 1
fi
echo "all runs correct"
