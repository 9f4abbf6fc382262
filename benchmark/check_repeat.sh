#!/usr/bin/env bash
# Runs the full set — every workload, end-to-end pass then traced pass —
# twice at one seed, and asserts that the two sets agree: every end-to-end
# metric within its bound in both directions, no failed operation, and
# every count of spec::EXACT_COUNTS bit-equal. About seven minutes.
#   benchmark/check_repeat.sh [SEED]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
seed="${1:-1}"
out=benchmark/out
for set in a b; do
  benchmark/run.sh --seed "$seed" --trace
  cp "$out/results.seed$seed.json" "$out/repeat-$set.seed$seed.json"
done
benchmark/run.sh compare "$out/repeat-a.seed$seed.json" --against "$out/repeat-b.seed$seed.json" --exact-counts
benchmark/run.sh compare "$out/repeat-b.seed$seed.json" --against "$out/repeat-a.seed$seed.json" --exact-counts >/dev/null
echo "check_repeat: the two sets agree"
