#!/usr/bin/env bash
# The one command of the benchmark. Builds the benchmark crate (a workspace
# of its own, next to this script) and passes every argument through:
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one workload
#   benchmark/run.sh [--seed N] [--trace] [--smoke]                  all of them
#   benchmark/run.sh compare BASE.json... [--against NEW.json...]
# Paths in the program are relative to the repository root.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- "$@"
