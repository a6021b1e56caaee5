#!/usr/bin/env bash
# Builds the benchmark, then runs every workload with tracing off (`run`)
# and traced (`trace`). Arguments go to both: --smoke, --workload NAME,
# --seed N, --seconds S, --out DIR. Results land in benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
"${bench[@]}" run "$@"
"${bench[@]}" trace "$@"
