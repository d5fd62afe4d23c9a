#!/usr/bin/env bash
# Repeatability gate: run the end-to-end set twice on the same code and
# fail if any metric pair disagrees by more than its bound, or if either
# set reports an incorrect result. Extra arguments go to both runs
# (e.g. `--seed 7`, `--workload fleet_quiet`, `--seconds 5`).
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
bin="${CARGO_TARGET_DIR:-target}/release/perfbench"
mkdir -p out
"$bin" run --json out/check-a.json "$@"
"$bin" run --json out/check-b.json "$@"
"$bin" compare out/check-a.json out/check-b.json
