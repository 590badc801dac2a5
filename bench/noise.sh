#!/usr/bin/env bash
# Measures how far two sets of runs of the SAME code disagree, the way the
# benchmark's driver does, and writes bench/NOISE.md. The bounds in
# BENCHMARK.json are chosen from that file, never guessed.
#
# Two sets of ten full runs per workload (each run with another seed), the
# sets alternating run by run so a slow minute hits both. Takes about half an
# hour. Run from the repository root:
#   bash bench/noise.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
bin="${CARGO_TARGET_DIR:-bench/target}/release/dps-bench"
exec python3 bench/noise.py "$bin"
