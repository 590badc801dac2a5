#!/usr/bin/env bash
# Quick self-check of the benchmark (tiny sizes, about 20 s once built):
# everything that must repeat exactly for one seed does, and moves with the
# seed. Run from the repository root: bash bench/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
bin="${CARGO_TARGET_DIR:-bench/target}/release/dps-bench"
mkdir -p bench/out

# The lines of a traced run that are counts, not times. A workload's three
# runs go side by side: counts do not care how busy the host is.
counts() {
    "$bin" --workload "$1" --seed "$2" --seconds 1 --trace 1 --pubs "$3" |
        grep -E '^(counts per round:|ops_attempted|broker\.turns_to_deliver_p(50|99)|wire\.bytes_per_deliver|mem\.allocs_per_pub) ' \
            >"bench/out/check-$1-$4.txt"
}

status=0
for spec in fanout_wide:80 mesh_route:160 churn_mix:240; do
    workload="${spec%%:*}"
    pubs="${spec##*:}"
    pids=()
    counts "$workload" 1 "$pubs" first & pids+=($!)
    counts "$workload" 1 "$pubs" again & pids+=($!)
    counts "$workload" 2 "$pubs" other & pids+=($!)
    ran=0
    for pid in "${pids[@]}"; do
        wait "$pid" || ran=1
    done
    if [ "$ran" -ne 0 ]; then
        echo "FAIL $workload: a run exited non-zero or printed no counts"
        status=1
    elif ! cmp -s "bench/out/check-$workload-first.txt" "bench/out/check-$workload-again.txt"; then
        echo "FAIL $workload: two runs of seed 1 disagree"
        diff "bench/out/check-$workload-first.txt" "bench/out/check-$workload-again.txt" || true
        status=1
    elif cmp -s "bench/out/check-$workload-first.txt" "bench/out/check-$workload-other.txt"; then
        echo "FAIL $workload: seed 2 gives the counts of seed 1"
        status=1
    else
        echo "ok   $workload: counts repeat for one seed and move with the seed"
    fi
done
exit $status
