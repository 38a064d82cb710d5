#!/usr/bin/env bash
# A/A check — the second acceptance check: two interleaved sets of runs
# of the SAME build, ten runs per set and workload, each run of a set
# with another seed and both sets with the same ten seeds. The sets must
# agree within the bounds in BENCHMARK.json on every end-to-end metric of
# every workload, each set's own quartile spread must stay within the
# bound too, and served_share must repeat bit for bit for a seed.
#
# Results land in benchmark/out/aa-A.jsonl and aa-B.jsonl (one labelled
# line per run); the exit status is compare's. For a quicker look, run
# one workload and `compare` by hand (README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=10
RUN_SECONDS=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
WORKLOADS="svc_wire_churn svc_wire_paced svc_contended sched_horizon flow_replan flow_deliver"
bench() {
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
# One run, as the line `compare` reads: the run's last line, labelled.
run() { # workload seed
  local result
  result=$(bench --workload "$1" --seed "$2" --seconds "$RUN_SECONDS" --trace 0 | tail -n 1)
  printf '{"workload": "%s", "seed": %d, "result": %s}\n' "$1" "$2" "$result"
}

mkdir -p benchmark/out
A=benchmark/out/aa-A.jsonl
B=benchmark/out/aa-B.jsonl
rm -f "$A" "$B"
for workload in $WORKLOADS; do
  for seed in $(seq 1 "$RUNS"); do
    # Interleaved, so a slow minute on a shared box lands in both sets.
    run "$workload" "$seed" >>"$A"
    run "$workload" "$seed" >>"$B"
    echo "aa: $workload pair $seed/$RUNS done" >&2
  done
done
bench compare "$A" "$B" --same-build
