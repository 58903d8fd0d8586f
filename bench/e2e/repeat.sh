#!/usr/bin/env bash
# Run-to-run spread check: two sets of N untraced runs of every workload
# (set A with seeds 1..N, set B with seeds 101..N+100), then compare the
# set medians and each set's inter-quartile spread against the bounds in
# BENCHMARK.json. Exits non-zero when a metric misses its bound.
#
#   bench/e2e/repeat.sh [runs-per-set (default 5)] [workload ...]
#
# Result lines (and each run's stderr, as .log) are kept under
# .bench_build/e2e/repeat/{a,b}/; a run that fails stops the script.
set -euo pipefail
cd "$(dirname "$0")/../.."

runs="${1:-5}"
shift || true
if [ "$#" -gt 0 ]; then
  workloads=("$@")
else
  mapfile -t workloads < <(python3 -c \
    'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

out=.bench_build/e2e/repeat
rm -rf "$out"
mkdir -p "$out/a" "$out/b"
for set in a b; do
  base=1
  [ "$set" = b ] && base=101
  for workload in "${workloads[@]}"; do
    for ((i = 0; i < runs; i++)); do
      seed=$((base + i))
      echo "set $set: $workload seed $seed" >&2
      python3 bench/e2e/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 2> "$out/$set/$workload-$seed.log" |
        tail -n 1 > "$out/$set/$workload-$seed.json"
    done
  done
done
python3 bench/e2e/run.py --compare "$out/a" "$out/b"
