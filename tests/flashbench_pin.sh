#!/usr/bin/env bash
# Runs one flashbench round per workload at the --quick size (seed 42, scale
# 0.2) and prints every metric whose clock is "virtual" — the modelled cache,
# exact and repeatable — with its unit and value, plus the run's attempted
# and failed operation counts. Host-clock metrics (wall time, memory) are
# left out. Diffing the output against
# tests/baselines/flashbench_virtual_baseline.txt pins the end-to-end
# benchmark's modelled results byte for byte without touching benchmark/.
#
# usage: tests/flashbench_pin.sh FLASHBENCH > OUT
#
# FLASHBENCH is a flashbench binary: BUILD_DIR/tests/flashbench, which ctest's
# flashbench_pin entry runs through tests/check.sh, or the one
# benchmark/CMakeLists.txt builds (about 8 s for all four workloads in an
# optimized build). Exits 1 if any run fails or reports correct=false.
# Regenerate the baseline with the same command when a deliberate behaviour
# change moves an entry.
set -u

if [ $# -ne 1 ] || [ ! -x "$1" ]; then
  echo "usage: $0 FLASHBENCH" >&2
  exit 2
fi
bin=$1
status=0

for workload in homes-wb usr-wt-ghost mail-native kv-zipf; do
  args=(--workload="$workload" --seed=42 --scale=0.2)
  echo "=== flashbench ${args[*]}"
  out=$("$bin" "${args[@]}" 2> /dev/null)
  code=$?
  echo "exit $code"
  if ! printf '%s\n' "$out" | python3 -c '
import json, sys
run = json.loads(sys.stdin.read())
print("correct", "true" if run["correct"] else "false")
print("attempted", run["attempted"], "failed", run["failed"])
for name, m in run["metrics"].items():
    if m["clock"] == "virtual":
        print(name, m["unit"], *m["values"])
sys.exit(0 if run["correct"] else 1)
'; then
    status=1
  fi
  if [ "$code" -ne 0 ]; then
    status=1
  fi
done
exit $status
