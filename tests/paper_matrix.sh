#!/usr/bin/env bash
# Runs the virtual-time paper benches at their default scale — Figures 1 and
# 3-5, Tables 3-5 (bench_table5_wear also prints Figure 6) and the eviction
# and consistency ablations — and prints, for each one, the command, its exit
# code and its stdout. The benches that write --stats-json (fig3, fig4, fig5,
# table5) also print their JSON lines with the host-time fields
# (wall_clock_us, replay_ops_per_sec) removed. Everything
# left is virtual time, so diffing the output against
# tests/baselines/paper_matrix_baseline.txt pins every number EXPERIMENTS.md
# quotes from these benches byte for byte. bench_sparsemap is left out: its
# numbers are wall-clock.
#
# usage: tests/paper_matrix.sh BUILD_DIR [BENCH...] > paper-matrix.txt
#
# BUILD_DIR is a CMake build tree of this repository. The benches run one
# after another, 110-130 s on 4 cores; naming benches runs only their
# entries, which is how ctest runs the matrix, one entry per bench side by
# side (tests/check.sh). Regenerate the baseline with the whole matrix from
# the default (RelWithDebInfo) build when a deliberate behaviour change
# moves an entry.
set -u

if [ $# -lt 1 ] || [ ! -d "$1/bench" ]; then
  echo "usage: $0 BUILD_DIR [BENCH...]" >&2
  exit 2
fi
bench=$1/bench
shift
only=" $* "
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# run NAME [--stats-json]: one matrix entry, unless other benches were named.
run() {
  local name=$1 json=""
  local args=()
  if [ "$only" != "  " ] && [[ $only != *" $name "* ]]; then
    return
  fi
  if [ "${2:-}" = "--stats-json" ]; then
    json=$tmp/stats.json
    rm -f "$json"
    args+=("--stats-json=$json")
  fi
  echo "=== $name${json:+ --stats-json}"
  "$bench/$name" "${args[@]}" > "$tmp/stdout" 2> /dev/null
  echo "exit $?"
  cat "$tmp/stdout"
  if [ -n "$json" ]; then
    echo "--- stats-json (host-time fields removed)"
    if [ -f "$json" ]; then
      sed -E 's/"(wall_clock_us|replay_ops_per_sec)":[^,]*,//g' "$json"
    else
      echo "(not written)"
    fi
  fi
}

run bench_fig1_density
run bench_fig3_performance --stats-json
run bench_fig4_consistency --stats-json
run bench_fig5_recovery --stats-json
run bench_table3_workloads
run bench_table4_memory
run bench_table5_wear --stats-json
run bench_ablation_eviction
run bench_ablation_consistency
