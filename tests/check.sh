#!/usr/bin/env bash
# Runs one pinned check of a build: committed commands whose output must
# equal their baseline under tests/baselines/ byte for byte, and the paper
# claim (tests/claims.py) that output must show. Each run writes only under
# its own temporary directory, so ctest runs the checks side by side, one
# entry each (tests/CMakeLists.txt).
#
# usage: tests/check.sh BUILD_DIR CHECK
#
# CHECK is one of
#   flashcheck_matrix   tests/flashcheck_matrix.sh, and the deep-wear claim on
#                       its --aging=60 entry;
#   paper_BENCH         one bench's section of the paper matrix;
#   paper_fig6_gc       the Figure 6 lines of bench_table5_wear's section;
#   aging_smoke, envelope_smoke, admission_smoke, kv_smoke
#                       small bench runs whose --stats-json lines are compared
#                       with their host-time fields removed on both sides;
#   thread_independence, recovery_budget
#                       bench runs checked by their claim alone;
#   disk_fault_sweep    flashcheck's DiskGuard storm over 40 flash fault seeds;
#   flashbench_pin      tests/flashbench_pin.sh on the build's flashbench.
# Regenerate a baseline from the same commands when a deliberate behaviour
# change moves it.
set -u

if [ $# -ne 2 ] || [ ! -d "$1/bench" ]; then
  echo "usage: $0 BUILD_DIR CHECK" >&2
  exit 2
fi
build=$1
tests=$(dirname "$0")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out=$tmp/out
status=0

# bench NAME ARGS...: one bench run, its --stats-json lines appended to $out.
bench() {
  "$build/bench/$1" "${@:2}" --stats-json="$out" > /dev/null || status=1
}

# host_free FILE: FILE without the fields that vary with the host and run.
host_free() {
  sed -E 's/"(wall_clock_us|replay_ops_per_sec|threads)":[^,]*,//g' "$1"
}

want="" smoke="" claim=""
case $2 in
  flashcheck_matrix)
    "$tests/flashcheck_matrix.sh" "$build/tools/flashcheck" > "$out"
    want=$tests/baselines/flashcheck_matrix_baseline.txt claim=deep-wear
    ;;
  paper_fig6_gc)
    # Figure 6 has no bench of its own: bench_table5_wear prints it from the
    # Table 5 replays. Its lines, from the title through the paper line.
    fig6='/^Figure 6:/{on = 1} on; /^Paper: homes\/mail/{on = 0}'
    "$build/bench/bench_table5_wear" > "$tmp/stdout" || status=1
    awk "$fig6" "$tmp/stdout" > "$out"
    awk '/^=== /{on = $2 == "bench_table5_wear"} on' \
      "$tests/baselines/paper_matrix_baseline.txt" | awk "$fig6" > "$tmp/want"
    if [ ! -s "$tmp/want" ]; then
      echo "$0: the paper matrix has no Figure 6 in bench_table5_wear" >&2
      exit 2
    fi
    want=$tmp/want
    ;;
  paper_*)
    "$tests/paper_matrix.sh" "$build" "bench_${2#paper_}" > "$out"
    # The bench's section: from its "=== " header to the next one.
    awk -v b="bench_${2#paper_}" '/^=== /{on = $2 == b} on' \
      "$tests/baselines/paper_matrix_baseline.txt" > "$tmp/want"
    if [ ! -s "$tmp/want" ]; then
      echo "$0: the paper matrix has no bench_${2#paper_}" >&2
      exit 2
    fi
    want=$tmp/want
    ;;
  aging_smoke)
    bench bench_aging --scale=0.02 --workload=homes --aging=2
    bench bench_aging --scale=0.02 --workload=usr --aging=2
    smoke=aging_smoke_baseline.json claim=wear-leveling
    ;;
  envelope_smoke)
    bench bench_device_envelope --ops=20000
    smoke=envelope_smoke_baseline.json claim=envelope
    ;;
  admission_smoke)
    bench bench_ablation_admission --scale=0.02 --workload=homes
    bench bench_ablation_admission --scale=0.02 --workload=usr
    smoke=admission_smoke_baseline.json claim=admission
    ;;
  kv_smoke)
    bench bench_ablation_kv --scale=0.2
    smoke=kv_smoke_baseline.json claim=kv-packing
    ;;
  thread_independence)
    # Three threads do not divide the 8 shards, so workers claim shards
    # unevenly and in a run-dependent order.
    bench bench_fig3_performance --scale=0.02 --threads=4
    for threads in 1 3 8; do
      bench bench_fig3_performance --scale=0.02 --workload=homes --threads="$threads"
    done
    claim=thread-independence
    ;;
  recovery_budget)
    bench bench_fig5_recovery --scale=0.02
    claim=recovery
    ;;
  disk_fault_sweep)
    # Both tiers failing at once, across fault seeds no fixed seed reaches:
    # every run, plain, sharded and under admission, must exit 0.
    for n in $(seq 1 40); do
      for extra in "" --shards=4 --admission=ghost-lru; do
        # shellcheck disable=SC2086  # the plain run adds no flag
        if ! "$build/tools/flashcheck" --disk-faults --faults --fault-seed="$n" $extra \
          > /dev/null; then
          echo "FAIL: flashcheck --disk-faults --faults --fault-seed=$n $extra"
          status=1
        fi
      done
    done
    ;;
  flashbench_pin)
    # The end-to-end benchmark's virtual metrics, one round per workload.
    "$tests/flashbench_pin.sh" "$build/tests/flashbench" > "$out" || status=1
    want=$tests/baselines/flashbench_virtual_baseline.txt
    ;;
  *)
    echo "$0: unknown check $2" >&2
    exit 2
    ;;
esac
if [ -n "$smoke" ]; then
  host_free "$tests/baselines/$smoke" > "$tmp/want"
  host_free "$out" > "$tmp/got"
  out=$tmp/got want=$tmp/want
fi
if [ -n "$want" ] && ! diff "$out" "$want"; then
  echo "FAIL: $2 differs from its baseline (< this build, > committed)"
  status=1
fi
if [ -n "$claim" ] && ! "$tests/claims.py" "$claim" "$out"; then
  status=1
fi
exit $status
