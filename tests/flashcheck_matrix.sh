#!/usr/bin/env bash
# Runs every fixed-seed flashcheck line, the --break-* self-tests included,
# and prints, for each one, the command, its exit code, its stdout and — when
# the line writes one — its --stats-json file. The output is deterministic,
# so diffing it against tests/baselines/flashcheck_matrix_baseline.txt (ctest
# flashcheck_matrix) pins the whole matrix byte for byte (reports, violation
# samples in trial order, exit codes).
#
# usage: tests/flashcheck_matrix.sh BINARY > matrix.txt
#
# Regenerate the baseline with the same command on the default build when a
# deliberate behaviour change moves an entry.
set -u

if [ $# -ne 1 ] || [ ! -x "$1" ]; then
  echo "usage: $0 BINARY" >&2
  exit 2
fi
bin=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# run ARGS...: one matrix entry. A --stats-json=NAME argument is redirected
# into the temporary directory; the header still prints the name as given.
run() {
  local args=() json="" arg
  for arg in "$@"; do
    case $arg in
      --stats-json=*)
        json=$tmp/${arg#--stats-json=}
        rm -f "$json"
        args+=("--stats-json=$json")
        ;;
      *) args+=("$arg") ;;
    esac
  done
  echo "=== flashcheck $*"
  "$bin" "${args[@]}" > "$tmp/stdout" 2> /dev/null
  echo "exit $?"
  cat "$tmp/stdout"
  if [ -n "$json" ]; then
    echo "--- stats-json"
    if [ -f "$json" ]; then cat "$json"; else echo "(not written)"; fi
  fi
}

admission="admit-all ghost-lru freq-sketch write-limit"

# Crash-point exploration.
run
run --policy=se-merge
run --break-recovery=true

# Fault-injection matrix.
run --faults --fault-seed=1
run --faults --fault-seed=1 --policy=se-merge
run --faults --fault-seed=2 --mode=relaxed
run --faults --fault-seed=2 --policy=se-merge --mode=relaxed
run --faults --fault-seed=3 --read-corrupt=0.05 --program-fail=0.05 --erase-fail=0.1
run --faults --fault-seed=3 --policy=se-merge --read-corrupt=0.05 --program-fail=0.05 \
  --erase-fail=0.1
run --faults --fault-seed=4 --wear-limit=2
run --faults --fault-seed=1 --break-retry=true
run --faults --fault-seed=1 --break-recovery=true

# Sharded exploration.
run --shards=2
run --shards=4 --capacity-pages=1024 --policy=se-merge

# Admission-policy matrix.
for p in $admission; do
  run --admission="$p"
  run --admission="$p" --shards=2
done
run --admission=ghost-lru --faults --fault-seed=1
run --admission=write-limit --faults --fault-seed=1

# Crash-storm soak.
run --soak=25 --stats-json=soak-plain.json
run --soak=25 --faults --fault-seed=1 --stats-json=soak-faults.json
run --soak=25 --shards=4 --stats-json=soak-shards.json
run --soak=25 --break-recovery=true

# DiskGuard disk-fault matrix and soak.
run --disk-faults --stats-json=diskguard.json
run --disk-faults --shards=4 --stats-json=diskguard.json
run --disk-faults --write-through --stats-json=diskguard.json
run --disk-faults --write-through --faults --fault-seed=1 --program-fail=1.0 \
  --stats-json=diskguard.json
run --disk-faults --write-through --admission=ghost-lru --stats-json=diskguard.json
run --disk-faults --faults --fault-seed=1 --stats-json=diskguard.json
run --disk-faults --faults --fault-seed=2 --stats-json=diskguard.json
run --disk-faults --no-crashes --disk-write-fail=0.2 --stats-json=diskguard.json
for p in $admission; do
  run --disk-faults --admission="$p" --stats-json=diskguard.json
done
run --disk-faults --faults --fault-seed=1 --break-retry=true
run --disk-faults --soak=25 --stats-json=diskguard-soak.json
run --disk-faults --soak=25 --shards=4 --stats-json=diskguard-soak.json
run --disk-faults --write-through --soak=25 --stats-json=diskguard-soak.json
run --disk-faults --soak=25 --disk-write-fail=0.5 --disk-latent=0.02 \
  --stats-json=diskguard-soak.json

# Lifetime aging.
run --aging=10 --faults --fault-seed=1 --stats-json=aging.json
run --aging=10 --faults --fault-seed=1 --shards=4 --stats-json=aging.json
run --aging=10 --faults --fault-seed=2 --policy=se-merge --stats-json=aging.json
run --aging=10 --faults --fault-seed=1 --admission=ghost-lru --stats-json=aging.json
run --aging=10 --faults --fault-seed=3 --mode=relaxed --stats-json=aging.json
run --aging=10 --faults --fault-seed=1 --break-retry=true
run --aging=60 --faults --fault-seed=1 --shards=4 --stats-json=aging-deep.json

# KV crash-point exploration and soak.
run --kv --stats-json=kv-check.json
run --kv --no-packing --stats-json=kv-check.json
run --kv --slab-pages=2 --stats-json=kv-check.json
run --kv --slab-pages=4 --stats-json=kv-check.json
run --kv --shards=4 --stats-json=kv-check.json
run --kv --mode=relaxed --stats-json=kv-check.json
run --kv --faults --fault-seed=1 --stats-json=kv-check.json
run --kv --faults --fault-seed=2 --slab-pages=4 --stats-json=kv-check.json
run --kv --faults --fault-seed=1 --shards=4 --stats-json=kv-check.json
for p in $admission; do
  run --kv --admission="$p" --stats-json=kv-check.json
done
run --kv --break-recovery=true --max-points=200
run --kv --soak=25 --stats-json=kv-soak.json
run --kv --soak=25 --faults --fault-seed=1 --stats-json=kv-soak.json
run --kv --soak=25 --shards=4 --admission=freq-sketch --stats-json=kv-soak.json
run --kv --soak=25 --break-recovery=true
