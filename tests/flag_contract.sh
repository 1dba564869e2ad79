#!/usr/bin/env bash
# Runs every flag-reading binary of a build with --no-such-flag. Each must
# exit 2, name the flag on stderr and print nothing on stdout, so a binary
# added without the flag contract (src/util/args.h), or one that refuses only
# after it has replayed, fails. The benches are the tree's bench/bench_*.cc,
# so a new one is covered without editing this script, and a stale binary
# whose source is gone is not checked; bench_sparsemap takes google-
# benchmark's flags instead.
#
# usage: tests/flag_contract.sh BUILD_DIR
set -u

if [ $# -ne 1 ] || [ ! -d "$1/bench" ]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
build=$1
src=$(cd "$(dirname "$0")/.." && pwd)
out=$(mktemp)
trap 'rm -f "$out"' EXIT
status=0
checked=0

benches=()
for source in "$src"/bench/bench_*.cc; do
  benches+=("$build/bench/$(basename "$source" .cc)")
done
for bin in "${benches[@]}" "$build"/tools/flashcheck "$build"/tools/trace_gen \
  "$build"/tools/trace_stat "$build"/examples/webserver_cache \
  "$build"/examples/mailserver_writeback; do
  name=$(basename "$bin")
  if [ "$name" = bench_sparsemap ]; then
    continue
  fi
  if [ ! -f "$bin" ] || [ ! -x "$bin" ]; then
    echo "FAIL: $name is not built"
    status=1
    continue
  fi
  err=$("$bin" --no-such-flag 2>&1 > "$out")
  code=$?
  checked=$((checked + 1))
  if [ "$code" -ne 2 ]; then
    echo "FAIL: $name --no-such-flag exited $code, want 2"
    status=1
  elif [ -s "$out" ]; then
    echo "FAIL: $name --no-such-flag wrote to stdout before refusing"
    status=1
  else
    case $err in
      *--no-such-flag*) echo "$name refuses --no-such-flag" ;;
      *)
        echo "FAIL: $name --no-such-flag stderr does not name the flag: $err"
        status=1
        ;;
    esac
  fi
done
echo "$checked binaries checked"
exit $status
