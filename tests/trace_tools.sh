#!/usr/bin/env bash
# Drives trace_gen and trace_stat end to end on both trace kinds: a block
# trace (homes at scale 0.001) and a KV trace (kv-zipf, 2,000 ops). Each
# file must read back with exit 0 and a `records` line equal to the count
# trace_gen reports writing, and trace_stat must refuse (exit 1) a copy with
# one record byte flipped. trace_stat must also refuse (exit 2) an unknown
# flag, a --top outside (0, 1] and a --top that is not a number, and
# trace_gen (exit 2, no file written) a flag its workload does not read and
# a custom trace's --writes outside [0, 1].
#
# usage: tests/trace_tools.sh TRACE_GEN TRACE_STAT
set -u

if [ $# -ne 2 ] || [ ! -x "$1" ] || [ ! -x "$2" ]; then
  echo "usage: $0 TRACE_GEN TRACE_STAT" >&2
  exit 2
fi
gen=$1
stat=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0

fail() {
  echo "FAIL: $*"
  status=1
}

# flip FILE OFFSET: inverts one byte in place.
flip() {
  local byte
  byte=$(od -An -tu1 -j "$2" -N1 "$1" | tr -d ' ')
  printf "$(printf '\\%03o' $((byte ^ 255)))" |
    dd of="$1" bs=1 seek="$2" conv=notrunc status=none
}

# check NAME TRACE_GEN_FLAGS...: one trace kind.
check() {
  local name=$1
  shift
  local file=$tmp/$name wrote out records code
  if ! wrote=$("$gen" --out="$file" "$@"); then
    fail "trace_gen $* exited nonzero"
    return
  fi
  wrote=$(echo "$wrote" | awk '$1 == "wrote" {print $2}')
  if ! out=$("$stat" --in="$file"); then
    fail "trace_stat on $name exited nonzero"
    return
  fi
  records=$(echo "$out" | awk '$1 == "records" {print $3}')
  if [ -z "$wrote" ] || [ "$records" != "$wrote" ]; then
    fail "$name: trace_stat counts '$records' records, trace_gen wrote '$wrote'"
  fi
  # One byte well inside the record area of either kind (24-byte header,
  # 9- or 13-byte records).
  cp "$file" "$file.flipped"
  flip "$file.flipped" $((24 + 10 * 13 + 2))
  "$stat" --in="$file.flipped" > /dev/null 2>&1
  code=$?
  if [ "$code" -ne 1 ]; then
    fail "$name: trace_stat exited $code on a flipped record byte, want 1"
  fi
  echo "$name: $records records read back, flipped copy refused"
}

check homes.fttr --workload=homes --scale=0.001
check kv.ftkv --workload=kv-zipf --ops=2000 --keys=500

for flag in --topp=0.5 --top=2 --top=-1 --top=abc; do
  "$stat" --in="$tmp/homes.fttr" "$flag" > /dev/null 2>&1
  code=$?
  if [ "$code" -ne 2 ]; then
    fail "trace_stat $flag exited $code, want 2"
  else
    echo "trace_stat $flag refused"
  fi
done

# --writes shapes only a custom trace, as a fraction; --scale only a paper
# workload.
for flags in "--workload=homes --writes=0.5" "--workload=kv-zipf --scale=0.5" "--writes=1.5" \
  "--writes=-0.1"; do
  # shellcheck disable=SC2086  # flag lists, split on purpose
  "$gen" --out="$tmp/refused" $flags > /dev/null 2>&1
  code=$?
  if [ "$code" -ne 2 ] || [ -e "$tmp/refused" ]; then
    fail "trace_gen $flags exited $code, want 2 and no file"
  else
    echo "trace_gen $flags refused"
  fi
done
exit $status
