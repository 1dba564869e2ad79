#!/usr/bin/env bash
# Runs a command that must be refused as a usage error before it does any
# work: passes when it exits with status 2, writes nothing to stdout and its
# stderr contains the expected text.
#
# usage: tests/expect_refusal.sh TEXT COMMAND [ARGS...]
set -u

if [ $# -lt 2 ]; then
  echo "usage: $0 TEXT COMMAND [ARGS...]" >&2
  exit 2
fi
want=$1
shift
out=$(mktemp)
trap 'rm -f "$out"' EXIT
err=$("$@" 2>&1 > "$out")
code=$?
if [ "$code" -ne 2 ]; then
  echo "expected exit 2, got $code from: $*" >&2
  exit 1
fi
if [ -s "$out" ]; then
  echo "expected no stdout from: $*" >&2
  cat "$out" >&2
  exit 1
fi
case $err in
  *"$want"*) exit 0 ;;
esac
echo "stderr of '$*' lacks '$want':" >&2
echo "$err" >&2
exit 1
