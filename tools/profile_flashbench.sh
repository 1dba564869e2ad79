#!/usr/bin/env bash
# Profiles one flashbench workload with gprof and prints the top of the flat
# profile:
#
#   tools/profile_flashbench.sh WORKLOAD [SEED]      # e.g. kv-zipf 42
#
# It configures benchmark/ into build-profile/ at the repository root with
#   -pg -static   a static link puts libc and libstdc++ (malloc, free, memcpy,
#                 std::_Rb_tree_increment, ...) in the profile; a dynamic
#                 build hides them;
#   -fno-ipa-sra -fno-ipa-cp -fno-ipa-cp-clone -fno-partial-inlining
#                 no compiler-made clones (foo.isra.0, foo.constprop.0,
#                 foo.part.0): gprof skips their symbols and charges their
#                 samples to the function before them in the binary;
# then replays one single-threaded round (--threads=1 --min-rounds=1), so the
# profile is one thread doing all the work. It prints the top 30 rows; the
# run's JSON result is left in build-profile/flashbench.json, the whole flat
# profile in build-profile/profile.txt and the raw one in build-profile/gmon.out.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 WORKLOAD [SEED]" >&2
  exit 2
fi
workload=$1
seed=${2:-42}
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/build-profile"
flags="-pg -static -fno-ipa-sra -fno-ipa-cp -fno-ipa-cp-clone -fno-partial-inlining"

cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS="-pg -static" >&2
cmake --build "$build" --target flashbench -j "$(nproc)" >&2

# The profiled process writes gmon.out into its working directory.
cd "$build"
rm -f gmon.out
./flashbench --workload="$workload" --seed="$seed" --threads=1 --min-rounds=1 > flashbench.json
gprof -b -p ./flashbench gmon.out > profile.txt
head -n 35 profile.txt  # 5 header lines, 30 rows
