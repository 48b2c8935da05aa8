#!/usr/bin/env sh
# Builds the two shippable configurations besides the default one and runs
# the tier-1 tests in each, then an AddressSanitizer build that runs the
# asan-labelled tests:
#
#   release  -DCMAKE_BUILD_TYPE=Release (GCC -O3; assertions stay on,
#            because the top-level CMakeLists strips -DNDEBUG)
#   ndebug   RelWithDebInfo with -DCMAKE_CXX_FLAGS=-DNDEBUG (assertions
#            compiled out)
#   asan     -DRC_SANITIZE=address, `ctest -L asan` (the merge engine, the
#            format decoders and the service suite; see tests/CMakeLists.txt)
#
# Each configuration gets its own build directory, <build-root>/build-<name>,
# and compiles under the project's -Wall -Wextra -Werror, so a warning that
# only one optimization level or only an assertion-free build reports fails
# the run. The default RelWithDebInfo build is what plain `ctest` covers.
# The optimized builds take about a minute each on four cores and the asan
# build a few minutes, which is why this script is not registered with
# ctest.
#
# Usage: tools/build_matrix.sh [build-root]
#   build-root  defaults to the repository root

set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
OUT=${1:-"$ROOT"}
JOBS=$(nproc 2>/dev/null || echo 2)

# build_and_test NAME LABEL [cmake-args...]
build_and_test() {
  Name=$1
  Label=$2
  shift 2
  Dir="$OUT/build-$Name"
  echo "== $Name: configure ($Dir)"
  cmake -S "$ROOT" -B "$Dir" "$@" >/dev/null
  echo "== $Name: build"
  cmake --build "$Dir" -j "$JOBS"
  echo "== $Name: ctest -L $Label"
  (cd "$Dir" && ctest -L "$Label" --output-on-failure -j "$JOBS")
}

build_and_test release tier1 -DCMAKE_BUILD_TYPE=Release
build_and_test ndebug tier1 -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-DNDEBUG
build_and_test asan asan -DRC_SANITIZE=address
echo "build matrix: release and ndebug passed tier-1, asan passed asan"
