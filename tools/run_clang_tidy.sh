#!/usr/bin/env bash
# Runs clang-tidy with the curated .clang-tidy profile over the product
# sources (src/ and tools/), reading the compile_commands.json that the
# top-level CMakeLists exports. The analock-verify scans, the fixture
# self-test, the SARIF checks and the thread-count identity check are
# ctests (`ctest -R '^verify_'`); this script covers the one static
# check ctest does not run.
#
# Usage: tools/run_clang_tidy.sh [build-dir]   (default: build)
#
# Exits 0 with a notice when clang-tidy is not installed, 1 when any
# file fails the profile or the build dir cannot be configured.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "clang-tidy not installed; skipping (the .clang-tidy profile at"
  echo "the repo root applies when it is available)."
  exit 0
fi
if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
  echo "no compile_commands.json in $BUILD_DIR; configuring..."
  cmake -B "$BUILD_DIR" -S "$ROOT" >/dev/null || exit 1
fi

# Product sources only: tests and benches link against gtest, whose
# headers are outside the profile's remit.
mapfile -t SOURCES < <(find "$ROOT/src" "$ROOT/tools" -name '*.cpp' | sort)
if command -v run-clang-tidy >/dev/null 2>&1; then
  run-clang-tidy -p "$BUILD_DIR" -quiet "${SOURCES[@]}"
  exit $?
fi
STATUS=0
for src in "${SOURCES[@]}"; do
  clang-tidy -p "$BUILD_DIR" --quiet "$src" || STATUS=1
done
exit $STATUS
