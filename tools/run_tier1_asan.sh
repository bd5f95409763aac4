#!/usr/bin/env bash
# Tier-1 test suite under AddressSanitizer (with LeakSanitizer).
#
# Builds the tree in a separate build directory with
# -DDUFP_SANITIZE=address (see the cache variable in the top-level
# CMakeLists.txt) and runs every test labeled tier1 with ASan configured
# to fail hard on the first report.  This is the check that a reader of
# files another process wrote (shard JSONL, retry manifests, specs)
# fails cleanly on hostile input instead of reading out of bounds:
#
#   tools/run_tier1_asan.sh            # configure + build + ctest
#   tools/run_tier1_asan.sh -j8        # extra args forwarded to ctest
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-asan"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDUFP_SANITIZE=address
cmake --build "${build_dir}" -j"$(nproc)"

# halt_on_error turns any report into a test failure instead of a log
# line that scrolls past.
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:strict_string_checks=1"

ctest --test-dir "${build_dir}" -L tier1 --output-on-failure "$@"
