#!/usr/bin/env bash
# Line coverage of the library's sources under the default ctest tier,
# measured with gcov alone (no lcov or gcovr needed).
#
#   tools/coverage.sh [build-dir]
#
# Configures a Debug build with --coverage in build-dir (default
# .coverage_build at the repository root), builds everything, runs ctest,
# then runs gcov on the object of every src/**/*.cpp file. Prints one line
# per source file -- path, lines executed, executable lines, percent --
# sorted by lines left uncovered, and a TOTAL line. Code inlined from
# headers is counted in the files that include it, not in the header, so
# the summary covers the .cpp files only. JOBS sets the parallelism
# (default 4). A failing test is reported on stderr; the summary is still
# printed.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/.coverage_build}
jobs=${JOBS:-4}

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage" -DCMAKE_EXE_LINKER_FLAGS="--coverage" > /dev/null
cmake --build "$build" -j "$jobs" > /dev/null
find "$build" -name '*.gcda' -delete
(cd "$build" && ctest -j "$jobs" --timeout 1200 > "$build/ctest.log" 2>&1) ||
  echo "coverage: ctest reported failures (see $build/ctest.log)" >&2

objdir="$build/CMakeFiles/pathload.dir"
summary=$(
  cd "$objdir"
  find src -name '*.cpp.gcda' | sort | while read -r gcda; do
    # gcov -n prints "File '<path>'" then "Lines executed:P% of N" for the
    # source and every header it includes; keep the source's own entry.
    gcov -n -o "$(dirname "$gcda")" "$gcda" 2> /dev/null
  done | awk -v root="$root/" '
    /^File / {
      file = $2
      gsub("\047", "", file)
      sub(root, "", file)
      next
    }
    /^Lines executed:/ {
      if (file ~ /^src\/.*\.cpp$/ && !(file in seen)) {
        seen[file] = 1
        split($2, p, ":")
        pct = p[2]
        sub("%", "", pct)
        n = $4
        hit = int(pct * n / 100 + 0.5)
        printf "%s %d %d %.1f %d\n", file, hit, n, n ? 100 * hit / n : 100, n - hit
      }
      file = ""
    }'
)
printf '%s\n' "$summary" | sort -k5,5nr -k1,1 | cut -d' ' -f1-4
printf '%s\n' "$summary" |
  awk '{ hit += $2; n += $3 } END { printf "TOTAL %d %d %.1f\n", hit, n, n ? 100 * hit / n : 100 }'
