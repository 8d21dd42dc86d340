#!/usr/bin/env bash
# expect_line — run a program and require both a zero exit status and one
# exact line in its stdout. The output is echoed so the ctest log keeps it.
#
# Usage: expect_line.sh <line> <program> [args...]

set -u

line=${1:?usage: expect_line.sh <line> <program> [args...]}
shift
[ $# -ge 1 ] || { echo "usage: expect_line.sh <line> <program> [args...]" >&2; exit 2; }

out=$("$@")
status=$?
printf '%s\n' "$out"
if [ "$status" -ne 0 ]; then
  echo "expect_line: $1 exited with status $status" >&2
  exit 1
fi
if ! printf '%s\n' "$out" | grep -qxF -- "$line"; then
  echo "expect_line: no line '$line' in the output of $1" >&2
  exit 1
fi
