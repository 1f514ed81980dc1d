#!/usr/bin/env bash
# go-test-named.sh PKG FLAG PATTERN [GO TEST FLAGS...]
#
# Runs `go test [GO TEST FLAGS...] FLAG PATTERN PKG`, where FLAG is -run,
# -bench or -fuzz, after checking that every |-separated alternative of
# PATTERN names at least one test, benchmark or fuzz target in PKG. go test
# itself exits 0 when such a pattern matches nothing ("no tests to run"), so
# a renamed test would otherwise drop out of the step unnoticed.
set -euo pipefail
pkg=$1 flag=$2 pattern=$3
shift 3
IFS='|' read -ra alternatives <<< "$pattern"
for alt in "${alternatives[@]}"; do
  listed=$(go test -list "$alt" "$pkg")
  if ! grep -qE '^(Test|Benchmark|Fuzz)' <<< "$listed"; then
    echo "go test $flag '$pattern': nothing in $pkg matches '$alt'" >&2
    exit 1
  fi
done
exec go test "$@" "$flag" "$pattern" "$pkg"
