#!/usr/bin/env bash
# The dgc-metrics-v1 header must record the thread limit and teams per
# block the run actually used, whichever flag form set them: spaced
# (-t 64), attached (-t64, -m2) or --long=value.
#
#   dgc_run_metrics_header_test.sh <dgc-run> <argument file> <work dir>
set -u
BIN=$1
ARGS=$2
WORK=$3
mkdir -p "$WORK"
fail=0

# expect_header <thread_limit> <teams_per_block> <loader flags...>
expect_header() {
  local tl=$1 m=$2
  shift 2
  local json="$WORK/metrics.json"
  rm -f "$json"
  if ! "$BIN" rsbench --device test -f "$ARGS" -n 2 "$@" \
      --metrics-json "$json" >"$WORK/out.txt" 2>&1; then
    echo "metrics-header: run failed: dgc-run $*"
    cat "$WORK/out.txt"
    fail=1
    return
  fi
  if ! grep -q "\"thread_limit\": $tl," "$json" ||
     ! grep -q "\"teams_per_block\": $m," "$json"; then
    echo "metrics-header: want thread_limit $tl, teams_per_block $m:" \
         "dgc-run $*"
    grep -E '"(thread_limit|teams_per_block)"' "$json"
    fail=1
  fi
}

expect_header 64 1 -t 64
expect_header 64 1 -t64
expect_header 64 1 --thread-limit=64 -m1
expect_header 32 2 -t 32 -m2
expect_header 32 2 --thread-limit 32 --teams-per-block=2
[ "$fail" = 0 ] && echo "metrics-header: ok"
exit "$fail"
