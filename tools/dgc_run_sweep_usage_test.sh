#!/usr/bin/env bash
# --sweep usage errors exit 2 before any sweep point starts: a malformed
# --inject spec (spaced or --inject=<spec> form), -n/--teams, which a
# sweep sets per point, and the single-run flags a sweep would ignore
# (--memcheck, --trace, --trace-capacity, --stats, --profile). In the other
# direction, the sweep-only flags --csv and --jobs are rejected without
# --sweep instead of being dropped.
#
#   dgc_run_sweep_usage_test.sh <dgc-run> <argument file> <scratch dir>
set -u
BIN=$1
ARGS=$2
OUT=$3
mkdir -p "$OUT"
fail=0

# expect_rejected <text the error must contain> <extra flags...>
expect_rejected() {
  local want=$1 out rc
  shift
  out=$("$BIN" rsbench --device test --sweep 1,2 -f "$ARGS" -t 32 "$@" 2>&1)
  rc=$?
  if [ "$rc" != 2 ]; then
    echo "sweep-usage: expected exit 2, got $rc: $*"
    echo "$out"
    fail=1
  elif grep -q '^\[sweep\]' <<<"$out"; then
    echo "sweep-usage: a sweep point ran before the error: $*"
    echo "$out"
    fail=1
  elif ! grep -q -- "$want" <<<"$out"; then
    echo "sweep-usage: error does not mention '$want': $*"
    echo "$out"
    fail=1
  fi
}

expect_rejected --inject --inject bogus:1
expect_rejected --inject --inject=bogus:1
expect_rejected -n/--teams -n 2
expect_rejected -n/--teams --teams=1
expect_rejected --memcheck --memcheck
expect_rejected --trace --trace "$OUT/sweep_trace.json"
expect_rejected --trace-capacity --trace-capacity 8
expect_rejected --stats --stats
expect_rejected --profile --profile

# expect_rejected_run <flag> <flag arguments...>: the same flag without
# --sweep must exit 2 naming it, run nothing and write no file.
expect_rejected_run() {
  local want=$1 out rc
  shift
  rm -f "$OUT/run.csv"
  out=$("$BIN" rsbench --device test -f "$ARGS" -t 32 "$@" 2>&1)
  rc=$?
  if [ "$rc" != 2 ]; then
    echo "sweep-usage: expected exit 2, got $rc: $*"
    echo "$out"
    fail=1
  elif grep -q 'launch wave' <<<"$out" || [ -e "$OUT/run.csv" ]; then
    echo "sweep-usage: the run went ahead before the error: $*"
    echo "$out"
    fail=1
  elif ! grep -q -- "$want" <<<"$out"; then
    echo "sweep-usage: error does not mention '$want': $*"
    echo "$out"
    fail=1
  fi
}

expect_rejected_run --csv --csv "$OUT/run.csv"
expect_rejected_run --jobs --jobs 2
[ "$fail" = 0 ] && echo "sweep-usage: ok"
exit "$fail"
