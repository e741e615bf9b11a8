#!/usr/bin/env bash
# --sweep usage errors exit 2 before any sweep point starts: a malformed
# --inject spec (spaced or --inject=<spec> form) and -n/--teams, which a
# sweep sets per point.
#
#   dgc_run_sweep_usage_test.sh <dgc-run> <argument file>
set -u
BIN=$1
ARGS=$2
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
[ "$fail" = 0 ] && echo "sweep-usage: ok"
exit "$fail"
