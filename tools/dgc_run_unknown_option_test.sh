#!/usr/bin/env bash
# Loader options dgc-run does not define must be usage errors: exit 2 with
# an "unknown option" message, in ensemble and --sweep mode alike, before
# any simulation runs. Checked with --launch-{threads,window} and
# --retry-shrink, which earlier versions accepted.
#
#   dgc_run_unknown_option_test.sh <dgc-run> <argument file>
set -u
BIN=$1
ARGS=$2
fail=0

expect_usage_error() {
  local out rc
  out=$("$BIN" "$@" 2>&1)
  rc=$?
  if [ "$rc" != 2 ]; then
    echo "unknown-option: expected exit 2, got $rc: dgc-run $*"
    echo "$out"
    fail=1
  elif ! grep -q 'unknown option' <<<"$out"; then
    echo "unknown-option: no 'unknown option' message: dgc-run $*"
    echo "$out"
    fail=1
  fi
}

for option in "--launch-threads 2" "--launch-window 0" "--retry-shrink 2"; do
  read -r name value <<<"$option"
  expect_usage_error rsbench --device test -f "$ARGS" -n 2 -t 32 \
    "$name" "$value"
  expect_usage_error rsbench --device test --sweep 1,2 -f "$ARGS" -t 32 \
    "$name" "$value"
done
[ "$fail" = 0 ] && echo "unknown-option: ok"
exit "$fail"
