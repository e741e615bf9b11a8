#!/usr/bin/env bash
# work-gate: the simulated work of reduced versions of the benchmark's three
# ensemble workloads (perfbench: xs-fig6a, amg-fig6b, xs-replica-setup),
# counted exactly. Each case runs dgc-run on the a100 preset with --stats
# and keeps the counters that measure work: kernel cycles, warp, load and
# store instructions, sectors and barriers. An algorithmic regression (more
# instructions, worse coalescing, extra barriers) fails here
# deterministically, whatever the host's speed or noise. Each case runs a
# second time with --profile, whose counter lines must equal the plain
# run's: the profiler only samples a timeline, it never changes the work.
#
# usage: work_gate_test.sh <dgc-run> <golden> <outdir>
# To regenerate after an intended model change, copy <outdir>/work_gate.log
# over <golden> and review the diff.
set -u
BIN=$1
GOLDEN=$2
OUT=$3
mkdir -p "$OUT"

# xs-fig6a: distinct XSBench inputs, sharing off, one warp per team.
printf -- '-i 24 -g 256 -l 2048 -s %s\n' 11 12 13 14 > "$OUT/xs-fig6a.args"
# amg-fig6b: AMGmk at thread limit 1024 (32-warp blocks, every lane a live
# RelaxRows frame).
printf -- '-x 14 -y 14 -z 14 -s %s\n' 21 22 23 24 > "$OUT/amg-fig6b.args"
# xs-replica-setup: replicas of 2 inputs with sharing on.
printf -- '-i 24 -g 2048 -l 256 -s %s\n' 31 32 31 32 \
  > "$OUT/xs-replica-setup.args"

LOG="$OUT/work_gate.log"
: > "$LOG"
status=0
run() {  # <workload> <app> <thread limit> <share>
  for mode in plain profile; do
    local profile=""
    [ "$mode" = profile ] && profile=--profile
    "$BIN" "$2" --device a100 --memory-scale 512 --stats $profile -t "$3" \
      --share-data "$4" -f "$OUT/$1.args" > "$OUT/$1.$mode.out" 2>&1
    { echo "exit $?"
      grep -E '^[0-9]+ instance|^warp instructions|^sectors|^barriers' \
        "$OUT/$1.$mode.out"; } > "$OUT/$1.$mode.counters"
  done
  echo "== $1" >> "$LOG"
  cat "$OUT/$1.plain.counters" >> "$LOG"
  if ! cmp -s "$OUT/$1.plain.counters" "$OUT/$1.profile.counters"; then
    echo "work-gate: $1 counted different work under --profile"
    diff -u "$OUT/$1.plain.counters" "$OUT/$1.profile.counters"
    status=1
  fi
}
run xs-fig6a xsbench 32 off
run amg-fig6b amgmk 1024 off
run xs-replica-setup xsbench 32 on

if ! cmp -s "$LOG" "$GOLDEN"; then
  echo "work-gate: simulated work diverged from the golden counts"
  diff -u "$GOLDEN" "$LOG"
  exit 1
fi
[ "$status" -eq 0 ] || exit 1
echo "work-gate: ok"
