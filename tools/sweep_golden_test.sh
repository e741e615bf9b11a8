#!/usr/bin/env bash
# sweep-golden: the Fig. 6 sweep mode's simulated output, byte for byte.
# Sweeps the four apps at 1, 2 and 4 instances with sharing on and off,
# clean, under a retried malloc failure, under an injected trap that kills
# the baseline and under one that a retry wave recovers, at one and at four
# concurrent jobs, and compares the transcript with the committed golden. The transcript holds each sweep's stdout, exit code,
# CSV and the sha256 of every --metrics-json sidecar; stderr carries
# wall-clock times and is left out.
#
# usage: sweep_golden_test.sh <dgc-run> <golden> <outdir>
# To regenerate after an intended output change, copy
# <outdir>/sweep_golden.log over <golden> and review the diff.
set -u
BIN=$(realpath "$1")
GOLDEN=$(realpath "$2")
OUT=$3
mkdir -p "$OUT"
cd "$OUT" || exit 1  # relative paths keep the transcript location-free

rows() {  # <app> <args>: seeds 1, 1, 2, 2 (replicas for the sharing case)
  printf -- '%s -s 1\n%s -s 1\n%s -s 2\n%s -s 2\n' "$2" "$2" "$2" "$2" \
    > "$1.args"
}
rows xsbench "-i 8 -g 64 -l 256"
rows rsbench "-u 6 -w 4 -l 64"
rows amgmk "-x 6 -y 6 -z 6"
rows pagerank "-g 500 -d 4"

LOG=sweep_golden.log
: > "$LOG"
run() {  # <app> <share> <jobs> <label> [loader flags...]
  local app=$1 share=$2 jobs=$3 label=$4
  shift 4
  rm -f sweep.csv sweep.n*.json
  echo "== $app share=$share $label jobs=$jobs" >> "$LOG"
  "$BIN" "$app" --device test -t 32 --share-data "$share" -f "$app.args" \
    --sweep 1,2,4 --csv sweep.csv --metrics-json sweep --jobs "$jobs" \
    "$@" >> "$LOG" 2> /dev/null
  echo "exit $?" >> "$LOG"
  if [ -f sweep.csv ]; then cat sweep.csv >> "$LOG"; fi
  for f in sweep.n*.json; do
    if [ -f "$f" ]; then sha256sum "$f" >> "$LOG"; fi
  done
}
for app in xsbench rsbench amgmk pagerank; do
  for share in on off; do
    for jobs in 1 4; do
      run "$app" "$share" "$jobs" clean
      run "$app" "$share" "$jobs" malloc-fail@2 --inject malloc-fail@2 \
        --retry 2
      run "$app" "$share" "$jobs" trap@b0.w0.c3000 \
        --inject trap@b0.w0.c3000
      run "$app" "$share" "$jobs" trap@b1.w0.c3000-retry \
        --inject trap@b1.w0.c3000 --retry 2
    done
  done
done

if ! cmp -s "$LOG" "$GOLDEN"; then
  echo "sweep-golden: sweep output diverged from the golden transcript"
  diff -u "$GOLDEN" "$LOG" | head -80
  exit 1
fi
echo "sweep-golden: ok"
