#!/usr/bin/env bash
# apps-golden: every bundled app's simulated output, byte for byte. Runs the
# four apps on small replica ensembles (two identical instances plus one
# distinct) with sharing on and off, clean and under injected malloc
# failures that hit the first instance's shared group, its private arrays,
# and later instances, and compares the transcript with the committed
# golden. Any change to cycle counts, statistics, per-instance exit codes or
# allocation order shows up as a diff.
#
# usage: apps_golden_test.sh <dgc-run> <golden> <outdir>
# To regenerate after an intended output change, copy <outdir>/apps_golden.log
# over <golden> and review the diff.
set -u
BIN=$1
GOLDEN=$2
OUT=$3
mkdir -p "$OUT"

replicas() {  # <file> <args>: two replicas of seed 1, one instance of seed 2
  printf -- '%s -s 1\n%s -s 1\n%s -s 2\n' "$2" "$2" "$2" > "$OUT/$1.args"
}
replicas xsbench "-i 8 -g 64 -l 256"
replicas xsbench_hash "-i 8 -g 64 -l 256 -G hash"
replicas xsbench_nuclide "-i 8 -g 64 -l 256 -G nuclide"
replicas rsbench "-u 6 -w 4 -l 64"
replicas amgmk "-x 6 -y 6 -z 6"
printf -- '-g 500 -d 4 -s 1\n-g 500 -d 4 -s 1\n-g 600 -d 4 -s 2\n' \
  > "$OUT/pagerank.args"

# <argfile> <malloc-fail ordinals...>. Ordinal 1 is the first instance's
# first input array; the ordinals after every instance's read-only inputs
# hit the first instance's private arrays (with sharing on, after replicas
# attached to its group).
CASES=(
  "xsbench 1 4 8 22 23"
  "xsbench_hash 1 19"
  "xsbench_nuclide 1 16"
  "rsbench 1 6 16 17"
  "amgmk 1 6 16 19"
  "pagerank 1 4 10 13"
)

LOG="$OUT/apps_golden.log"
: > "$LOG"
run() {  # <app> <argfile> <share> [inject]
  local extra=()
  [ -n "${4:-}" ] && extra=(--inject "malloc-fail@$4")
  echo "== $2 share=$3 inject=${4:-none}" >> "$LOG"
  "$BIN" "$1" --device test -t 32 --stats --profile --share-data "$3" \
    -f "$OUT/$2.args" "${extra[@]}" >> "$LOG" 2>&1
  echo "exit $?" >> "$LOG"
}
for c in "${CASES[@]}"; do
  read -r file ordinals <<< "$c"
  app=${file%%_*}
  for share in on off; do
    run "$app" "$file" "$share"
    for k in $ordinals; do run "$app" "$file" "$share" "$k"; done
  done
done

if ! cmp -s "$LOG" "$GOLDEN"; then
  echo "apps-golden: app output diverged from the golden transcript"
  diff -u "$GOLDEN" "$LOG" | head -80
  exit 1
fi
echo "apps-golden: ok"
