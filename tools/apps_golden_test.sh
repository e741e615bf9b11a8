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

# <argfile> <malloc-fail ordinal>, run with --teams 2 --memcheck: three
# instances on two teams, so team 0 runs instance 0 and then instance 2 in
# turn; the ordinal fails one of instance 2's allocations. The profiler,
# the heap owners, failure prefixes and memcheck must all follow the team
# to its second instance.
TEAM_CASES=(
  "xsbench 22"
  "rsbench 16"
  "amgmk 16"
  "pagerank 13"
)

LOG="$OUT/apps_golden.log"
: > "$LOG"
run() {  # <app> <argfile> <share> <inject or ""> [dgc-run flags...]
  local app=$1 file=$2 share=$3 inject=$4
  shift 4
  local extra=("$@")
  [ -n "$inject" ] && extra+=(--inject "malloc-fail@$inject")
  echo "== $file share=$share inject=${inject:-none}${*:+ $*}" >> "$LOG"
  "$BIN" "$app" --device test -t 32 --stats --profile --share-data "$share" \
    -f "$OUT/$file.args" "${extra[@]}" >> "$LOG" 2>&1
  echo "exit $?" >> "$LOG"
}
for c in "${CASES[@]}"; do
  read -r file ordinals <<< "$c"
  app=${file%%_*}
  for share in on off; do
    run "$app" "$file" "$share" ""
    for k in $ordinals; do run "$app" "$file" "$share" "$k"; done
  done
done
for c in "${TEAM_CASES[@]}"; do
  read -r file k <<< "$c"
  for share in on off; do
    for inject in "" "$k"; do
      run "$file" "$file" "$share" "$inject" --teams 2 --memcheck
    done
  done
done

if ! cmp -s "$LOG" "$GOLDEN"; then
  echo "apps-golden: app output diverged from the golden transcript"
  diff -u "$GOLDEN" "$LOG" | head -80
  exit 1
fi
echo "apps-golden: ok"
