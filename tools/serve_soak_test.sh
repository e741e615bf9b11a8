#!/usr/bin/env bash
# serve-soak: a seeded chaos replay of faulty and well-behaved jobs through
# dgc-serve, with the queue deliberately over capacity. The outcome log must
# be byte-identical across --jobs values and must match the committed golden
# transcript; the exit code must reflect the chaos-failed jobs. Retry flags
# dgc-serve does not define (a service launch runs one wave; the only retry
# is --job-attempts) must be usage errors that exit 2 before any job runs.
set -u
BIN=$1
STREAM=$2
GOLDEN=$3
OUT=$4
mkdir -p "$OUT"

FLAGS=(--stream "$STREAM" --device test -t 32 --queue-cap 4
       --job-attempts 2 --backoff 4096 --quarantine-after 3
       --chaos 'seed@7;trap@2;malformed@5;slow@4.x4')

for option in --launch-retry --retry-shrink; do
  rm -f "$OUT/usage.log"
  out=$("$BIN" "${FLAGS[@]}" --log "$OUT/usage.log" "$option" 2 2>&1)
  rc=$?
  if [ "$rc" != 2 ] || ! grep -q "unknown option: $option" <<<"$out" ||
     [ -e "$OUT/usage.log" ]; then
    echo "serve-soak: expected a usage error (exit 2, no log) for $option 2," \
         "got exit $rc"
    echo "$out"
    exit 1
  fi
done

"$BIN" "${FLAGS[@]}" --jobs 1 --log "$OUT/jobs1.log" >/dev/null
rc1=$?
"$BIN" "${FLAGS[@]}" --jobs 4 --log "$OUT/jobs4.log" >/dev/null
rc4=$?

# The chaos-trapped job exhausts its attempts, so the service must report
# failure — an exit-0 soak run means faults stopped being detected.
if [ "$rc1" != 1 ] || [ "$rc4" != 1 ]; then
  echo "serve-soak: expected exit 1 from both runs, got $rc1 and $rc4"
  exit 1
fi
if ! cmp -s "$OUT/jobs1.log" "$OUT/jobs4.log"; then
  echo "serve-soak: --jobs changed the outcome log"
  diff -u "$OUT/jobs1.log" "$OUT/jobs4.log" | head -40
  exit 1
fi
if ! cmp -s "$OUT/jobs1.log" "$GOLDEN"; then
  echo "serve-soak: outcome log diverged from the golden transcript"
  diff -u "$GOLDEN" "$OUT/jobs1.log" | head -60
  exit 1
fi
echo "serve-soak: ok"
