#!/usr/bin/env bash
# dist_fault_smoke.sh — worker-kill equivalence smoke for distributed
# sweeps.
#
# Runs the sweep two ways:
#   1. single-process, as the byte-exact JSON + CSV reference;
#   2. with --workers 3 and one worker process SIGKILL'd at a randomized
#      delay — the leader must detect the death via heartbeat loss/exit,
#      restart the shard past the points its journal holds, and finish.
# The merged distributed output must be byte-identical to the reference.
# Several rounds randomize which worker dies and when, so the kill lands
# on different shards at different progress points.
#
# Usage: tools/dist_fault_smoke.sh <psync_sim-binary> <config.ini> [workdir]
# Exits nonzero (leaving the shard journals in the workdir for CI to
# upload) on any mismatch.
set -u

SIM=${1:?usage: dist_fault_smoke.sh <psync_sim> <config.ini> [workdir]}
CONFIG=${2:?usage: dist_fault_smoke.sh <psync_sim> <config.ini> [workdir]}
WORK=${3:-dist-fault-smoke-work}

mkdir -p "$WORK"

echo "dist-fault-smoke: serial reference run"
"$SIM" --json "$CONFIG" > "$WORK/ref.json" || exit 1
"$SIM" --csv "$CONFIG" > "$WORK/ref.csv" || exit 1

# Reproducible-but-varied randomness: derive the kill delay from RANDOM
# (seedable via $RANDOM_SEED for local repro; CI takes the default).
if [ -n "${RANDOM_SEED:-}" ]; then
  RANDOM=$RANDOM_SEED
fi

fail=0
for round in 1 2 3; do
  base="$WORK/dist-$round"
  rm -f "$base".shard*.jsonl
  # Randomized kill delay in [0.05s, 0.45s) — somewhere inside the sweep.
  delay=$(awk -v r="$RANDOM" 'BEGIN { printf "%.2f", 0.05 + (r % 40) / 100 }')

  "$SIM" --workers 3 --journal "$base" --json "$CONFIG" \
    > "$WORK/dist-$round.json" 2> "$WORK/dist-$round.stderr" &
  leader=$!
  sleep "$delay"

  # Pick one live worker child of the leader and SIGKILL it.
  victim=$(pgrep -P "$leader" | head -n 1 || true)
  if [ -n "$victim" ] && kill -9 "$victim" 2> /dev/null; then
    echo "dist-fault-smoke: round $round: SIGKILL'd worker $victim at ${delay}s"
  else
    echo "dist-fault-smoke: round $round: no worker alive at ${delay}s (ok)"
  fi

  if ! wait "$leader"; then
    echo "dist-fault-smoke: round $round: leader FAILED"
    sed 's/^/  leader stderr: /' "$WORK/dist-$round.stderr"
    fail=1
    continue
  fi
  sed -n 's/^psync_sim: dist:/dist-fault-smoke: round '"$round"': leader:/p' \
    "$WORK/dist-$round.stderr"

  if ! cmp -s "$WORK/ref.json" "$WORK/dist-$round.json"; then
    echo "dist-fault-smoke: round $round: merged JSON differs from reference"
    fail=1
  fi
done

# One CSV rendering through the distributed path for the second format.
base="$WORK/dist-csv"
rm -f "$base".shard*.jsonl
if ! "$SIM" --workers 3 --journal "$base" --csv "$CONFIG" \
    > "$WORK/dist-csv.csv" 2> /dev/null; then
  echo "dist-fault-smoke: csv round: leader FAILED"
  fail=1
elif ! cmp -s "$WORK/ref.csv" "$WORK/dist-csv.csv"; then
  echo "dist-fault-smoke: csv round: merged CSV differs from reference"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "dist-fault-smoke: FAILED (journals left in $WORK)"
  exit 1
fi
echo "dist-fault-smoke: OK — merged output byte-identical to serial reference"
