#!/usr/bin/env bash
# net_chaos_smoke.sh — socket-transport chaos equivalence smoke for
# distributed sweeps.
#
# Runs the sweep two ways:
#   1. single-process, as the byte-exact JSON + CSV reference;
#   2. with --workers 3 over the TCP socket transport (--listen), a
#      seeded fault injector mangling every post-handshake frame
#      (drops, duplicates, reordering, delay, one hard partition per
#      shard), and one worker process SIGKILL'd mid-run on top.
# The leader must fence stale epochs, ride out reconnects, restart the
# killed shard past what its journal holds, and still render an output
# that is byte-identical to the reference. After every round, a serial
# --resume over the leader's one journal (<base>.jsonl, in the serial
# format) must resume every point and render the reference bytes too.
# Several rounds vary the chaos seed and the kill timing so the faults
# land in different places.
#
# Usage: tools/net_chaos_smoke.sh <psync_sim-binary> <config.ini> [workdir]
# Exits nonzero (leaving the journals in the workdir for CI to upload) on
# any mismatch.
set -u

SIM=${1:?usage: net_chaos_smoke.sh <psync_sim> <config.ini> [workdir]}
CONFIG=${2:?usage: net_chaos_smoke.sh <psync_sim> <config.ini> [workdir]}
WORK=${3:-net-chaos-smoke-work}

mkdir -p "$WORK"

echo "net-chaos-smoke: serial reference run"
"$SIM" --json "$CONFIG" > "$WORK/ref.json" || exit 1
"$SIM" --csv "$CONFIG" > "$WORK/ref.csv" || exit 1

# Reproducible-but-varied randomness: derive chaos seeds and kill delays
# from RANDOM (seedable via $RANDOM_SEED for local repro).
if [ -n "${RANDOM_SEED:-}" ]; then
  RANDOM=$RANDOM_SEED
fi

CHAOS_FLAGS="--chaos-drop 0.10 --chaos-dup 0.10 --chaos-reorder 0.08 \
  --chaos-delay 0.10 --chaos-delay-ms 5 \
  --chaos-partition-after 20 --chaos-partition-ms 80"

# A serial --resume over a finished leader's journal: every point must come
# back resumed (none re-run) and the JSON must match the reference.
serial_resume_ok() {
  local label=$1 journal=$2
  if ! "$SIM" --resume "$journal" --json "$CONFIG" \
      > "$WORK/$label-resume.json" 2> "$WORK/$label-resume.stderr"; then
    echo "net-chaos-smoke: $label: serial resume FAILED"
    sed 's/^/  resume stderr: /' "$WORK/$label-resume.stderr"
    return 1
  fi
  if ! grep -q 'campaign: \([0-9][0-9]*\) point(s):.* \1 resumed from journal' \
      "$WORK/$label-resume.stderr"; then
    echo "net-chaos-smoke: $label: serial resume did not resume every point"
    sed 's/^/  resume stderr: /' "$WORK/$label-resume.stderr"
    return 1
  fi
  if ! cmp -s "$WORK/ref.json" "$WORK/$label-resume.json"; then
    echo "net-chaos-smoke: $label: serial resume JSON differs from reference"
    return 1
  fi
}

fail=0
for round in 1 2 3; do
  base="$WORK/chaos-$round"
  rm -f "$base".jsonl
  seed=$((1000 + RANDOM))
  delay=$(awk -v r="$RANDOM" 'BEGIN { printf "%.2f", 0.05 + (r % 40) / 100 }')

  # shellcheck disable=SC2086
  "$SIM" --workers 3 --listen 127.0.0.1:0 --journal "$base" \
    --chaos-seed "$seed" $CHAOS_FLAGS --json "$CONFIG" \
    > "$WORK/chaos-$round.json" 2> "$WORK/chaos-$round.stderr" &
  leader=$!
  sleep "$delay"

  # Pick one live worker child of the leader and SIGKILL it — a crash on
  # top of the lossy network.
  victim=$(pgrep -P "$leader" | head -n 1 || true)
  if [ -n "$victim" ] && kill -9 "$victim" 2> /dev/null; then
    echo "net-chaos-smoke: round $round: seed $seed, SIGKILL'd worker $victim at ${delay}s"
  else
    echo "net-chaos-smoke: round $round: seed $seed, no worker alive at ${delay}s (ok)"
  fi

  if ! wait "$leader"; then
    echo "net-chaos-smoke: round $round: leader FAILED"
    sed 's/^/  leader stderr: /' "$WORK/chaos-$round.stderr"
    fail=1
    continue
  fi
  sed -n 's/^psync_sim: dist:/net-chaos-smoke: round '"$round"': leader:/p' \
    "$WORK/chaos-$round.stderr"

  if ! cmp -s "$WORK/ref.json" "$WORK/chaos-$round.json"; then
    echo "net-chaos-smoke: round $round: JSON differs from reference"
    fail=1
  fi
  serial_resume_ok "chaos-$round" "$base.jsonl" || fail=1
done

# One CSV rendering through the chaotic socket path for the second format.
base="$WORK/chaos-csv"
rm -f "$base".jsonl
# shellcheck disable=SC2086
if ! "$SIM" --workers 3 --listen 127.0.0.1:0 --journal "$base" \
    --chaos-seed 424242 $CHAOS_FLAGS --csv "$CONFIG" \
    > "$WORK/chaos-csv.csv" 2> /dev/null; then
  echo "net-chaos-smoke: csv round: leader FAILED"
  fail=1
elif ! cmp -s "$WORK/ref.csv" "$WORK/chaos-csv.csv"; then
  echo "net-chaos-smoke: csv round: CSV differs from reference"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "net-chaos-smoke: FAILED (journals left in $WORK)"
  exit 1
fi
echo "net-chaos-smoke: OK — chaotic socket output byte-identical to serial reference"
