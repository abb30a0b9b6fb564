#!/usr/bin/env bash
# dist_fault_smoke.sh — worker-kill equivalence smoke for distributed
# sweeps.
#
# Runs the sweep three ways:
#   1. single-process, as the byte-exact JSON + CSV reference;
#   2. with --workers 3 and one worker process SIGKILL'd at a randomized
#      delay — the leader must detect the death via heartbeat loss/exit,
#      restart the shard past the points its journal holds, and finish;
#   3. with --workers 3 and the leader itself SIGKILL'd at a randomized
#      delay, then finished by a second --workers 3 --resume leader.
# The distributed output must be byte-identical to the reference. After
# every round, a serial --resume over the leader's one journal
# (<base>.jsonl, in the serial format) must resume every point and render
# the reference bytes too. Several rounds randomize which worker dies and
# when, so the kill lands on different shards at different progress
# points.
#
# Usage: tools/dist_fault_smoke.sh <psync_sim-binary> <config.ini> [workdir]
# Exits nonzero (leaving the journals in the workdir for CI to upload) on
# any mismatch.
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

# A serial --resume over a finished leader's journal: every point must come
# back resumed (none re-run) and the JSON must match the reference.
serial_resume_ok() {
  local label=$1 journal=$2
  if ! "$SIM" --resume "$journal" --json "$CONFIG" \
      > "$WORK/$label-resume.json" 2> "$WORK/$label-resume.stderr"; then
    echo "dist-fault-smoke: $label: serial resume FAILED"
    sed 's/^/  resume stderr: /' "$WORK/$label-resume.stderr"
    return 1
  fi
  if ! grep -q 'campaign: \([0-9][0-9]*\) point(s):.* \1 resumed from journal' \
      "$WORK/$label-resume.stderr"; then
    echo "dist-fault-smoke: $label: serial resume did not resume every point"
    sed 's/^/  resume stderr: /' "$WORK/$label-resume.stderr"
    return 1
  fi
  if ! cmp -s "$WORK/ref.json" "$WORK/$label-resume.json"; then
    echo "dist-fault-smoke: $label: serial resume JSON differs from reference"
    return 1
  fi
}

fail=0
for round in 1 2 3; do
  base="$WORK/dist-$round"
  rm -f "$base".jsonl
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
    echo "dist-fault-smoke: round $round: JSON differs from reference"
    fail=1
  fi
  serial_resume_ok "dist-$round" "$base.jsonl" || fail=1
done

# Leader kill: the leader's journal is the serial one, so a SIGKILL'd
# leader resumes like a serial run — here by a second distributed leader.
base="$WORK/dist-leader"
rm -f "$base".jsonl
# Kill delay in [0.02s, 0.12s): early enough to land mid-sweep.
delay=$(awk -v r="$RANDOM" 'BEGIN { printf "%.2f", 0.02 + (r % 10) / 100 }')
"$SIM" --workers 3 --journal "$base" --json "$CONFIG" \
  > /dev/null 2> "$WORK/dist-leader-killed.stderr" &
leader=$!
sleep "$delay"
if kill -9 "$leader" 2> /dev/null; then
  echo "dist-fault-smoke: leader round: SIGKILL'd leader $leader at ${delay}s"
else
  echo "dist-fault-smoke: leader round: leader done before ${delay}s (ok)"
fi
wait "$leader" 2> /dev/null
if ! "$SIM" --workers 3 --resume "$base" --json "$CONFIG" \
    > "$WORK/dist-leader.json" 2> "$WORK/dist-leader.stderr"; then
  echo "dist-fault-smoke: leader round: resuming leader FAILED"
  sed 's/^/  leader stderr: /' "$WORK/dist-leader.stderr"
  fail=1
else
  sed -n 's/^psync_sim: campaign:/dist-fault-smoke: leader round: resumed:/p' \
    "$WORK/dist-leader.stderr"
  if ! cmp -s "$WORK/ref.json" "$WORK/dist-leader.json"; then
    echo "dist-fault-smoke: leader round: JSON differs from reference"
    fail=1
  fi
  serial_resume_ok "dist-leader" "$base.jsonl" || fail=1
fi

# One CSV rendering through the distributed path for the second format.
base="$WORK/dist-csv"
rm -f "$base".jsonl
if ! "$SIM" --workers 3 --journal "$base" --csv "$CONFIG" \
    > "$WORK/dist-csv.csv" 2> /dev/null; then
  echo "dist-fault-smoke: csv round: leader FAILED"
  fail=1
elif ! cmp -s "$WORK/ref.csv" "$WORK/dist-csv.csv"; then
  echo "dist-fault-smoke: csv round: CSV differs from reference"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "dist-fault-smoke: FAILED (journals left in $WORK)"
  exit 1
fi
echo "dist-fault-smoke: OK — distributed and resumed output byte-identical to serial reference"
