#!/usr/bin/env bash
# Crash-loop stress for the durable streaming ingest core.
#
# Repeatedly SIGKILLs the streaming build at a seeded, advancing record
# count (--kill-after-records walks forward by a fixed step each round)
# against one persistent WAL + checkpoint directory, until a run
# finally completes. The completed run's CSV exports must be
# byte-identical to a one-shot batch build of the same configuration —
# the headline guarantee of src/ingest + build_streaming_dataset,
# exercised here with real SIGKILL (exit 137) rather than the in-test
# exception seams. After the clean completion, one warm rerun over the
# same directories and one rerun with the WAL directory deleted must
# export the same bytes: both resume from the newest epoch cut by
# replaying its WAL prefix (recovered, or regenerated when lost). Both
# must also publish the uninterrupted stream's kill-invariant counters
# (below); the warm rerun must generate no event (the WAL and the cut
# hold them all, and the cut carries generation's fault counters), the
# lost-WAL rerun must generate the stream again (the runtime counter
# stream.events_generated in the --trace-out file).
# Last, a power cut: one fresh run is SIGKILLed a few appends into its
# last epoch, every open WAL segment is truncated to its 36-byte
# header (the WAL syncs a segment only when it seals it, so that is
# all a power cut is sure to leave of it), and the rerun must export
# the same bytes again.
#
# The run that finishes the kill chain must also publish the same
# kill-invariant counters (the pipeline.*, enrich.*, fault.*, cluster.*
# and epm.* families of --metrics-out) as one uninterrupted stream.
# Only per-run counters may differ: snapshot.*, ingest.epochs.*,
# ingest.queue.* and the WAL recovery counters.
#
# Every round runs under a hard per-round timeout: a child that hangs
# (instead of dying or completing) is SIGKILLed by timeout(1) and the
# round is retried at the same kill point, up to a bounded number of
# retries — a single wedged child can no longer hang the CI
# crash-stress job forever.
#
# Usage: tools/crash_loop_stress.sh [path/to/build_paper_dataset]
# Knobs: REPRO_STRESS_SCALE (default 0.05), REPRO_STRESS_SEED (2008),
#        REPRO_STRESS_EPOCHS (4), REPRO_STRESS_STEP (13, records
#        between consecutive kill points), REPRO_STRESS_FAULTS
#        (paper; set to none to stress without fault injection),
#        REPRO_STRESS_ROUND_TIMEOUT (120s per round),
#        REPRO_STRESS_RETRIES (3 hung-round retries per kill point).
set -u

BIN=${1:-build/tools/build_paper_dataset/build_paper_dataset}
SCALE=${REPRO_STRESS_SCALE:-0.05}
SEED=${REPRO_STRESS_SEED:-2008}
EPOCHS=${REPRO_STRESS_EPOCHS:-4}
STEP=${REPRO_STRESS_STEP:-13}
FAULTS=${REPRO_STRESS_FAULTS:-paper}
MAX_ROUNDS=${REPRO_STRESS_MAX_ROUNDS:-500}
ROUND_TIMEOUT=${REPRO_STRESS_ROUND_TIMEOUT:-120}
RETRIES=${REPRO_STRESS_RETRIES:-3}

# timeout(1) guards each round; without it a hung child hangs the job.
TIMEOUT_CMD="timeout"
if ! command -v "$TIMEOUT_CMD" >/dev/null 2>&1; then
  echo "crash_loop_stress: timeout(1) not found; rounds run unguarded" >&2
  TIMEOUT_CMD=""
fi

if [ ! -x "$BIN" ]; then
  echo "crash_loop_stress: $BIN not found or not executable" >&2
  exit 2
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/crash-loop-stress.XXXXXX")
trap 'rm -rf "$work"' EXIT

echo "== baseline: one-shot batch build (seed $SEED, scale $SCALE," \
     "faults $FAULTS)"
"$BIN" --seed "$SEED" --scale "$SCALE" --faults "$FAULTS" \
       --export-dir "$work/batch" >/dev/null || {
  echo "crash_loop_stress: batch baseline failed" >&2
  exit 1
}

echo "== reference: one uninterrupted stream"
"$BIN" --seed "$SEED" --scale "$SCALE" --faults "$FAULTS" \
       --epochs "$EPOCHS" \
       --wal-dir "$work/ref-wal" --checkpoint-dir "$work/ref-ckpt" \
       --metrics-out "$work/ref-metrics.json" \
       --export-dir "$work/ref" >/dev/null || {
  echo "crash_loop_stress: reference stream failed" >&2
  exit 1
}

kill_at=7
round=0
hung_retries=0
while :; do
  round=$((round + 1))
  if [ "$round" -gt "$MAX_ROUNDS" ]; then
    echo "crash_loop_stress: no clean completion after $MAX_ROUNDS rounds" >&2
    exit 1
  fi
  # Run through an inner shell with silenced stderr so the "Killed"
  # job notice lands in /dev/null instead of the log; the 137 exit
  # status still propagates. timeout(1) bounds the round: a hung child
  # gets SIGTERM at $ROUND_TIMEOUT (exit 124), then SIGKILL 10s later.
  # Metrics are written at exit, so only a completing round leaves them.
  rm -f "$work/final-metrics.json"
  # shellcheck disable=SC2086  # intentional: empty TIMEOUT_CMD vanishes
  $TIMEOUT_CMD ${TIMEOUT_CMD:+-k 10 "$ROUND_TIMEOUT"} \
     sh -c '"$@" >/dev/null 2>&1' crash-loop \
     "$BIN" --seed "$SEED" --scale "$SCALE" --faults "$FAULTS" \
     --epochs "$EPOCHS" \
     --wal-dir "$work/wal" --checkpoint-dir "$work/ckpt" \
     --kill-after-records "$kill_at" \
     --metrics-out "$work/final-metrics.json" \
     --export-dir "$work/stream" 2>/dev/null
  rc=$?
  if [ "$rc" -eq 0 ]; then
    echo "== round $round: completed cleanly (kill point $kill_at never" \
         "reached)"
    break
  fi
  if [ "$rc" -eq 124 ]; then
    # The child wedged and timeout(1) reaped it. The WAL + checkpoint
    # state on disk is still valid (that is the whole durability
    # contract), so retry the same kill point a bounded number of
    # times before declaring the build hung.
    hung_retries=$((hung_retries + 1))
    if [ "$hung_retries" -gt "$RETRIES" ]; then
      echo "crash_loop_stress: round $round hung ${ROUND_TIMEOUT}s" \
           "$hung_retries times at kill point $kill_at; giving up" >&2
      exit 1
    fi
    echo "== round $round: hung after ${ROUND_TIMEOUT}s, retry" \
         "$hung_retries/$RETRIES at kill point $kill_at"
    continue
  fi
  if [ "$rc" -ne 137 ]; then
    echo "crash_loop_stress: round $round exited $rc (expected 137 from" \
         "SIGKILL at record $kill_at)" >&2
    exit 1
  fi
  echo "== round $round: SIGKILLed after $kill_at appends, resuming"
  hung_retries=0
  kill_at=$((kill_at + STEP))
done

# Diffs one export directory against the batch baseline; exits on a
# mismatch.
expect_batch_identical() {
  if ! diff -r "$work/batch" "$work/$1" >/dev/null; then
    echo "crash_loop_stress: $1 exports differ from the batch build:" >&2
    diff -r "$work/batch" "$work/$1" >&2 | head -20
    exit 1
  fi
}

# One more streaming run over the same directories (no kill point),
# writing its metrics to $1-metrics.json and its trace to $1-trace.json.
rerun_stream() {
  "$BIN" --seed "$SEED" --scale "$SCALE" --faults "$FAULTS" \
         --epochs "$EPOCHS" \
         --wal-dir "$work/wal" --checkpoint-dir "$work/ckpt" \
         --metrics-out "$work/$1-metrics.json" \
         --trace-out "$work/$1-trace.json" \
         --export-dir "$work/$1" >/dev/null || {
    echo "crash_loop_stress: $1 rerun failed" >&2
    exit 1
  }
}

expect_batch_identical ref
expect_batch_identical stream
echo "== exports byte-identical to the batch build after $round runs" \
     "($((round - 1)) kills)"

# The kill-invariant metric families of one metrics JSON file.
kill_invariant_metrics() {
  grep -E '^ *"(pipeline|enrich|fault|cluster|epm)\.' "$1"
}
# Diffs the kill-invariant counters of $1 against the uninterrupted
# stream's; exits on a mismatch.
expect_reference_counters() {
  if ! diff <(kill_invariant_metrics "$work/ref-metrics.json") \
            <(kill_invariant_metrics "$1") >/dev/null
  then
    echo "crash_loop_stress: kill-invariant counters of $1 differ from" \
         "the uninterrupted stream:" >&2
    diff <(kill_invariant_metrics "$work/ref-metrics.json") \
         <(kill_invariant_metrics "$1") >&2
    exit 1
  fi
}
# The stream.events_generated runtime counter of one trace JSON file.
events_generated() {
  grep -E '"stream\.events_generated"' "$1" | grep -oE '[0-9]+' | tail -1
}
expect_reference_counters "$work/final-metrics.json"
echo "== $(kill_invariant_metrics "$work/final-metrics.json" | wc -l)" \
     "kill-invariant counters match the uninterrupted stream"

# Warm rerun: epoch cuts hold derived state only, so resume rebuilds
# the database by replaying the WAL prefix the newest cut covers. The
# WAL holds every record, so nothing is generated.
rerun_stream warm
expect_batch_identical warm
expect_reference_counters "$work/warm-metrics.json"
generated=$(events_generated "$work/warm-trace.json")
if [ "${generated:-missing}" != 0 ]; then
  echo "crash_loop_stress: the warm rerun generated ${generated:-an" \
       "unknown number of} events; the WAL holds them all" >&2
  exit 1
fi
echo "== warm rerun over the same directories: byte-identical, same" \
     "counters, no event generated"

# Lost WAL: the cut's prefix is replayed from the deterministic
# regenerated stream instead, and re-appended to a fresh WAL.
rm -rf "$work/wal"
rerun_stream nowal
expect_batch_identical nowal
expect_reference_counters "$work/nowal-metrics.json"
generated=$(events_generated "$work/nowal-trace.json")
if [ "${generated:-0}" -eq 0 ]; then
  echo "crash_loop_stress: the rerun without a WAL generated no event" >&2
  exit 1
fi
echo "== rerun with the WAL directory removed: byte-identical, same" \
     "counters, $generated events generated"

# Power cut mid-epoch: a SIGKILL keeps every append in the page cache,
# so drop what a power cut may lose on top of it, the unsynced frames of
# the open segment. The cuts cover only sealed (synced) segments, so the
# rerun restores the newest one and re-appends the rest.
records=$(grep -E '"ingest\.wal\.records_appended"' "$work/ref-metrics.json" |
          grep -oE '[0-9]+' | tail -1)
# The newest cut at the kill is epoch EPOCHS-1's, at record $covered.
# Dying three appends past it leaves the open segment holding just
# those, unless the epoch boundary failed to seal the segment before.
covered=$(((EPOCHS - 1) * records / EPOCHS))
cut_at=$((covered + 3))
rm -rf "$work/wal" "$work/ckpt"
# shellcheck disable=SC2086  # intentional: empty TIMEOUT_CMD vanishes
$TIMEOUT_CMD ${TIMEOUT_CMD:+-k 10 "$ROUND_TIMEOUT"} \
   sh -c '"$@" >/dev/null 2>&1' crash-loop \
   "$BIN" --seed "$SEED" --scale "$SCALE" --faults "$FAULTS" \
   --epochs "$EPOCHS" \
   --wal-dir "$work/wal" --checkpoint-dir "$work/ckpt" \
   --kill-after-records "$cut_at" 2>/dev/null
rc=$?
if [ "$rc" -ne 137 ]; then
  echo "crash_loop_stress: power-cut run exited $rc (expected 137 from" \
       "SIGKILL at record $cut_at of $records)" >&2
  exit 1
fi
truncated=0
for segment in "$work"/wal/*.seg.open; do
  [ -f "$segment" ] || continue
  if [ "$(wc -c < "$segment")" -gt 36 ]; then
    truncated=$((truncated + 1))
  fi
  truncate -s 36 "$segment"
done
if [ "$truncated" -eq 0 ]; then
  echo "crash_loop_stress: no open WAL segment held frames at record" \
       "$cut_at; the power-cut step would check nothing" >&2
  exit 1
fi
"$BIN" --seed "$SEED" --scale "$SCALE" --faults "$FAULTS" \
       --epochs "$EPOCHS" \
       --wal-dir "$work/wal" --checkpoint-dir "$work/ckpt" \
       --metrics-out "$work/powercut-metrics.json" \
       --export-dir "$work/powercut" >/dev/null || {
  echo "crash_loop_stress: power-cut rerun failed" >&2
  exit 1
}
expect_batch_identical powercut
# The WAL seals before every cut, so what the truncation dropped lies
# past the newest cut.
recovered=$(grep -E '"ingest\.wal\.records_recovered"' \
              "$work/powercut-metrics.json" | grep -oE '[0-9]+' | tail -1)
if [ "$recovered" -lt "$covered" ]; then
  echo "crash_loop_stress: the power cut dropped records a cut covers" \
       "($recovered recovered, the newest cut holds $covered)" >&2
  exit 1
fi
echo "== power cut after $cut_at of $records appends (open segment cut to" \
     "its header, $recovered records kept): byte-identical"
