#!/usr/bin/env bash
# campaign-smoke.sh — end-to-end resilience check of repro-campaign, run
# from the repository root with the repro-* commands on PATH. A killed
# sweep must resume from its on-disk store, and a completed sweep must be
# 100 % cache hits on re-run that leave the store's files untouched. Then
# a traced campaign writes one trace per simulated cell, which
# repro-trace reports and diffs.
set -euo pipefail

set -x
ARGS="--name smoke --store /tmp/campaign-store \
      --benchmarks lusearch batik --gcs Serial ParallelOld \
      --heaps 1g --youngs 256m --seeds 0 --iterations 2 \
      --executor process --workers 2"
# First attempt gets killed mid-sweep; completed cells survive
# in the store (flushed+fsynced per cell), so this must not
# poison later runs even if it truncates an in-flight record.
timeout -s KILL 3 repro-campaign run $ARGS || true
# Resume to completion, then re-run: every cell must be a cache
# hit and none re-simulated.
repro-campaign run $ARGS
repro-campaign run $ARGS | tee rerun.txt
grep -q "simulated 0," rerun.txt
# A cached rerun leaves the store untouched: no record is
# appended and the manifest is neither rewritten nor replaced.
cp /tmp/campaign-store/manifest.json manifest.before
cp /tmp/campaign-store/records.jsonl records.before
INODE=$(stat -c %i /tmp/campaign-store/manifest.json)
repro-campaign run $ARGS | tee rerun-untouched.txt
grep -q "simulated 0," rerun-untouched.txt
cmp manifest.before /tmp/campaign-store/manifest.json
cmp records.before /tmp/campaign-store/records.jsonl
test "$(stat -c %i /tmp/campaign-store/manifest.json)" = "$INODE"
# The store's own accounting is the real assertion: the
# campaign must be complete — every cell ok, nothing missing,
# failed or quarantined — without hard-coding the cell count.
repro-campaign status --store /tmp/campaign-store --json | tee status.json
jq -e '.failed == 0 and .quarantined_lines == 0' status.json
jq -e '.campaigns[] | select(.name == "smoke")
       | .ok == .cells and .failed == 0 and .missing == 0' status.json

# Traced campaign + trace diff.
# Fresh store so cells actually simulate (cache hits don't
# re-trace); then diff two cells' traces via repro-trace.
repro-campaign run --name traced --store /tmp/traced-store \
  --benchmarks lusearch --gcs Serial ParallelOld \
  --heaps 1g --youngs 256m --seeds 0 --iterations 2 \
  --executor process --workers 2 --trace-dir /tmp/traces
ls /tmp/traces/*.trace.jsonl
repro-trace report /tmp/traces/*.trace.jsonl
repro-trace diff $(ls /tmp/traces/*.trace.jsonl | head -2)
