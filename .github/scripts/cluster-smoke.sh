#!/usr/bin/env bash
# cluster-smoke.sh — end-to-end check of repro-cluster, run from the
# repository root with the repro-* commands on PATH. A coordinator fronts
# three repro-serve workers on localhost sockets, each with its own shard
# store. One worker is SIGKILLed mid-campaign: its digests must re-route
# to the survivors and the sweep still complete with zero failures. The
# shards are then merged and must be byte-identical (cmp) to a serial
# repro-campaign run over the same cells. Finally a fresh fabric on the
# merged store must serve the same grid entirely from cache, and one of
# its workers must exit 0 on SIGTERM while the coordinator still holds a
# connection to it. Everything it writes goes under /tmp.
set -euo pipefail

set -x
W=/tmp/cluster
mkdir -p $W
# --- run 1: coordinator + 3 workers, one shard store each ---
repro-serve serve --socket /tmp/w0.sock --store $W/shard0 --workers 1 \
  > $W/worker0.log 2>&1 & W0=$!
repro-serve serve --socket /tmp/w1.sock --store $W/shard1 --workers 1 \
  > $W/worker1.log 2>&1 & W1=$!
repro-serve serve --socket /tmp/w2.sock --store $W/shard2 --workers 1 \
  > $W/worker2.log 2>&1 & W2=$!
for s in /tmp/w0.sock /tmp/w1.sock /tmp/w2.sock; do
  for t in $(seq 100); do [ -S $s ] && break; sleep 0.1; done
done
repro-cluster serve --socket /tmp/coord.sock \
  --node unix:/tmp/w0.sock --node unix:/tmp/w1.sock \
  --node unix:/tmp/w2.sock \
  --steal-interval 0.2 > $W/coord.log 2>&1 & COORD=$!
for t in $(seq 100); do [ -S /tmp/coord.sock ] && break; sleep 0.1; done
GRID="--benchmarks lusearch batik --gcs Serial ParallelOld \
      --heaps 1g --youngs 256m --seeds 0 1 --iterations 2"
EXTRA="--benchmarks lusearch --gcs Serial --heaps 1g --youngs 256m \
       --seeds 2 --iterations 2"
# SIGKILL one worker mid-campaign; the coordinator must convict
# it and re-route its jobs to the survivors.
( sleep 0.5; kill -KILL $W1 ) &
repro-cluster submit --socket /tmp/coord.sock $GRID | tee $W/run1.txt
grep -q "failed 0" $W/run1.txt
# One more cell that consistent-hashes to the dead worker
# (placement is a pure function of digest + membership, so this
# is deterministic): conviction + re-route on contact.
repro-cluster submit --socket /tmp/coord.sock $EXTRA | tee $W/run1b.txt
grep -q "cluster: simulated 1, cached 0/1, failed 0" $W/run1b.txt
repro-cluster status --socket /tmp/coord.sock --json | tee $W/status1.json
jq -e '.cluster.dead == ["unix:/tmp/w1.sock"]' $W/status1.json
jq -e '.metrics.counters["cluster.reroutes"] >= 1' $W/status1.json
jq -e '.totals.counters["jobs.simulated"] >= 1' $W/status1.json
jq -e '.pauses.count > 0 and .pauses.p99 >= .pauses.p50' $W/status1.json
repro-cluster status --socket /tmp/coord.sock
repro-cluster drain --socket /tmp/coord.sock | tee $W/drain1.txt
grep -q "cluster drained:" $W/drain1.txt
wait $COORD
wait $W0
wait $W2
# --- merge shards; byte-identical to a serial campaign ------
repro-cluster merge $W/shard0 $W/shard1 $W/shard2 --into $W/merged \
  | tee $W/merge.txt
grep -q "merged 3 stores: 9 records (9 ok, 0 failed)" $W/merge.txt
repro-campaign status --store $W/merged --json | tee $W/merged.json
jq -e '.records == 9 and .ok == 9 and .failed == 0
       and .quarantined_lines == 0' $W/merged.json
repro-campaign run --name ref --store $W/serial $GRID --executor serial
repro-campaign run --name ref-extra --store $W/serial $EXTRA \
  --executor serial
python -c "
from repro.campaign import ResultStore
ResultStore('/tmp/cluster/serial').compact()
"
cmp $W/merged/records.jsonl $W/serial/records.jsonl
# --- run 2: fresh fabric, all workers on the MERGED store ---
repro-serve serve --socket /tmp/v0.sock --store $W/merged --workers 1 \
  > $W/worker0b.log 2>&1 & V0=$!
repro-serve serve --socket /tmp/v1.sock --store $W/merged --workers 1 \
  > $W/worker1b.log 2>&1 & V1=$!
repro-serve serve --socket /tmp/v2.sock --store $W/merged --workers 1 \
  > $W/worker2b.log 2>&1 & V2=$!
for s in /tmp/v0.sock /tmp/v1.sock /tmp/v2.sock; do
  for t in $(seq 100); do [ -S $s ] && break; sleep 0.1; done
done
repro-cluster serve --socket /tmp/coord2.sock \
  --node unix:/tmp/v0.sock --node unix:/tmp/v1.sock \
  --node unix:/tmp/v2.sock > $W/coord2.log 2>&1 & COORD2=$!
for t in $(seq 100); do [ -S /tmp/coord2.sock ] && break; sleep 0.1; done
repro-cluster submit --socket /tmp/coord2.sock $GRID | tee $W/run2.txt
grep -q "cluster: simulated 0, cached 8/8, failed 0" $W/run2.txt
repro-cluster submit --socket /tmp/coord2.sock $EXTRA | tee $W/run2b.txt
grep -q "cluster: simulated 0, cached 1/1, failed 0" $W/run2b.txt
# A worker told to stop must exit while its coordinator still
# holds a connection to it (the status fan-out opens one to
# every live worker). On Python >= 3.12.1 a close() that waits
# on the listener before dropping its clients hangs here.
repro-cluster status --socket /tmp/coord2.sock --json > $W/status2.json
kill -TERM $V1
timeout 30 tail --pid=$V1 -f /dev/null
wait $V1                   # asserts exit code 0 (clean drain)
grep -q "drained" $W/worker1b.log
repro-cluster drain --socket /tmp/coord2.sock
wait $COORD2
wait $V0
wait $V2
