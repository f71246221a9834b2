#!/usr/bin/env bash
# service-smoke.sh — end-to-end check of repro-serve, run from the
# repository root with the repro-* commands on PATH. Start the service
# on a Unix socket, drive the open-loop load generator twice (the rerun
# must be served from the content-addressed store), submit one job three
# times (a miss, a hit and a memoized hit must write byte-identical
# runs), submit two jobs it must refuse with a 400, then SIGTERM it and
# require a clean drain — exit 0, nothing quarantined, and a store that
# survives a compaction pass intact.
set -euo pipefail

set -x
repro-serve serve --socket /tmp/serve.sock --store /tmp/serve-store \
  --workers 2 --queue-limit 32 > serve.log 2>&1 &
SERVE_PID=$!
for i in $(seq 100); do [ -S /tmp/serve.sock ] && break; sleep 0.1; done
LOAD="--socket /tmp/serve.sock --benchmark lusearch --benchmark batik \
      --heap 1g --young 256m --iterations 2 --distinct 2 \
      --clients 4 --rps 100 --ops 40"
repro-serve load $LOAD
# Same mix again: every distinct cell is now in the store, so
# the second run must report cache hits (and zero failures —
# `load` exits non-zero on any failed or errored request).
repro-serve load $LOAD | tee rerun.txt
grep -q "cache hits: 40/40" rerun.txt
# One job three times: simulated, then served from the store, then from
# the service's memo of that stored run. The three runs must be
# byte-identical.
for n in 1 2 3; do
  repro-serve submit xalan --socket /tmp/serve.sock -n 2 --out run$n.json \
    | tee submit$n.txt
done
grep -q "simulated in" submit1.txt
grep -q "\[cache\]" submit2.txt
grep -q "\[cache\]" submit3.txt
cmp run1.json run2.json
cmp run1.json run3.json
# Jobs the simulator refuses (young over the heap, no
# iterations) get a 400 at submit: nothing is queued, retried,
# quarantined or stored.
repro-serve status --socket /tmp/serve.sock --json > before.json
if repro-serve submit xalan --socket /tmp/serve.sock --heap 1g --young 2g -n 1 \
    2> refused.txt; then exit 1; fi
grep "(400)" refused.txt
if repro-serve submit xalan --socket /tmp/serve.sock -n 0 2> refused.txt; then exit 1; fi
grep "(400)" refused.txt
repro-serve status --socket /tmp/serve.sock --json | tee status.json
python -c "
import json
s = json.load(open('status.json'))
before = json.load(open('before.json'))
assert s['metrics']['counters'].get('jobs.quarantined', 0) == 0, s
assert s['cache']['hits'] > 0, s
assert s['store']['failed'] == 0, s
assert s['store']['records'] == before['store']['records'], s
"
kill -TERM $SERVE_PID
wait $SERVE_PID            # asserts exit code 0 (clean drain)
cat serve.log
grep -q "drained" serve.log
# The store the service wrote passes a compaction round trip.
python -c "
from repro.campaign import ResultStore
store = ResultStore('/tmp/serve-store')
before = len(store)
assert before > 0 and store.quarantined_lines == 0
store.compact()
after = ResultStore('/tmp/serve-store')
assert len(after) == before and after.quarantined_lines == 0
print(f'store OK: {before} records, compaction stable')
"
repro-campaign status --store /tmp/serve-store --json
