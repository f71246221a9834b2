#!/usr/bin/env bash
# study-smoke.sh fleet|lbo|energy — end-to-end determinism check of one
# study CLI, run from the repository root with the repro-* commands on
# PATH. The pinned micro-study runs twice against one campaign store:
# the second run must be served entirely from the cache and write
# byte-identical study JSON (cache accounting goes to stdout, never
# into the file). Then the study's own gates run.
set -euo pipefail

study=${1:?usage: study-smoke.sh fleet|lbo|energy}
store=/tmp/$study-store
case $study in
  fleet)
    args=(--gcs ParallelOld CMS --policies round-robin monk
          --nodes 8 --duration 3600 --period 3600 --users 300000
          --calibration-duration 900 --seed 7)
    cold="calibration: 0/2 cache hits" warm="calibration: 2/2 cache hits" ;;
  lbo)
    # 2 collectors x 3 heaps x 2 seeds, 18 cells with the implicit
    # EpsilonGC baseline.
    args=(--benchmarks xalan --gcs ParallelOld ZGC
          --heaps 4g 8g 16g --seeds 1 2 --iterations 4)
    cold="cells: 0/18 cache hits" warm="cells: 18/18 cache hits" ;;
  energy)
    # 3 collectors x 3 placements on asym-hybrid x 2 seeds, 18 cells.
    args=(--benchmarks xalan --gcs ParallelOld CMS G1
          --placements p-cores e-cores adaptive
          --topologies asym-hybrid --heap 8g --seeds 1 2 --iterations 4)
    cold="cells: 0/18 cache hits" warm="cells: 18/18 cache hits" ;;
  *)
    echo "usage: study-smoke.sh fleet|lbo|energy" >&2
    exit 2 ;;
esac

set -x
"repro-$study" run "${args[@]}" --store "$store" --out study1.json | tee first.txt
grep -q "$cold" first.txt
"repro-$study" run "${args[@]}" --store "$store" --out study2.json | tee second.txt
grep -q "$warm" second.txt
cmp study1.json study2.json
"repro-$study" report study1.json

case $study in
  fleet)
    repro-fleet plot study1.json --gc CMS --kind nodes
    repro-fleet plot study1.json --gc ParallelOld --kind tail
    repro-campaign status --store "$store" ;;
  lbo)
    # The Distilling headline on the noise-immune pause tail: ZGC's
    # P99.9 below ParallelOld's.
    jq -e '.collectors.ZGC.pauses.percentiles["p99.9"]
           < .collectors.ParallelOldGC.pauses.percentiles["p99.9"]' \
      study1.json
    jq -e '.collectors.ZGC.lbo != null and .collectors.ZGC.lbo >= 0' \
      study1.json
    jq -e '.ranking | length == 2' study1.json
    repro-campaign status --store "$store" ;;
  energy)
    # The Pareto trade-off, per collector: P-pinning buys the
    # tail, E-pinning the energy.
    jq -e '.results["asym-hybrid"] | to_entries | all(
             .value["p-cores"].pauses.percentiles["p99.9"]
               < .value["e-cores"].pauses.percentiles["p99.9"]
             and .value["e-cores"].energy.gc_j
               < .value["p-cores"].energy.gc_j)' study1.json
    jq -e '[.pareto["asym-hybrid"][].placement]
           | any(. == "p-cores")' study1.json
    jq -e '[.pareto["asym-hybrid"][].placement]
           | any(. == "e-cores")' study1.json
    # Homogeneous byte-identity proof: the same cell on paper-48core,
    # on its single-class asymmetric twin, and with a placement policy
    # applied to the homogeneous box must write byte-identical GC logs.
    repro-dacapo xalan -n 4 --gc G1 --seed 1 \
      --gc-log /tmp/homog.gclog > /dev/null
    repro-dacapo xalan -n 4 --gc G1 --seed 1 \
      --topology paper-48core-1class \
      --gc-log /tmp/oneclass.gclog > /dev/null
    cmp /tmp/homog.gclog /tmp/oneclass.gclog
    repro-dacapo xalan -n 4 --gc G1 --seed 1 --placement adaptive \
      --gc-log /tmp/placed.gclog > /dev/null
    cmp /tmp/homog.gclog /tmp/placed.gclog ;;
esac
