"""Run one benchmark workload in this process and print its result.

``run.py`` starts this script once per workload, in a fresh process, and
reads the JSON object it prints as its last line of standard output::

    python3 bench/worker.py WORKLOAD --seed N --seconds S --trace 0|1 \\
        --spawned-at T [--setup-only]

*T* is the parent's ``time.monotonic()`` just before the spawn, so set-up
time covers interpreter start, imports and input building. The untraced
loop repeats whole passes until *S* seconds have gone by (``0`` runs one
pass). With ``--trace 1`` it then runs one traced pass, whose spans go
to ``bench/out/<workload>.spans.jsonl``.
"""

from __future__ import annotations

import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

# The probe starts before the program is imported, so set-up time is
# converted to reference seconds like everything else.
from speed import SpeedProbe, mark  # noqa: E402

SPEED = SpeedProbe() if __name__ == "__main__" else None

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402

from repro.gc.registry import resolve_gc  # noqa: E402

from metric_names import PER_LAYER, STRESS_GCS, YCSB_GCS  # noqa: E402
from tracing import Recorder  # noqa: E402
from workloads import WORKLOADS, median  # noqa: E402


def span_metrics(spans) -> dict:
    out = {
        "jvm.construct_s": spans.total("jvm.construct"),
        "jvm.run_s": spans.total("jvm.run"),
        "analysis.band_stats_s": spans.total("analysis.band_stats"),
    }
    for name in ("run_cell", "encode", "store_append", "store_get"):
        out[f"campaign.{name}_s"] = spans.total(f"campaign.{name}")
    # Spans carry canonical collector names; metric names use short ones.
    for gc in STRESS_GCS:
        out[f"jvm.run_s.{gc}"] = spans.total("jvm.run", gc=resolve_gc(gc).value)
    for gc in YCSB_GCS:
        out[f"ycsb.client_run_s.{gc}"] = spans.total(
            "ycsb.client_run", gc=resolve_gc(gc).value)
    return out


def with_cpu(speed, fn):
    """Call *fn*; return its result and the reference CPU seconds the
    whole process spent in it (every thread: serve works on two)."""
    cpu0, t0 = time.process_time(), time.monotonic()
    out = fn()
    return out, (time.process_time() - cpu0) * speed.factor(t0, time.monotonic())


def traced(workload, passes, pass_cpu, speed, out_dir):
    """One traced pass (plus dacapo-grid's overhead runs); returns the
    per-layer metrics and the digests the traced runs produced."""
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update(workload.metrics(passes))
    rec = Recorder(speed.ref_wall)
    workload.prepare()
    t0 = time.monotonic()
    digest, cpu_s = with_cpu(speed, lambda: workload.traced_pass(rec))
    digests = {"traced": digest}
    layers.update(rec.layers(speed.factor(t0, time.monotonic())))
    layers.update(span_metrics(rec.spans))
    share = workload.traced_share(passes)
    layers["sim.events_per_host_s"] = (
        layers["sim.engine_events"] / (median(p.sim_s for p in passes) * share))
    layers["overhead.profile_frac"] = cpu_s / (median(pass_cpu) * share) - 1.0
    overheads = workload.overheads()
    if overheads:
        layers.update(overheads["metrics"])
        digests.update(overheads["digests"])
    rec.spans.write(os.path.join(out_dir, f"{workload.name}.spans.jsonl"))
    return layers, digests


def measure(workload, seconds: float, trace: int, speed, out_dir) -> dict:
    """Repeat whole untraced passes until *seconds* have gone by, then
    (with *trace*) run the traced pass; returns the worker's result. The
    caller has prepared the first pass."""
    passes, pass_cpu = [], []
    start = time.monotonic()
    while True:
        done, cpu_s = with_cpu(speed, workload.run_pass)
        passes.append(done)
        pass_cpu.append(cpu_s)
        if time.monotonic() - start >= seconds:
            break
        workload.prepare()
    result = {
        "passes": len(passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "digest": passes[0].digest,
        "digests": {"untraced": sorted({p.digest for p in passes})},
        "metrics": {
            "work_per_s": median(p.work / p.busy_s for p in passes),
            "op_p50_ms": median(s for p in passes for s in p.ops_s) * 1e3,
            **workload.metrics(passes),
        },
    }
    if trace:
        layers, digests = traced(workload, passes, pass_cpu, speed, out_dir)
        result["layers"] = layers
        result["digests"].update(digests)
    return result


def setup_s(spawned_at: float, first_op) -> float:
    """Reference CPU seconds the main thread spent from interpreter start
    to *first_op* (thread CPU time starts at zero with the process)."""
    return SPEED.ref((spawned_at, 0.0), first_op)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    out_dir = os.path.join("bench", "out")
    scratch = os.path.join(out_dir, "tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch)
    workload = None
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch, SPEED)
        workload.prepare()
        first_op = mark()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s(args.spawned_at, first_op)}))
            return 0
        result = measure(workload, args.seconds, args.trace, SPEED, out_dir)
        result["setup_s"] = setup_s(args.spawned_at, first_op)
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        print(json.dumps(result, sort_keys=True))
        return 0
    finally:
        if workload is not None:
            workload.close()
        SPEED.close()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
