#!/usr/bin/env python3
"""The repository benchmark: run workloads, check digests, print metrics.

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace [0|1]] [-o PATH] [--regen-digests]

Each workload runs in a fresh worker process (``bench/worker.py``),
after two processes that only set it up; ``setup_s`` is the median of
the three set-ups. Every metric prints as ``name value unit``. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or
with ``--trace 1`` the per-layer ones. The exit code is 1 when an op
failed or a digest differs from ``bench/expected.json``.

``--regen-digests`` runs one pass of each workload for seeds 0 and 1,
prints the old and new digests, and rewrites ``bench/expected.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
EXPECTED = os.path.join(BENCH, "expected.json")
WORKLOAD_NAMES = ("dacapo-grid", "cassandra-stress", "ycsb-client", "serve-mixed")
SETUP_PROBES = 2
#: Every run ends well inside the three minutes one benchmark run may take.
DEADLINE_S = 170.0

sys.path.insert(0, BENCH)
from metric_names import END_TO_END, PER_LAYER, UNITS  # noqa: E402


def worker_env() -> dict:
    env = dict(os.environ)
    # One thread per numeric library and no caller-set fast-path switch:
    # the benchmark measures the program's default configuration.
    env.pop("REPRO_FASTPATH", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               timeout: float, setup_only: bool = False) -> dict:
    """Start one worker process; return its JSON result or an error."""
    argv = [sys.executable, os.path.join(BENCH, "worker.py"), workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--spawned-at", repr(time.monotonic())]
    if setup_only:
        argv.append("--setup-only")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=worker_env(), text=True,
                              stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited with code {proc.returncode}"}
    return json.loads(lines[-1])


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 expected: dict) -> dict:
    """Set up, run and check one workload; returns its report entry."""
    start = time.monotonic()
    setups = []
    for _ in range(SETUP_PROBES):
        probe = run_worker(workload, seed, seconds, 0, DEADLINE_S, setup_only=True)
        if "error" in probe:
            return {"correct": False, "attempted": 1, "failed": 1, **probe}
        setups.append(probe["setup_s"])
    main = run_worker(workload, seed, seconds, trace,
                      DEADLINE_S - (time.monotonic() - start))
    if "error" in main:
        return {"correct": False, "attempted": 1, "failed": 1, **main}
    return check(workload, main, seed, expected, setups + [main["setup_s"]])


def check(workload: str, result: dict, seed: int, expected: dict,
          setups: list) -> dict:
    """Turn a worker's result into a report entry. Every digest the run
    produced must agree, and match ``expected`` when it has this seed; a
    mismatch fails every op of the workload."""
    digests = {d for ds in result["digests"].values()
               for d in ([ds] if isinstance(ds, str) else ds)}
    golden = expected.get(workload, {}).get(str(seed))
    problems = []
    if len(digests) != 1:
        problems.append(f"runs of one seed disagree: {sorted(digests)}")
    if golden is not None and result["digest"] != golden:
        problems.append(f"digest {result['digest']} != expected {golden}")
    failed = result["attempted"] if problems else result["failed"]
    entry = {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "digest": result["digest"],
        "expected_digest": golden,
        "problems": problems,
        "passes": result["passes"],
        "setup_samples_s": setups,
        "metrics": {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            **result["metrics"],
        },
    }
    if "layers" in result:
        entry["layers"] = dict(result["layers"],
                               failed_frac=failed / result["attempted"])
        entry["digests"] = result["digests"]
    return entry


def print_metrics(workload: str, entry: dict, trace: int) -> None:
    for problem in entry.get("problems", []):
        print(f"{workload}: {problem}", file=sys.stderr)
    if "error" in entry:
        print(f"{workload}: {entry['error']}", file=sys.stderr)
        return
    print(f"# {workload}: {entry['passes']} passes, {entry['attempted']} ops, "
          f"{entry['failed']} failed, digest {entry['digest'][:16]}")
    shown = dict(entry["metrics"])
    if trace:
        shown.update(entry["layers"])
    for name, unit in UNITS.items():
        if name in shown:
            print(f"{name} {shown[name]!r} {unit}")


def result_line(entries: dict, trace: int) -> dict:
    """The contract's last line: one JSON object over every workload run."""
    names = PER_LAYER if trace else END_TO_END
    block = "layers" if trace else "metrics"
    prefix = len(entries) > 1
    metrics = {}
    for workload, entry in entries.items():
        for name in names:
            if block in entry:
                key = f"{workload}.{name}" if prefix else name
                metrics[key] = {"value": entry[block][name], "unit": names[name]}
    return {
        "correct": all(e["correct"] for e in entries.values()),
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": sum(e["failed"] for e in entries.values()),
        "metrics": metrics,
    }


def regen_digests(workloads) -> int:
    expected = load_expected() if os.path.exists(EXPECTED) else {}
    new = {w: dict(expected.get(w, {})) for w in WORKLOAD_NAMES}
    for workload in workloads:
        for seed in (0, 1):
            result = run_worker(workload, seed, 0, 0, DEADLINE_S)
            if "error" in result or result["failed"]:
                print(f"{workload} seed {seed}: pass failed, digest not written",
                      file=sys.stderr)
                return 1
            old = expected.get(workload, {}).get(str(seed))
            digest = result["digest"]
            change = "unchanged" if old == digest else f"{old} -> {digest}"
            print(f"{workload} seed {seed}: {change}")
            new[workload][str(seed)] = digest
    with open(EXPECTED, "w") as fh:
        json.dump(new, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="untraced measuring time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also run a traced pass")
    parser.add_argument("-o", "--output",
                        default=os.path.join(BENCH, "out", "report.json"))
    parser.add_argument("--regen-digests", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOAD_NAMES)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"bench: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.regen_digests:
        return regen_digests(workloads)

    expected = load_expected()
    entries = {}
    for workload in workloads:
        entries[workload] = run_workload(workload, args.seed, args.seconds,
                                         args.trace, expected)
        print_metrics(workload, entries[workload], args.trace)

    report = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "workloads": entries}
    os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    line = result_line(entries, args.trace)
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
