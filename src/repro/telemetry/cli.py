"""The ``repro-trace`` command: record / report / export / diff.

``record`` runs a DaCapo benchmark with tracing attached and writes the
JSONL trace; ``report`` prints the percentile report of one or more
traces; ``export`` converts a trace (``chrome`` for Perfetto /
``chrome://tracing``, ``jsonl`` to re-canonicalize); ``diff`` compares
the pause histograms of two traces — e.g. two cells of a campaign run
with ``--trace-dir``.

Examples::

    repro-trace record xalan -n 10 --gc CMS --seed 1 -o cms.trace.jsonl
    repro-trace report cms.trace.jsonl
    repro-trace export cms.trace.jsonl --format chrome -o cms.chrome.json
    repro-trace diff parallel.trace.jsonl cms.trace.jsonl
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from ..errors import ReproError
from ..gc.registry import GC_HELP
from ..jvm import JVM, JVMConfig
from ..units import parse_size
from ..workloads.dacapo import ALL_BENCHMARKS, get_benchmark
from .export import (read_trace, render_diff, render_report, write_chrome,
                     write_jsonl, write_trace)
from .ring import DEFAULT_CAPACITY
from .tracer import Tracer


def record_cmd(args) -> int:
    """``repro-trace record``: run one benchmark with tracing on."""
    from ..heap.tlab import TLABConfig

    config = JVMConfig(
        gc=args.gc,
        heap=parse_size(args.heap),
        young=parse_size(args.young) if args.young else None,
        tlab=TLABConfig(enabled=not args.no_tlab),
        seed=args.seed,
    )
    tracer = Tracer(capacity=args.ring_capacity)
    jvm = JVM(config, tracer=tracer)
    result = jvm.run(
        get_benchmark(args.benchmark),
        iterations=args.iterations,
        system_gc=not args.no_system_gc,
    )
    write_trace(tracer, args.output)
    print(result.summary())
    dropped = f" ({tracer.ring.dropped} dropped)" if tracer.ring.dropped else ""
    print(f"trace: {tracer.seq} events{dropped} -> {args.output}")
    return 1 if result.crashed else 0


def report_cmd(args) -> int:
    """``repro-trace report``: percentile report of trace file(s)."""
    for i, path in enumerate(args.trace):
        if i:
            print()
        print(render_report(read_trace(path)))
    return 0


def export_cmd(args) -> int:
    """``repro-trace export``: convert a trace to another format."""
    trace = read_trace(args.trace)
    if args.format == "chrome":
        write_chrome(trace, args.output)
    else:
        # Re-canonicalize (stable keys and separators), e.g. to normalize
        # a hand-edited trace.
        write_jsonl(args.output, trace.meta, trace.events, trace.summary)
    print(f"exported {args.trace} -> {args.output} ({args.format})")
    return 0


def diff_cmd(args) -> int:
    """``repro-trace diff``: compare two traces' pause histograms."""
    a, b = read_trace(args.trace_a), read_trace(args.trace_b)

    def label(path: str, trace) -> str:
        gc = trace.meta.get("gc")
        return str(gc) if gc else os.path.basename(path)

    print(render_diff(a, b, label(args.trace_a, a), label(args.trace_b, b)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-trace``."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Record, inspect, export and compare simulation traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rec = sub.add_parser("record", help="run a benchmark with tracing on")
    p_rec.add_argument("benchmark", choices=ALL_BENCHMARKS)
    p_rec.add_argument("-n", "--iterations", type=int, default=10)
    p_rec.add_argument("--no-system-gc", action="store_true",
                       help="disable the forced full GC between iterations")
    p_rec.add_argument("--gc", default="ParallelOld",
                       help=f"collector: {GC_HELP}")
    p_rec.add_argument("--heap", default="16g", help="heap size (-Xmx/-Xms)")
    p_rec.add_argument("--young", default=None, help="young size (-Xmn)")
    p_rec.add_argument("--no-tlab", action="store_true", help="disable TLABs")
    p_rec.add_argument("--seed", type=int, default=0, help="simulation seed")
    p_rec.add_argument("--ring-capacity", type=int, default=DEFAULT_CAPACITY,
                       help="event-ring size (oldest events drop beyond it)")
    p_rec.add_argument("-o", "--output", default="repro.trace.jsonl",
                       help="trace file to write")
    p_rec.set_defaults(fn=record_cmd)

    p_rep = sub.add_parser("report", help="percentile report of trace file(s)")
    p_rep.add_argument("trace", nargs="+", help="trace file(s)")
    p_rep.set_defaults(fn=report_cmd)

    p_exp = sub.add_parser("export", help="convert a trace to another format")
    p_exp.add_argument("trace", help="input trace file")
    p_exp.add_argument("--format", choices=["chrome", "jsonl"], default="chrome",
                       help="chrome = Perfetto/chrome://tracing JSON")
    p_exp.add_argument("-o", "--output", required=True)
    p_exp.set_defaults(fn=export_cmd)

    p_diff = sub.add_parser("diff", help="compare two traces' pause histograms")
    p_diff.add_argument("trace_a")
    p_diff.add_argument("trace_b")
    p_diff.set_defaults(fn=diff_cmd)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
