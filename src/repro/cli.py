"""Command-line entry points, one per ``repro-*`` console script:

* ``repro-dacapo``    — run a DaCapo benchmark under a chosen GC and print
  the per-iteration times plus the GC log;
* ``repro-cassandra`` — run the Cassandra/YCSB experiment and print the
  server pause trace and client latency statistics;
* ``repro-report``    — parse a GC log file (HotSpot-style text, as
  emitted by ``--gc-log``) and print pause statistics;
* ``repro-specjbb``   — run the SPECjbb-style warehouse ramp;
* ``repro-cluster``   — the multi-node experiment fabric (coordinator,
  submit, status, merge; the failure-detector study is its ``failures``
  subcommand — see :mod:`repro.cluster`);
* ``repro-lint``      — static determinism/invariant analysis over the
  source tree (see :mod:`repro.lint`);
* ``repro-campaign``  — parallel, cached, resumable experiment-grid
  campaigns (see :mod:`repro.campaign`);
* ``repro-trace``     — record/report/export/diff JFR-style telemetry
  traces (see :mod:`repro.telemetry`);
* ``repro-perf``      — profile the simulator itself: hot-spot report and
  engine event rates for one cell (see :mod:`repro.perf`);
* ``repro-serve``     — the async experiment service: submit jobs over a
  socket, served from the shared result cache (see :mod:`repro.serve`);
* ``repro-fleet``     — GC-aware load balancing and opportunistic
  scaling over a simulated Cassandra fleet (see :mod:`repro.fleet`);
* ``repro-lbo``       — LBO cost distillation against an ideal no-GC
  run (see :mod:`repro.analysis.lbo`);
* ``repro-energy``    — energy/pause Pareto studies over collector x
  GC placement x (asymmetric) topology (see :mod:`repro.energy`).

``repro-dacapo --audit`` additionally attaches the runtime
:class:`~repro.lint.audit.InvariantAuditor` to the run — the simulator's
``-XX:+VerifyBeforeGC``/``-XX:+VerifyAfterGC``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import GB
from .analysis.latency import latency_band_stats
from .analysis.pauses import pause_stats
from .analysis.report import render_table
from .cassandra import CassandraServer, default_config, stress_config
from .gc.registry import GC_HELP
from .jvm import JVM, JVMConfig
from .jvm.gclog import format_gc_log, parse_gc_log
from .units import parse_size
from .workloads.dacapo import ALL_BENCHMARKS, get_benchmark
from .ycsb import YCSBClient, WORKLOAD_A_LIKE, LOAD_PHASE


def _jvm_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gc", default="ParallelOld",
                        help=f"collector: {GC_HELP}")
    parser.add_argument("--heap", default="16g", help="heap size (-Xmx/-Xms)")
    parser.add_argument("--young", default=None, help="young size (-Xmn)")
    parser.add_argument("--no-tlab", action="store_true", help="disable TLABs")
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument("--topology", default=None, metavar="NAME",
                        help="registered machine topology (default: the "
                             "paper's 48-core server)")
    parser.add_argument("--placement", default=None, metavar="POLICY",
                        help="GC-thread placement policy on asymmetric "
                             "machines (p-cores|e-cores|adaptive)")


def _build_config(args) -> JVMConfig:
    from .heap.tlab import TLABConfig

    kw = {}
    if getattr(args, "topology", None):
        kw["topology"] = args.topology
    if getattr(args, "placement", None):
        kw["gc_placement"] = args.placement
    return JVMConfig(
        gc=args.gc,
        heap=parse_size(args.heap),
        young=parse_size(args.young) if args.young else None,
        tlab=TLABConfig(enabled=not args.no_tlab),
        seed=args.seed,
        **kw,
    )


def dacapo_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-dacapo``."""
    parser = argparse.ArgumentParser(
        prog="repro-dacapo", description="Run a synthetic DaCapo benchmark."
    )
    parser.add_argument("benchmark", choices=ALL_BENCHMARKS)
    parser.add_argument("-n", "--iterations", type=int, default=10)
    parser.add_argument("--no-system-gc", action="store_true",
                        help="disable the forced full GC between iterations")
    parser.add_argument("-t", "--threads", type=int, default=None)
    parser.add_argument("--gc-log", default=None, help="write a GC log file")
    parser.add_argument("--audit", action="store_true",
                        help="attach the runtime InvariantAuditor "
                             "(VerifyBeforeGC/VerifyAfterGC analogue)")
    parser.add_argument("--progress", action="store_true",
                        help="live iteration progress (done/total, ETA) on stderr")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a JSONL telemetry trace (JFR analogue; "
                             "inspect with repro-trace report/export)")
    _jvm_args(parser)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from .telemetry import Tracer

        tracer = Tracer()
    jvm = JVM(_build_config(args), tracer=tracer)
    auditor = None
    if args.audit:
        from .lint import InvariantAuditor

        auditor = InvariantAuditor()
        auditor.attach(jvm)
    reporter = None
    on_iteration = None
    if args.progress:
        from .campaign.progress import ProgressReporter

        reporter = ProgressReporter(args.iterations, label="iterations")
        reporter.start()
        on_iteration = lambda _i, _t: reporter.advance()  # noqa: E731
    result = jvm.run(
        get_benchmark(args.benchmark),
        iterations=args.iterations,
        system_gc=not args.no_system_gc,
        threads=args.threads,
        on_iteration=on_iteration,
    )
    if reporter is not None:
        reporter.finish()
    print(result.summary())
    rows = [(i + 1, round(t, 3)) for i, t in enumerate(result.iteration_times)]
    print(render_table(["iteration", "duration (s)"], rows))
    if args.gc_log:
        with open(args.gc_log, "w") as fh:
            fh.write(format_gc_log(result.gc_log, jvm.config.heap_bytes))
        print(f"GC log written to {args.gc_log}")
    if tracer is not None:
        from .telemetry import write_trace

        write_trace(tracer, args.trace)
        print(f"trace written to {args.trace} ({tracer.seq} events, "
              f"{tracer.ring.dropped} dropped)")
    if auditor is not None:
        print(auditor.summary())
        for violation in auditor.violations:
            print(violation.format())
        if not auditor.ok:
            return 1
    return 1 if result.crashed else 0


def cassandra_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-cassandra``."""
    parser = argparse.ArgumentParser(
        prog="repro-cassandra",
        description="Run the Cassandra server under a YCSB workload.",
    )
    parser.add_argument("--phase", choices=["load", "run"], default="load",
                        help="load = pure inserts; run = 50/50 read-update")
    parser.add_argument("--stress", action="store_true",
                        help="paper's stress configuration (nothing flushes)")
    parser.add_argument("--duration", type=float, default=3600.0,
                        help="serving time in simulated seconds")
    parser.add_argument("--ops", type=float, default=1350.0,
                        help="offered operations per second")
    parser.add_argument("--gc-log", default=None, metavar="PATH",
                        help="write the server's GC log file (the "
                             "repro-dacapo --gc-log format)")
    _jvm_args(parser)
    parser.set_defaults(heap="64g", young="12g")
    args = parser.parse_args(argv)

    config = _build_config(args)
    heap_bytes = config.heap_bytes
    cass = stress_config(heap_bytes) if args.stress else default_config(heap_bytes)
    workload = (LOAD_PHASE if args.phase == "load" else WORKLOAD_A_LIKE).with_(
        operations_per_second=args.ops
    )
    client = YCSBClient(workload, seed=args.seed)
    trace = client.run(config, cass, duration=args.duration)
    server = trace.server_result
    print(server.summary())
    if args.gc_log:
        with open(args.gc_log, "w") as fh:
            fh.write(format_gc_log(server.gc_log, heap_bytes))
        print(f"GC log written to {args.gc_log}")
    stats = pause_stats(server.gc_log, server.execution_time)
    print(render_table(
        ["#pauses(full)", "avg pause (s)", "total pause (s)", "exec (s)"],
        [stats.row()],
    ))
    for name, sub in (("READ", trace.reads), ("UPDATE", trace.updates)):
        if len(sub.latencies_ms) == 0:
            continue
        bands = latency_band_stats(sub.op_times, sub.latencies_ms, sub.pause_intervals)
        print(render_table(["metric", name], bands.rows(), title=f"{name} latency"))
    return 1 if server.crashed else 0


def report_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-report``: analyse a GC log file."""
    parser = argparse.ArgumentParser(
        prog="repro-report", description="Analyse a repro GC log file."
    )
    parser.add_argument("logfile")
    args = parser.parse_args(argv)
    with open(args.logfile) as fh:
        log = parse_gc_log(fh.read())
    if not log.pauses:
        print("no pauses in log")
        return 0
    end = max(p.end for p in log.pauses)
    stats = pause_stats(log, end)
    print(log.summary())
    print(render_table(
        ["#pauses(full)", "avg pause (s)", "total pause (s)", "span (s)"],
        [stats.row()],
    ))
    return 0


def specjbb_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-specjbb``: warehouse throughput ramp."""
    from .workloads.specjbb import SPECjbbWorkload

    parser = argparse.ArgumentParser(
        prog="repro-specjbb",
        description="SPECjbb-style warehouse throughput ramp.",
    )
    parser.add_argument("-w", "--warehouses", type=int, nargs="*", default=None,
                        help="warehouse counts (default: 1..2x cores ramp)")
    parser.add_argument("-m", "--measure", type=float, default=20.0,
                        help="measurement seconds per point")
    _jvm_args(parser)
    args = parser.parse_args(argv)

    jvm = JVM(_build_config(args))
    result = jvm.run(SPECjbbWorkload(), warehouses=args.warehouses,
                     measurement_seconds=args.measure)
    if result.crashed:
        print(result.summary())
        return 1
    rows = [
        (p.warehouses, round(p.bops), round(p.gc_pause_seconds, 2),
         f"{100 * p.gc_pause_seconds / p.elapsed:.1f}%")
        for p in result.extras["points"]
    ]
    print(render_table(
        ["warehouses", "BOPS", "GC pause (s)", "GC share"],
        rows, title=f"SPECjbb-style ramp [{jvm.config.gc.value}]",
    ))
    print(f"score: {result.extras['score']:.0f} BOPS")
    return 0


def cluster_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-cluster``: the multi-node experiment
    fabric (coordinator, campaign submit, scatter-gather status, store
    merge); the original failure-detector study lives on as the
    ``failures`` subcommand."""
    from .cluster.cli import main

    return main(argv)


def lint_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-lint``: static determinism analysis."""
    from .lint.cli import main

    return main(argv)


def campaign_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-campaign``: cached parallel grid sweeps."""
    from .campaign.cli import main

    return main(argv)


def trace_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-trace``: record/report/export/diff traces."""
    from .telemetry.cli import main

    return main(argv)


def perf_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-perf``: profile the simulator itself."""
    from .perf.cli import main

    return main(argv)


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-serve``: the async experiment service."""
    from .serve.cli import main

    return main(argv)


def fleet_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-fleet``: fleet balancing/scaling studies."""
    from .fleet.cli import main

    return main(argv)


def lbo_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-lbo``: LBO cost-distillation studies."""
    from .analysis.lbo_cli import main

    return main(argv)


def energy_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-energy``: energy/pause Pareto studies."""
    from .energy.cli import main

    return main(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(dacapo_main())
