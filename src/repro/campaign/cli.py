"""The ``repro-campaign`` command: run / status / resume / clean.

``run`` executes a grid campaign (and is implicitly resumable: cells
already in the store are cache hits); ``resume`` re-runs the spec
recorded in a store's manifest without re-typing the axes; ``status``
inspects a store; ``clean`` clears records.

Examples::

    repro-campaign run --name smoke --store /tmp/camp \\
        --benchmarks lusearch batik --gcs Serial ParallelOld \\
        --heaps 1g --youngs 256m --seeds 0 1 --iterations 3 \\
        --executor process --workers 4 --progress
    repro-campaign status --store /tmp/camp
    repro-campaign resume --store /tmp/camp --workers 2
    repro-campaign clean --store /tmp/camp --failures-only

``status`` and ``clean`` read the store only; the runner, executors and
grid expansion load when ``run`` or ``resume`` needs them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, List, Optional

from ..analysis.report import render_campaign_summary, render_table
from ..errors import ConfigError, ReproError
from ..gc.registry import GC_HELP
from .store import ResultStore, store_status

if TYPE_CHECKING:
    from .runner import CampaignResult
    from .spec import CampaignSpec


def _add_grid_args(parser: argparse.ArgumentParser) -> None:
    grid = parser.add_argument_group("grid axes")
    grid.add_argument("--benchmarks", nargs="+", required=True,
                      help="DaCapo benchmark names")
    grid.add_argument("--gcs", nargs="+", default=["ParallelOld"],
                      help=f"collectors ({GC_HELP})")
    grid.add_argument("--heaps", nargs="+", default=["16g"],
                      help="heap sizes (-Xmx), e.g. 16g 64g")
    grid.add_argument("--youngs", nargs="+", default=None,
                      help="young sizes (-Xmn); omit for the default fraction")
    grid.add_argument("--seeds", nargs="+", type=int, default=[0],
                      help="simulation seeds")
    grid.add_argument("--iterations", type=int, default=10,
                      help="DaCapo iterations per cell")
    grid.add_argument("--no-system-gc", action="store_true",
                      help="disable the forced full GC between iterations")
    grid.add_argument("--no-tlab", action="store_true", help="disable TLABs")


def _add_exec_args(parser: argparse.ArgumentParser) -> None:
    ex = parser.add_argument_group("execution")
    ex.add_argument("--executor", choices=["serial", "process"], default="process",
                    help="where cells run (default: process fan-out)")
    ex.add_argument("--workers", type=int, default=None,
                    help="process-pool size (default: one per core)")
    ex.add_argument("--timeout", type=float, default=None,
                    help="per-cell wall-clock budget in seconds")
    ex.add_argument("--retries", type=int, default=2,
                    help="retries before a failing cell is quarantined")
    ex.add_argument("--progress", action="store_true",
                    help="live progress (done/cached/failed, ETA) on stderr")
    ex.add_argument("--csv", default=None, help="export all cells to a CSV file")
    ex.add_argument("--trace-dir", default=None, metavar="DIR",
                    help="write one telemetry trace per simulated cell to "
                         "DIR/<digest>.trace.jsonl (compare cells with "
                         "`repro-trace diff`)")


def _spec_from_args(args) -> CampaignSpec:
    from ..studies import GridSpec
    from .spec import CampaignSpec

    grid = GridSpec(
        benchmarks=args.benchmarks,
        gcs=args.gcs,
        heaps=args.heaps,
        youngs=args.youngs if args.youngs is not None else [None],
        seeds=args.seeds,
        iterations=args.iterations,
        system_gc=not args.no_system_gc,
        tlab_enabled=not args.no_tlab,
    )
    return CampaignSpec(name=args.name, grids=[grid])


def _execute(spec: CampaignSpec, args, store: Optional[ResultStore]) -> int:
    from .progress import ProgressReporter
    from .runner import run_campaign

    reporter = ProgressReporter(spec.size) if args.progress else None
    result = run_campaign(
        spec, store=store, executor=args.executor, workers=args.workers,
        timeout=args.timeout, retries=args.retries, reporter=reporter,
        trace_dir=args.trace_dir,
    )
    _report(result, csv_path=args.csv)
    return 1 if result.stats.quarantined else 0


def _report(result: CampaignResult, csv_path: Optional[str] = None) -> None:
    print(render_campaign_summary(result))
    for failure in result.quarantined:
        print(f"quarantined: {failure.format()}")
    if csv_path:
        result.to_csv(csv_path)
        print(f"results exported to {csv_path}")


def _existing_store(path: str) -> ResultStore:
    """The store at *path*: ``status``, ``clean`` and ``resume`` read or
    change a store that exists, and never create one."""
    if not os.path.isdir(path):
        what = "is not a directory" if os.path.exists(path) else "does not exist"
        raise ConfigError(f"store {path} {what}")
    return ResultStore(path)


def run_cmd(args) -> int:
    """``repro-campaign run``: execute (or resume) a campaign."""
    spec = _spec_from_args(args)
    store = ResultStore(args.store) if args.store else None
    return _execute(spec, args, store)


def resume_cmd(args) -> int:
    """``repro-campaign resume``: re-run the spec recorded in the store."""
    from .spec import CampaignSpec

    store = _existing_store(args.store)
    campaigns = store.read_manifest().get("campaigns", [])
    if not campaigns:
        print(f"no campaign recorded in {store.root}; run `repro-campaign run` first",
              file=sys.stderr)
        return 2
    entry = campaigns[-1]
    if args.name is not None:
        matches = [c for c in campaigns if c["name"] == args.name]
        if not matches:
            known = ", ".join(sorted({c["name"] for c in campaigns}))
            print(f"no campaign named {args.name!r} in {store.root} (known: {known})",
                  file=sys.stderr)
            return 2
        entry = matches[-1]
    spec = CampaignSpec.from_dict(entry["spec"])
    print(f"resuming campaign {spec.name!r} ({spec.size} cells) from {store.root}")
    return _execute(spec, args, store)


def status_cmd(args) -> int:
    """``repro-campaign status``: inspect a store.

    Text by default; ``--json`` emits the :func:`store_status` schema the
    ``repro-serve`` status endpoint shares, so CI and service tooling
    parse one format.
    """
    status = store_status(_existing_store(args.store))
    if getattr(args, "json", False):
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    print(f"store {status['root']}: {status['records']} records "
          f"({status['ok']} ok, {status['failed']} failed)")
    if status["quarantined_lines"]:
        print(f"quarantined {status['quarantined_lines']} corrupt record line(s)")
    if status["campaigns"]:
        rows = [[c["name"], c["cells"], c["ok"], c["failed"], c["missing"]]
                for c in status["campaigns"]]
        print(render_table(["campaign", "cells", "ok", "failed", "missing"], rows))
    else:
        print("no campaigns recorded in the manifest")
    return 0


def clean_cmd(args) -> int:
    """``repro-campaign clean``: drop failure records, or everything."""
    store = _existing_store(args.store)
    if args.failures_only:
        n = store.drop_failures()
        print(f"dropped {n} failure record(s) from {store.root}")
    else:
        n = store.clear()
        print(f"dropped all {n} record(s) from {store.root}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-campaign``."""
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Parallel, cached, resumable experiment-campaign runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run (or resume) a campaign")
    p_run.add_argument("--name", default="campaign", help="campaign name")
    p_run.add_argument("--store", default=None,
                       help="result-store directory (omit for an uncached run)")
    _add_grid_args(p_run)
    _add_exec_args(p_run)
    p_run.set_defaults(fn=run_cmd)

    p_resume = sub.add_parser("resume",
                              help="re-run the campaign recorded in a store")
    p_resume.add_argument("--store", required=True)
    p_resume.add_argument("--name", default=None,
                          help="campaign name (default: most recent entry)")
    _add_exec_args(p_resume)
    p_resume.set_defaults(fn=resume_cmd)

    p_status = sub.add_parser("status", help="inspect a result store")
    p_status.add_argument("--store", required=True)
    p_status.add_argument("--json", action="store_true",
                          help="machine-readable store/campaign stats "
                               "(same schema as the repro-serve status "
                               "endpoint's `store` section)")
    p_status.set_defaults(fn=status_cmd)

    p_clean = sub.add_parser("clean", help="drop records from a store")
    p_clean.add_argument("--store", required=True)
    p_clean.add_argument("--failures-only", action="store_true",
                         help="only drop failure records (so they retry)")
    p_clean.set_defaults(fn=clean_cmd)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout consumer went away (e.g. `... | head`); not an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
