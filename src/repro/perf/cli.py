"""The ``repro-perf`` command: profile the simulator itself.

``profile`` runs one DaCapo cell under cProfile and prints where the
host's wall-clock went, alongside engine event rates; ``fastpath``
reports whether the fast path (the lockstep group spans) is active in
this environment (the ``REPRO_FASTPATH`` gate).

Examples::

    repro-perf profile xalan -n 10 --gc CMS --seed 1
    repro-perf profile avrora --gc G1 --top 40 --json -o g1.perf.json
    repro-perf fastpath
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..errors import ReproError
from ..gc.registry import GC_HELP
from ..jvm import JVMConfig
from ..units import parse_size
from ..workloads.dacapo import ALL_BENCHMARKS
from . import fastpath
from .profile import profile_run
from .report import render_text, to_json


def profile_cmd(args) -> int:
    """``repro-perf profile``: cProfile one cell, print the hot spots."""
    from ..heap.tlab import TLABConfig

    config = JVMConfig(
        gc=args.gc,
        heap=parse_size(args.heap),
        young=parse_size(args.young) if args.young else None,
        tlab=TLABConfig(enabled=not args.no_tlab),
        seed=args.seed,
    )
    result = profile_run(
        config, args.benchmark,
        iterations=args.iterations,
        system_gc=not args.no_system_gc,
        top=args.top,
    )
    text = to_json(result) if args.json else render_text(result) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"report written to {args.output}")
    else:
        sys.stdout.write(text)
    return 1 if result.crashed else 0


def fastpath_cmd(args) -> int:
    """``repro-perf fastpath``: print the fast-path gate state."""
    state = "enabled" if fastpath.enabled() else "disabled"
    print(f"fastpath: {state} (REPRO_FASTPATH)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-perf",
        description="Profile the simulator: hot spots and event rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="cProfile one DaCapo cell")
    p.add_argument("benchmark", choices=ALL_BENCHMARKS)
    p.add_argument("-n", "--iterations", type=int, default=10)
    p.add_argument("--gc", default="ParallelOld",
                   help=f"collector: {GC_HELP}")
    p.add_argument("--heap", default="16g", help="heap size (-Xmx/-Xms)")
    p.add_argument("--young", default=None, help="young size (-Xmn)")
    p.add_argument("--no-tlab", action="store_true", help="disable TLABs")
    p.add_argument("--seed", type=int, default=0, help="simulation seed")
    p.add_argument("--no-system-gc", action="store_true",
                   help="disable the forced full GC between iterations")
    p.add_argument("--top", type=int, default=25,
                   help="hot functions to keep (default 25)")
    p.add_argument("--json", action="store_true",
                   help="emit the JSON report instead of text")
    p.add_argument("-o", "--output", default=None,
                   help="write the report to a file instead of stdout")
    p.set_defaults(fn=profile_cmd)

    p = sub.add_parser("fastpath", help="show the REPRO_FASTPATH gate state")
    p.set_defaults(fn=fastpath_cmd)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
