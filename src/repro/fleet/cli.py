"""``repro-fleet``: run, report and plot fleet studies.

::

    repro-fleet run --nodes 16 --gcs ParallelOld CMS --store /tmp/fleet \\
        --out study.json
    repro-fleet report study.json
    repro-fleet plot study.json --gc CMS --kind nodes

``run`` prints the comparison tables and (with ``--out``) writes the
canonical study JSON — byte-identical across reruns of the same seed,
which the CI ``study-smoke`` job enforces with ``cmp``. Calibration
cache accounting goes to stdout only, never into the JSON. The
scaffold is :class:`~repro.analysis.study.StudyCLI`; ``plot`` is the
fleet's own.
"""

from __future__ import annotations

import argparse

from ..analysis.study import StudyCLI
from .policies import POLICY_NAMES
from .study import FleetStudyConfig, FleetStudyResult, run_fleet_study
from .traffic import TrafficConfig


def _add_flags(run: argparse.ArgumentParser) -> None:
    run.add_argument("--gcs", nargs="+", default=["ParallelOld", "CMS", "G1"],
                     help="collectors to study")
    run.add_argument("--policies", nargs="+", default=list(POLICY_NAMES),
                     choices=list(POLICY_NAMES),
                     help="balancing policies to compare")
    run.add_argument("--nodes", type=int, default=16,
                     help="initial fleet size")
    run.add_argument("--duration", type=float, default=86_400.0,
                     help="simulated seconds (default: one day)")
    run.add_argument("--period", type=float, default=86_400.0,
                     help="diurnal period in simulated seconds")
    run.add_argument("--users", type=int, default=2_000_000,
                     help="simulated user population")
    run.add_argument("--seed", type=int, default=0, help="study seed")
    run.add_argument("--calibration-duration", type=float, default=3600.0,
                     help="simulated seconds per calibration JVM run")


def _config(flags) -> FleetStudyConfig:
    return FleetStudyConfig(
        gcs=tuple(flags["gcs"]),
        policies=tuple(flags["policies"]),
        n_nodes=flags["nodes"],
        duration=flags["duration"],
        traffic=TrafficConfig(users=flags["users"], period=flags["period"]),
        calibration_duration=flags["calibration_duration"],
        seed=flags["seed"],
    )


def _add_plot(sub, cli: StudyCLI) -> None:
    plot = sub.add_parser("plot", help="ASCII plots from a study JSON")
    plot.add_argument("study", help="study JSON written by `run --out`")
    plot.add_argument("--gc", required=True, help="collector to plot")
    plot.add_argument("--kind", choices=["nodes", "tail"], default="nodes",
                      help="nodes: fleet size over time; tail: P50..P99.9")
    plot.set_defaults(func=lambda args: print(
        getattr(cli.load(args.study), f"plot_{args.kind}")(args.gc)))


CLI = StudyCLI(
    prog="repro-fleet",
    description="GC-aware fleet load balancing and scaling studies",
    add_flags=_add_flags,
    config=_config,
    run=run_fleet_study,
    result=FleetStudyResult,
    cached="calibration",
    extra=_add_plot,
)
main = CLI.main
