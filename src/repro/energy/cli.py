"""``repro-energy``: run and report energy/pause Pareto studies.

::

    repro-energy run --gcs ParallelOld CMS G1 \\
        --placements p-cores e-cores adaptive \\
        --topologies asym-hybrid --heap 8g --seeds 1 2 \\
        --store /tmp/energy --out study.json
    repro-energy report study.json

``run`` prints the Pareto table (frontier rows starred) and (with
``--out``) writes the canonical study JSON — byte-identical across
reruns of the same config, which the CI ``study-smoke`` job enforces
with ``cmp``. Cell cache accounting goes to stdout only, never into
the JSON. The scaffold is :class:`~repro.analysis.study.StudyCLI`.
"""

from __future__ import annotations

from ..analysis.study import StudyCLI, add_grid_flags
from .placement import PLACEMENT_NAMES
from .study import EnergyStudyConfig, EnergyStudyResult, run_energy_study

CLI = StudyCLI(
    prog="repro-energy",
    description="energy/pause Pareto study over "
                "{collector x GC placement x topology}",
    add_flags=lambda run: add_grid_flags(
        run, EnergyStudyConfig,
        ("--placements", dict(
            nargs="+", default=list(PLACEMENT_NAMES),
            help="GC placement policies (p-cores, e-cores, adaptive)")),
        ("--topologies", dict(nargs="+", default=["asym-hybrid"],
                              help="registered machine topologies")),
        ("--heap", dict(default="8g",
                        help="heap size (HotSpot size string)"))),
    config=EnergyStudyConfig.from_echo,
    run=run_energy_study,
    result=EnergyStudyResult,
)
main = CLI.main
