"""``repro-lbo``: run and report LBO cost-distillation studies.

::

    repro-lbo run --benchmarks xalan --gcs ParallelOld ZGC \\
        --heaps 8g 16g 32g --seeds 1 2 3 --store /tmp/lbo --out study.json
    repro-lbo report study.json

``run`` prints the distilled-cost table and (with ``--out``) writes the
canonical study JSON — byte-identical across reruns of the same config,
which the CI ``study-smoke`` job enforces with ``cmp``. Cell cache
accounting goes to stdout only, never into the JSON. The scaffold is
:class:`~repro.analysis.study.StudyCLI`.
"""

from __future__ import annotations

import sys

from .lbo import LBOConfig, LBOStudyResult, run_lbo_study
from .study import StudyCLI, add_grid_flags

CLI = StudyCLI(
    prog="repro-lbo",
    description="LBO cost distillation: min-over-heaps GC overhead "
                "vs an ideal no-GC baseline (EpsilonGC, implicit)",
    add_flags=lambda run: add_grid_flags(run, LBOConfig, (
        "--heaps", dict(nargs="+", default=["8g", "16g", "32g"],
                        help="heap-size ladder (HotSpot size strings)"))),
    config=LBOConfig.from_echo,
    run=run_lbo_study,
    result=LBOStudyResult,
)
main = CLI.main

if __name__ == "__main__":
    sys.exit(main())
