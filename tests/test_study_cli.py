"""The study CLIs end to end, each on exactly its CI ``study-smoke`` recipe.

``repro-lbo``, ``repro-energy`` and ``repro-fleet`` run their recipe
twice against one store: the first run is all misses, the second all
hits, and the two study JSONs are byte-identical, reload to the same
bytes, and hash to the digest recorded for the recipe. ``report``
prints the table ``run`` printed, and a refused config exits 2 with
``error:`` on stdout before it runs anything.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from typing import NamedTuple

import pytest

import repro
from repro.analysis.lbo import LBOStudyResult
from repro.analysis.lbo_cli import main as lbo_main
from repro.energy.cli import main as energy_main
from repro.energy.study import EnergyStudyResult
from repro.fleet.cli import main as fleet_main
from repro.fleet.study import FleetStudyResult
from tests.test_golden_stress import pinned_interpreter


class Recipe(NamedTuple):
    main: object
    result: type
    cached: str     #: what the cache line counts
    cells: int
    run: list       #: the recipe's ``run`` flags, without --store/--out
    sha256: str     #: of the study JSON
    extra: list     #: the recipe's other subcommands, on study1.json


RECIPES = {
    "fleet": Recipe(
        fleet_main, FleetStudyResult, "calibration", 2,
        ["--gcs", "ParallelOld", "CMS", "--policies", "round-robin", "monk",
         "--nodes", "8", "--duration", "3600", "--period", "3600",
         "--users", "300000", "--calibration-duration", "900", "--seed", "7"],
        "1addce6bb6e606d218679ef7abbb9420da79bdaa7d886b576d693c72faaccc78",
        [["plot", "--gc", "CMS", "--kind", "nodes"],
         ["plot", "--gc", "ParallelOld", "--kind", "tail"]]),
    "lbo": Recipe(
        lbo_main, LBOStudyResult, "cells", 18,
        ["--benchmarks", "xalan", "--gcs", "ParallelOld", "ZGC",
         "--heaps", "4g", "8g", "16g", "--seeds", "1", "2",
         "--iterations", "4"],
        "f6756591ca3a6eb148f760d599dd4075939309c46ac94153d8ea1e0db4e9daaa",
        []),
    "energy": Recipe(
        energy_main, EnergyStudyResult, "cells", 18,
        ["--benchmarks", "xalan", "--gcs", "ParallelOld", "CMS", "G1",
         "--placements", "p-cores", "e-cores", "adaptive",
         "--topologies", "asym-hybrid", "--heap", "8g", "--seeds", "1", "2",
         "--iterations", "4"],
        "22b11d9ce94f1827c18c251da1eb825abfbb3759581b97344258dcbb8d2b2f51",
        []),
}


def drive(main, argv):
    """``(exit code, stdout)`` of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module", params=sorted(RECIPES))
def smoke(request, tmp_path_factory):
    """The recipe run cold then warm against one store."""
    recipe = RECIPES[request.param]
    root = tmp_path_factory.mktemp(request.param)
    runs = []
    for name in ("study1.json", "study2.json"):
        argv = ["run", *recipe.run, "--store", str(root / "store"),
                "--out", str(root / name)]
        runs.append(drive(recipe.main, argv))
    return recipe, root, runs


class TestRecipe:
    def test_cold_then_warm_cache_line(self, smoke):
        recipe, _root, runs = smoke
        assert [code for code, _out in runs] == [0, 0]
        assert [out.splitlines()[0] for _code, out in runs] == [
            f"{recipe.cached}: 0/{recipe.cells} cache hits",
            f"{recipe.cached}: {recipe.cells}/{recipe.cells} cache hits"]

    def test_rerun_json_is_byte_identical(self, smoke):
        _recipe, root, _runs = smoke
        assert (root / "study1.json").read_bytes() == \
            (root / "study2.json").read_bytes()

    @pinned_interpreter
    def test_json_matches_pin(self, smoke):
        recipe, root, _runs = smoke
        data = (root / "study1.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == recipe.sha256

    def test_json_round_trip(self, smoke):
        """``report`` reloads the JSON it renders: the reloaded study
        must write the same bytes, or its derived figures drifted."""
        recipe, root, _runs = smoke
        text = (root / "study1.json").read_text()
        assert recipe.result.from_dict(json.loads(text)).to_json() == text

    def test_report_prints_the_run_table(self, smoke):
        recipe, root, runs = smoke
        code, out = drive(recipe.main, ["report", str(root / "study1.json")])
        assert code == 0
        # run prints the cache line, the table, then where it wrote.
        assert out.splitlines() == runs[0][1].splitlines()[1:-1]

    def test_other_subcommands(self, smoke):
        recipe, root, _runs = smoke
        for command, *flags in recipe.extra:
            code, out = drive(recipe.main,
                              [command, str(root / "study1.json"), *flags])
            assert code == 0 and out


def with_flag(study, flag, *values):
    """The recipe's ``run`` flags with *flag* given *values*."""
    argv = list(RECIPES[study].run)
    i = argv.index(flag)
    j = i + 1
    while j < len(argv) and not argv[j].startswith("--"):
        j += 1
    return [study, ["run", *argv[:i], flag, *values, *argv[j:]]]


@pytest.mark.parametrize("study,argv", [
    with_flag("lbo", "--gcs", "ZGC", "zgc"),
    with_flag("lbo", "--heaps", "4g", "4096m"),
    with_flag("lbo", "--seeds", "1", "1"),
    with_flag("lbo", "--gcs", "EpsilonGC"),
    with_flag("lbo", "--iterations", "0"),
    with_flag("energy", "--placements", "p-cores", "p-cores", "e-cores"),
    with_flag("energy", "--benchmarks", "xalan", "xalan"),
    with_flag("energy", "--topologies", "nope"),
    with_flag("fleet", "--gcs", "CMS", "ConcMarkSweepGC"),
    with_flag("fleet", "--policies", "monk", "monk"),
    with_flag("fleet", "--nodes", "0"),
], ids=["lbo-gc-twice", "lbo-heap-twice", "lbo-seed-twice", "lbo-ideal-gc",
        "lbo-no-iterations", "energy-placement-twice",
        "energy-benchmark-twice", "energy-unknown-topology",
        "fleet-gc-twice", "fleet-policy-twice", "fleet-no-nodes"])
def test_refused_config_exits_2(study, argv, tmp_path):
    store = tmp_path / "store"
    code, out = drive(RECIPES[study].main, argv + ["--store", str(store)])
    assert code == 2
    assert out.startswith("error: ") and out.count("\n") == 1
    assert not store.exists()


def test_lbo_cli_runs_as_a_module(tmp_path):
    """``python -m repro.analysis.lbo_cli`` runs the CLI, as
    ``python -m repro.energy`` and ``python -m repro.fleet`` do."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = tmp_path / "study.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lbo_cli", "run",
         "--gcs", "ParallelOld", "--heaps", "1g", "--seeds", "1",
         "--iterations", "2", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["ranking"] == ["ParallelOldGC"]
