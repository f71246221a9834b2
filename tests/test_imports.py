"""Start-up weight: each command imports only what it runs.

Package exports resolve on first use (``repro._lazy``), so the lint
command and the service clients start without numpy, scipy or the
simulator. Each light path runs in a fresh interpreter, since this
process has long since imported everything.
"""

import ast
import importlib
import json
import os
import pathlib
import socket
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent.parent
ROOT = SRC.parent

#: What a light path must leave unloaded.
HEAVY = ("numpy", "scipy")

#: Run in a fresh interpreter; prints the exit code (or None) and which
#: heavy modules got loaded.
_PROBE = """
import json, sys
code = None
{body}
print(json.dumps({{"code": code,
                   "loaded": sorted(m for m in {heavy!r} if m in sys.modules)}}))
"""


def probe(body: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(body=body, heavy=HEAVY)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestLightPaths:
    def test_lint_and_client_imports(self):
        out = probe("import repro.lint.cli, repro.serve.client")
        assert out["loaded"] == []

    def test_gc_name_table_without_collectors(self):
        out = probe("from repro.gc.registry import GC_HELP, GCType, resolve_gc\n"
                    "assert resolve_gc('g1') is GCType.G1\n"
                    "code = int('repro.gc.base' in sys.modules)")
        assert out == {"code": 0, "loaded": []}

    def test_lint_run_over_src(self):
        out = probe("from repro.cli import lint_main\n"
                    "code = lint_main(['src'])")
        assert out == {"code": 0, "loaded": []}

    @pytest.mark.parametrize("command", ["serve", "cluster"])
    def test_status_against_a_dead_socket(self, tmp_path, command):
        # Bound but never listening: the client is refused, exit 2.
        path = str(tmp_path / "dead.sock")
        with socket.socket(socket.AF_UNIX) as sock:
            sock.bind(path)
            out = probe(f"from repro.cli import {command}_main\n"
                        f"code = {command}_main(['status', '--socket', {path!r}])")
        assert out == {"code": 2, "loaded": []}


def lazy_packages() -> dict:
    """Package name -> {submodule: names} for every ``__init__`` that
    declares its exports through ``lazy_exports``."""
    found = {}
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        for node in ast.walk(ast.parse(init.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", "") == "lazy_exports"):
                package = ".".join(init.parent.relative_to(SRC).parts)
                found[package] = ast.literal_eval(node.args[1])
    return found


LAZY = lazy_packages()


def test_every_package_is_lazy():
    assert {"repro", "repro.analysis", "repro.campaign", "repro.cassandra",
            "repro.cluster", "repro.energy", "repro.fleet", "repro.gc",
            "repro.lint", "repro.serve", "repro.telemetry",
            "repro.ycsb"} <= set(LAZY)


@pytest.mark.parametrize("package", sorted(LAZY))
def test_exports_resolve_to_their_definitions(package):
    pkg = importlib.import_module(package)
    declared = {name: module for module, names in LAZY[package].items()
                for name in names}
    extra = {"__version__"} if package == "repro" else set()
    assert set(pkg.__all__) == set(declared) | extra
    assert len(pkg.__all__) == len(set(pkg.__all__))
    listed = dir(pkg)
    for name, module in declared.items():
        defined = getattr(importlib.import_module(module, package), name)
        assert pkg.__getattr__(name) is defined, name
        assert getattr(pkg, name) is defined, name
        assert name in listed, name
    assert not hasattr(pkg, "no_such_export")
