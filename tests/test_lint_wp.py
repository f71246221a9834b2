"""Tests for the simlint v2 whole-program pass: call graph, taint,
the SL1xx rules against the seeded fixture project, caching, and the
SARIF output contract."""

import ast
import json
import pathlib
import shutil

import pytest

from repro.lint import (
    ProjectContext,
    TaintAnalysis,
    default_wp_rules,
    run_lint,
)
from repro.lint.graph import build_import_map, module_name_for
from repro.lint.rules import WallClockRule
from repro.lint.rules_wp import WP_RULES_BY_ID
from repro.lint.sarif import to_sarif, validate
from repro.lint.taint import SOURCES, SOURCE_PREFIXES

FIX = pathlib.Path(__file__).parent / "fixtures" / "lint_wp"
REPO_SRC = pathlib.Path(__file__).parent.parent / "src"


def build_project(root=FIX, cache_dir=None):
    sources = {}
    for p in sorted(root.rglob("*.py")):
        text = p.read_text(encoding="utf-8")
        sources[str(p)] = (text, ast.parse(text))
    return ProjectContext.build(sources, roots=[str(root)],
                                cache_dir=cache_dir)


def wp_result(root=FIX, **kwargs):
    return run_lint([str(root)], default_wp_rules(), **kwargs)


def findings_for(rule_id, result=None):
    result = result if result is not None else wp_result()
    return [f for f in result.findings if f.rule_id == rule_id]


# ----------------------------------------------------------------------
# Graph construction
# ----------------------------------------------------------------------


class TestGraph:
    def test_module_naming_drops_src_and_init(self):
        assert module_name_for("src/repro/sim/engine.py", ["src"]) == \
            "repro.sim.engine"
        assert module_name_for("src/repro/gc/__init__.py", ["src"]) == \
            "repro.gc"

    def test_relative_imports_resolve(self):
        tree = ast.parse("from ..util.indirect import hop\n")
        imports = build_import_map(tree, "proj.sim.engine_bad")
        assert imports["hop"] == "proj.util.indirect.hop"

    def test_cross_module_call_edges_resolve(self):
        proj = build_project()
        tick = next(f for q, f in proj.functions.items()
                    if q.endswith("engine_bad.tick"))
        resolved = {c.resolved for c in tick.calls if c.resolved}
        assert any(r.endswith("indirect.hop") for r in resolved)

    def test_alias_call_carries_source_alt_name(self):
        proj = build_project()
        stamp = next(f for q, f in proj.functions.items()
                     if q.endswith("clockutil.stamp"))
        alts = {a for c in stamp.calls for a in c.alt_names}
        assert "time.time" in alts

    def test_find_path_is_deterministic(self):
        proj = build_project()
        tick = next(q for q in proj.functions if q.endswith("engine_bad.tick"))
        chains = [proj.find_path(
            tick, lambda s: "time.time" in (s.name,) + tuple(s.alt_names))
            for _ in range(3)]
        rendered = [[(c.name, c.lineno) for c in chain] for chain in chains]
        assert rendered[0] == rendered[1] == rendered[2]


# ----------------------------------------------------------------------
# The rules against the fixture project
# ----------------------------------------------------------------------


class TestSL101:
    def test_flags_transitive_and_direct_blocking(self):
        found = findings_for("SL101")
        by_line = {(pathlib.PurePath(f.path).name, f.line) for f in found}
        assert ("service_bad.py", 19) in by_line     # handler -> write_log -> open
        assert ("service_bad.py", 23) in by_line     # nap -> time.sleep
        # The executor-offloading twin stays clean.
        assert not any("service_ok" in f.path for f in found)

    def test_related_location_is_the_blocking_terminal(self):
        handler = next(f for f in findings_for("SL101") if f.line == 19)
        assert handler.related_path.endswith("service_bad.py")
        assert handler.related_line == 14            # the open() in write_log

    def test_message_names_the_route(self):
        handler = next(f for f in findings_for("SL101") if f.line == 19)
        assert "write_log" in handler.message
        assert "open" in handler.message


class TestSL102:
    def test_catches_two_hop_wallclock_leak(self):
        found = findings_for("SL102")
        assert len(found) == 1
        f = found[0]
        assert f.path.endswith("engine_bad.py")
        # The full route is spelled out: ≥2 intermediate project calls.
        assert "hop" in f.message and "stamp" in f.message
        assert "time.time" in f.message
        assert f.related_path.endswith("clockutil.py")

    def test_injected_clock_stays_clean(self):
        assert not any("engine_ok" in f.path for f in findings_for("SL102"))

    def test_sources_match_sl001(self):
        # The taint source set is SL001's forbidden set — if one grows,
        # the other must too, or indirect leaks of the new source pass.
        assert SOURCES == WallClockRule.FORBIDDEN
        assert set(SOURCE_PREFIXES).issubset(WallClockRule.FORBIDDEN_PREFIXES)

    def test_direct_reads_are_not_duplicated(self):
        # stamp() reads the clock directly; that is SL001's finding, and
        # SL102 (min_hops=1) must not re-report it.
        assert not any("clockutil" in f.path for f in findings_for("SL102"))

    def test_taint_analysis_witness_api(self):
        proj = build_project()
        taint = TaintAnalysis(proj)
        tick = next(q for q in proj.functions if q.endswith("engine_bad.tick"))
        w = taint.witness(tick, min_hops=1)
        assert w is not None
        assert w.source == "time.time"
        assert w.hops == 3
        assert w.describe().endswith("time.time")


class TestSL103:
    def test_flags_unlocked_store_write(self):
        found = findings_for("SL103")
        assert len(found) == 1
        assert found[0].path.endswith("store_bad.py")
        assert "append_unlocked" in found[0].message

    def test_compliant_shapes_stay_clean(self):
        # Lexical lock, caller-holds-lock, and the locked() method
        # itself: all exempt.
        assert not any("store_ok" in f.path for f in findings_for("SL103"))


class TestSL104:
    def test_flags_bare_and_dangling_spawns(self):
        found = findings_for("SL104")
        lines = {f.line for f in found}
        assert lines == {31, 35}
        messages = " ".join(f.message for f in found)
        assert "discarded" in messages
        assert "never-read local" in messages

    def test_tracked_task_stays_clean(self):
        assert not any("service_ok" in f.path for f in findings_for("SL104"))


class TestSL105:
    def test_flags_live_exception_crossing_pool(self):
        found = findings_for("SL105")
        assert len(found) == 1
        f = found[0]
        assert f.path.endswith("exec_bad.py")
        assert "BaseException" in f.message
        # Related location anchors the offending field declaration.
        assert f.related_path.endswith("exec_bad.py")

    def test_getstate_takes_over_serialization(self):
        assert not any("exec_ok" in f.path for f in findings_for("SL105"))

    def test_repo_cellfailure_passes(self):
        # The real CellFailure carries exc: Optional[BaseException] but
        # defines __getstate__ — the exemplar the rule exists to bless.
        result = run_lint([str(REPO_SRC)], default_wp_rules())
        assert not [f for f in result.findings if f.rule_id == "SL105"]


# ----------------------------------------------------------------------
# Driver properties: suppression ends, determinism, parallel, cache
# ----------------------------------------------------------------------


class TestWpDriver:
    def test_rule_registry(self):
        assert set(WP_RULES_BY_ID) == {
            "SL101", "SL102", "SL103", "SL104", "SL105"}

    def test_findings_are_deterministic(self):
        a = [f.format() for f in wp_result().findings]
        b = [f.format() for f in wp_result().findings]
        assert a == b

    def test_parallelism_does_not_change_output(self):
        serial = [f.format() for f in wp_result(jobs=1).findings]
        threaded = [f.format() for f in wp_result(jobs=8).findings]
        assert serial == threaded

    def test_suppression_at_source_line_silences(self, tmp_path):
        root = tmp_path / "proj"
        shutil.copytree(FIX / "proj", root)
        bad = root / "sim" / "engine_bad.py"
        bad.write_text(bad.read_text().replace(
            "return state + hop()",
            "return state + hop()  # simlint: disable=SL102 -- replay tool"))
        result = run_lint([str(tmp_path)], default_wp_rules())
        assert not [f for f in result.findings if f.rule_id == "SL102"]
        assert any(f.rule_id == "SL102" for f in result.suppressed)

    def test_suppression_at_sink_line_silences(self, tmp_path):
        root = tmp_path / "proj"
        shutil.copytree(FIX / "proj", root)
        clock = root / "util" / "clockutil.py"
        clock.write_text(clock.read_text().replace(
            "    return WALL()",
            "    return WALL()  # simlint: disable=SL102 -- calibration source"))
        result = run_lint([str(tmp_path)], default_wp_rules())
        assert not [f for f in result.findings if f.rule_id == "SL102"]
        assert any(f.rule_id == "SL102" for f in result.suppressed)

    def test_ast_cache_round_trip(self, tmp_path):
        cache = tmp_path / "cache"
        first = wp_result(cache_dir=str(cache))
        cached_files = list(cache.glob("*.json"))
        assert cached_files, "cache directory not populated"
        second = wp_result(cache_dir=str(cache))
        assert [f.format() for f in first.findings] == \
            [f.format() for f in second.findings]

    def test_stale_ir_version_is_ignored(self, tmp_path):
        cache = tmp_path / "cache"
        wp_result(cache_dir=str(cache))
        for p in cache.glob("*.json"):
            doc = json.loads(p.read_text())
            doc["_ir"] = -1
            p.write_text(json.dumps(doc))
        # Poisoned entries are re-extracted, not trusted.
        result = wp_result(cache_dir=str(cache))
        assert findings_for("SL102", result)


# ----------------------------------------------------------------------
# SARIF output
# ----------------------------------------------------------------------


class TestSarif:
    def test_document_validates_against_schema_subset(self):
        result = wp_result()
        doc = to_sarif(result, default_wp_rules())
        assert validate(doc) == []
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]

    def test_results_carry_locations_and_related(self):
        doc = to_sarif(wp_result(), default_wp_rules())
        results = doc["runs"][0]["results"]
        assert len(results) >= 6
        sl102 = next(r for r in results if r["ruleId"] == "SL102")
        loc = sl102["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("engine_bad.py")
        assert sl102["relatedLocations"][0]["physicalLocation"][
            "artifactLocation"]["uri"].endswith("clockutil.py")

    def test_driver_lists_every_rule(self):
        doc = to_sarif(wp_result(), default_wp_rules())
        ids = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert {"SL101", "SL102", "SL103", "SL104", "SL105"} <= ids

    def test_baselined_findings_marked_unchanged(self, tmp_path):
        from repro.lint import assign_keys
        first = wp_result()
        keys = {key for _, key in assign_keys(first.findings)}
        second = wp_result(baseline=keys)
        assert not second.findings and second.baselined
        doc = to_sarif(second, default_wp_rules())
        states = {r.get("baselineState") for r in doc["runs"][0]["results"]}
        assert states == {"unchanged"}
        assert validate(doc) == []

    def test_validator_rejects_broken_documents(self):
        assert validate({"runs": []})           # missing version
        assert validate({"version": "2.0.0", "runs": []})   # bad enum
        assert validate({"version": "2.1.0",
                         "runs": [{"tool": {}}]})           # missing driver
