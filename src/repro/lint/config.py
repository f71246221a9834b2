"""``[tool.simlint]`` configuration loaded from ``pyproject.toml``.

The table makes lint *scope* a reviewed, committed decision instead of a
CLI habit::

    [tool.simlint]
    paths = ["src", "benchmarks", "examples", "tests"]
    exclude = ["tests/lint_fixtures", "tests/fixtures"]
    wp_paths = ["src"]
    wp_core = ["sim", "gc", "jvm", "fleet"]
    wp_async = ["serve", "cluster"]

    [tool.simlint.profiles]
    tests = ["SL001", "SL002"]

* ``paths`` — default lint targets when the CLI gets none;
* ``exclude`` — directory prefixes never linted (rule-violating test
  fixtures live here on purpose);
* ``wp_paths`` — the file set the whole-program SL1xx pass builds its
  call graph from (the deterministic core + service layers; test code
  does not belong in the production call graph);
* ``wp_core`` — package names forming the deterministic core for the
  SL102 taint rule (empty list keeps the rule's built-in default);
* ``wp_async`` — package names whose ``async def`` functions own an
  event loop, scoping the SL101 blocking-call and SL104 fire-and-forget
  rules (empty list keeps the rules' built-in ``serve`` default);
* ``profiles`` — per-directory rule subsets: ``tests`` runs only the
  determinism-critical SL001/SL002 (fixed seeds and no entropy matter in
  tests too; pause-accounting or flag-literal rules do not).

Parsed with :mod:`tomllib` (3.11+) or ``tomli`` when available; on older
interpreters a minimal built-in reader handles exactly the subset above
(string and string-list values), so the lint frontend never gains a hard
dependency.
"""

from __future__ import annotations

import pathlib
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set


def _parse_toml(text: str) -> dict:
    """Parse TOML text, degrading to a tiny built-in subset reader."""
    try:
        import tomllib
        return tomllib.loads(text)
    except ImportError:
        pass
    try:
        import tomli
        return tomli.loads(text)
    except ImportError:
        pass
    return _mini_toml(text)


_SECTION_RE = re.compile(r"^\[(?P<name>[^\]]+)\]\s*$")
_KV_RE = re.compile(r"^(?P<key>[\w\".-]+)\s*=\s*(?P<value>.+?)\s*$")
_STR_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')


def _mini_toml(text: str) -> dict:
    """Just enough TOML for ``[tool.simlint]``: sections, strings,
    string arrays. Multi-line arrays are joined before parsing."""
    root: dict = {}
    section = root
    pending = ""
    for raw in text.splitlines():
        line = raw.strip()
        if pending:
            line = pending + " " + line
            pending = ""
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            section = root
            for part in m.group("name").strip().split("."):
                part = part.strip().strip('"')
                section = section.setdefault(part, {})
            continue
        if line.count("[") > line.count("]"):
            pending = line
            continue
        kv = _KV_RE.match(line)
        if not kv:
            continue
        key = kv.group("key").strip('"')
        value = kv.group("value")
        if value.startswith("["):
            section[key] = _STR_RE.findall(value)
        elif value.startswith('"'):
            m2 = _STR_RE.match(value)
            section[key] = m2.group(1) if m2 else value.strip('"')
        elif value in ("true", "false"):
            section[key] = value == "true"
        else:
            try:
                section[key] = int(value)
            except ValueError:
                section[key] = value
    return root


@dataclass
class LintConfig:
    """Resolved ``[tool.simlint]`` settings."""

    #: Directory the pyproject.toml lives in ('' when built ad hoc).
    root: str = ""
    paths: List[str] = field(default_factory=list)
    exclude: List[str] = field(default_factory=list)
    wp_paths: List[str] = field(default_factory=list)
    #: deterministic-core package names for SL102 ([] = rule default).
    wp_core: List[str] = field(default_factory=list)
    #: event-loop-owning package names for SL101/SL104 ([] = default).
    wp_async: List[str] = field(default_factory=list)
    #: directory prefix → allowed rule ids.
    profiles: Dict[str, List[str]] = field(default_factory=dict)

    @classmethod
    def load(cls, start=None) -> Optional["LintConfig"]:
        """Find and parse ``pyproject.toml`` from *start* (default: cwd)
        upwards; None when no file or no ``[tool.simlint]`` table."""
        here = pathlib.Path(start) if start is not None else pathlib.Path.cwd()
        if here.is_file():
            candidates = [here]
        else:
            candidates = [d / "pyproject.toml" for d in (here, *here.parents)]
        for candidate in candidates:
            if candidate.exists():
                return cls.from_pyproject(candidate)
        return None

    @classmethod
    def from_pyproject(cls, path) -> Optional["LintConfig"]:
        p = pathlib.Path(path)
        try:
            data = _parse_toml(p.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        table = data.get("tool", {}).get("simlint")
        if not isinstance(table, dict):
            return None
        return cls(
            root=str(p.parent),
            paths=[str(x) for x in table.get("paths", [])],
            exclude=[str(x) for x in table.get("exclude", [])],
            wp_paths=[str(x) for x in table.get("wp_paths", [])],
            wp_core=[str(x) for x in table.get("wp_core", [])],
            wp_async=[str(x) for x in table.get("wp_async", [])],
            profiles={k: [str(r).upper() for r in v]
                      for k, v in table.get("profiles", {}).items()
                      if isinstance(v, (list, tuple))},
        )

    # -- queries ---------------------------------------------------------

    @staticmethod
    def _under(path: str, prefix: str) -> bool:
        p = pathlib.PurePath(path).as_posix()
        prefix = prefix.rstrip("/")
        return (p == prefix or p.startswith(prefix + "/")
                or f"/{prefix}/" in f"/{p}")

    def profile_for(self, path) -> Optional[Set[str]]:
        """Rule-id subset for *path*, or None for the full rule set.

        The longest matching profile prefix wins (so ``tests/perf`` can
        override ``tests``).
        """
        p = pathlib.PurePath(path).as_posix()
        best: Optional[str] = None
        for prefix in self.profiles:
            if self._under(p, prefix):
                if best is None or len(prefix) > len(best):
                    best = prefix
        return set(self.profiles[best]) if best is not None else None

    def in_wp_scope(self, path) -> bool:
        """Whether *path* joins the whole-program call graph."""
        if not self.wp_paths:
            return True
        p = pathlib.PurePath(path).as_posix()
        return any(self._under(p, wp) for wp in self.wp_paths)
