"""Suppression-comment parsing for simlint.

Three forms, modelled on pylint/ruff conventions:

* line suppression — append to the offending line::

      t = time.time()  # simlint: disable=SL001 -- calibration harness only

* file suppression — anywhere in the file, on a line of its own::

      # simlint: disable-file=SL003

* block toggles — suppress a region (or the rest of the file when the
  ``on`` is omitted)::

      # simlint: off=SL101 -- generated protocol shims below
      ...
      # simlint: on

Multiple rule ids are comma-separated (``disable=SL001,SL004``);
``disable=all`` / a bare ``# simlint: off`` silences every rule. The
optional `` -- reason`` suffix documents *why* the suppression is
justified. Every directive tracks whether it actually matched a finding
during a run, so ``repro-lint --report-unused-suppressions`` can surface
stale ones — a suppression that no longer suppresses anything is debt
pretending to be documentation.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

_DIRECTIVE_RE = re.compile(
    r"#\s*simlint:\s*(?P<kind>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\s]+?)"
    r"(?:\s+--\s*(?P<reason>.*))?\s*$"
)

_TOGGLE_RE = re.compile(
    r"#\s*simlint:\s*(?P<kind>off|on)\b"
    r"(?:\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+?))?"
    r"(?:\s+--\s*(?P<reason>.*))?\s*$"
)


def _comment_lines(source: str) -> List[Tuple[int, str]]:
    """(lineno, text) for every real COMMENT token in *source*.

    Only genuine comments carry directives: a ``# simlint:`` inside a
    string literal or docstring (this module's own docstring, lint-test
    sources embedded as strings) is documentation, not a suppression —
    treating it as one makes ``--report-unused-suppressions`` cry wolf.
    Falls back to a raw line scan when the source does not tokenize, so
    directives still work in files the parser will reject anyway.
    """
    try:
        return [
            (tok.start[0], tok.string)
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError, ValueError):
        return list(enumerate(source.splitlines(), start=1))


def _parse_rules(raw: Optional[str]) -> Set[str]:
    if not raw:
        return {"all"}
    return {
        r.strip().upper() if r.strip().lower() != "all" else "all"
        for r in raw.split(",")
        if r.strip()
    }


@dataclass
class Directive:
    """One ``# simlint:`` comment, with its use tracking."""

    lineno: int
    kind: str                   #: "disable" | "disable-file" | "off"
    rules: Tuple[str, ...]      #: sorted rule ids (or ("all",))
    reason: str
    #: For "off": last suppressed line (None = end of file).
    end: Optional[int] = None
    used: bool = False

    def matches(self, rule_id: str) -> bool:
        return "all" in self.rules or rule_id in self.rules

    def covers(self, lineno: int) -> bool:
        if self.kind == "disable-file":
            return True
        if self.kind == "disable":
            return lineno == self.lineno
        # off/on block: the off line itself through the closing `on`.
        return self.lineno <= lineno and (self.end is None or lineno <= self.end)


class SuppressionTable:
    """Per-file suppression state parsed from comments."""

    def __init__(self) -> None:
        self.directives: List[Directive] = []

    @classmethod
    def from_source(cls, source: str) -> "SuppressionTable":
        """Parse every ``# simlint:`` directive in *source*."""
        table = cls()
        if "simlint:" not in source:
            return table
        open_blocks: List[Directive] = []
        for lineno, line in _comment_lines(source):
            m = _DIRECTIVE_RE.search(line)
            if m:
                table.directives.append(Directive(
                    lineno=lineno, kind=m.group("kind"),
                    rules=tuple(sorted(_parse_rules(m.group("rules")))),
                    reason=(m.group("reason") or "").strip()))
                continue
            t = _TOGGLE_RE.search(line)
            if not t:
                continue
            rules = _parse_rules(t.group("rules"))
            if t.group("kind") == "off":
                d = Directive(lineno=lineno, kind="off",
                              rules=tuple(sorted(rules)),
                              reason=(t.group("reason") or "").strip())
                table.directives.append(d)
                open_blocks.append(d)
            else:
                # `# simlint: on` closes open blocks whose rule sets
                # intersect (a bare `on` closes everything).
                still_open = []
                for d in open_blocks:
                    shared = ("all" in rules or "all" in d.rules
                              or set(d.rules) & rules)
                    if shared:
                        d.end = lineno
                    else:
                        still_open.append(d)
                open_blocks = still_open
        return table

    def is_suppressed(self, rule_id: str, lineno: int) -> bool:
        """Whether *rule_id* is silenced at *lineno* (marks the matching
        directive as used, for stale-suppression reporting)."""
        hit = False
        for d in self.directives:
            if d.matches(rule_id) and d.covers(lineno):
                d.used = True
                hit = True
        return hit

    def unused(self) -> List[Directive]:
        """Directives that matched no finding during this run."""
        return [d for d in self.directives if not d.used]
