"""Whole-program simlint rules (SL1xx).

These rules run over the linked :class:`~repro.lint.graph.ProjectContext`
rather than one file at a time, which lets them enforce properties that
only exist at the project level:

=======  ==============================================================
SL101    no blocking call reachable from an ``async def`` in ``serve/``
         without an executor boundary (``run_in_executor``/``to_thread``)
SL102    determinism taint: wall-clock/entropy may not flow transitively
         into the deterministic core (``sim/``, ``gc/``, ``jvm/``)
SL103    ResultStore lock discipline: store-file mutations only under
         the ``.locked()`` flock context manager
SL104    no fire-and-forget coroutines (un-awaited, un-tracked
         ``create_task``/``ensure_future``) in ``serve/``
SL105    executor pickle-safety: payload types crossing a
         ProcessPoolExecutor boundary must be statically picklable
=======  ==============================================================

Executor boundaries need no special casing in SL101: a function passed
*by reference* to ``run_in_executor``/``submit``/``to_thread`` creates no
call edge (it is an argument, not a call), so offloaded blocking work is
invisible to the async-side reachability query — exactly the semantics
the event loop sees.

Every SL1xx finding carries a *related* location (the other end of the
offending path); a suppression comment on either end silences it, since
whichever end is "wrong" depends on the fix.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .core import Finding, FileContext, ProjectRule
from .graph import CallSite, ClassInfo, FunctionInfo, ProjectContext
from .taint import TaintAnalysis


def _chain_terminal(project: ProjectContext, start: FunctionInfo,
                    chain: List[CallSite]) -> Tuple[str, int]:
    """``(path, line)`` of the last call site in a BFS chain.

    ``chain[-1]`` lives in the body of the function ``chain[-2]``
    resolved to (or in *start* itself for a single-hop chain).
    """
    if len(chain) > 1:
        owner = project.functions.get(chain[-2].resolved)
        if owner is not None:
            return owner.path, chain[-1].lineno
    return start.path, chain[0].lineno


def _route(chain: List[CallSite], terminal: str) -> str:
    """Render ``a -> b -> fcntl.flock`` for a finding message."""
    names = [s.name for s in chain[:-1]] + [terminal]
    return " -> ".join(names)


# ----------------------------------------------------------------------
# SL101 — blocking calls reachable from async code
# ----------------------------------------------------------------------

#: Calls that block the thread they run on. ``open`` appears unqualified
#: because builtins survive import expansion untouched.
_BLOCKING = {
    "time.sleep",
    "fcntl.flock", "fcntl.lockf",
    "os.fsync", "os.fdatasync",
    "open", "io.open",
    "select.select",
    "socket.create_connection", "socket.socket.connect",
    "shutil.rmtree", "shutil.copyfile", "shutil.copy",
    "urllib.request.urlopen",
}
_BLOCKING_PREFIXES = ("subprocess.",)


def _blocking_name(site: CallSite) -> Optional[str]:
    """The blocking call a site invokes, if any (aliases included)."""
    for name in (site.name,) + tuple(site.alt_names):
        if name in _BLOCKING or name.startswith(_BLOCKING_PREFIXES):
            return name
        head, _, tail = name.rpartition(".")
        # fut.result() — a synchronous wait on a Future-ish receiver.
        if tail == "result" and ("fut" in head.lower() or not head):
            return name
    return None


class AsyncBlockingRule(ProjectRule):
    """SL101: no blocking call reachable from ``async def`` in serve/."""

    rule_id = "SL101"
    title = "blocking call reachable from async code without an executor boundary"

    #: Directory parts whose async functions are event-loop-owned.
    scope = ("serve",)

    def check_project(self, project: ProjectContext,
                      files: Dict[str, FileContext]) -> Iterator[Finding]:
        for fn in project.functions_under(*self.scope):
            if not fn.is_async:
                continue
            chain = project.find_path(
                fn.qname, lambda site: _blocking_name(site) is not None)
            if chain is None:
                continue
            terminal = _blocking_name(chain[-1]) or chain[-1].name
            related = _chain_terminal(project, fn, chain)
            yield self.wp_finding(
                files, fn.path, chain[0].lineno,
                f"async `{fn.qname.rsplit('.', 1)[-1]}` reaches blocking "
                f"`{terminal}` ({_route(chain, terminal)}); offload via "
                f"run_in_executor/to_thread",
                related=related,
            )


# ----------------------------------------------------------------------
# SL102 — determinism taint into the simulated core
# ----------------------------------------------------------------------


class CoreTaintRule(ProjectRule):
    """SL102: wall-clock/entropy must not flow transitively into the
    deterministic core. Direct reads are SL001's findings (sound,
    per-file); this rule owns the ≥1-hop indirect routes SL001 cannot
    see."""

    rule_id = "SL102"
    title = "wall-clock/entropy flows transitively into the deterministic core"

    #: Deterministic-core packages; ``[tool.simlint] wp_core`` overrides.
    scope = ("sim", "gc", "jvm", "fleet")

    def check_project(self, project: ProjectContext,
                      files: Dict[str, FileContext]) -> Iterator[Finding]:
        taint = TaintAnalysis(project)
        for qname, witness in taint.core_leaks(*self.scope, min_hops=1):
            fn = project.functions[qname]
            related = _chain_terminal(project, fn, list(witness.chain))
            yield self.wp_finding(
                files, fn.path, witness.entry.lineno,
                f"`{qname.rsplit('.', 1)[-1]}` reaches `{witness.source}` "
                f"({witness.describe()}); inject a clock/rng instead",
                related=related,
            )


# ----------------------------------------------------------------------
# SL103 — ResultStore lock discipline
# ----------------------------------------------------------------------


class LockDisciplineRule(ProjectRule):
    """SL103: store-file mutations only under the ``.locked()`` flock
    context manager.

    A mutation is compliant when it is lexically inside ``with
    <x>.locked():``, lives inside the ``locked()`` implementation itself
    (the lock file must be opened to be flocked), or when *every* project
    call site of its enclosing method is itself inside a locked block
    (the one-hop "caller holds the lock" idiom)."""

    rule_id = "SL103"
    title = "store-file mutation outside the .locked() context manager"

    def check_project(self, project: ProjectContext,
                      files: Dict[str, FileContext]) -> Iterator[Finding]:
        callers: Dict[str, List[CallSite]] = {}
        for fn in project.functions.values():
            for site in fn.calls:
                if site.resolved:
                    callers.setdefault(site.resolved, []).append(site)

        for path in sorted(project.modules):
            info = project.modules[path]
            for m in sorted(info.mutations, key=lambda m: m.lineno):
                if m.locked:
                    continue
                if m.method.rsplit(".", 1)[-1] == "locked":
                    continue            # the lock acquisition itself
                inbound = callers.get(m.method, [])
                if inbound and all(site.locked for site in inbound):
                    continue            # every caller holds the lock
                owner = project.functions.get(m.method)
                related = ((owner.path, owner.lineno)
                           if owner is not None else None)
                yield self.wp_finding(
                    files, path, m.lineno,
                    f"{m.desc} in `{m.method.rsplit('.', 1)[-1]}` without "
                    f"holding .locked()",
                    related=related,
                )


# ----------------------------------------------------------------------
# SL104 — fire-and-forget coroutines
# ----------------------------------------------------------------------

_SPAWN_TAILS = {"create_task", "ensure_future"}


class FireAndForgetRule(ProjectRule):
    """SL104: every ``create_task``/``ensure_future`` in serve/ must keep
    a reference (asyncio only holds weak refs — an untracked task can be
    garbage-collected mid-flight and its exceptions vanish)."""

    rule_id = "SL104"
    title = "fire-and-forget coroutine (untracked create_task/ensure_future)"

    scope = ("serve",)

    def check_project(self, project: ProjectContext,
                      files: Dict[str, FileContext]) -> Iterator[Finding]:
        for fn in project.functions_under(*self.scope):
            for site in fn.calls:
                tail = site.name.rsplit(".", 1)[-1]
                if tail not in _SPAWN_TAILS:
                    continue
                if site.bare or site.dangling:
                    how = ("discarded" if site.bare
                           else "assigned to a never-read local")
                    yield self.wp_finding(
                        files, fn.path, site.lineno,
                        f"`{site.name}` result {how}: task is unreferenced "
                        f"and may be collected mid-flight; store it and "
                        f"add a done callback",
                    )


# ----------------------------------------------------------------------
# SL105 — executor pickle-safety
# ----------------------------------------------------------------------

#: Type-name tails that cannot cross a process boundary by default.
_UNPICKLABLE_TAILS = {
    "BaseException", "Exception", "KeyboardInterrupt",
    "Lock", "RLock", "Condition", "Event", "Semaphore", "BoundedSemaphore",
    "Barrier", "Thread", "ThreadPoolExecutor", "ProcessPoolExecutor",
    "socket", "Socket", "FrameType", "TracebackType", "GeneratorType",
    "Future", "Task", "Queue", "SimpleQueue",
}


def _unpicklable_tail(type_name: str) -> bool:
    tail = type_name.rsplit(".", 1)[-1]
    return tail in _UNPICKLABLE_TAILS or tail.endswith("Error")


class PickleSafetyRule(ProjectRule):
    """SL105: types submitted across a ProcessPoolExecutor boundary must
    be statically picklable — no live exceptions, frames, locks, sockets
    or futures in their (transitive) field set, unless the class takes
    responsibility via ``__getstate__``/``__reduce__``."""

    rule_id = "SL105"
    title = "unpicklable type crosses a process-pool boundary"

    def check_project(self, project: ProjectContext,
                      files: Dict[str, FileContext]) -> Iterator[Finding]:
        for fn in sorted(project.functions.values(),
                         key=lambda f: (f.path, f.lineno)):
            for sub in fn.submits:
                if not sub.is_process_pool:
                    continue
                for type_name in sub.arg_types:
                    cls = project.classes.get(type_name)
                    if cls is None:
                        continue        # external/primitive: pickle's call
                    offender = self._unsafe_field(project, cls, depth=0)
                    if offender is None:
                        continue
                    fld, owner = offender
                    yield self.wp_finding(
                        files, fn.path, sub.lineno,
                        f"`{type_name.rsplit('.', 1)[-1]}` crosses a process "
                        f"pool but field `{fld.name}: {fld.type}` (in "
                        f"{owner.qname.rsplit('.', 1)[-1]}) does not pickle; "
                        f"add __getstate__ or strip the field",
                        related=(owner.path, fld.lineno),
                    )

    def _unsafe_field(self, project: ProjectContext, cls: ClassInfo,
                      depth: int):
        """First ``(field, owning class)`` that breaks picklability, or
        None. Recurses into project-class-typed fields (bounded); a
        pickle hook anywhere on the owning class ends the audit — the
        author has taken over serialization."""
        if cls.has_pickle_hook or depth > 3:
            return None
        for fld, owner in project.field_types(cls):
            if owner.has_pickle_hook:
                continue
            if _unpicklable_tail(fld.type):
                return fld, owner
            nested = project.classes.get(fld.type)
            if nested is None and fld.type:
                resolved = project._resolve_class(fld.type)
                nested = resolved
            if nested is not None and nested.qname != cls.qname:
                hit = self._unsafe_field(project, nested, depth + 1)
                if hit is not None:
                    return hit
        return None


# ----------------------------------------------------------------------


def default_wp_rules() -> List[ProjectRule]:
    """The SL1xx whole-program rule set, in id order."""
    return [
        AsyncBlockingRule(),
        CoreTaintRule(),
        LockDisciplineRule(),
        FireAndForgetRule(),
        PickleSafetyRule(),
    ]


#: rule id → class, for ``--select`` and ``--list-rules``.
WP_RULES_BY_ID = {rule.rule_id: type(rule) for rule in default_wp_rules()}
