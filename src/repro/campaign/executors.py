"""Pluggable cell executors: serial in-process, or a process-pool fan-out.

Executors only decide *where* cells run; they never affect *what* a cell
computes. Every cell seeds its own RNG streams from its coordinates
(:func:`repro.seeding.rng_for`), so the process executor with any worker
count yields bit-identical results to the serial one — asserted by
``tests/test_campaign.py``.

Failures are data, not control flow: an executor yields either a
:class:`~repro.jvm.RunResult` or a :class:`CellFailure` per cell, always
in submission order, and leaves the retry/quarantine policy to the
:mod:`~repro.campaign.runner`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple, Union

from ..errors import ConfigError
from ..jvm import RunResult
from .cells import CellSpec


@dataclass
class CellFailure:
    """One cell's infrastructure failure (the *worker* broke, not the
    simulated JVM — simulated crashes are ``RunResult.crashed``).

    A failure routinely crosses process and protocol boundaries (pickled
    back from a worker, recorded in the store, sent to a ``repro-serve``
    client), and the live exception object must never travel with it:
    exceptions are frequently unpicklable and never JSON-encodable. The
    ``exc`` field is therefore local-process-only — :meth:`__getstate__`
    folds it into ``error`` before pickling, and :meth:`to_json` /
    :meth:`from_json` (the round trip both the campaign quarantine
    report and the serve failure responses use) carry strings only.
    """

    cell: CellSpec
    kind: str                   #: "exception" | "timeout" | "broken-pool"
    error: str                  #: human-readable description
    exc: Optional[BaseException] = None

    def format(self) -> str:
        """One-line description for logs and quarantine reports."""
        return f"[{self.kind}] {self.cell.benchmark}/{self.cell.gc}/seed={self.cell.seed}: {self.error}"

    def __getstate__(self):
        """Pickle without the live exception (workers' exceptions may not
        unpickle on the other side); its text is preserved in ``error``."""
        state = dict(self.__dict__)
        exc = state.pop("exc", None)
        if exc is not None and not state.get("error"):
            state["error"] = f"{type(exc).__name__}: {exc}"
        state["exc"] = None
        return state

    def to_json(self) -> dict:
        """JSON-safe projection (strings only; ``exc`` never included)."""
        error = self.error
        if not error and self.exc is not None:
            error = f"{type(self.exc).__name__}: {self.exc}"
        return {"cell": self.cell.to_dict(), "kind": self.kind, "error": error}

    @classmethod
    def from_json(cls, d: dict) -> "CellFailure":
        """Inverse of :meth:`to_json` (``exc`` is gone by design)."""
        return cls(cell=CellSpec.from_dict(d["cell"]), kind=str(d["kind"]),
                   error=str(d["error"]))


Outcome = Union[RunResult, CellFailure]
CellFn = Callable[[CellSpec], RunResult]
SubmitHook = Optional[Callable[[CellSpec], None]]


def default_workers() -> int:
    """Auto-sized worker count: one per available core."""
    return max(1, os.cpu_count() or 1)


def _raised(cell: CellSpec, exc: Exception) -> CellFailure:
    """The failure of a cell whose function raised *exc*."""
    return CellFailure(cell=cell, kind="exception",
                       error=f"{type(exc).__name__}: {exc}", exc=exc)


def _collect(cell: CellSpec, future, timeout: Optional[float]) -> Outcome:
    """*cell*'s run from its worker's *future*, or the failure it ended
    in: the deadline passed (the future is cancelled if it never
    started), the pool broke, or the cell function raised."""
    try:
        return future.result(timeout=timeout)
    except FutureTimeoutError:
        future.cancel()
        return CellFailure(cell=cell, kind="timeout",
                           error=f"cell exceeded {timeout}s wall-clock budget")
    except BrokenProcessPool as exc:
        return CellFailure(cell=cell, kind="broken-pool",
                           error=str(exc) or "worker process died", exc=exc)
    except Exception as exc:
        return _raised(cell, exc)


class SerialExecutor:
    """Run cells one after another in this process (the reference
    executor: `run_grid`'s historical behaviour)."""

    name = "serial"

    def open(self) -> None:
        """No-op (interface parity with :class:`ProcessExecutor`)."""

    def close(self) -> None:
        """No-op (interface parity with :class:`ProcessExecutor`)."""

    def run_one(self, cell: CellSpec, fn: CellFn, *,
                timeout: Optional[float] = None) -> Outcome:
        """Run a single cell in this process (``timeout`` unenforced, as
        in :meth:`run_cells` — there is no second process to keep it)."""
        try:
            return fn(cell)
        except Exception as exc:
            return _raised(cell, exc)

    def run_cells(self, cells: Sequence[CellSpec], fn: CellFn, *,
                  timeout: Optional[float] = None,
                  on_submit: SubmitHook = None) -> Iterator[Tuple[CellSpec, Outcome]]:
        """Yield ``(cell, RunResult | CellFailure)`` in order.

        ``timeout`` is accepted for interface parity but not enforced —
        there is no second process to keep the deadline.
        """
        for cell in cells:
            if on_submit is not None:
                on_submit(cell)
            yield cell, self.run_one(cell, fn)


class ProcessExecutor:
    """Fan cells out across worker processes.

    Cells are submitted eagerly and collected in submission order, so
    downstream consumers assemble identical result dicts regardless of
    which worker finished first. ``timeout`` bounds the wall-clock wait
    per cell *from the moment its turn to be collected comes*; a timed-out
    cell is reported as a :class:`CellFailure` (kind ``timeout``) and its
    future cancelled if it never started.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None):
        if workers is not None and workers < 1:
            raise ConfigError("workers must be >= 1")
        self.workers = workers or default_workers()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        #: Pools discarded after a crash/timeout (supervision metric).
        self.pools_recycled = 0

    # -- persistent-pool lifecycle (service mode) -----------------------
    #
    # `run_cells` owns a transient pool per sweep; a long-lived service
    # instead calls `open()` once and `run_one()` per job, and the
    # executor *supervises* its pool: a worker death (BrokenProcessPool)
    # or a timed-out job poisons the pool, so it is discarded and lazily
    # rebuilt — one bad cell never takes the service down with it.

    def open(self) -> None:
        """Create the persistent pool (idempotent)."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)

    def close(self) -> None:
        """Shut the persistent pool down (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "ProcessExecutor":
        self.open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _checkout_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool

    def _recycle_pool(self, pool: ProcessPoolExecutor) -> None:
        """Discard *pool* (broken or hosting a stuck job); the next
        :meth:`run_one` builds a fresh one."""
        with self._pool_lock:
            if self._pool is not pool:
                return          # someone already swapped it out
            self._pool = None
            self.pools_recycled += 1
        pool.shutdown(wait=False, cancel_futures=True)

    def run_one(self, cell: CellSpec, fn: CellFn, *,
                timeout: Optional[float] = None) -> Outcome:
        """Run a single cell on the persistent pool (thread-safe).

        Worker death comes back as a ``broken-pool`` :class:`CellFailure`
        and the pool is replaced, so the caller can simply retry; a
        timeout likewise recycles the pool (the stuck worker is abandoned
        rather than joined — the deadline is the contract).
        """
        pool = self._checkout_pool()
        try:
            future = pool.submit(fn, cell)
        except RuntimeError as exc:    # pool torn down under us
            self._recycle_pool(pool)
            return CellFailure(cell=cell, kind="broken-pool",
                               error=str(exc) or "pool shut down", exc=exc)
        outcome = _collect(cell, future, timeout)
        if (isinstance(outcome, CellFailure)
                and outcome.kind in ("timeout", "broken-pool")):
            self._recycle_pool(pool)
        return outcome

    def run_cells(self, cells: Sequence[CellSpec], fn: CellFn, *,
                  timeout: Optional[float] = None,
                  on_submit: SubmitHook = None) -> Iterator[Tuple[CellSpec, Outcome]]:
        """Yield ``(cell, RunResult | CellFailure)`` in submission order."""
        if not cells:
            return
        max_workers = min(self.workers, len(cells))
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = []
            for cell in cells:
                if on_submit is not None:
                    on_submit(cell)
                futures.append(pool.submit(fn, cell))
            # Once the pool breaks, every remaining future raises the
            # same, so each remaining cell is reported broken too.
            for cell, future in zip(cells, futures):
                yield cell, _collect(cell, future, timeout)


_EXECUTORS = {
    "serial": SerialExecutor,
    "process": ProcessExecutor,
}


def get_executor(name: str, workers: Optional[int] = None):
    """Resolve an executor by name (``serial`` | ``process``)."""
    try:
        factory = _EXECUTORS[name]
    except KeyError:
        raise ConfigError(
            f"unknown executor {name!r}; choose from {sorted(_EXECUTORS)}"
        ) from None
    if factory is ProcessExecutor:
        return ProcessExecutor(workers=workers)
    return factory()
