"""Content-addressed on-disk result store for campaigns.

Layout (one directory per store)::

    <root>/
      manifest.json      # campaign registry: specs that wrote here
      records.jsonl      # one JSON record per completed/failed cell

Each record line is ``{"digest", "status", "cell", "run"|"error", ...}``
keyed by the cell's content digest (:meth:`CellSpec.digest`), so a cache
lookup is independent of which campaign, executor or worker produced the
record. Records are appended and **fsynced one line at a time** — a
``kill -9`` can at worst truncate the final line, never lose a completed
cell; the loader quarantines undecodable lines (keeping a count) and
compacts the file instead of failing, so an interrupted write costs one
re-simulated cell, not the sweep.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

try:                            # POSIX only; the store degrades to
    import fcntl                # lock-free appends elsewhere.
except ImportError:             # pragma: no cover - non-POSIX platforms
    fcntl = None

from ..errors import ConfigError
from ..jvm import RunResult
from .cells import CellSpec, decode_run, encode_run

MANIFEST_NAME = "manifest.json"
RECORDS_NAME = "records.jsonl"
LOCK_NAME = ".lock"

#: Store format version; readers reject newer majors.
STORE_VERSION = 1


class ResultStore:
    """Append-only, content-addressed store of cell results."""

    def __init__(self, root):
        self.root = pathlib.Path(os.fsdecode(root))
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            # The path, or one of its parents, is a regular file.
            raise ConfigError(f"store {self.root} is not a directory") from None
        #: :attr:`manifest_path` as a string, for the one ``stat`` a
        #: cached :meth:`register_campaign` costs.
        self._manifest_file = str(self.manifest_path)
        self._records: Dict[str, dict] = {}
        #: digest -> (the ``ok`` record, its decoded run), see :meth:`get_run`.
        self._runs: Dict[str, Tuple[dict, RunResult]] = {}
        #: Digests deliberately removed here (``drop_failures``) — kept so
        #: a merging :meth:`compact` does not resurrect them from disk.
        self._dropped: set = set()
        #: ``(signature, manifest)``: the manifest :meth:`register_campaign`
        #: last read or wrote, with :meth:`_manifest_signature` then.
        self._manifest: Optional[Tuple[Optional[Tuple[int, int, int]], dict]] = None
        self.quarantined_lines = 0
        self._load()

    # -- paths ----------------------------------------------------------

    @property
    def manifest_path(self) -> pathlib.Path:
        """Path of the campaign-registry manifest."""
        return self.root / MANIFEST_NAME

    @property
    def records_path(self) -> pathlib.Path:
        """Path of the JSONL record file."""
        return self.root / RECORDS_NAME

    @property
    def lock_path(self) -> pathlib.Path:
        """Path of the sidecar advisory-lock file."""
        return self.root / LOCK_NAME

    # -- cross-process locking ------------------------------------------

    @contextlib.contextmanager
    def locked(self):
        """Hold the store's advisory lock (``flock`` on a sidecar file).

        Every mutation — record appends, compaction, manifest rewrites —
        runs under this lock, so a long-lived ``repro-serve`` service and
        a concurrent ``repro-campaign`` invocation sharing one store
        serialize their writes instead of interleaving partial JSONL
        lines. Advisory and re-entrant-free by design: keep critical
        sections short. No-op where ``fcntl`` is unavailable.
        """
        if fcntl is None:       # pragma: no cover - non-POSIX platforms
            yield
            return
        with open(self.lock_path, "a") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    # -- loading --------------------------------------------------------

    @staticmethod
    def _scan_records(path: pathlib.Path) -> Tuple[Dict[str, dict], int]:
        """Parse *path* into ``(records-by-digest, corrupt-line-count)``;
        duplicates resolve last-write-wins, undecodable lines are counted
        instead of raising."""
        records: Dict[str, dict] = {}
        corrupt = 0
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    digest = rec["digest"]
                    status = rec["status"]
                except (ValueError, KeyError, TypeError):
                    corrupt += 1
                    continue
                if status == "ok" and "run" not in rec:
                    corrupt += 1
                    continue
                records[digest] = rec
        return records, corrupt

    def _load(self) -> None:
        if not self.records_path.exists():
            return
        # Read under the lock so a concurrent appender's half-written
        # final line cannot be mistaken for corruption.
        with self.locked():
            self._records, corrupt = self._scan_records(self.records_path)
        self.quarantined_lines = corrupt
        if corrupt:
            # Drop the undecodable lines on disk so they are quarantined
            # exactly once, not re-reported by every later open.
            self.compact()

    # -- queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def get(self, digest: str) -> Optional[dict]:
        """The raw record for *digest*, or None."""
        return self._records.get(digest)

    def get_run(self, digest: str) -> Optional[RunResult]:
        """The decoded :class:`RunResult` for an ``ok`` record, else None.

        Each record is decoded once per store instance: the run is kept
        beside the record it came from and served again while that very
        record is the one held for *digest*, so a record replaced by a
        write, merge, compaction or :meth:`clear` is never served stale.
        Every hit on a digest therefore returns one shared object, which
        callers treat as a read-only value.
        """
        rec = self._records.get(digest)
        if rec is None or rec["status"] != "ok":
            return None
        memo = self._runs.get(digest)
        if memo is not None and memo[0] is rec:
            return memo[1]
        run = decode_run(rec["run"])
        self._runs[digest] = (rec, run)
        return run

    def ok_digests(self) -> List[str]:
        """Digests with a completed run (sorted for determinism)."""
        return sorted(d for d, r in self._records.items() if r["status"] == "ok")

    def failed_digests(self) -> List[str]:
        """Digests whose last record is a failure (sorted)."""
        return sorted(d for d, r in self._records.items() if r["status"] != "ok")

    def iter_ok(self) -> Iterator[Tuple[CellSpec, RunResult]]:
        """Iterate ``(cell, run)`` over completed records, sorted by digest."""
        for digest in self.ok_digests():
            cell = CellSpec.from_dict(self._records[digest]["cell"])
            yield cell, self.get_run(digest)

    # -- writes ---------------------------------------------------------

    def _append(self, rec: dict) -> None:
        with self.locked():
            with open(self.records_path, "a") as fh:
                fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        self._records[rec["digest"]] = rec

    def record_ok(self, cell: CellSpec, result: RunResult) -> None:
        """Persist a completed cell (flushed + fsynced immediately)."""
        self._append({
            "v": STORE_VERSION,
            "digest": cell.digest(),
            "status": "ok",
            "cell": cell.to_dict(),
            "run": encode_run(result),
        })

    def record_failure(self, cell: CellSpec, kind: str, error: str,
                       attempts: int) -> None:
        """Persist a quarantined cell (worker crash/timeout, retries spent)."""
        self._append({
            "v": STORE_VERSION,
            "digest": cell.digest(),
            "status": "failed",
            "cell": cell.to_dict(),
            "kind": kind,
            "error": error,
            "attempts": attempts,
        })

    def record_cell_failure(self, failure, attempts: int) -> None:
        """Persist a :class:`~repro.campaign.executors.CellFailure` via
        its JSON projection (the ``exc`` field never reaches disk)."""
        d = failure.to_json()
        self.record_failure(failure.cell, d["kind"], d["error"],
                            attempts=attempts)

    def compact(self) -> None:
        """Rewrite the record file: drops corrupt lines, superseded
        duplicates and locally-dropped digests. Atomic (write + rename)
        and concurrency-safe: the on-disk state is re-read and merged
        under the store lock first, so records appended by another
        process (a running service, a parallel campaign) since our load
        survive the rewrite instead of being silently discarded.
        """
        tmp = self.records_path.with_suffix(".jsonl.tmp")
        with self.locked():
            merged: Dict[str, dict] = {}
            if self.records_path.exists():
                merged, _ = self._scan_records(self.records_path)
            for digest in self._dropped:
                merged.pop(digest, None)
            merged.update(self._records)
            self._records = merged
            self._dropped = set()
            with open(tmp, "w") as fh:
                for digest in sorted(self._records):
                    fh.write(json.dumps(self._records[digest], sort_keys=True,
                                        separators=(",", ":")) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            tmp.replace(self.records_path)

    def drop_failures(self) -> int:
        """Remove failure records (so the next run retries them)."""
        failed = self.failed_digests()
        for digest in failed:
            del self._records[digest]
            self._dropped.add(digest)
        if failed:
            self.compact()
        return len(failed)

    def clear(self) -> int:
        """Remove every record (the manifest is kept)."""
        n = len(self._records)
        self._records.clear()
        self._runs.clear()
        self._dropped = set()
        with self.locked():
            if self.records_path.exists():
                self.records_path.unlink()
        return n

    # -- manifest -------------------------------------------------------

    def read_manifest(self) -> dict:
        """The manifest dict (empty registry when absent)."""
        if not self.manifest_path.exists():
            return {"version": STORE_VERSION, "campaigns": []}
        try:
            with open(self.manifest_path) as fh:
                manifest = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"corrupt manifest {self.manifest_path}: {exc}") from None
        if manifest.get("version", 0) > STORE_VERSION:
            raise ConfigError(
                f"store {self.root} written by a newer repro (manifest v{manifest['version']})"
            )
        return manifest

    def _manifest_signature(self) -> Optional[Tuple[int, int, int]]:
        """``(st_ino, st_mtime_ns, st_size)`` of the manifest, or None."""
        try:
            st = os.stat(self._manifest_file)
        except FileNotFoundError:
            return None
        return st.st_ino, st.st_mtime_ns, st.st_size

    def register_campaign(self, entry: dict) -> None:
        """Idempotently add a campaign entry (keyed by its spec digest).

        The entry moves last (``resume`` takes the last entry as the most
        recent); a manifest that would not change is left as it is, file
        and all. The manifest last read or written here is used again
        while the file keeps that moment's signature (DESIGN.md §10.2):
        writers replace the file, so another process's registration is
        read.

        A registration the kept manifest already holds, on a file whose
        signature is unchanged, returns after one ``stat`` and no lock: it
        writes nothing, and every writer renames a whole new file into
        place, so it orders before any concurrent one. Every other
        registration is a read-modify-write under the store lock, so
        concurrent registrants (service + campaign CLI) cannot lose each
        other's entries.
        """
        kept = self._manifest
        if (kept is not None and kept[0] == self._manifest_signature()
                and _with_entry(kept[1], entry) == kept[1]):
            return
        with self.locked():
            sig = self._manifest_signature()
            kept = self._manifest
            if kept is not None and kept[0] == sig:
                manifest = kept[1]
            else:
                manifest = self.read_manifest()
                self._manifest = (sig, manifest)
            updated = _with_entry(manifest, entry)
            if updated == manifest:
                return
            text = json.dumps(updated, indent=2, sort_keys=True) + "\n"
            tmp = self.manifest_path.with_suffix(".json.tmp")
            with open(tmp, "w") as fh:
                fh.write(text)
            tmp.replace(self.manifest_path)
            # Kept as a read of the file would return it.
            self._manifest = (self._manifest_signature(), json.loads(text))

    # -- export ---------------------------------------------------------

    def to_rows(self) -> List[List]:
        """Flat rows over completed records, in
        :data:`repro.studies.GRID_CSV_COLUMNS` order and the same sort
        order as :meth:`repro.studies.GridResult.to_rows`."""
        cells_runs = list(self.iter_ok())
        cells_runs.sort(key=lambda cr: (cr[0].benchmark, cr[0].gc, cr[0].heap,
                                        cr[0].young or 0.0, cr[0].seed))
        rows = []
        for cell, run in cells_runs:
            rows.append([
                cell.benchmark, cell.gc, cell.heap, cell.young, cell.seed,
                run.execution_time, run.final_iteration_time, run.crashed,
                run.gc_log.count, run.gc_log.full_count,
                run.gc_log.total_pause, run.gc_log.max_pause,
            ])
        return rows

    def to_csv(self, path) -> None:
        """Export completed records as CSV, byte-compatible with
        :meth:`repro.studies.GridResult.to_csv` for the same cells."""
        import csv

        from ..studies import GRID_CSV_COLUMNS

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(GRID_CSV_COLUMNS)
            writer.writerows(self.to_rows())


def _with_entry(manifest: dict, entry: dict) -> dict:
    """*manifest* with *entry* registered: its digest's entries dropped,
    the entry appended last, the version current."""
    campaigns = [c for c in manifest.get("campaigns", [])
                 if c.get("digest") != entry.get("digest")]
    campaigns.append(entry)
    return dict(manifest, campaigns=campaigns, version=STORE_VERSION)


@dataclass
class MergeStats:
    """Bookkeeping for one :func:`merge_stores` call."""

    sources: int = 0            #: shard stores read
    records: int = 0            #: records in the merged store
    ok: int = 0                 #: completed cells after the merge
    failed: int = 0             #: quarantined cells after the merge
    superseded: int = 0         #: failure records replaced by an ok twin
    duplicates: int = 0         #: identical records seen on >1 shard
    quarantined_lines: int = 0  #: corrupt lines dropped across all shards

    def summary(self) -> str:
        """One-line, grep-stable summary (CI asserts on this format)."""
        return (f"merged {self.sources} stores: {self.records} records "
                f"({self.ok} ok, {self.failed} failed), "
                f"{self.duplicates} duplicates, "
                f"{self.superseded} failures superseded, "
                f"{self.quarantined_lines} corrupt lines dropped")


def merge_stores(sources: Sequence[Union[ResultStore, str]],
                 dest: Union[ResultStore, str]) -> MergeStats:
    """Merge shard stores into *dest* — the scatter-gather inverse.

    Built on the same merge-based compaction that makes concurrent
    writers safe: every source's records are folded into *dest*'s
    in-memory view, then a single :meth:`ResultStore.compact` writes the
    canonical file (sorted by digest, one canonical-JSON line each).
    Because records are content-addressed and cell execution is
    deterministic, a store merged from N shards is **byte-identical** to
    the compacted store of a serial run over the same cells — the
    property the CI ``service-smoke`` job pins with ``cmp``.

    Conflict policy (deterministic in source order): the first record
    for a digest wins, except that an ``ok`` record always supersedes a
    ``failed`` one — a cell that crashed on one shard but completed on
    another (a re-routed straggler) counts as completed. Manifests merge
    through :meth:`ResultStore.register_campaign`, which is idempotent
    per campaign digest.
    """
    if not isinstance(dest, ResultStore):
        dest = ResultStore(dest)
    stats = MergeStats()
    for root in sources:
        src = root if isinstance(root, ResultStore) else ResultStore(root)
        stats.sources += 1
        stats.quarantined_lines += src.quarantined_lines
        for digest, rec in src._records.items():
            have = dest._records.get(digest)
            if have is None:
                dest._records[digest] = rec
                continue
            if have == rec:
                stats.duplicates += 1
                continue
            if have["status"] != "ok" and rec["status"] == "ok":
                dest._records[digest] = rec
                stats.superseded += 1
            elif have["status"] == "ok" and rec["status"] != "ok":
                stats.superseded += 1      # kept the ok twin
            else:
                stats.duplicates += 1      # first record wins
        for entry in src.read_manifest().get("campaigns", []):
            dest.register_campaign(entry)
    dest.compact()
    stats.records = len(dest)
    stats.ok = len(dest.ok_digests())
    stats.failed = len(dest.failed_digests())
    return stats


def store_status(store: ResultStore) -> Dict[str, object]:
    """Machine-readable store/campaign statistics.

    The one code path behind ``repro-campaign status`` (text and
    ``--json``) and the ``repro-serve`` ``status`` endpoint's ``store``
    section, so CI and service clients consume an identical schema::

        {"version", "root", "records", "ok", "failed",
         "quarantined_lines",
         "campaigns": [{"name", "digest", "cells", "ok", "failed",
                        "missing"}, ...]}
    """
    from .spec import CampaignSpec

    campaigns: List[Dict[str, object]] = []
    for entry in store.read_manifest().get("campaigns", []):
        spec = CampaignSpec.from_dict(entry["spec"])
        digests = [digest for digest, _cell in spec.unique_cells()]
        ok = sum(1 for d in digests if (store.get(d) or {}).get("status") == "ok")
        failed = sum(1 for d in digests if (store.get(d) or {}).get("status") == "failed")
        campaigns.append({
            "name": spec.name,
            "digest": entry.get("digest"),
            "cells": len(digests),
            "ok": ok,
            "failed": failed,
            "missing": len(digests) - ok - failed,
        })
    return {
        "version": STORE_VERSION,
        "root": str(store.root),
        "records": len(store),
        "ok": len(store.ok_digests()),
        "failed": len(store.failed_digests()),
        "quarantined_lines": store.quarantined_lines,
        "campaigns": campaigns,
    }
