"""Experiment-campaign layer: parallel, cached, resumable grid sweeps.

Every artefact in EXPERIMENTS.md is an experiment grid ({benchmark} x
{gc} x {heap} x {young} x {seed}); :mod:`repro.studies` runs one grid
strictly serially and in-process. A *campaign* names one or more grids
and runs their cells through a pluggable executor (serial, or a
``ProcessPoolExecutor`` fan-out across cores) with a content-addressed
on-disk :class:`ResultStore`, so that

* re-running a campaign skips every already-computed cell (cache hits),
* an interrupted sweep (``Ctrl-C``, ``kill``, OOM-killer) loses nothing —
  completed cells are flushed to disk as they finish and ``resume``
  simply runs again,
* results are bit-identical regardless of executor choice or worker
  count: each cell derives its RNG streams from its own coordinates via
  :func:`repro.seeding.rng_for`, never from execution order.

The package splits into focused modules:

========================  ==============================================
:mod:`~repro.campaign.spec`       ``CampaignSpec`` — named set of grids
:mod:`~repro.campaign.cells`      pure picklable ``run_cell`` + codecs
:mod:`~repro.campaign.executors`  serial / process executors
:mod:`~repro.campaign.store`      content-addressed JSONL result store
:mod:`~repro.campaign.runner`     orchestration, retries, quarantine
:mod:`~repro.campaign.progress`   shared progress reporter (done/cached/
                                  failed, ETA)
:mod:`~repro.campaign.cli`        the ``repro-campaign`` command
========================  ==============================================
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cells": ("CellSpec", "decode_run", "encode_run", "run_cell"),
    ".executors": ("CellFailure", "ProcessExecutor", "SerialExecutor",
                   "default_workers", "get_executor"),
    ".progress": ("ProgressReporter",),
    ".runner": ("CampaignResult", "CampaignStats", "run_campaign"),
    ".spec": ("CampaignSpec",),
    ".store": ("MergeStats", "ResultStore", "merge_stores", "store_status"),
})
