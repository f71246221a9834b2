"""The ``repro-serve`` wire protocol: newline-delimited JSON messages.

One experiment job per request, one JSON object per line, over TCP or a
Unix socket. The protocol is deliberately dumb — no framing beyond
``\\n``, no negotiation beyond a version field — so ``nc`` and a shell
loop are valid clients and every edge case is testable with byte
strings.

Requests (client → server) carry ``op`` and an optional client-chosen
``id`` echoed on every response to the request::

    {"op": "submit", "id": 1, "job": {"benchmark": "xalan", "gc": "G1",
     "heap": "16g", "young": "256m", "seed": 0, "iterations": 10}}
    {"op": "status", "id": 2}
    {"op": "ping"} | {"op": "drain"} | {"op": "subscribe"}

Responses (server → client) carry ``type``; a ``submit`` gets a
``queued`` acknowledgement immediately (explicit admission — a rejected
job gets ``rejected`` instead, never silence) and a terminal ``result``
or ``failed`` later. ``event`` messages (no ``id``) flow to subscribed
clients only.

Determinism contract: the ``run`` payload inside a ``result`` is exactly
:func:`repro.campaign.cells.encode_run` of the simulated
:class:`~repro.jvm.RunResult` — byte-identical (under canonical JSON
dumping) to what ``repro-campaign`` writes to the store for the same
cell. Wall-clock service observations (queue wait, execution interval)
live only in the sibling ``meta`` object and never inside ``run``.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..errors import ConfigError, ProtocolError

if TYPE_CHECKING:
    from ..campaign.cells import CellSpec

#: Bump on incompatible message-shape changes.
PROTOCOL_VERSION = 1

#: Hard per-line ceiling (1 MiB): an encoded RunResult for a long run is
#: ~100 KiB; anything larger than this is a broken or hostile client.
MAX_LINE_BYTES = 1 << 20

#: Request operations the server accepts. ``cancel`` exists for the
#: cluster coordinator's work stealing: it removes a queued-but-unstarted
#: job by digest, so a straggler shard can hand the cell to a faster node
#: with at-most-once execution (a started job answers ``busy`` instead).
OPS = ("cancel", "drain", "ping", "status", "submit", "subscribe")

#: The coordinator's superset: node membership changes ride on the same
#: wire format (``repro.cluster`` dispatches these; a plain worker node
#: rejects them as unknown ops).
COORDINATOR_OPS = OPS + ("join", "leave")

#: Job fields accepted by ``submit`` (anything else is a protocol error,
#: so typos fail loudly instead of simulating the wrong cell).
JOB_FIELDS = ("benchmark", "gc", "heap", "young", "seed", "iterations",
              "system_gc", "tlab_enabled", "overrides")


def canonical(value: object) -> bytes:
    """*value* as canonical JSON bytes (compact, sorted keys)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def encode(msg: Dict[str, object]) -> bytes:
    """One canonical wire line for *msg*."""
    return canonical(msg) + b"\n"


def decode(line: bytes, *, max_bytes: int = MAX_LINE_BYTES) -> Dict[str, object]:
    """Parse one wire line into a message dict.

    Raises :class:`ProtocolError` with an HTTP-flavoured code: 413 for an
    oversized line, 400 for malformed JSON or a non-object payload.
    """
    if len(line) > max_bytes:
        raise ProtocolError(
            f"line of {len(line)} bytes exceeds the {max_bytes}-byte limit",
            code=413)
    try:
        msg = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed JSON line: {exc}", code=400) from None
    if not isinstance(msg, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(msg).__name__}",
            code=400)
    return msg


def parse_request(msg: Dict[str, object],
                  ops: Tuple[str, ...] = OPS) -> Tuple[str, Optional[object]]:
    """Validate a request message; returns ``(op, id)``.

    *ops* is the accepted operation set — workers pass the default
    :data:`OPS`, the cluster coordinator :data:`COORDINATOR_OPS`.
    """
    op = msg.get("op")
    if op not in ops:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(ops)}", code=400)
    return op, msg.get("id")


def parse_cancel(msg: Dict[str, object]) -> str:
    """Validate a ``cancel`` request; returns the target digest."""
    digest = msg.get("digest")
    if not isinstance(digest, str) or not digest:
        raise ProtocolError("cancel requires a non-empty 'digest' field",
                            code=400)
    return digest


def job_to_cell(job: object) -> CellSpec:
    """Validate a ``submit`` job payload into a canonical :class:`CellSpec`.

    The same normalization as the campaign path (GC aliases resolved,
    sizes parsed), so a job and its grid-swept twin share one content
    digest — and therefore one cache slot. A job the simulator would
    refuse (bad JVM settings or benchmark, no iterations) is a 400 here.
    """
    # Imported here, not at the top: every client imports this module,
    # and the cell codec pulls in the simulator.
    from ..campaign.cells import CellSpec

    if not isinstance(job, dict):
        raise ProtocolError(
            f"job must be a JSON object, got {type(job).__name__}", code=400)
    unknown = sorted(set(job) - set(JOB_FIELDS))
    if unknown:
        raise ProtocolError(
            f"unknown job field(s) {', '.join(unknown)}; "
            f"expected a subset of {', '.join(JOB_FIELDS)}", code=400)
    if "benchmark" not in job:
        raise ProtocolError("job is missing required field 'benchmark'",
                            code=400)
    overrides = job.get("overrides")
    if overrides is not None and not isinstance(overrides, dict):
        raise ProtocolError("job field 'overrides' must be an object",
                            code=400)
    try:
        cell = CellSpec.from_axes(
            job["benchmark"],
            job.get("gc", "ParallelOld"),
            job.get("heap", "1g"),
            job.get("young"),
            job.get("seed", 0),
            iterations=job.get("iterations", 10),
            system_gc=job.get("system_gc", True),
            tlab_enabled=job.get("tlab_enabled", True),
            overrides=overrides,
        )
        cell.check()
    except (ConfigError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid job: {exc}", code=400) from None
    return cell


# ----------------------------------------------------------------------
# Response builders (the server's half of the vocabulary)
# ----------------------------------------------------------------------


def _resp(type_: str, rid: Optional[object], **fields) -> Dict[str, object]:
    msg: Dict[str, object] = {"type": type_, "v": PROTOCOL_VERSION}
    if rid is not None:
        msg["id"] = rid
    msg.update(fields)
    return msg


def queued_msg(rid, digest: str, *, position: int) -> Dict[str, object]:
    """Admission acknowledgement for a submit."""
    return _resp("queued", rid, digest=digest, position=position)


def result_msg(rid, digest: str, run: Dict[str, object], *, cached: bool,
               meta: Dict[str, object]) -> Dict[str, object]:
    """Terminal success for a submit; ``run`` is the encoded RunResult."""
    return _resp("result", rid, digest=digest, cached=cached, run=run,
                 meta=meta)


#: What follows the run in every ``result`` line: sorted keys put
#: ``run``, ``type`` and ``v`` last.
_RESULT_TAIL = f',"type":"result","v":{PROTOCOL_VERSION}}}\n'.encode()


def result_line(rid, digest: str, run_json: bytes, *, cached: bool,
                meta: Dict[str, object]) -> bytes:
    """``encode(result_msg(rid, digest, run, ...))`` byte for byte, for a
    run already serialised as ``run_json = canonical(run)``: the
    envelope is encoded around a one-byte stand-in, which the run's
    bytes replace."""
    head = encode(result_msg(rid, digest, 0, cached=cached, meta=meta))
    return head[:-len(_RESULT_TAIL) - 1] + run_json + _RESULT_TAIL


def failed_msg(rid, digest: str, failure: Dict[str, object], *,
               meta: Dict[str, object]) -> Dict[str, object]:
    """Terminal failure for a submit (quarantined after retries);
    ``failure`` is :meth:`CellFailure.to_json` output."""
    return _resp("failed", rid, digest=digest, failure=failure, meta=meta)


def rejected_msg(rid, code: int, reason: str) -> Dict[str, object]:
    """Explicit admission refusal (429 queue full, 503 draining)."""
    return _resp("rejected", rid, code=code, reason=reason)


def error_msg(rid, code: int, reason: str) -> Dict[str, object]:
    """Protocol-level error (bad JSON, bad job, unknown op...)."""
    return _resp("error", rid, code=code, reason=reason)


def stats_msg(rid, stats: Dict[str, object]) -> Dict[str, object]:
    """Status-endpoint payload."""
    return _resp("stats", rid, stats=stats)


def cancelled_msg(rid, digest: str, outcome: str) -> Dict[str, object]:
    """Reply to a ``cancel``. *outcome* is the at-most-once verdict:
    ``cancelled`` (the job was queued and has been removed — it never
    ran and never will here), ``busy`` (already started or finished —
    the caller must NOT re-route it) or ``unknown`` (no such digest)."""
    return _resp("cancelled", rid, digest=digest, outcome=outcome)


def joined_msg(rid, node_id: str, nodes: list) -> Dict[str, object]:
    """Coordinator reply to a ``join``: the node is registered and in the
    ring; ``nodes`` is the resulting live-node id list."""
    return _resp("joined", rid, node_id=node_id, nodes=nodes)


def left_msg(rid, node_id: str, nodes: list) -> Dict[str, object]:
    """Coordinator reply to a ``leave`` (ring membership after removal)."""
    return _resp("left", rid, node_id=node_id, nodes=nodes)


def pong_msg(rid) -> Dict[str, object]:
    """Liveness reply."""
    return _resp("pong", rid)


def subscribed_msg(rid) -> Dict[str, object]:
    """Subscription acknowledgement; ``event`` messages follow."""
    return _resp("subscribed", rid)


def draining_msg(rid) -> Dict[str, object]:
    """Drain acknowledged; in-flight jobs are completing."""
    return _resp("draining", rid)


def drained_msg(rid, stats: Dict[str, object]) -> Dict[str, object]:
    """Drain complete; final service stats attached."""
    return _resp("drained", rid, stats=stats)


def event_msg(event: Dict[str, object]) -> Dict[str, object]:
    """Live telemetry line for subscribers (no request id)."""
    return _resp("event", None, event=event)
