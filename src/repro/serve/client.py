"""Async client for the ``repro-serve`` protocol.

A thin, pipelining-friendly wrapper: a background reader task routes
responses to per-request queues by ``id``, so any number of submits can
be in flight on one connection (the loadgen rides on this), while
``event`` messages stream into their own queue for subscribers.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import AsyncIterator, Dict, Optional

from ..errors import ProtocolError
from . import protocol

#: Response types that end a request/response exchange.
_TERMINAL = {"result", "failed", "rejected", "error", "stats", "pong",
             "subscribed", "drained", "cancelled", "joined", "left"}


class ServiceClient:
    """One connection to a running experiment service."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: Dict[object, asyncio.Queue] = {}
        self._events: "asyncio.Queue[dict]" = asyncio.Queue()
        self._closed = False
        self._read_error: Optional[BaseException] = None
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop())

    # -- connecting ------------------------------------------------------

    @classmethod
    async def connect(cls, socket_path: Optional[str] = None,
                      host: str = "127.0.0.1", port: int = 0,
                      *, limit: int = protocol.MAX_LINE_BYTES + 1024
                      ) -> "ServiceClient":
        """Open a connection (Unix socket when *socket_path* is given)."""
        if socket_path:
            reader, writer = await asyncio.open_unix_connection(
                socket_path, limit=limit)
        else:
            reader, writer = await asyncio.open_connection(
                host, port, limit=limit)
        return cls(reader, writer)

    async def close(self) -> None:
        """Close the connection and stop the reader task."""
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except Exception:
            pass

    # -- plumbing --------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readuntil(b"\n")
                msg = protocol.decode(line)
                if msg.get("type") == "event":
                    self._events.put_nowait(msg)
                    continue
                rid = msg.get("id")
                queue = self._pending.get(rid)
                if queue is not None:
                    queue.put_nowait(msg)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._read_error = exc
            # Wake every waiter: the connection is gone.
            for queue in self._pending.values():
                queue.put_nowait(None)
            self._events.put_nowait({})

    async def _request(self, msg: dict, rid) -> "asyncio.Queue":
        if self._read_error is not None:
            # No reader is left to route a reply to this request.
            raise ProtocolError("connection closed by the service", code=499)
        queue: "asyncio.Queue" = asyncio.Queue()
        self._pending[rid] = queue
        self._writer.write(protocol.encode(msg))
        await self._writer.drain()
        return queue

    async def _next(self, queue: "asyncio.Queue",
                    timeout: Optional[float]) -> dict:
        msg = await asyncio.wait_for(queue.get(), timeout)
        if msg is None:
            raise ProtocolError("connection closed by the service", code=499)
        return msg

    # -- requests --------------------------------------------------------

    async def submit(self, job: dict, *,
                     timeout: Optional[float] = None) -> dict:
        """Submit one job and wait for its terminal response.

        Returns the terminal message: ``result`` (with ``run``/``meta``),
        ``failed``, ``rejected`` or ``error``. The intermediate
        ``queued`` acknowledgement, when any, is attached to the terminal
        message under ``"queued"``.
        """
        rid = next(self._ids)
        queue = await self._request({"op": "submit", "id": rid, "job": job},
                                    rid)
        queued: Optional[dict] = None
        try:
            while True:
                msg = await self._next(queue, timeout)
                if msg.get("type") == "queued":
                    queued = msg
                    continue
                if queued is not None:
                    msg = dict(msg)
                    msg["queued"] = queued
                return msg
        finally:
            self._pending.pop(rid, None)

    async def _simple(self, op: str, *, expect: str,
                      timeout: Optional[float] = None) -> dict:
        rid = next(self._ids)
        queue = await self._request({"op": op, "id": rid}, rid)
        try:
            msg = await self._next(queue, timeout)
            if msg.get("type") not in (expect, "rejected", "error"):
                # drain: a "draining" ack precedes "drained"
                while msg.get("type") not in _TERMINAL:
                    msg = await self._next(queue, timeout)
            return msg
        finally:
            self._pending.pop(rid, None)

    async def ping(self, *, timeout: Optional[float] = None) -> dict:
        """Liveness probe; returns the ``pong`` message."""
        return await self._simple("ping", expect="pong", timeout=timeout)

    async def cancel(self, digest: str, *,
                     timeout: Optional[float] = None) -> dict:
        """Withdraw a queued job by digest (the steal primitive).

        Returns the ``cancelled`` message; its ``outcome`` field is the
        at-most-once verdict (``cancelled``/``busy``/``unknown``).
        """
        rid = next(self._ids)
        queue = await self._request(
            {"op": "cancel", "id": rid, "digest": digest}, rid)
        try:
            return await self._next(queue, timeout)
        finally:
            self._pending.pop(rid, None)

    async def status(self, *, timeout: Optional[float] = None) -> dict:
        """Fetch the service stats snapshot (the ``stats`` field)."""
        msg = await self._simple("status", expect="stats", timeout=timeout)
        return msg.get("stats", msg)

    async def drain(self, *, timeout: Optional[float] = None) -> dict:
        """Ask the service to drain; waits for the ``drained`` message."""
        return await self._simple("drain", expect="drained", timeout=timeout)

    async def subscribe(self) -> None:
        """Start streaming live service events into :meth:`events`."""
        await self._simple("subscribe", expect="subscribed")

    async def events(self) -> AsyncIterator[dict]:
        """Yield streamed events (call :meth:`subscribe` first)."""
        while True:
            msg = await self._events.get()
            if not msg:        # reader loop ended
                return
            yield msg["event"]
