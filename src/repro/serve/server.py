"""The NDJSON server under both ``repro-serve`` and ``repro-cluster``.

:class:`NdjsonServer` owns what the experiment service
(:class:`~repro.serve.service.ExperimentService`) and the cluster
coordinator (:class:`~repro.cluster.coordinator.ClusterCoordinator`) do
the same way (DESIGN.md §13.4):

* binding the listener — a Unix socket, or TCP;
* line framing: one request per ``\\n``-terminated line; an oversized
  line gets a 413 and drops the connection (framing is lost), a
  malformed one gets a 400 and the connection lives on;
* the ``ping``, ``status`` and ``drain`` ops, and event fan-out to
  subscribed connections;
* task spawning, the signal-driven :meth:`~NdjsonServer.run` and
  :meth:`~NdjsonServer.close`.

A subclass keeps only its own ops (:meth:`~NdjsonServer._handle`), its
stats (:meth:`~NdjsonServer.stats_async`) and what a drain waits for
(:meth:`~NdjsonServer._busy`, :meth:`~NdjsonServer._drained`).

The clock is injected, never defaulted here: ``cluster/`` is part of
simlint's deterministic core (SL102), and this module is on its call
graph.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
from typing import Callable, Dict, Optional, Set, Tuple, Union

from ..errors import ProtocolError
from ..telemetry.metrics import MetricsRegistry
from . import protocol


class Connection:
    """One client connection: serialized writes, tolerant of disconnects."""

    __slots__ = ("writer", "_lock", "closed", "subscribed")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self._lock = asyncio.Lock()
        self.closed = False
        self.subscribed = False     #: receives the server's events

    async def send(self, msg: Union[Dict[str, object], bytes]) -> bool:
        """Write one message, or one line already encoded; False (never
        an exception) if the client has gone away — a subscriber hanging
        up mid-stream must not take a worker or the server loop down
        with it."""
        if self.closed:
            return False
        line = msg if isinstance(msg, bytes) else protocol.encode(msg)
        async with self._lock:
            if self.closed:
                return False
            try:
                self.writer.write(line)
                await self.writer.drain()
                return True
            except (ConnectionError, RuntimeError, OSError):
                self.closed = True
                return False

    def close(self) -> None:
        self.closed = True
        with contextlib.suppress(Exception):
            self.writer.close()


class NdjsonServer:
    """Listener, framing, shared ops and lifecycle of one NDJSON server.

    *config* needs ``socket_path``, ``host``, ``port`` and
    ``max_line_bytes``; *clock* supplies every time reading.
    """

    #: Request ops :func:`protocol.parse_request` accepts.
    OPS: Tuple[str, ...] = protocol.OPS
    #: The counter whose nonzero value makes :meth:`run` exit 1.
    FAILURE_COUNTER: str

    def __init__(self, config, *, clock: Callable[[], float]):
        self.config = config
        self._clock = clock
        self.metrics = MetricsRegistry()
        self.address: Optional[object] = None
        self._conns: Set[Connection] = set()
        self._tasks: Set[asyncio.Task] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._idle = asyncio.Event()
        self._stopped = asyncio.Event()
        self._t0 = self._clock()

    # -- what a subclass provides ------------------------------------------

    def _open(self) -> None:
        """Open resources and spawn long-lived tasks (before binding)."""

    async def _release(self) -> None:
        """Release what :meth:`_open` opened (after the listener closed)."""

    async def _handle(self, conn: Connection, rid, op: str,
                      msg: Dict[str, object]) -> None:
        """Answer one of the subclass's own ops. A :class:`ProtocolError`
        raised here becomes an ``error`` reply with its code."""
        raise NotImplementedError

    async def stats_async(self) -> Dict[str, object]:
        """The ``status`` op's snapshot."""
        raise NotImplementedError

    def _busy(self) -> bool:
        """Whether work that a drain waits for is still in flight."""
        return False

    async def _drained(self) -> Dict[str, object]:
        """The drain report, taken once nothing is in flight."""
        return await self.stats_async()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Open the subclass's resources, then bind the listener."""
        self._open()
        limit = self.config.max_line_bytes + 1024
        if self.config.socket_path:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.config.socket_path)
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=self.config.socket_path, limit=limit)
            self.address = self.config.socket_path
        else:
            self._server = await asyncio.start_server(
                self._handle_conn, host=self.config.host,
                port=self.config.port, limit=limit)
            self.address = self._server.sockets[0].getsockname()[:2]
        self._t0 = self._clock()

    async def run(self, *, handle_signals: bool = True) -> int:
        """Serve a started server until drained (SIGTERM/SIGINT or a
        ``drain`` request), then close it.

        Returns a process exit code: 0 for a clean drain, 1 when
        :attr:`FAILURE_COUNTER` counted anything while serving.
        """
        if self._server is None:
            raise RuntimeError("start() the server before run()")
        if handle_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(
                    sig, lambda: self._spawn(self.drain()))
        await self._stopped.wait()
        await self.close()
        return 1 if self.metrics.counter(self.FAILURE_COUNTER).value else 0

    async def drain(self) -> Dict[str, object]:
        """Stop admission, wait until nothing is in flight, then stop.

        Idempotent; returns the final stats snapshot.
        """
        if not self._draining:
            self._draining = True
            self._publish("draining")
            self._check_idle()
        await self._idle.wait()
        stats = await self._drained()
        self._publish("drained")
        self._stopped.set()
        return stats

    async def close(self) -> None:
        """Tear everything down (no draining — see :meth:`drain`).

        Connections close before the listener is awaited: since Python
        3.12.1, ``wait_closed()`` returns only once every connection has
        dropped, so a client that stays connected would hang it.
        """
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        for task in tasks:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        for conn in list(self._conns):
            conn.close()
        self._conns.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._release()
        if self.config.socket_path:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.config.socket_path)
        self._stopped.set()

    def _spawn(self, coro) -> asyncio.Task:
        """Run *coro* as a task that :meth:`close` cancels."""
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def _now(self) -> float:
        return round(self._clock() - self._t0, 6)

    def _check_idle(self) -> None:
        if self._draining and not self._busy():
            self._idle.set()

    def _publish(self, kind: str, **fields) -> None:
        """Fan one lifecycle event out to every subscribed connection."""
        subscribers = [c for c in self._conns
                       if c.subscribed and not c.closed]
        if not subscribers:
            return
        event: Dict[str, object] = {"kind": kind, "t": self._now()}
        event.update(fields)
        msg = protocol.event_msg(event)
        for conn in subscribers:
            self._spawn(conn.send(msg))

    # -- connection handling -----------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        conn = Connection(writer)
        self._conns.add(conn)
        self.metrics.counter("connections.opened").inc()
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError:
                    break           # client hung up (possibly mid-line)
                except asyncio.LimitOverrunError:
                    self.metrics.counter("protocol.errors").inc()
                    await conn.send(protocol.error_msg(
                        None, 413,
                        f"line exceeds the {self.config.max_line_bytes}-byte "
                        "limit"))
                    break           # framing is lost; drop the connection
                except (ConnectionError, OSError):
                    break
                if line.strip():
                    await self._dispatch(conn, line)
        finally:
            self._conns.discard(conn)
            conn.close()
            self.metrics.counter("connections.closed").inc()

    async def _dispatch(self, conn: Connection, line: bytes) -> None:
        rid: Optional[object] = None
        try:
            msg = protocol.decode(line, max_bytes=self.config.max_line_bytes)
            rid = msg.get("id")
            op, rid = protocol.parse_request(msg, ops=self.OPS)
            if op == "ping":
                await conn.send(protocol.pong_msg(rid))
            elif op == "status":
                await conn.send(protocol.stats_msg(
                    rid, await self.stats_async()))
            elif op == "drain":
                await conn.send(protocol.draining_msg(rid))
                self._spawn(self._drain_and_report(conn, rid))
            else:
                await self._handle(conn, rid, op, msg)
        except ProtocolError as exc:
            self.metrics.counter("protocol.errors").inc()
            await conn.send(protocol.error_msg(rid, exc.code, str(exc)))

    async def _drain_and_report(self, conn: Connection, rid) -> None:
        stats = await self.drain()
        await conn.send(protocol.drained_msg(rid, stats))
