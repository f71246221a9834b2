"""``repro-serve`` — run, query and load-test the experiment service.

Subcommands::

    repro-serve serve  --socket /tmp/repro.sock --store results/
    repro-serve submit --socket /tmp/repro.sock xalan --gc G1 --heap 16g
    repro-serve status --socket /tmp/repro.sock [--json]
    repro-serve load   --socket /tmp/repro.sock --clients 4 --rps 50 --ops 100
    repro-serve events --socket /tmp/repro.sock
    repro-serve drain  --socket /tmp/repro.sock

The service listens on a Unix socket (``--socket``) or TCP
(``--host``/``--port``); every client subcommand takes the same
connection flags. ``repro-cluster`` reuses this module's connection
flags (:func:`conn_args`), its one-connection client call (:func:`call`)
and its mapping from errors to exit codes (:func:`run_cli`). Only
``serve`` and ``load`` import the service and the load generator, so
the other subcommands start without numpy or the simulator.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Awaitable, Callable, List, Optional, TypeVar

from ..analysis.report import render_table
from ..errors import ConfigError, ProtocolError
from ..gc.registry import GC_HELP
from .client import ServiceClient


T = TypeVar("T")


def conn_args(parser: argparse.ArgumentParser,
              socket_help: str = "Unix socket path (preferred locally)",
              ) -> None:
    """Add the flags that say where the server listens."""
    parser.add_argument("--socket", default=None, metavar="PATH",
                        help=socket_help)
    parser.add_argument("--host", default="127.0.0.1", help="TCP host")
    parser.add_argument("--port", type=int, default=0, help="TCP port")


def _check_conn(args) -> None:
    if not args.socket and not args.port:
        raise ConfigError("need --socket PATH or --port N to reach the server")


def call(args, request: Callable[[ServiceClient], Awaitable[T]]) -> T:
    """Run ``request(client)`` on one connection to the server that
    *args*' connection flags name; returns what it returns."""
    _check_conn(args)

    async def main() -> T:
        client = await ServiceClient.connect(args.socket, args.host,
                                             args.port)
        try:
            return await request(client)
        finally:
            await client.close()

    return asyncio.run(main())


def run_cli(parser: argparse.ArgumentParser,
            argv: Optional[List[str]]) -> int:
    """Parse *argv* and run its subcommand. A bad request or an
    unreachable server exits 2; stdout closed early exits 0."""
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ProtocolError) as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (e.g. piped through `head`); not a
        # server failure — mirror the conventional silent exit.
        return 0
    except (ConnectionError, FileNotFoundError) as exc:
        print(f"{parser.prog}: cannot reach the server: {exc}",
              file=sys.stderr)
        return 2


def _job_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gc", default="ParallelOld",
                        help=f"collector: {GC_HELP}")
    parser.add_argument("--heap", default="1g", help="heap size (-Xmx/-Xms)")
    parser.add_argument("--young", default=None, help="young size (-Xmn)")
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument("-n", "--iterations", type=int, default=10)
    parser.add_argument("--no-system-gc", action="store_true",
                        help="disable the forced full GC between iterations")
    parser.add_argument("--no-tlab", action="store_true", help="disable TLABs")


def _job_from_args(args, benchmark: str, seed: Optional[int] = None) -> dict:
    job = {
        "benchmark": benchmark,
        "gc": args.gc,
        "heap": args.heap,
        "seed": args.seed if seed is None else seed,
        "iterations": args.iterations,
        "system_gc": not args.no_system_gc,
        "tlab_enabled": not args.no_tlab,
    }
    if args.young:
        job["young"] = args.young
    return job


# -- serve ---------------------------------------------------------------


def serve_cmd(args) -> int:
    from .service import ExperimentService, ServiceConfig

    config = ServiceConfig(
        store=args.store, socket_path=args.socket,
        host=args.host, port=args.port,
        queue_limit=args.queue_limit, workers=args.workers,
        executor=args.executor, pool_workers=args.pool_workers,
        timeout=args.timeout, retries=args.retries,
    )

    async def main() -> int:
        service = ExperimentService(config)
        await service.start()
        print(f"repro-serve listening on {service.address} "
              f"(store: {config.store or 'none'}, "
              f"executor: {config.executor}, workers: {config.workers}, "
              f"queue limit: {config.queue_limit})", flush=True)
        code = await service.run()
        print("repro-serve drained, exiting", flush=True)
        return code

    return asyncio.run(main())


# -- submit --------------------------------------------------------------


def submit_cmd(args) -> int:
    job = _job_from_args(args, args.benchmark)
    resp = call(args, lambda client: client.submit(job, timeout=args.wait))
    kind = resp.get("type")
    if kind == "result":
        run = resp["run"]
        meta = resp.get("meta", {})
        source = "cache" if resp.get("cached") else (
            f"simulated in {meta.get('exec_s', 0.0):.3f}s "
            f"(attempt {meta.get('attempts')}, "
            f"queued {meta.get('queued_s', 0.0):.3f}s)")
        print(f"result {resp['digest'][:12]} [{source}]")
        # encode_run pauses: [start, duration, kind, cause, ...]
        pauses = run.get("gc_log", {}).get("pauses", [])
        full = sum(1 for p in pauses if p[2] == "full")
        print(render_table(
            ["benchmark", "gc", "exec (s)", "#pauses(full)",
             "total pause (s)", "crashed"],
            [[args.benchmark, args.gc,
              round(run.get("execution_time", 0.0), 3),
              f"{len(pauses)}({full})",
              round(sum(p[1] for p in pauses), 3),
              bool(run.get("crashed"))]],
        ))
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(run, fh, sort_keys=True, indent=2)
            print(f"run written to {args.out}")
        return 1 if run.get("crashed") else 0
    if kind == "failed":
        failure = resp.get("failure", {})
        print(f"failed {resp.get('digest', '')[:12]}: "
              f"[{failure.get('kind')}] {failure.get('error')} "
              f"({failure.get('attempts')} attempts)", file=sys.stderr)
        return 1
    print(f"{kind} ({resp.get('code')}): {resp.get('reason')}",
          file=sys.stderr)
    return 1


# -- status --------------------------------------------------------------


def status_cmd(args) -> int:
    stats = call(args, lambda client: client.status(timeout=30.0))
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    queue = stats.get("queue", {})
    workers = stats.get("workers", {})
    cache = stats.get("cache", {})
    pauses = stats.get("pauses", {})
    hit_rate = cache.get("hit_rate")
    rows = [
        ("draining", stats.get("draining")),
        ("uptime (s)", round(stats.get("uptime_s", 0.0), 1)),
        ("queue depth / limit", f"{queue.get('depth')} / {queue.get('limit')}"),
        ("in flight", queue.get("inflight")),
        ("workers alive / configured",
         f"{workers.get('alive')} / {workers.get('configured')} "
         f"({workers.get('executor')})"),
        ("pools recycled", workers.get("pools_recycled")),
        ("cache hits / misses", f"{cache.get('hits')} / {cache.get('misses')}"),
        ("cache hit rate",
         "n/a" if hit_rate is None else f"{100 * hit_rate:.1f}%"),
        ("pauses observed", pauses.get("count")),
        ("subscribers", stats.get("subscribers")),
    ]
    if pauses.get("count"):
        rows.append(("pause p50 / p99 / max (s)",
                     f"{pauses.get('p50', 0.0):.4f} / "
                     f"{pauses.get('p99', 0.0):.4f} / "
                     f"{pauses.get('max', 0.0):.4f}"))
    store = stats.get("store")
    if store:
        rows.append(("store records (ok/failed)",
                     f"{store.get('records')} "
                     f"({store.get('ok')}/{store.get('failed')})"))
    print(render_table(["metric", "value"], rows, title="repro-serve status"))
    return 0


# -- drain ---------------------------------------------------------------


def drain_cmd(args) -> int:
    msg = call(args, lambda client: client.drain(timeout=args.wait))
    stats = msg.get("stats", {})
    cache = stats.get("cache", {})
    quarantined = stats.get("metrics", {}).get(
        "counters", {}).get("jobs.quarantined", 0)
    print(f"drained: {cache.get('misses', 0)} simulated, "
          f"{cache.get('hits', 0)} cache hits, {quarantined} quarantined")
    return 0


# -- events --------------------------------------------------------------


def events_cmd(args) -> int:
    async def stream(client: ServiceClient) -> int:
        await client.subscribe()
        count = 0
        async for event in client.events():
            print(json.dumps(event, sort_keys=True), flush=True)
            count += 1
            if args.count and count >= args.count:
                break
            if event.get("kind") == "drained":
                break
        return 0

    try:
        return call(args, stream)
    except KeyboardInterrupt:
        return 0


# -- load ----------------------------------------------------------------


def load_cmd(args) -> int:
    from .loadgen import LoadConfig, run_load

    _check_conn(args)
    templates = [
        _job_from_args(args, benchmark, seed=args.seed + d)
        for benchmark in args.benchmark or ["xalan", "lusearch"]
        for d in range(args.distinct)
    ]
    config = LoadConfig(
        templates=templates, clients=args.clients, rps=args.rps,
        ops=args.ops, seed=args.seed, socket_path=args.socket,
        host=args.host, port=args.port, timeout=args.wait,
    )
    report = asyncio.run(run_load(config))
    print(report.render())
    return 1 if (report.errors or report.failed) else 0


# -- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Async GC-experiment service: admission control, "
                    "content-addressed result caching, live telemetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the experiment service")
    conn_args(p)
    p.add_argument("--store", default=None, metavar="DIR",
                   help="ResultStore directory (shared with repro-campaign)")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="admission bound; submits beyond it get a 429")
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent job slots")
    p.add_argument("--executor", choices=["serial", "process"],
                   default="serial", help="execution backend")
    p.add_argument("--pool-workers", type=int, default=None,
                   help="process-pool size (process executor)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-job wall-clock budget (seconds)")
    p.add_argument("--retries", type=int, default=1,
                   help="retries before a cell is quarantined")
    p.set_defaults(fn=serve_cmd)

    p = sub.add_parser("submit", help="submit one job and wait")
    conn_args(p)
    p.add_argument("benchmark")
    _job_args(p)
    p.add_argument("--wait", type=float, default=600.0,
                   help="client-side response timeout (seconds)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the RunResult JSON to a file")
    p.set_defaults(fn=submit_cmd)

    p = sub.add_parser("status", help="show service stats")
    conn_args(p)
    p.add_argument("--json", action="store_true",
                   help="machine-readable stats snapshot")
    p.set_defaults(fn=status_cmd)

    p = sub.add_parser("drain", help="drain the service and wait")
    conn_args(p)
    p.add_argument("--wait", type=float, default=600.0,
                   help="how long to wait for the drain (seconds)")
    p.set_defaults(fn=drain_cmd)

    p = sub.add_parser("events", help="stream live service events")
    conn_args(p)
    p.add_argument("--count", type=int, default=0,
                   help="stop after N events (0 = until drained/^C)")
    p.set_defaults(fn=events_cmd)

    p = sub.add_parser("load", help="synthetic open-loop load generator")
    conn_args(p)
    p.add_argument("--benchmark", action="append", default=None,
                   help="benchmark(s) in the mix (repeatable; "
                        "default: xalan lusearch)")
    _job_args(p)
    p.add_argument("--clients", type=int, default=4,
                   help="persistent client connections")
    p.add_argument("--rps", type=float, default=50.0,
                   help="open-loop arrival rate (req/s)")
    p.add_argument("--ops", type=int, default=100, help="total requests")
    p.add_argument("--distinct", type=int, default=4,
                   help="distinct seeds per benchmark in the mix")
    p.add_argument("--wait", type=float, default=600.0,
                   help="per-request client timeout (seconds)")
    p.set_defaults(fn=load_cmd)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    return run_cli(build_parser(), argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
