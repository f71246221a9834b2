"""``repro-cluster`` — the multi-node experiment fabric.

Subcommands::

    repro-cluster serve  --socket /tmp/coord.sock \\
        --node unix:/tmp/w1.sock --node unix:/tmp/w2.sock
    repro-cluster submit --socket /tmp/coord.sock \\
        --benchmarks lusearch --gcs Serial G1 --seeds 0 1
    repro-cluster status --socket /tmp/coord.sock [--json]
    repro-cluster drain  --socket /tmp/coord.sock
    repro-cluster merge  --into results/ shards/w1 shards/w2 shards/w3
    repro-cluster failures --gc CMS -n 3       # failure-detector study

``serve`` fronts N ``repro-serve`` workers with the consistent-hash
coordinator; ``submit`` fans a campaign grid through it (pipelined on
one connection — routing, coalescing and stealing happen server-side);
``merge`` folds per-shard result stores into one, byte-identical to a
serial run's compacted store. ``failures`` is the original GC-vs-
failure-detector study this command name used to run, preserved as a
subcommand. Each subcommand imports what it runs: ``status`` and
``drain`` load neither the coordinator nor the simulator.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List, Optional

from ..analysis.report import render_table
from ..errors import ConfigError
from ..gc.registry import GC_HELP
from ..serve.cli import call, conn_args, run_cli


# -- serve ---------------------------------------------------------------


def serve_cmd(args) -> int:
    from .coordinator import ClusterConfig, ClusterCoordinator

    if not args.node:
        raise ConfigError("need at least one --node worker address")
    config = ClusterConfig(
        nodes=tuple(args.node), socket_path=args.socket,
        host=args.host, port=args.port, queue_limit=args.queue_limit,
        forward_timeout=args.forward_timeout,
        steal_interval=args.steal_interval,
        steal_threshold=args.steal_threshold,
    )

    async def main() -> int:
        coordinator = ClusterCoordinator(config)
        await coordinator.start()
        print(f"repro-cluster coordinating {len(config.nodes)} node(s) "
              f"on {coordinator.address} "
              f"(steal every {config.steal_interval}s beyond "
              f"{config.steal_threshold} pending)", flush=True)
        code = await coordinator.run()
        print("repro-cluster drained, exiting", flush=True)
        return code

    return asyncio.run(main())


# -- submit --------------------------------------------------------------


def _grid_args(parser: argparse.ArgumentParser) -> None:
    grid = parser.add_argument_group("grid axes")
    grid.add_argument("--benchmarks", nargs="+", required=True,
                      help="DaCapo benchmark names")
    grid.add_argument("--gcs", nargs="+", default=["ParallelOld"],
                      help=f"collectors ({GC_HELP})")
    grid.add_argument("--heaps", nargs="+", default=["1g"],
                      help="heap sizes (-Xmx), e.g. 1g 16g")
    grid.add_argument("--youngs", nargs="+", default=None,
                      help="young sizes (-Xmn); omit for the default fraction")
    grid.add_argument("--seeds", nargs="+", type=int, default=[0],
                      help="simulation seeds")
    grid.add_argument("--iterations", type=int, default=10,
                      help="DaCapo iterations per cell")
    grid.add_argument("--no-system-gc", action="store_true",
                      help="disable the forced full GC between iterations")
    grid.add_argument("--no-tlab", action="store_true", help="disable TLABs")


def _grid_jobs(args) -> List[dict]:
    from ..studies import GridSpec

    grid = GridSpec(
        benchmarks=args.benchmarks, gcs=args.gcs, heaps=args.heaps,
        youngs=args.youngs if args.youngs is not None else [None],
        seeds=args.seeds, iterations=args.iterations,
        system_gc=not args.no_system_gc, tlab_enabled=not args.no_tlab,
    )
    jobs = []
    for benchmark, gc, heap, young, seed in grid.cells():
        job = {
            "benchmark": benchmark, "gc": gc, "heap": heap, "seed": seed,
            "iterations": grid.iterations, "system_gc": grid.system_gc,
            "tlab_enabled": grid.tlab_enabled,
        }
        if young is not None:
            job["young"] = young
        jobs.append(job)
    return jobs


def submit_cmd(args) -> int:
    jobs = _grid_jobs(args)
    responses = call(args, lambda client: asyncio.gather(
        *(client.submit(job, timeout=args.wait) for job in jobs)))
    simulated = cached = failed = 0
    for job, resp in zip(jobs, responses):
        kind = resp.get("type")
        if kind == "result":
            if resp.get("cached"):
                cached += 1
            else:
                simulated += 1
            continue
        failed += 1
        detail = resp.get("reason") or json.dumps(
            resp.get("failure", {}), sort_keys=True)
        print(f"{kind}: {job['benchmark']}/{job['gc']}"
              f"/seed{job['seed']}: {detail}", file=sys.stderr)
    # Grep-stable summary (the CI service-smoke job asserts on it).
    print(f"cluster: simulated {simulated}, "
          f"cached {cached}/{len(jobs)}, failed {failed}")
    return 1 if failed else 0


# -- status --------------------------------------------------------------


def status_cmd(args) -> int:
    stats = call(args, lambda client: client.status(timeout=60.0))
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    cluster = stats.get("cluster", {})
    totals = stats.get("totals", {})
    cache = totals.get("cache", {})
    pauses = stats.get("pauses", {})
    hit_rate = cache.get("hit_rate")
    rows = [
        ("draining", stats.get("draining")),
        ("uptime (s)", round(stats.get("uptime_s", 0.0), 1)),
        ("live nodes", ", ".join(cluster.get("live", [])) or "none"),
        ("dead nodes", ", ".join(cluster.get("dead", [])) or "none"),
        ("forwards in flight",
         f"{cluster.get('inflight')} / {cluster.get('queue_limit')}"),
        ("cache hits / misses",
         f"{cache.get('hits')} / {cache.get('misses')}"),
        ("cache hit rate",
         "n/a" if hit_rate is None else f"{100 * hit_rate:.1f}%"),
        ("pauses observed (all nodes)", pauses.get("count")),
    ]
    if pauses.get("count"):
        rows.append(("pause p50 / p99 / max (s)",
                     f"{pauses.get('p50', 0.0):.4f} / "
                     f"{pauses.get('p99', 0.0):.4f} / "
                     f"{pauses.get('max', 0.0):.4f}"))
    for node_id, pending in sorted(
            cluster.get("pending_by_node", {}).items()):
        node = stats.get("nodes", {}).get(node_id, {})
        node_cache = node.get("cache", {})
        rows.append((f"node {node_id}",
                     f"pending {pending}, "
                     f"hits {node_cache.get('hits', 0)}, "
                     f"misses {node_cache.get('misses', 0)}"))
    print(render_table(["metric", "value"], rows,
                       title="repro-cluster status"))
    return 0


# -- drain ---------------------------------------------------------------


def drain_cmd(args) -> int:
    msg = call(args, lambda client: client.drain(timeout=args.wait))
    stats = msg.get("stats", {})
    cache = stats.get("totals", {}).get("cache", {})
    counters = stats.get("metrics", {}).get("counters", {})
    print(f"cluster drained: {cache.get('misses', 0)} simulated, "
          f"{cache.get('hits', 0)} cache hits, "
          f"{counters.get('cluster.jobs.failed', 0)} failed, "
          f"{counters.get('cluster.steals', 0)} stolen")
    return 0


# -- merge ---------------------------------------------------------------


def merge_cmd(args) -> int:
    """Fold shard stores into one store (scatter-gather epilogue)."""
    from ..campaign.store import merge_stores

    stats = merge_stores(args.sources, args.into)
    print(stats.summary())
    return 0


# -- failures (the original repro-cluster study) --------------------------


def failures_cmd(args) -> int:
    """GC pauses vs. the cluster failure detector (PAPER §5)."""
    from ..cassandra.cluster import ClusterConfig as StudyConfig
    from ..cassandra.cluster import run_cluster_study
    from ..cli import _build_config
    from ..units import MB

    cluster = StudyConfig(n_nodes=args.nodes,
                          failure_timeout=args.phi_timeout)
    result = run_cluster_study(
        args.gc, cluster=cluster, duration=args.duration,
        ops_per_second=args.ops, seed=args.seed,
        jvm_template=_build_config(args),
    )
    print(render_table(
        ["metric", "value"],
        [
            ("collector", result.gc),
            ("nodes", args.nodes),
            ("DOWN convictions", len(result.down_events)),
            ("node-down seconds", round(result.total_unavailable_seconds, 1)),
            ("availability", f"{100 * result.availability(args.duration):.3f}%"),
            ("hinted handoff (MB)", round(result.hinted_handoff_bytes / MB, 1)),
        ],
        title="Cluster failure-detector study",
    ))
    return 0


# -- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    from ..cli import _jvm_args

    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description="Multi-node experiment fabric: consistent-hash "
                    "routing, work stealing, exact scatter-gather "
                    "aggregation over repro-serve workers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the cluster coordinator")
    conn_args(p, "coordinator Unix socket path")
    p.add_argument("--node", action="append", default=[],
                   metavar="ADDR",
                   help="worker address (unix:/path or host:port); "
                        "repeat per node")
    p.add_argument("--queue-limit", type=int, default=256,
                   help="in-flight forward bound; submits beyond it get 429")
    p.add_argument("--forward-timeout", type=float, default=600.0,
                   help="per-forward worker response budget (seconds)")
    p.add_argument("--steal-interval", type=float, default=0.5,
                   help="straggler-check period (seconds)")
    p.add_argument("--steal-threshold", type=int, default=2,
                   help="min pending-job imbalance before stealing")
    p.set_defaults(fn=serve_cmd)

    p = sub.add_parser("submit", help="submit a campaign grid and wait")
    conn_args(p, "coordinator Unix socket path")
    _grid_args(p)
    p.add_argument("--wait", type=float, default=600.0,
                   help="per-cell client timeout (seconds)")
    p.set_defaults(fn=submit_cmd)

    p = sub.add_parser("status", help="aggregated cluster stats")
    conn_args(p, "coordinator Unix socket path")
    p.add_argument("--json", action="store_true",
                   help="machine-readable aggregate snapshot")
    p.set_defaults(fn=status_cmd)

    p = sub.add_parser("drain", help="drain coordinator and all workers")
    conn_args(p, "coordinator Unix socket path")
    p.add_argument("--wait", type=float, default=600.0,
                   help="how long to wait for the drain (seconds)")
    p.set_defaults(fn=drain_cmd)

    p = sub.add_parser("merge", help="merge shard result stores into one")
    p.add_argument("sources", nargs="+", metavar="SRC",
                   help="shard store directories")
    p.add_argument("--into", required=True, metavar="DEST",
                   help="destination store directory")
    p.set_defaults(fn=merge_cmd)

    p = sub.add_parser("failures",
                       help="GC-vs-failure-detector study (the original "
                            "repro-cluster command)")
    p.add_argument("-n", "--nodes", type=int, default=3)
    p.add_argument("--duration", type=float, default=3600.0)
    p.add_argument("--ops", type=float, default=1350.0)
    p.add_argument("--phi-timeout", type=float, default=3.0,
                   help="failure-detector conviction timeout (s)")
    _jvm_args(p)
    p.set_defaults(heap="64g", young="12g", fn=failures_cmd)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    return run_cli(build_parser(), argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
