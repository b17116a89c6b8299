"""Command-line interface: ``python -m repro <command>``.

Gives downstream users a no-code path through the full workflow:

- ``generate-network`` — synthesize a road network to a file;
- ``generate-trips`` — synthesize a trajectory dataset on a network;
- ``stats`` — Table-2-style statistics of a dataset;
- ``query`` — run one subtrajectory similarity query;
- ``travel-time`` — estimate the travel time of a path;
- ``index build`` / ``index inspect`` — freeze a dataset's inverted
  index into the mmap-able single-file format (``docs/INDEX_FORMAT.md``),
  optionally sharded, and examine an index file's header;
- ``serve`` — run the JSON-over-HTTP query service (``--self-test``
  starts it on a synthetic workload, issues one or more HTTP queries,
  and exits; ``--index`` serves from a prebuilt frozen index;
  ``--backend remote --shard-map`` fans shards out to standalone worker
  nodes over fault-tolerant sockets);
- ``worker`` — run one standalone shard worker node
  (``--listen HOST:PORT``); a ``serve --shard-map`` frontend connects,
  ships it a shard, and reconnects through node restarts;
- ``trace`` — fetch completed traces from a running server's flight
  recorder (``/debug/traces``) and render them as span trees.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.apps.travel_time import TravelTimeEstimator
from repro.core.engine import (
    DEFAULT_SUBSTITUTION_CACHE,
    DEFAULT_TRIE_CACHE,
    DEFAULT_TRIE_CACHE_BYTES,
    SubtrajectorySearch,
)
from repro.core.temporal import TimeInterval
from repro.distance.costs import (
    CostModel,
    EDRCost,
    ERPCost,
    LevenshteinCost,
    NetEDRCost,
    NetERPCost,
    SURSCost,
)
from repro.network.generators import grid_city, radial_ring_city, random_city
from repro.network.graph import RoadNetwork
from repro.network.io import load_network, save_network
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.generator import TripGenerator

__all__ = ["main"]


def _build_cost_model(args: argparse.Namespace, graph: RoadNetwork) -> CostModel:
    name = args.function.lower()
    if name == "lev":
        return LevenshteinCost(args.representation)
    if name == "edr":
        return EDRCost(graph, epsilon=args.epsilon)
    if name == "erp":
        return ERPCost(graph, eta=args.eta)
    if name == "netedr":
        return NetEDRCost(graph)
    if name == "neterp":
        return NetERPCost(graph, g_del=args.g_del)
    if name == "surs":
        return SURSCost(graph)
    raise SystemExit(f"unknown similarity function {args.function!r}")


def _parse_symbols(text: str) -> List[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise SystemExit(f"bad symbol list {text!r}: {exc}") from exc


def _add_cost_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--function",
        default="edr",
        choices=["lev", "edr", "erp", "netedr", "neterp", "surs"],
        help="similarity function (default: edr)",
    )
    parser.add_argument(
        "--representation",
        default="vertex",
        choices=["vertex", "edge"],
        help="symbol alphabet; surs requires edge (default: vertex)",
    )
    parser.add_argument("--epsilon", type=float, default=100.0, help="EDR threshold")
    parser.add_argument("--eta", type=float, default=0.01, help="ERP/NetERP eta")
    parser.add_argument("--g-del", type=float, default=2000.0, help="NetERP del cost")


def _add_dp_backend_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dp-backend",
        default="auto",
        choices=["auto", "numpy", "python"],
        help="verification DP backend: 'auto' picks per query (pure-Python "
        "for short queries over vectorizable cost models, array-native "
        "numpy everywhere else), 'numpy'/'python' force one backend "
        "(default: auto; identical results either way)",
    )
    parser.add_argument(
        "--substitution-cache-size",
        type=int,
        default=DEFAULT_SUBSTITUTION_CACHE,
        help="engine-level LRU of per-query substitution matrices; "
        "repeated queries skip substitution-row computation on a hit "
        f"(0 disables; default: {DEFAULT_SUBSTITUTION_CACHE} entries "
        "per engine/shard)",
    )
    parser.add_argument(
        "--trie-cache-size",
        type=int,
        default=DEFAULT_TRIE_CACHE,
        help="engine-level LRU of per-query verification tries; repeated "
        "queries (tau/time-window variations included) start with warm "
        "DP columns and only compute the cold frontier (0 disables; "
        f"default: {DEFAULT_TRIE_CACHE} entries, shared across "
        "in-process shards)",
    )
    parser.add_argument(
        "--trie-cache-mb",
        type=float,
        default=DEFAULT_TRIE_CACHE_BYTES / (1024 * 1024),
        help="byte budget (MiB) across all cached trie arenas; LRU "
        "entries are shed past it after each verification (default: "
        f"{DEFAULT_TRIE_CACHE_BYTES // (1024 * 1024)} MiB)",
    )


def _cmd_generate_network(args: argparse.Namespace) -> int:
    if args.style == "grid":
        graph = grid_city(args.rows, args.cols, seed=args.seed)
    elif args.style == "radial":
        graph = radial_ring_city(args.rows, args.cols, seed=args.seed)
    else:
        graph = random_city(args.rows * args.cols, seed=args.seed)
    save_network(graph, args.out)
    print(f"wrote {graph.num_vertices} vertices / {graph.num_edges} edges to {args.out}")
    return 0


def _cmd_generate_trips(args: argparse.Namespace) -> int:
    graph = load_network(args.network)
    gen = TripGenerator(graph, seed=args.seed)
    dataset = TrajectoryDataset(graph)
    dataset.extend(
        gen.generate(args.count, min_length=args.min_length, max_length=args.max_length)
    )
    dataset.save(args.out)
    print(f"wrote {len(dataset)} trajectories to {args.out}")
    return 0


def _load(args: argparse.Namespace, representation: str) -> tuple:
    graph = load_network(args.network)
    dataset = TrajectoryDataset.load(graph, args.trips)
    if representation == "edge":
        edge_ds = TrajectoryDataset(graph, "edge")
        for t in dataset:
            edge_ds.add(t)
        dataset = edge_ds
    return graph, dataset


def _cmd_stats(args: argparse.Namespace) -> int:
    _, dataset = _load(args, "vertex")
    print(json.dumps(dataset.statistics(), indent=2))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    graph, dataset = _load(args, args.representation)
    costs = _build_cost_model(args, graph)
    if costs.representation != dataset.representation:
        raise SystemExit(
            f"{args.function} needs --representation {costs.representation}"
        )
    engine = SubtrajectorySearch(
        dataset,
        costs,
        dp_backend=args.dp_backend,
        substitution_cache_size=args.substitution_cache_size,
        trie_cache_size=args.trie_cache_size,
        trie_cache_bytes=int(args.trie_cache_mb * 1024 * 1024),
    )
    query = _parse_symbols(args.query)
    interval = None
    if args.time_from is not None or args.time_to is not None:
        if args.time_from is None or args.time_to is None:
            raise SystemExit("--time-from and --time-to must be given together")
        interval = TimeInterval(args.time_from, args.time_to)
    if args.top_k is not None:
        if args.top_k <= 0:
            raise SystemExit("--top-k must be positive")
        if args.tau is not None:
            raise SystemExit("--top-k and --tau are mutually exclusive")
        if interval is not None:
            raise SystemExit("--top-k does not support temporal constraints")
        result = engine.topk(query, args.top_k)
        out = {
            "k": result.k,
            "ties_at_k": result.ties_at_k,
            "tau_rounds": result.tau_rounds,
            "tau_final": result.tau_final,
            "swept": result.swept,
            "candidates": result.num_candidates,
            "seconds": result.total_seconds,
            "results": [
                {
                    "rank": rank,
                    "trajectory": m.trajectory_id,
                    "start": m.start,
                    "end": m.end,
                    "distance": m.distance,
                }
                for rank, m in enumerate(result.matches[: args.limit], start=1)
            ],
            "total_results": len(result.matches),
        }
        print(json.dumps(out, indent=2))
        return 0
    result = engine.query(
        query,
        tau=args.tau,
        tau_ratio=args.tau_ratio if args.tau is None else None,
        time_interval=interval,
    )
    out = {
        "tau": result.tau,
        "candidates": result.num_candidates,
        "seconds": result.total_seconds,
        "matches": [
            {
                "trajectory": m.trajectory_id,
                "start": m.start,
                "end": m.end,
                "distance": m.distance,
            }
            for m in result.matches[: args.limit]
        ],
        "total_matches": len(result.matches),
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_travel_time(args: argparse.Namespace) -> int:
    graph, dataset = _load(args, args.representation)
    costs = _build_cost_model(args, graph)
    engine = SubtrajectorySearch(dataset, costs)
    estimator = TravelTimeEstimator(dataset, engine=engine)
    query = _parse_symbols(args.query)
    truths = estimator.ground_truths(query)
    estimate = estimator.estimate(query, tau_ratio=args.tau_ratio)
    print(
        json.dumps(
            {
                "exact_occurrences": len(truths),
                "exact_mean": sum(truths) / len(truths) if truths else None,
                "estimate": None if estimate != estimate else estimate,
            },
            indent=2,
        )
    )
    return 0


def _cmd_index_build(args: argparse.Namespace) -> int:
    from repro.core.frozen import (
        FrozenInvertedIndex,
        round_robin_shards,
        shard_index_path,
    )

    _, dataset = _load(args, args.representation)
    num_shards = max(1, min(args.shards, len(dataset)))
    shards = (
        [dataset]
        if num_shards == 1
        else round_robin_shards(dataset, num_shards)
    )
    files = []
    total_bytes = 0
    build_seconds = 0.0
    total_postings = 0
    for i, shard in enumerate(shards):
        frozen = FrozenInvertedIndex.freeze(
            shard,
            sort_by_departure=args.sort_by_departure,
            shard=None if num_shards == 1 else (i, num_shards),
            global_trajectories=len(dataset),
        )
        path = shard_index_path(args.out, i, num_shards)
        total_bytes += frozen.save(path)
        build_seconds += frozen.build_seconds
        total_postings += frozen.num_postings
        files.append(path)
    print(
        json.dumps(
            {
                "trajectories": len(dataset),
                "postings": total_postings,
                "shards": num_shards,
                "files": files,
                "file_bytes": total_bytes,
                "build_seconds": build_seconds,
            },
            indent=2,
        )
    )
    return 0


def _cmd_index_inspect(args: argparse.Namespace) -> int:
    from repro.core.frozen import IndexFormatError, inspect_index

    try:
        print(json.dumps(inspect_index(args.path), indent=2))
    except (OSError, IndexFormatError) as exc:
        raise SystemExit(f"cannot inspect {args.path}: {exc}") from exc
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.partitioned import PartitionedSubtrajectorySearch
    from repro.service import QueryService, ServiceServer

    if args.network is not None:
        # --self-test with real files smoke-tests the actual deployment.
        if args.trips is None:
            raise SystemExit("--trips is required with --network")
        graph, dataset = _load(args, args.representation)
    elif args.self_test:
        graph = grid_city(8, 8, seed=3)
        dataset = TrajectoryDataset(graph, args.representation)
        gen = TripGenerator(graph, seed=4)
        dataset.extend(gen.generate(40, min_length=6, max_length=25))
    else:
        raise SystemExit("--network/--trips are required (or pass --self-test)")
    costs = _build_cost_model(args, graph)
    if costs.representation != dataset.representation:
        raise SystemExit(
            f"{args.function} needs --representation {costs.representation}"
        )
    index_kwargs = (
        {}
        if args.index is None
        else {"index_backend": "frozen", "index_path": args.index}
    )
    if getattr(args, "fault_plan", None) is not None:
        from repro.faultinject import load_fault_plan

        if args.backend not in ("processes", "remote"):
            raise SystemExit(
                "--fault-plan requires --backend processes or remote"
            )
        index_kwargs["fault_plan"] = load_fault_plan(args.fault_plan)
    if args.backend == "remote":
        from repro.core.remote import load_shard_map

        if args.shard_map is None:
            raise SystemExit("--backend remote requires --shard-map")
        if args.index is not None:
            raise SystemExit(
                "--index does not combine with --backend remote (worker "
                "nodes build their engines from the shipped shard snapshot)"
            )
        try:
            index_kwargs["shard_map"] = load_shard_map(args.shard_map)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"bad --shard-map: {exc}") from exc
    elif args.shard_map is not None:
        raise SystemExit("--shard-map requires --backend remote")
    if args.shards > 1 or args.backend in ("processes", "remote"):
        # "threads" fans shards out on an engine-owned thread pool
        # (GIL-bound verification); "processes" builds one long-lived
        # worker process per shard so verification escapes the GIL —
        # honored even for a single shard (the query still runs in an
        # isolated worker process rather than being silently dropped);
        # "remote" connects to standalone worker nodes from --shard-map
        # (the map's length is the shard count).
        engine = PartitionedSubtrajectorySearch(
            dataset,
            costs,
            num_shards=args.shards,
            backend=args.backend,
            dp_backend=args.dp_backend,
            substitution_cache_size=args.substitution_cache_size,
            trie_cache_size=args.trie_cache_size,
            trie_cache_bytes=int(args.trie_cache_mb * 1024 * 1024),
            connect_timeout=args.connect_timeout,
            **index_kwargs,
        )
    else:
        engine = SubtrajectorySearch(
            dataset,
            costs,
            dp_backend=args.dp_backend,
            substitution_cache_size=args.substitution_cache_size,
            trie_cache_size=args.trie_cache_size,
            trie_cache_bytes=int(args.trie_cache_mb * 1024 * 1024),
            **index_kwargs,
        )
    service = QueryService(
        engine,
        max_workers=args.workers,
        max_pending=args.max_pending,
        default_deadline=args.deadline,
        cache_size=args.cache_size,
        batching=not args.no_batching,
        trace_sample_rate=args.trace_sample_rate,
        slow_query_seconds=(
            None if args.slow_query_ms is None else args.slow_query_ms / 1000.0
        ),
    )
    try:
        port = 0 if args.self_test else args.port
        server = ServiceServer(service, host=args.host, port=port)
        if args.self_test:
            return _serve_self_test(
                server, service, dataset, costs, queries=args.self_test_queries
            )
        print(
            f"serving {len(dataset)} trajectories on {server.url} "
            f"(backend={getattr(engine, 'backend', 'single')}, "
            f"dp_backend={args.dp_backend})",
            flush=True,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.shutdown()
        return 0
    finally:
        # The CLI owns the engine: terminate shard worker processes (and
        # the fan-out thread pool) no matter how serving ended.  The
        # workers-module atexit hook is the backstop, not the plan.
        service.close(close_engine=True)


def _serve_self_test(server, service, dataset, costs, *, queries: int = 1) -> int:
    """Start the server, answer ``queries`` HTTP queries, verify each
    against the engine, and exit (the CI smoke path — with a fault plan
    and several queries this is the chaos drill: every query must come
    back 200 and match the engine even while nodes die mid-traffic).

    After the range loop, one top-k query is posted and checked
    bit-for-bit against a fresh single-engine oracle (independent of the
    serving backend), plus a shallower repeat that must come back from
    the cache — the serving tier's "k' <= k reuse" rule exercised over
    real HTTP.  Running top-k *after* the range loop keeps fault-plan
    request ordinals for the chaos drills unchanged."""
    import urllib.request

    def post_query(payload: dict) -> dict:
        request = urllib.request.Request(
            server.url + "/query",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            return json.loads(response.read().decode("utf-8"))

    server.start()
    try:
        answered = 0
        seconds = 0.0
        last = {}
        for i in range(max(1, queries)):
            path = list(dataset.symbols(i % len(dataset)))[:6]
            answer = post_query({"path": path, "tau_ratio": 0.3})
            direct = service.engine.query(path, tau_ratio=0.3)
            if answer["total_matches"] != len(direct.matches):
                print(
                    f"self-test FAILED on query {i}: HTTP reported "
                    f"{answer['total_matches']} matches, engine found "
                    f"{len(direct.matches)}"
                )
                return 1
            answered += 1
            seconds += float(answer["seconds"])
            last = answer
        # Top-k cell: exactness against a single-engine oracle built
        # from the same dataset/costs, then cached truncation reuse.
        from repro.core.topk import topk_search

        path = list(dataset.symbols(0))[:6]
        k = min(5, len(dataset))
        answer = post_query({"path": path, "k": k})
        oracle = topk_search(SubtrajectorySearch(dataset, costs), path, k)
        got = [
            (r["trajectory"], r["start"], r["end"], r["distance"])
            for r in answer["results"]
        ]
        want = [
            (m.trajectory_id, m.start, m.end, m.distance) for m in oracle
        ]
        if got != want:
            print(
                f"self-test FAILED on top-{k}: HTTP ranking {got} != "
                f"oracle {want}"
            )
            return 1
        smaller = max(1, k - 2)
        repeat = post_query({"path": path, "k": smaller})
        if service.cache.capacity > 0 and not repeat["cached"]:
            print(
                f"self-test FAILED: top-{smaller} repeat was not served "
                f"from the cached top-{k} answer"
            )
            return 1
        if [r["distance"] for r in repeat["results"]] != [
            r["distance"] for r in answer["results"][:smaller]
        ]:
            print("self-test FAILED: cached truncation changed the ranking")
            return 1
        answered += 2
        summary = {
            "self_test": "ok",
            "url": server.url,
            "backend": getattr(service.engine, "backend", "single"),
            "queries": answered,
            "total_matches": last.get("total_matches"),
            "topk_results": len(answer["results"]),
            "topk_tau_rounds": answer["tau_rounds"],
            "topk_cached_repeat": repeat["cached"],
            "seconds": seconds,
        }
        restarts_of = getattr(service.engine, "restarts_total", None)
        if restarts_of is not None:
            summary["restarts_total"] = restarts_of()
        print(json.dumps(summary, indent=2))
        return 0
    finally:
        server.shutdown()


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.core.remote import run_worker_node
    from repro.core.transport import parse_hostport

    try:
        host, port = parse_hostport(args.listen)
    except ValueError as exc:
        raise SystemExit(f"bad --listen address: {exc}") from exc
    if args.restarts < 0:
        raise SystemExit("--restarts must be >= 0")
    try:
        return run_worker_node(host, port, restarts=args.restarts)
    except KeyboardInterrupt:
        return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import urllib.request

    from repro.obs import render_trace

    order = "slowest" if args.slowest else "recent"
    url = (
        f"{args.url.rstrip('/')}/debug/traces"
        f"?order={order}&limit={args.count}"
    )
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as response:
            payload = json.loads(response.read().decode("utf-8"))
    except OSError as exc:
        raise SystemExit(f"cannot reach {url}: {exc}") from exc
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    traces = payload.get("traces", [])
    if not traces:
        stats = payload.get("stats", {})
        print(
            "no traces recorded"
            f" (recorded={stats.get('recorded', 0)};"
            " is the server running with --trace-sample-rate > 0"
            " or --slow-query-ms set?)"
        )
        return 0
    for i, trace in enumerate(traces):
        if i:
            print()
        duration_ms = float(trace.get("duration", 0.0)) * 1e3
        print(f"# {order} {i + 1}/{len(traces)}  ({duration_ms:.3f} ms)")
        print(render_trace(trace))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bench.report import render_markdown

    results_dir = Path(args.results)
    if not results_dir.is_dir():
        raise SystemExit(f"no such results directory: {results_dir}")
    print(render_markdown(results_dir))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Subtrajectory similarity search in road networks under WED",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-network", help="synthesize a road network")
    p.add_argument("--style", default="grid", choices=["grid", "radial", "random"])
    p.add_argument("--rows", type=int, default=12)
    p.add_argument("--cols", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate_network)

    p = sub.add_parser("generate-trips", help="synthesize trajectories")
    p.add_argument("--network", required=True)
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--min-length", type=int, default=8)
    p.add_argument("--max-length", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate_trips)

    p = sub.add_parser("stats", help="dataset statistics")
    p.add_argument("--network", required=True)
    p.add_argument("--trips", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("query", help="run one similarity query")
    p.add_argument("--network", required=True)
    p.add_argument("--trips", required=True)
    p.add_argument("--query", required=True, help="symbols, e.g. '3,4,5'")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--tau-ratio", type=float, default=0.1)
    p.add_argument(
        "--top-k",
        type=int,
        default=None,
        metavar="K",
        help="top-k mode: return the K best matches (one per trajectory) "
        "ranked by distance instead of a threshold range query; mutually "
        "exclusive with --tau and --time-from/--time-to",
    )
    p.add_argument("--time-from", type=float, default=None)
    p.add_argument("--time-to", type=float, default=None)
    p.add_argument("--limit", type=int, default=20, help="max matches printed")
    _add_cost_options(p)
    _add_dp_backend_option(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("travel-time", help="estimate travel time of a path")
    p.add_argument("--network", required=True)
    p.add_argument("--trips", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--tau-ratio", type=float, default=0.1)
    _add_cost_options(p)
    p.set_defaults(func=_cmd_travel_time)

    p = sub.add_parser("serve", help="run the JSON-over-HTTP query service")
    p.add_argument("--network", default=None)
    p.add_argument("--trips", default=None)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--shards", type=int, default=1, help="engine shards (>1 fans out)")
    p.add_argument(
        "--backend",
        default="threads",
        choices=["threads", "processes", "remote"],
        help="shard fan-out backend: 'threads' runs shard queries on the "
        "engine's shard thread pool (GIL-bound verification); 'processes' runs "
        "one worker process per shard; 'remote' connects to standalone "
        "'repro worker' nodes listed in --shard-map (default: threads)",
    )
    p.add_argument(
        "--shard-map",
        default=None,
        help="remote backend only: worker-node addresses, one per shard "
        "in shard order — a path to a JSON file or inline JSON (leading "
        "'[' or '{'), e.g. '[\"127.0.0.1:7701\", \"127.0.0.1:7702\"]' or "
        "'{\"nodes\": [...]}'.  The map's length is the shard count",
    )
    p.add_argument(
        "--connect-timeout",
        type=float,
        default=5.0,
        help="remote backend: total budget (s) for connecting to a "
        "worker node, including reconnects racing a node restart "
        "(default: 5)",
    )
    p.add_argument("--workers", type=int, default=4, help="executor thread-pool size")
    p.add_argument("--max-pending", type=int, default=64, help="admission limit")
    p.add_argument(
        "--deadline", type=float, default=None, help="default per-query deadline (s)"
    )
    p.add_argument("--cache-size", type=int, default=1024, help="LRU entries (0 = off)")
    p.add_argument(
        "--no-batching", action="store_true", help="disable request coalescing"
    )
    p.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        help="fraction of requests traced end-to-end into the flight "
        "recorder (0 = off, the near-zero-overhead default; slow queries "
        "are always recorded when --slow-query-ms is set)",
    )
    p.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        help="log a one-line JSON record (logger 'repro.slowlog') and "
        "force-record a trace for every query slower than this many "
        "milliseconds (default: off)",
    )
    p.add_argument(
        "--index",
        default=None,
        help="serve from a prebuilt frozen index ('repro index build'): "
        "the file path for one shard, or the build stem for a sharded "
        "deployment (shard k opens <stem>.shard<k>-of-<N>).  Workers "
        "mmap the file in O(1) and the OS page cache shares one copy "
        "across processes; see docs/INDEX_FORMAT.md",
    )
    p.add_argument(
        "--fault-plan",
        default=None,
        help="deterministic fault injection for the processes and remote "
        "backends: a path to a FaultPlan JSON file, or the JSON object "
        "inline (leading '{').  Chaos drills only — kills/delays/drops "
        "shard workers, and on the remote backend injects network faults "
        "(conn_drop/conn_hang/slow_link_ms/short_write) on a seeded "
        "schedule; see repro.faultinject",
    )
    p.add_argument(
        "--self-test",
        action="store_true",
        help="serve a synthetic workload, answer --self-test-queries "
        "HTTP queries, and exit",
    )
    p.add_argument(
        "--self-test-queries",
        type=int,
        default=1,
        help="queries the self-test answers and verifies (default: 1; "
        "raise it for chaos drills so faults land mid-traffic)",
    )
    _add_cost_options(p)
    _add_dp_backend_option(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "worker",
        help="run one standalone shard worker node (the remote half of "
        "'serve --backend remote')",
    )
    p.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="address to listen on; the address must also appear in the "
        "frontend's --shard-map",
    )
    p.add_argument(
        "--restarts",
        type=int,
        default=0,
        help="respawn the serving process up to N times when it dies "
        "(chaos drills; 0 = serve in-process and leave restarts to an "
        "external supervisor)",
    )
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser(
        "index", help="build / inspect frozen mmap-able index files"
    )
    index_sub = p.add_subparsers(dest="index_command", required=True)

    p = index_sub.add_parser(
        "build",
        help="freeze a dataset's inverted index to the single-file "
        "mmap-able format (docs/INDEX_FORMAT.md)",
    )
    p.add_argument("--network", required=True)
    p.add_argument("--trips", required=True)
    p.add_argument("--out", required=True, help="output path (stem when sharded)")
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="write one file per round-robin shard "
        "(<out>.shard<k>-of-<N>; must match 'serve --shards')",
    )
    p.add_argument(
        "--representation",
        default="vertex",
        choices=["vertex", "edge"],
        help="symbol alphabet to index (default: vertex)",
    )
    p.add_argument(
        "--sort-by-departure",
        action="store_true",
        help="order postings by trajectory departure time (temporal "
        "pruning, §4.3; the result is closed to online inserts)",
    )
    p.set_defaults(func=_cmd_index_build)

    p = index_sub.add_parser(
        "inspect", help="print a frozen index file's header as JSON"
    )
    p.add_argument("path", help="index file to inspect")
    p.set_defaults(func=_cmd_index_inspect)

    p = sub.add_parser(
        "trace", help="fetch and render traces from a running server"
    )
    p.add_argument(
        "--url", default="http://127.0.0.1:8080", help="server base URL"
    )
    p.add_argument(
        "--slowest",
        action="store_true",
        help="show the slowest recorded traces instead of the most recent",
    )
    p.add_argument(
        "-n", "--count", type=int, default=5, help="traces to fetch"
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the raw /debug/traces JSON instead of rendered trees",
    )
    p.add_argument("--timeout", type=float, default=10.0)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "report", help="render recorded benchmark results as markdown"
    )
    p.add_argument("--results", default="results", help="results directory")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
