"""Traced server entry point: ``python traced_serve.py SPANS_FILE serve ...``.

Installs timing wrappers around the public calls at each serving layer,
then runs the unchanged ``repro serve`` main.  Each wrapped call records
one span ``(name, start, end, parent, request, id, attrs)`` in memory;
the spans are written to SPANS_FILE as JSON lines when the server exits.

A request's spans share the id of its root span (``http.request``).  The
parent link follows the call across the executor's and the engine's
thread pools because ``ThreadPoolExecutor.submit`` is wrapped to run each
task in the submitting thread's context.  Worker-side stage times come
from the ``QueryResult`` each shard call returns; nothing inside the
worker processes is traced.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
_ids = itertools.count(1)
SPANS: list = []  # appended from many threads; list.append is atomic


def _open():
    """Start a span under the current one; returns (parent, ids, token)."""
    parent = _current.get()
    sid = next(_ids)
    rid = sid if parent is None else parent[0]
    return parent, (rid, sid), _current.set((rid, sid))


def _record(name, start, parent, ids, attrs) -> None:
    SPANS.append(
        (name, start, time.perf_counter(), None if parent is None else parent[1],
         ids[0], ids[1], attrs)
    )


def wrap(owner, attribute: str, name: str, describe=None) -> None:
    """Replace ``owner.attribute`` with a span-recording wrapper.

    ``describe(args, kwargs, result)`` returns the span's attrs."""
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        parent, ids, token = _open()
        start = time.perf_counter()
        attrs = None
        try:
            result = original(*args, **kwargs)
            if describe is not None:
                attrs = describe(args, kwargs, result)
            return result
        except BaseException as exc:
            attrs = {"error": type(exc).__name__}
            raise
        finally:
            _current.reset(token)
            _record(name, start, parent, ids, attrs)

    setattr(owner, attribute, wrapper)


def _stage_attrs(result) -> dict:
    """What one shard's ``QueryResult`` says about its worker-side work."""
    stats = result.verification
    return {
        "mincand": result.mincand_seconds,
        "lookup": result.lookup_seconds,
        "verify": result.verify_seconds,
        "candidates": result.num_candidates,
        "matches": len(result.matches),
        "dp_backend": result.dp_backend_used,
        "dp_rounds": result.dp_rounds,
        "trie": result.trie_cache_status,
        "visited_columns": stats.visited_columns,
        "computed_columns": stats.computed_columns,
    }


def _wrap_shard_rpcs(worker_class) -> None:
    """``shard.rpc`` spans: a query's ``begin`` (send) to its ``finish``
    (reply collected), one per shard call, parented by the caller."""
    begin, finish = worker_class.begin, worker_class.finish
    pending = {}

    @functools.wraps(begin)
    def traced_begin(self, kind, payload):
        start = time.perf_counter()
        req_id = begin(self, kind, payload)
        if kind == "query":
            pending[(id(self), req_id)] = (start, _current.get(), self.index)
        return req_id

    @functools.wraps(finish)
    def traced_finish(self, req_id, token=None):
        opened = pending.pop((id(self), req_id), None)
        attrs = None
        try:
            result = finish(self, req_id, token)
            attrs = _stage_attrs(result)
            return result
        except BaseException as exc:
            attrs = {"error": type(exc).__name__}
            raise
        finally:
            if opened is not None:
                start, parent, shard = opened
                sid = next(_ids)
                rid = sid if parent is None else parent[0]
                attrs = dict(attrs or {}, shard=shard)
                _record("shard.rpc", start, parent, (rid, sid), attrs)

    worker_class.begin, worker_class.finish = traced_begin, traced_finish


def _propagate_context() -> None:
    submit = ThreadPoolExecutor.submit

    @functools.wraps(submit)
    def traced_submit(self, fn, /, *args, **kwargs):
        return submit(self, contextvars.copy_context().run, fn, *args, **kwargs)

    ThreadPoolExecutor.submit = traced_submit


def install() -> None:
    from repro.core import topk, workers
    from repro.core.partitioned import PartitionedSubtrajectorySearch as Engine
    from repro.service import http
    from repro.service.batching import Batcher
    from repro.service.cache import ResultCache
    from repro.service.executor import Executor
    from repro.service.service import QueryService

    def request_path(args, kwargs, result):
        return {"path": args[0].path}

    def cache_hit(args, kwargs, result):
        return {"hit": result is not None}

    def topk_cache_hit(args, kwargs, result):
        cache, key, k = args
        stored = cache._data.get(key)
        truncated = result is not None and stored is not None and stored.k > k
        return {"hit": result is not None, "truncated": truncated}

    def coalesced(args, kwargs, result):
        return {"coalesced": bool(result[1])}

    _propagate_context()
    wrap(http._Handler, "do_POST", "http.request", request_path)
    wrap(http, "response_payload", "http.payload")
    wrap(http, "topk_payload", "http.payload")
    wrap(QueryService, "query", "service.query")
    wrap(QueryService, "topk", "service.topk")
    wrap(ResultCache, "get", "cache.get", cache_hit)
    wrap(ResultCache, "get_topk", "cache.get", topk_cache_hit)
    wrap(Batcher, "run", "batcher.run", coalesced)
    wrap(Executor, "query", "executor.query")
    wrap(Executor, "topk", "executor.topk")
    wrap(Engine, "query", "engine.query")
    # The served top-k path is Executor.topk -> topk_search(engine, ...);
    # PartitionedSubtrajectorySearch.topk is a thin alias it never calls.
    wrap(topk, "topk_search", "engine.topk")
    wrap(Engine, "merge_shard_results", "engine.merge")
    wrap(Engine, "add_trajectory", "engine.add_trajectory")
    wrap(workers.ShardWorkerPool, "query_all", "shard.fanout")
    _wrap_shard_rpcs(workers._ShardWorker)


def main(argv) -> int:
    spans_path, serve_argv = argv[0], argv[1:]
    install()
    from repro.cli import main as repro_main

    try:
        return repro_main(serve_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as out:
            for span in list(SPANS):
                out.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
