"""Per-layer ledger of a traced run, from the spans ``traced_serve`` wrote.

Times are means per read request over the timed window (``ms/req``),
counting 0 for a request that never reached a layer, so they add up
toward the mean request latency; shard and insert calls are means per
call (``ms/call``).  The self-time table splits every read's server time
among the wrapped layers with no overlap.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from perfbench.stats import mean, ratio, self_time


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: int
    id: int
    attrs: Optional[dict]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def load_spans(path: Path) -> List[Span]:
    with open(path, encoding="utf-8") as spans:
        return [Span(*json.loads(line)) for line in spans if line.strip()]


@dataclass
class TracedRequest:
    """One traced HTTP request: its root span and every span under it."""

    root: Span
    spans: List[Span]

    @property
    def is_read(self) -> bool:
        return (self.root.attrs or {}).get("path") == "/query"

    def named(self, *names: str) -> List[Span]:
        return [s for s in self.spans if s.name in names]

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent == span.id]


def requests_in_window(spans: Sequence[Span], start: float, end: float) -> List[TracedRequest]:
    """Requests whose root span began inside ``[start, end)``.  Server
    and client share the monotonic clock, so the client's window applies."""
    by_request: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_request[span.request].append(span)
    requests = []
    for members in by_request.values():
        root = next((s for s in members if s.name == "http.request"), None)
        if root is not None and start <= root.start < end:
            requests.append(TracedRequest(root, members))
    return requests


def self_times(requests: Sequence[TracedRequest]) -> Dict[str, float]:
    """Mean self time per request of every span name, in ms."""
    totals: Dict[str, float] = defaultdict(float)
    for request in requests:
        for span in request.spans:
            kids = [(c.start, c.end) for c in request.children(span)]
            totals[span.name] += self_time(span.start, span.end, kids)
    return {name: 1e3 * total / len(requests) for name, total in totals.items()}


def layer_metrics(requests: Sequence[TracedRequest]) -> Dict[str, float]:
    """The span-derived per-layer metrics (see README.md for each)."""
    reads = [r for r in requests if r.is_read]
    n = len(reads)
    per_read = lambda total: 1e3 * total / n if n else 0.0  # noqa: E731

    payload = cache = wait = fan_self = straggle = merge = 0.0
    rpcs: List[Span] = []
    for request in reads:
        payload += sum(s.seconds for s in request.named("http.payload"))
        cache += sum(s.seconds for s in request.named("cache.get"))
        merge += sum(s.seconds for s in request.named("engine.merge"))
        for executor in request.named("executor.query", "executor.topk"):
            engine = request.children(executor)
            wait += self_time(executor.start, executor.end, [(s.start, s.end) for s in engine])
        for engine in request.named("engine.query"):
            shard_calls = [
                rpc
                for fanout in request.children(engine) if fanout.name == "shard.fanout"
                for rpc in request.children(fanout)
            ]
            merges = [s.seconds for s in request.children(engine) if s.name == "engine.merge"]
            slowest = max((s.seconds for s in shard_calls), default=0.0)
            fan_self += engine.seconds - slowest - sum(merges)
            if shard_calls:
                straggle += slowest - min(s.seconds for s in shard_calls)
        rpcs.extend(s for s in request.named("shard.rpc") if "error" not in (s.attrs or {}))

    def total(key: str) -> float:
        return sum(s.attrs[key] for s in rpcs)

    stage = total("mincand") + total("lookup") + total("verify")
    rpc_seconds = sum(s.seconds for s in rpcs)
    statuses = [s.attrs["trie"] for s in rpcs if s.attrs["trie"] in ("hit", "miss")]
    cache_gets = [s for r in reads for s in r.named("cache.get")]
    inserts = [s for r in requests for s in r.named("engine.add_trajectory")]
    return {
        "http.payload_ms": per_read(payload),
        "cache.lookup_ms": per_read(cache),
        "topk.truncation_hits": sum(1 for s in cache_gets if (s.attrs or {}).get("truncated")),
        "executor.wait_ms": per_read(wait),
        "fanout.self_ms": per_read(fan_self),
        "fanout.straggler_ms": per_read(straggle),
        "merge.ms": per_read(merge),
        "shard.rpc_ms": 1e3 * mean([s.seconds for s in rpcs]),
        "shard.unattributed_ms": 1e3 * ratio(rpc_seconds - stage, len(rpcs)),
        "shard.unattributed_share": ratio(rpc_seconds - stage, rpc_seconds),
        "shard.calls_per_request": ratio(len(rpcs), n),
        "engine.mincand_ms": per_read(total("mincand")),
        "engine.lookup_ms": per_read(total("lookup")),
        "engine.verify_ms": per_read(total("verify")),
        "engine.candidates": ratio(total("candidates"), n),
        "verify.match_yield": ratio(total("matches"), total("candidates")),
        "verify.column_reuse": 1.0 - ratio(total("computed_columns"), total("visited_columns"))
        if total("visited_columns") else 0.0,
        "verify.dp_rounds": ratio(total("dp_rounds"), n),
        "verify.numpy_share": ratio(sum(s.attrs["dp_backend"] == "numpy" for s in rpcs), len(rpcs)),
        "trie_cache.hit_rate": ratio(statuses.count("hit"), len(statuses)),
        "insert.engine_ms": 1e3 * mean([s.seconds for s in inserts]),
    }
