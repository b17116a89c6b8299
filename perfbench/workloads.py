"""Deployment data and seeded request lists for the three traffic mixes.

The deployment is the library's beijing profile (``repro.bench.datasets``):
a 24x24 grid city and 2,000 stored trips of 12-90 vertices, the same for
every seed.  Every request a run sends is generated here before timing
starts, and the same seed gives identical request lists.  The seed draws
``range_unique``'s routes, the order of ``zipf_hot``'s traffic, and the
order of ``mixed_ingest``'s epochs and the trips it inserts.  The hot
route sets of the two Zipf workloads are part of the workload and do
not change with the seed.

Seeds keep what decides a run's work alike, so that runs on different
seeds can resolve a 15% change:

- Re-drawing the stored trips per seed moves how concentrated trips are
  around hub vertices, and with it every query's match count: the total
  matches of same-sized request lists spread 32% across seeds with
  per-seed trips, 4% with the profile's.
- With seeded hot-route sets, ``mixed_ingest`` throughput spread 14% and
  its p95 31% across five seeds: a Zipf mix is decided by its top few
  routes, and top-k time per route varies a hundredfold.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.bench.datasets import DATASET_PROFILES, build_dataset
from repro.network.io import save_network
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.generator import TripGenerator

WORKLOADS = ("range_unique", "zipf_hot", "mixed_ingest")

PROFILE = DATASET_PROFILES["beijing"]
TAU_RATIO = 0.3
ZIPF_EXPONENT = 1.1

# List lengths: longer than any run consumes at today's speed.  A run
# that drains its list ends its timed window early and says so.  The
# range_unique list is the shortest because every one of its requests
# needs its own reference answer after the run.
_LIST_LENGTH = {"range_unique": 1_500, "zipf_hot": 40_000, "mixed_ingest": 8_000}


@dataclass(frozen=True)
class Request:
    """One HTTP request: ``kind`` is ``range``, ``topk`` or ``insert``."""

    kind: str
    path: Tuple[int, ...]
    k: int = 0
    timestamps: Optional[Tuple[float, ...]] = None

    def body(self) -> Dict:
        if self.kind == "range":
            return {"path": list(self.path), "tau_ratio": TAU_RATIO}
        if self.kind == "topk":
            return {"path": list(self.path), "k": self.k}
        return {"path": list(self.path), "timestamps": list(self.timestamps)}

    @property
    def url_path(self) -> str:
        return "/trajectories" if self.kind == "insert" else "/query"


def deployment() -> TrajectoryDataset:
    """The stored trips (their ``graph`` is the road network)."""
    return build_dataset(PROFILE.name)[1]


def write_deployment(directory: Path, dataset: TrajectoryDataset) -> Tuple[Path, Path]:
    """Write the ``--network`` / ``--trips`` files the server loads."""
    network, trips = directory / "network.txt", directory / "trips.jsonl"
    save_network(dataset.graph, network)
    dataset.save(trips)
    return network, trips


def _subpath(rng: random.Random, dataset: TrajectoryDataset, length: int) -> Tuple[int, ...]:
    while True:
        symbols = dataset.symbols(rng.randrange(len(dataset)))
        if len(symbols) >= length:
            start = rng.randrange(len(symbols) - length + 1)
            return tuple(int(s) for s in symbols[start:start + length])


def _distinct_routes(
    rng: random.Random, dataset: TrajectoryDataset, lengths, count: int
) -> List[Tuple[int, ...]]:
    routes: List[Tuple[int, ...]] = []
    seen = set()
    while len(routes) < count:
        route = _subpath(rng, dataset, lengths[len(routes) % len(lengths)])
        if route not in seen:
            seen.add(route)
            routes.append(route)
    return routes


def _range_weight(dataset: TrajectoryDataset):
    """Sort key for range work: the number of stored trips through each
    of the route's vertices, summed.  On the beijing profile it
    correlates 0.67 with a range query's time."""
    passes: Counter = Counter()
    for tid in range(len(dataset)):
        passes.update(set(dataset.symbols(tid)))
    return lambda route: (sum(passes[v] for v in route), route)


def _topk_weight(dataset: TrajectoryDataset):
    """Sort key for top-k work: the number of stored trips that share at
    least 80% of the route's edges, then at least half of them.  Few such
    trips means many tau rounds: on the beijing profile the log of the
    first count correlates -0.81 with the log of a top-k query's time."""
    trips_on: Dict[Tuple[int, int], List[int]] = {}
    for tid in range(len(dataset)):
        symbols = dataset.symbols(tid)
        for edge in set(zip(symbols, symbols[1:])):
            trips_on.setdefault(edge, []).append(tid)

    def weight(route):
        edges = list(zip(route, route[1:]))
        shared = Counter(tid for edge in edges for tid in trips_on.get(edge, ())).values()
        most = sum(1 for n in shared if n >= 0.8 * len(edges))
        half = sum(1 for n in shared if n >= 0.5 * len(edges))
        return (most, half, route)

    return weight


def _bands(routes, count: int, weight) -> List[List[Tuple[int, ...]]]:
    """``routes`` cut into ``count`` equal bands of increasing weight."""
    ranked = sorted(routes, key=weight)
    size = len(ranked) // count
    return [ranked[i * size:(i + 1) * size] for i in range(count)]


def _balanced(rng: random.Random, routes, weight, strata: int = 10):
    """``routes`` reordered so every prefix holds light and heavy routes in
    the same proportion: a run consumes only a prefix of its list, and an
    unordered prefix would make throughput differ between seeds by the
    luck of the draw."""
    bands = _bands(routes, strata, weight)
    for band in bands:
        rng.shuffle(band)
    ordered = []
    for deal in zip(*bands):
        deal = list(deal)
        rng.shuffle(deal)
        ordered.extend(deal)
    return ordered


def _hot_routes(rng: random.Random, dataset, length: int, count: int, weight):
    """``count`` routes, most popular first, drawn one per weight band from
    the middle half of a larger pool.

    With a Zipf popularity the top few routes carry most of the traffic,
    so one extreme route in a top rank would decide the workload.  Cutting
    the extreme quarters, drawing one route per band and giving the top
    ranks to the middle bands makes the set typical of the deployment."""
    pool = sorted(_distinct_routes(rng, dataset, (length,), 16 * count), key=weight)
    middle_half = pool[len(pool) // 4: 3 * len(pool) // 4]
    picks = [rng.choice(band) for band in _bands(middle_half, count, weight)]
    middle = (count - 1) / 2
    return [picks[b] for b in sorted(range(count), key=lambda b: (abs(b - middle), b))]


def _zipf_block(rng: random.Random, routes, size: int) -> List[Tuple[int, ...]]:
    """One block of ``size`` route draws in exact Zipf proportion (largest
    remainder), in seeded order.  Dealing the traffic in such blocks
    instead of drawing each request independently keeps the mix, and
    with it the cache-miss pattern, alike across seeds."""
    weights = [1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, len(routes) + 1)]
    quotas = [size * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(routes)), key=lambda r: counts[r] - quotas[r])
    for rank in by_remainder[: size - sum(counts)]:
        counts[rank] += 1
    block = [route for route, c in zip(routes, counts) for _ in range(c)]
    rng.shuffle(block)
    return block


def _dealt(rng: random.Random, items, count: int) -> List:
    """``items`` in a fresh seeded order, repeated up to ``count``."""
    out = []
    while len(out) < count:
        block = list(items)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def _mixed_ingest(rng: random.Random, dataset, n: int) -> List[Request]:
    """Blocks of 20 epochs, each 9 reads then one insert.

    An insert clears the result cache, so the work of an epoch is fixed by
    which reads it holds, not by their order.  The epochs of a block are a
    fixed part of the workload -- 180 reads in exact Zipf proportion, half
    top-k, half range, depths 3, 5 and 8 alike -- and the seed shuffles
    the order of the epochs and draws the inserted trips.  Reads drawn
    independently per seed made the work of a 600-request run spread 10%
    across seeds."""
    layout = random.Random("mixed_ingest")
    routes = _hot_routes(layout, dataset, 16, 24, _topk_weight(dataset))
    reads = _zipf_block(layout, routes, 180)
    kinds = _dealt(layout, ["topk", "range"] * 90, 180)
    depths = _dealt(layout, [3, 5, 8] * 30, 180)
    epochs = [
        [
            Request("topk", reads[j], k=depths[j]) if kinds[j] == "topk"
            else Request("range", reads[j])
            for j in range(start, start + 9)
        ]
        for start in range(0, 180, 9)
    ]
    trips = TripGenerator(dataset.graph, seed=rng.randrange(2**31))
    requests: List[Request] = []
    while len(requests) < n:
        for epoch in _dealt(rng, epochs, len(epochs)):
            trip = trips.generate_trip(
                min_length=PROFILE.min_length, max_length=PROFILE.max_length
            )
            requests += epoch + [Request("insert", trip.path, timestamps=trip.timestamps)]
    return requests[:n]


def build_requests(workload: str, seed: int, dataset: TrajectoryDataset) -> List[Request]:
    """The request list for one workload, in sending order."""
    rng = random.Random(f"{workload}:{seed}")
    n = _LIST_LENGTH[workload]
    if workload == "range_unique":
        # 12 and 24 sit on both sides of the engine's dp_backend="auto"
        # crossover (python DP below 15 symbols, numpy trie walker above).
        routes = _distinct_routes(rng, dataset, (12, 24), n)
        weight = _range_weight(dataset)
        short = _balanced(rng, [r for r in routes if len(r) == 12], weight)
        long = _balanced(rng, [r for r in routes if len(r) == 24], weight)
        return [Request("range", route) for pair in zip(short, long) for route in pair]
    if workload == "zipf_hot":
        routes = _hot_routes(random.Random(workload), dataset, 12, 64, _range_weight(dataset))
        # Every route once first, inside the warm-up, so the timed window
        # sees the warm cache the workload is about: otherwise the first
        # sight of a tail route lands a miss near the 95th percentile.
        draws = _dealt(rng, routes, len(routes))
        draws += [r for _ in range(n // 1000) for r in _zipf_block(rng, routes, 1000)]
        return [Request("range", route) for route in draws]
    if workload == "mixed_ingest":
        # 24 routes of 16 symbols: numpy path, and they fit the 32-entry
        # per-worker trie cache, so repeats re-run on warm tries after
        # each insert clears the result cache.
        return _mixed_ingest(rng, dataset, n)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
