"""Answer check: every reply of a run against an in-process reference.

The reference is built after the timed window, from the same files the
server loaded, in a small process pool:

- range answers come from ``SubtrajectorySearch(verification="local",
  dp_backend="python")``, the per-cell python DP with no trie and no
  numpy kernel, so it shares no code with the served trie walker;
- top-k answers come from the in-process ``SubtrajectorySearch.topk``.

Inserted trips are answered by a second engine over just those trips.
A match on a trip whose insert was still in flight while a request was
in flight may be present or absent; every other match must be present,
with a bit-equal distance, and nothing else may be.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import signal
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from perfbench.client import Record
from perfbench.workloads import TAU_RATIO, Request

MatchKey = Tuple[int, int, int, float]  # trajectory, start, end, distance
TOPK_DEPTH = 8  # the deepest k any workload asks for

# At most this many in-flight inserts are enumerated for one top-k
# reply (2^n candidate answers); with two connections it is 1 or 2.
_MAX_OPTIONAL = 8


def _rank_key(m: MatchKey):
    return (m[3], m[0], m[1], m[2])


@dataclass
class Expected:
    """Reference answers for one route.

    ``base`` holds the range matches (or the top-``TOPK_DEPTH`` ranking)
    over the stored trips; ``inserted`` maps the request index of an
    inserted trip to its range matches (or its best match)."""

    base: List[MatchKey]
    inserted: Dict[int, List[MatchKey]]


# -- reference computation ----------------------------------------------------

# The engines of one compute_references call, built before the pool
# forks so the workers inherit them.
_STATE: dict = {}


def _build_state(network: str, trips: str, inserted: Sequence[Tuple], kinds) -> None:
    """``inserted`` holds ``(request index, path, timestamps)`` triples."""
    from repro.core.engine import SubtrajectorySearch
    from repro.distance.costs import EDRCost
    from repro.network.io import load_network
    from repro.trajectory.dataset import TrajectoryDataset
    from repro.trajectory.model import Trajectory

    graph = load_network(network)
    dataset = TrajectoryDataset.load(graph, trips)
    costs = EDRCost(graph, epsilon=100.0)
    oracle = dict(verification="local", dp_backend="python")
    _STATE.clear()
    _STATE["range"] = SubtrajectorySearch(dataset, costs, **oracle)
    if "topk" in kinds:
        _STATE["topk"] = SubtrajectorySearch(dataset, costs)
    _STATE["inserted"] = None
    _STATE["request_of"] = [index for index, _, _ in inserted]
    if inserted:
        extra = TrajectoryDataset(graph)
        for _, path, timestamps in inserted:
            extra.add(Trajectory(path, timestamps))
        _STATE["inserted"] = SubtrajectorySearch(extra, costs, **oracle)


def _keys(matches) -> List[MatchKey]:
    return [(m.trajectory_id, m.start, m.end, m.distance) for m in matches]


def _reference(task: Tuple[str, Tuple[int, ...]]) -> Expected:
    from repro.apps._common import best_match_per_trajectory

    kind, route = task
    inserted_engine, request_of = _STATE["inserted"], _STATE["request_of"]
    if kind == "range":
        base = _keys(_STATE["range"].query(route, tau_ratio=TAU_RATIO).matches)
        extra: Dict[int, List[MatchKey]] = {}
        if inserted_engine is not None:
            for m in _keys(inserted_engine.query(route, tau_ratio=TAU_RATIO).matches):
                extra.setdefault(request_of[m[0]], []).append(m)
        return Expected(base, extra)
    base = _keys(_STATE["topk"].topk(route, TOPK_DEPTH).matches)
    extra = {}
    if inserted_engine is not None and base:
        # Only an inserted trip at or below the base k-th distance can
        # enter a top-k (ids of inserted trips sort after every stored
        # trip's).  A range probe returns every match below its tau, so
        # the per-trip best at that tau is the trip's overall best.
        tau = math.nextafter(base[-1][3], math.inf)
        matches = inserted_engine.query(route, tau=tau).matches
        for tid, m in best_match_per_trajectory(matches).items():
            extra[request_of[tid]] = _keys([m])
    return Expected(base, extra)


def compute_references(
    network: str,
    trips: str,
    tasks: Iterable[Tuple[str, Tuple[int, ...]]],
    inserted: Sequence[Tuple],
    processes: int,
) -> Dict[Tuple[str, Tuple[int, ...]], Expected]:
    """Reference answers per ``(kind, route)`` task.

    The pool forks: the caller is single-threaded here (its load threads
    have ended), and a forked pool inherits the engines instead of
    rebuilding them and starts no resource-tracker process."""
    tasks = sorted(set(tasks))
    if not tasks:
        return {}
    if threading.active_count() != 1:
        raise RuntimeError("compute_references must run single-threaded (it forks)")
    _build_state(network, trips, inserted, {kind for kind, _ in tasks})
    try:
        with multiprocessing.get_context("fork").Pool(
            processes, initializer=signal.signal, initargs=(signal.SIGTERM, signal.SIG_DFL)
        ) as pool:
            answers = pool.map(_reference, tasks, chunksize=4)
            pool.close()
            pool.join()
    finally:
        _STATE.clear()
    return dict(zip(tasks, answers))


# -- the check ---------------------------------------------------------------


@dataclass
class InsertWindow:
    """An acknowledged insert: its request, the global id the server gave
    it, and when the request was in flight."""

    index: int
    trajectory: int
    sent: float
    received: float


def inserts_of(records: Sequence[Record]) -> List[InsertWindow]:
    """Acknowledged inserts."""
    return [
        InsertWindow(r.index, r.reply["trajectory"], r.sent, r.received)
        for r in records
        if r.kind == "insert" and r.ok
    ]


def _split(record: Record, inserts: Sequence[InsertWindow]):
    """Inserts that must be visible to ``record``, and those that may be."""
    required = [w for w in inserts if w.received < record.sent]
    optional = [
        w for w in inserts if not w.received < record.sent and w.sent < record.received
    ]
    return required, optional


def _served(record: Record) -> List[MatchKey]:
    rows = record.reply["matches" if record.kind == "range" else "results"]
    return [(m["trajectory"], m["start"], m["end"], m["distance"]) for m in rows]


def _globalize(matches: Iterable[MatchKey], window: InsertWindow) -> List[MatchKey]:
    return [(window.trajectory, s, e, d) for _, s, e, d in matches]


def check_range(record: Record, expected: Expected, inserts) -> Optional[str]:
    served = _served(record)
    if len(served) != record.reply["total_matches"] or len(set(served)) != len(served):
        return "match list is truncated or has duplicates"
    required_w, optional_w = _split(record, inserts)
    required: Set[MatchKey] = set(expected.base)
    for w in required_w:
        required.update(_globalize(expected.inserted.get(w.index, ()), w))
    allowed = set(required)
    for w in optional_w:
        allowed.update(_globalize(expected.inserted.get(w.index, ()), w))
    served_set = set(served)
    missing, extra = required - served_set, served_set - allowed
    if missing or extra:
        return f"{len(missing)} matches missing, {len(extra)} unexpected"
    return None


def check_topk(record: Record, k: int, expected: Expected, inserts) -> Optional[str]:
    served = _served(record)
    if [m["rank"] for m in record.reply["results"]] != list(range(1, len(served) + 1)):
        return "ranks are not 1..n"
    required_w, optional_w = _split(record, inserts)
    if len(optional_w) > _MAX_OPTIONAL:
        return f"{len(optional_w)} inserts in flight; too many to enumerate"
    pool = list(expected.base)
    for w in required_w:
        pool.extend(_globalize(expected.inserted.get(w.index, ()), w))
    for size in range(len(optional_w) + 1):
        for subset in itertools.combinations(optional_w, size):
            candidates = pool + [
                m for w in subset for m in _globalize(expected.inserted.get(w.index, ()), w)
            ]
            if sorted(candidates, key=_rank_key)[:k] == served:
                return None
    return "ranking differs from the reference"


def check_run(
    records: Sequence[Record],
    requests: Sequence[Request],
    references: Dict[Tuple[str, Tuple[int, ...]], Expected],
) -> List[str]:
    """Every mismatch, as ``"request N (kind): reason"``; empty if all match."""
    inserts = inserts_of(records)
    problems = []
    for record in records:
        request = requests[record.index]
        if not record.ok or request.kind == "insert":
            continue
        expected = references[(request.kind, request.path)]
        if request.kind == "range":
            problem = check_range(record, expected, inserts)
        else:
            problem = check_topk(record, request.k, expected, inserts)
        if problem:
            problems.append(f"request {record.index} ({request.kind}): {problem}")
    return problems


def reference_tasks(records: Sequence[Record], requests: Sequence[Request]):
    """The ``(kind, route)`` pairs the replies in ``records`` need."""
    return {
        (requests[r.index].kind, requests[r.index].path)
        for r in records
        if r.ok and requests[r.index].kind != "insert"
    }
