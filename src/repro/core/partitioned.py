"""Partitioned (shared-nothing) subtrajectory search.

The paper leaves distribution to future work, noting that the whole-
matching partitioners (first/last point [41, 64]) do not apply to
subtrajectory search (§2.1).  The key observation here: subtrajectory
search decomposes *perfectly by trajectory* — a match lives entirely
inside one trajectory — so hash-partitioning trajectories over shards
gives exact answers with no cross-shard coordination beyond a union.

:class:`PartitionedSubtrajectorySearch` simulates such a deployment on a
single machine with three interchangeable fan-out backends:

- ``"serial"`` — shards queried one after another in the caller's thread
  (the historical default; lowest overhead for tiny shards);
- ``"threads"`` — shard queries run on a shared thread pool.  Overlaps
  the non-GIL-bound parts only: pure-Python verification serializes on
  the GIL, so this tops out near one core;
- ``"processes"`` — each shard's engine lives in a long-lived worker
  process (:class:`~repro.core.workers.ShardWorkerPool`), fed pickled
  query descriptors over pipes.  CPU-bound verification then genuinely
  parallelizes: a single query uses up to one core per shard;
- ``"remote"`` — each shard's engine lives in a standalone worker node
  (``repro worker --listen``; :mod:`repro.core.remote`), reached over a
  length-prefixed socket transport and addressed by a JSON shard map.
  Same protocol, supervision, journal-replay and retry semantics as
  ``processes`` — plus reconnect-with-backoff, heartbeats, per-call
  deadlines, and injectable network faults, because links fail in ways
  pipes cannot.

Whatever the backend, the merge is deterministic (shard order, then
sorted by global ``(id, start, end)``) and answers are element-for-
element identical to a single-node engine.  The per-shard work is also
exposed as plain callables (:meth:`shard_query_callables` +
:meth:`merge_shard_results`) so an external scheduler —
:class:`repro.service.Executor` — can run the fan-out on its own pool
and impose deadlines between shards.  Temporal constraints, cooperative
cancellation tokens, and all engine options pass straight through.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.cancellation import raise_if_cancelled
from repro.core.engine import (
    DEFAULT_TRIE_CACHE,
    DEFAULT_TRIE_CACHE_BYTES,
    QueryResult,
    SubtrajectorySearch,
)
from repro.core.frozen import shard_index_path
from repro.core.results import Match
from repro.core.trie import TrieCache
from repro.core.temporal import TemporalMode, TimeInterval
from repro.core.verification import VerificationStats
from repro.core.supervision import WorkerState
from repro.core.workers import ShardWorkerPool
from repro.exceptions import QueryError, ShardUnavailableError
from repro.trajectory.dataset import TrajectoryDataset

__all__ = ["PartitionedSubtrajectorySearch"]

_BACKENDS = ("serial", "threads", "processes", "remote")
#: backends whose shard engines live in another process: workers build
#: their own engines, caches cannot be shared, faults can be injected.
_OUT_OF_PROCESS = ("processes", "remote")


class _GlobalDatasetView:
    """Read-only view of the partitioned corpus in *global* id order.

    The parent keeps a per-shard dataset mirror on every backend (shard
    engines alias it in-process; worker inserts are mirrored after the
    authoritative replica acks), and round-robin assignment makes the
    global↔local mapping arithmetic: global id ``g`` is local id
    ``g // num_shards`` on shard ``g % num_shards``.  That is all a
    whole-corpus consumer — e.g. the top-k exhaustion sweep — needs, so
    this view exposes the single-node dataset surface it reads
    (``len()`` + ``symbols`` + ``alphabet_size``) without materializing a
    merged copy.
    """

    __slots__ = ("_owner",)

    def __init__(self, owner: "PartitionedSubtrajectorySearch") -> None:
        self._owner = owner

    def __len__(self) -> int:
        return len(self._owner)

    def symbols(self, tid: int):
        n = self._owner.num_shards
        return self._owner._shards[tid % n].symbols(tid // n)

    def alphabet_size(self) -> int:
        return self._owner._shards[0].alphabet_size()


class PartitionedSubtrajectorySearch:
    """Exact search over trajectory shards.

    ``num_shards`` engines are built over disjoint trajectory subsets
    (round-robin assignment, which balances shard sizes).  All constructor
    keyword arguments are forwarded to every shard engine.

    Engine keyword arguments — including ``dp_backend`` (the adaptive
    ``"auto"`` default every shard engine inherits) and
    ``substitution_cache_size`` (each shard engine keeps its own
    SubstitutionMatrix LRU; see :meth:`substitution_cache_stats` for the
    aggregate) — are forwarded verbatim to each shard's
    :class:`~repro.core.engine.SubtrajectorySearch` (in-process or inside
    its worker process).

    The warm trie cache is the one exception to shard-local state: trie
    columns are dataset-independent (keyed by data-symbol path, never by
    trajectory), so on the in-process backends (``serial``/``threads``)
    all shard engines share **one** :class:`~repro.core.trie.TrieCache` —
    shard A's verification warms shard B's, and a fan-out query's shards
    walk the same tries concurrently (safe: writer rounds serialize on
    each trie's lock, readers are lock-free).  ``trie_cache_size`` /
    ``trie_cache_bytes`` size that shared cache, or pass a prebuilt
    ``trie_cache``.  The ``processes`` backend cannot share memory across
    workers, so there the knobs size one cache *per worker* and
    :meth:`trie_cache_stats` sums them.

    ``index_backend="frozen"`` with an ``index_path`` *stem* resolves one
    frozen index file per shard (``<stem>.shard<k>-of-<N>`` as written by
    ``repro index build --shards N``, or the stem itself for one shard)
    and forwards it to the owning shard engine along with the expected
    shard provenance, so a mismatched file fails loudly at construction.
    On the ``processes`` backend this is the whole point: each worker
    mmaps its shard's file in O(1) instead of rebuilding (or unpickling)
    postings, and the OS page cache shares the bytes across workers.

    ``backend`` selects the fan-out strategy (see the module docstring).
    For backward compatibility it defaults to ``"threads"`` when
    ``max_workers`` is given and ``"serial"`` otherwise; pass it
    explicitly for ``"processes"``.  ``max_workers`` sizes the threads
    backend's pool (capped at the shard count, default = shard count)
    and is rejected on the other backends — the processes backend always
    runs one worker per shard.  All backends produce identical results:
    the merge collects shard results in shard order regardless of
    completion order.

    The processes backend holds OS resources (worker processes, pipes);
    call :meth:`close` when done.  Unclosed engines are cleaned up at
    interpreter exit, and the class works as a context manager.
    """

    def __init__(
        self,
        dataset: TrajectoryDataset,
        costs,
        *,
        num_shards: int = 4,
        max_workers: Optional[int] = None,
        backend: Optional[str] = None,
        start_method: Optional[str] = None,
        supervise: bool = True,
        fault_plan=None,
        breaker_failures: int = 3,
        breaker_cooldown: float = 1.0,
        respawn_backoff: float = 0.05,
        respawn_backoff_cap: float = 2.0,
        shard_map: Optional[Sequence[str]] = None,
        connect_timeout: float = 5.0,
        remote_call_timeout: Optional[float] = None,
        **engine_kwargs,
    ) -> None:
        if num_shards < 1:
            raise QueryError("num_shards must be >= 1")
        if len(dataset) == 0:
            raise QueryError("cannot shard an empty dataset")
        if max_workers is not None and max_workers < 1:
            raise QueryError("max_workers must be >= 1")
        if backend is None:
            backend = "threads" if max_workers is not None else "serial"
        if backend not in _BACKENDS:
            raise QueryError(
                f"unknown backend {backend!r} (expected one of {_BACKENDS})"
            )
        if backend != "threads" and max_workers is not None:
            raise QueryError(
                f"backend={backend!r} does not take max_workers (the thread "
                "pool is the threads backend's; processes always runs one "
                "worker per shard)"
            )
        if backend not in _OUT_OF_PROCESS and fault_plan is not None:
            # In-process shards cannot die independently of the parent —
            # there is nothing for a fault plan to act on.
            raise QueryError(
                f"backend={backend!r} does not take a fault_plan (fault "
                "injection targets out-of-process shard workers)"
            )
        if backend == "remote":
            if shard_map is None:
                raise QueryError(
                    "backend='remote' needs a shard_map: one 'host:port' "
                    "worker-node address per shard"
                )
            # The shard map IS the shard layout: one node, one shard.
            num_shards = len(shard_map)
            if num_shards > len(dataset):
                raise QueryError(
                    f"shard map has {num_shards} nodes but the dataset has "
                    f"only {len(dataset)} trajectories (a node would own an "
                    "empty shard)"
                )
        elif shard_map is not None:
            raise QueryError(
                f"backend={backend!r} does not take a shard_map (node "
                "addresses drive the remote backend)"
            )
        num_shards = min(num_shards, len(dataset))
        index_path = engine_kwargs.pop("index_path", None)
        if index_path is not None and engine_kwargs.get("index_backend") != "frozen":
            raise QueryError("index_path requires index_backend='frozen'")
        # Per-shard engine kwargs: shard k opens its own frozen file and
        # must find its own shard provenance in the header.
        per_shard_kwargs: Optional[List[Dict[str, Any]]] = None
        if index_path is not None:
            per_shard_kwargs = [
                {
                    "index_path": shard_index_path(index_path, i, num_shards),
                    "index_expected_shard": (
                        None if num_shards == 1 else (i, num_shards)
                    ),
                }
                for i in range(num_shards)
            ]
        self._backend = backend
        self._dp_backend = str(engine_kwargs.get("dp_backend", "auto"))
        self._trie_cache: Optional[TrieCache] = None
        if backend in _OUT_OF_PROCESS:
            if "trie_cache" in engine_kwargs:
                # Fail here with the real reason, not deep in the worker
                # spawn as an opaque "cannot pickle thread lock".
                raise QueryError(
                    f"backend={backend!r} cannot share a prebuilt trie_cache "
                    "across worker processes; pass trie_cache_size / "
                    "trie_cache_bytes to size each worker's own cache"
                )
        else:
            # One shared cross-query trie cache for all in-process shard
            # engines (columns are dataset-independent — see the class
            # docstring); workers keep per-process caches instead.
            shared = engine_kwargs.pop("trie_cache", None)
            if shared is None:
                size = engine_kwargs.pop("trie_cache_size", DEFAULT_TRIE_CACHE)
                max_bytes = engine_kwargs.pop(
                    "trie_cache_bytes", DEFAULT_TRIE_CACHE_BYTES
                )
                if size < 0:
                    raise QueryError("trie_cache_size must be >= 0")
                if max_bytes is not None and max_bytes < 0:
                    raise QueryError("trie_cache_bytes must be >= 0")
                shared = TrieCache(size, max_bytes)
            self._trie_cache = shared
            engine_kwargs = dict(engine_kwargs, trie_cache=shared)
        self._global_ids: List[List[int]] = [[] for _ in range(num_shards)]
        self._shards = [
            TrajectoryDataset(dataset.graph, dataset.representation)
            for _ in range(num_shards)
        ]
        for tid in range(len(dataset)):
            shard = tid % num_shards
            self._shards[shard].add(dataset[tid])
            self._global_ids[shard].append(tid)
        self._costs = costs
        self._update_lock = threading.Lock()
        self._closed = False
        self._engines: List[SubtrajectorySearch] = []
        self._pool: Optional[ThreadPoolExecutor] = None
        self._workers: Optional[ShardWorkerPool] = None
        if backend in _OUT_OF_PROCESS:
            # Engines are built inside the workers — index memory and
            # build time live there, once, not in the parent too.  With a
            # frozen index_path the workers ship only the *path*: each
            # opens its shard's file by mmap instead of rebuilding.  On
            # "remote" the workers are standalone nodes from shard_map
            # and a respawn is a reconnect.
            self._workers = ShardWorkerPool(
                self._shards,
                costs,
                engine_kwargs,
                start_method=start_method,
                per_shard_kwargs=per_shard_kwargs,
                supervise=supervise,
                fault_plan=fault_plan,
                breaker_failures=breaker_failures,
                breaker_cooldown=breaker_cooldown,
                respawn_backoff=respawn_backoff,
                respawn_backoff_cap=respawn_backoff_cap,
                shard_map=list(shard_map) if backend == "remote" else None,
                connect_timeout=connect_timeout,
                call_timeout=remote_call_timeout,
            )
        else:
            self._engines = [
                SubtrajectorySearch(
                    shard,
                    costs,
                    **(
                        engine_kwargs
                        if per_shard_kwargs is None
                        else {**engine_kwargs, **per_shard_kwargs[i]}
                    ),
                )
                for i, shard in enumerate(self._shards)
            ]
            if backend == "threads" and num_shards > 1:
                workers = num_shards if max_workers is None else max_workers
                self._pool = ThreadPoolExecutor(
                    max_workers=min(workers, num_shards),
                    thread_name_prefix="repro-shard",
                )

    @property
    def num_shards(self) -> int:
        """Number of shards actually built."""
        return len(self._global_ids)

    @property
    def backend(self) -> str:
        """The fan-out backend: ``serial``, ``threads``, ``processes``,
        or ``remote``."""
        return self._backend

    def nodes(self) -> List[Optional[str]]:
        """Per-shard worker-node addresses (all ``None`` except on the
        remote backend)."""
        self._check_open()
        if self._workers is not None:
            return self._workers.nodes()
        return [None] * self.num_shards

    @property
    def costs(self):
        """The cost model shared by every shard engine."""
        return self._costs

    @property
    def dataset(self):
        """The whole corpus as a read-only global-id-ordered view (the
        surface :func:`repro.core.topk.topk_search` scans; backed by the
        per-shard mirrors, so it is current on every backend)."""
        return _GlobalDatasetView(self)

    @property
    def dp_backend(self) -> str:
        """The verification DP backend every shard engine is configured
        with (``"auto"`` resolves per query inside each shard)."""
        return self._dp_backend

    # -- supervision snapshots ----------------------------------------------

    def worker_states(self) -> List[WorkerState]:
        """Per-shard supervision snapshots (``/healthz`` / ``/metrics``).

        On the processes backend these come from the pool's supervisor
        (liveness, pid, restart count, breaker state).  In-process shards
        share the parent's fate, so the other backends report synthetic
        always-alive states — the endpoint shape is backend-uniform.
        """
        self._check_open()
        if self._workers is not None:
            return self._workers.worker_states()
        return [
            WorkerState(
                shard=shard,
                alive=True,
                pid=None,
                restarts=0,
                breaker="closed",
                consecutive_failures=0,
            )
            for shard in range(self.num_shards)
        ]

    def restarts_total(self) -> int:
        """Completed shard-worker respawns — reconnects on the remote
        backend (0 on in-process backends)."""
        self._check_open()
        return 0 if self._workers is None else self._workers.restarts_total()

    def retry_after(self) -> float:
        """Seconds until the soonest open breaker admits a probe (0 when
        every shard is serving) — the HTTP 503 ``Retry-After`` basis."""
        self._check_open()
        return 0.0 if self._workers is None else self._workers.retry_after()

    #: summed fields of each engine-level cache's counters.
    _SUB_FIELDS = ("capacity", "size", "hits", "misses")
    _TRIE_FIELDS = ("capacity", "size", "bytes", "hits", "misses", "evictions")
    _INDEX_FIELDS = (
        "num_symbols",
        "num_postings",
        "delta_postings",
        "bytes",
        "file_bytes",
        "resident_bytes",
    )

    def _aggregate(
        self, parts: Sequence[Optional[Dict[str, int]]], fields: Sequence[str]
    ) -> Dict[str, int]:
        """Sum per-shard counter dicts; ``None`` parts (busy workers on a
        non-blocking poll) are skipped and ``shards_reporting`` says how
        many answered."""
        agg = {field: 0 for field in fields}
        agg["shards"] = self.num_shards
        agg["shards_reporting"] = 0
        for part in parts:
            if part is None:
                continue
            agg["shards_reporting"] += 1
            for field in fields:
                agg[field] += int(part.get(field, 0))
        return agg

    def substitution_cache_stats(self) -> Dict[str, int]:
        """Aggregated SubstitutionMatrix-LRU counters across shards.

        Sums capacity/size/hits/misses over every shard engine.  On the
        processes backend the workers are polled without blocking — a
        worker busy with an in-flight query is skipped rather than
        stalling a health probe behind a long verification —
        ``shards_reporting`` says how many answered.
        """
        self._check_open()
        if self._workers is not None:
            parts = self._workers.substitution_cache_stats()
        else:
            parts = [engine.substitution_cache_stats() for engine in self._engines]
        return self._aggregate(parts, self._SUB_FIELDS)

    def trie_cache_stats(self) -> Dict[str, int]:
        """TrieCache counters across shards.

        On the in-process backends all shards share one cache, so its
        counters are reported directly (``shards_reporting`` = every
        shard, since every shard feeds the same cache).  On the processes
        backend each worker keeps its own cache; the counters are summed
        over the workers, polled without blocking — a worker busy with an
        in-flight query is skipped rather than stalling a health probe —
        and ``shards_reporting`` says how many answered.
        """
        self._check_open()
        if self._workers is None:
            stats: Dict[str, int] = dict(self._trie_cache.stats())
            stats["shards"] = self.num_shards
            stats["shards_reporting"] = self.num_shards
            return stats
        return self._aggregate(self._workers.trie_cache_stats(), self._TRIE_FIELDS)

    def _aggregate_index(
        self, parts: Sequence[Optional[Dict[str, Any]]]
    ) -> Dict[str, Any]:
        """Sum per-shard index counters and carry the non-numeric facts:
        the backend name (uniform across shards by construction) and
        whether *every* reporting shard serves from an mmap."""
        agg: Dict[str, Any] = self._aggregate(parts, self._INDEX_FIELDS)
        reporting = [p for p in parts if p is not None]
        agg["backend"] = reporting[0].get("backend", "") if reporting else ""
        agg["mmap"] = bool(reporting) and all(p.get("mmap") for p in reporting)
        return agg

    def index_stats(self) -> Dict[str, Any]:
        """Aggregated inverted-index stats across shards (backend, summed
        sizes/bytes, whether every shard serves from an mmap).  On the
        processes backend the workers are polled without blocking — busy
        workers are skipped, ``shards_reporting`` says how many answered.
        """
        self._check_open()
        if self._workers is not None:
            combined = self._workers.cache_stats()
            parts = [None if p is None else p.get("index") for p in combined]
        else:
            parts = [engine.index_stats() for engine in self._engines]
        return self._aggregate_index(parts)

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Both engine-level caches' aggregates from ONE worker poll.

        ``/healthz`` and ``/stats`` consume this instead of calling the
        per-cache methods back to back: on the processes backend that
        would cross every worker's pipe twice and could report the two
        caches from different snapshots (a worker turning busy between
        the polls would count toward one and not the other).
        """
        self._check_open()
        if self._workers is None:
            return {
                "substitution": self.substitution_cache_stats(),
                "trie": self.trie_cache_stats(),
                "index": self.index_stats(),
            }
        combined = self._workers.cache_stats()
        return {
            "substitution": self._aggregate(
                [None if p is None else p.get("substitution") for p in combined],
                self._SUB_FIELDS,
            ),
            "trie": self._aggregate(
                [None if p is None else p.get("trie") for p in combined],
                self._TRIE_FIELDS,
            ),
            "index": self._aggregate_index(
                [None if p is None else p.get("index") for p in combined]
            ),
        }

    def observability_cache_stats(self) -> Dict[str, Any]:
        """Per-shard (unaggregated) cache counters for ``/metrics``.

        Unlike :meth:`cache_stats` (which sums for ``/stats``), the
        metrics endpoint wants one labelled sample per cache instance:
        in-process backends report one substitution cache per shard and
        the single **shared** trie cache; the processes backend reports
        both caches per worker from ONE non-blocking poll (busy workers
        are skipped, ``reporting`` says how many answered).
        """
        self._check_open()
        out: Dict[str, Any] = {"shards": self.num_shards}
        if self._workers is None:
            out["reporting"] = self.num_shards
            out["substitution"] = [
                (str(i), engine.substitution_cache_stats())
                for i, engine in enumerate(self._engines)
            ]
            out["trie"] = [("shared", dict(self._trie_cache.stats()))]
            out["index"] = [
                (str(i), engine.index_stats())
                for i, engine in enumerate(self._engines)
            ]
            return out
        combined = self._workers.cache_stats()
        substitution = []
        trie = []
        index = []
        reporting = 0
        for i, part in enumerate(combined):
            if part is None:
                continue
            reporting += 1
            substitution.append((str(i), part["substitution"]))
            trie.append((str(i), part["trie"]))
            if "index" in part:
                index.append((str(i), part["index"]))
        out["reporting"] = reporting
        out["substitution"] = substitution
        out["trie"] = trie
        out["index"] = index
        return out

    def __len__(self) -> int:
        return sum(len(ids) for ids in self._global_ids)

    def close(self) -> None:
        """Release fan-out resources (thread pool / worker processes).

        Idempotent, and safe on any backend.  Process workers still alive
        at interpreter exit are terminated by an ``atexit`` hook, but an
        explicit (or context-manager) close is the orderly path.
        """
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._workers is not None:
            self._workers.close()

    def _check_open(self) -> None:
        # Uniform across backends: a closed engine fails loudly instead of
        # silently degrading (threads would otherwise fall back to serial).
        if self._closed:
            raise QueryError("engine is closed")

    def __enter__(self) -> "PartitionedSubtrajectorySearch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- online updates -----------------------------------------------------

    def add_trajectory(self, trajectory, *, validate: bool = False) -> int:
        """Append one trajectory, continuing the round-robin assignment
        (global id ``g`` lives on shard ``g % num_shards``, exactly as at
        construction).  Returns the new global trajectory id.

        Serialized against concurrent inserts so global ids stay dense and
        unique when called from server threads.  On the processes backend
        the insert is *replicated* to the owning worker with the expected
        shard-local id attached; the worker acknowledges synchronously
        (read-your-writes) and raises
        :class:`~repro.exceptions.WorkerError` if its replica disagrees."""
        self._check_open()
        with self._update_lock:
            gid = len(self)
            shard = gid % self.num_shards
            # Reserve the global id *before* the shard engine can match the
            # new trajectory: a concurrent query that sees the trajectory
            # must find its id in the map (the reverse order would let the
            # merge hit an unmapped shard-local id).  An id mapped early is
            # harmless — no match can reference it until the engine insert
            # lands.
            self._global_ids[shard].append(gid)
            try:
                if self._workers is not None:
                    local_id = len(self._shards[shard])
                    self._workers.replicate_add(
                        shard, local_id, trajectory, validate=validate
                    )
                    # The worker (the authoritative replica) committed and
                    # agreed on the id; mirror into the parent's copy so a
                    # later rebuild/export sees the same shard contents.
                    self._shards[shard].add(trajectory)
                else:
                    self._engines[shard].add_trajectory(
                        trajectory, validate=validate
                    )
            except BaseException:
                self._global_ids[shard].pop()
                raise
            return gid

    # -- shard fan-out ------------------------------------------------------

    def shard_query_callables(
        self,
        query: Sequence[int],
        *,
        tau: Optional[float] = None,
        tau_ratio: Optional[float] = None,
        time_interval: Optional[TimeInterval] = None,
        temporal_filter: bool = True,
        temporal_mode: TemporalMode = "overlap",
        cancel=None,
        trace=None,
    ) -> List[Callable[[], QueryResult]]:
        """One zero-argument callable per shard, each returning that shard's
        :class:`QueryResult` (shard-local trajectory ids).

        The callables are independent and thread-safe to run concurrently;
        pass their results *in shard order* to :meth:`merge_shard_results`.
        ``cancel`` (a cooperative cancellation token) is threaded into
        every shard query — tripping it stops all shards' verification
        loops within one iteration, on every backend.  ``trace`` (a
        :class:`repro.obs.tracing.Span`, or None) makes each callable open
        a per-shard child span covering its own execution window — spans
        open inside the callable, so an external scheduler's queueing
        delay is visible as the gap between the parent span and the shard
        spans.
        """
        self._check_open()
        kwargs = dict(
            tau=tau,
            tau_ratio=tau_ratio,
            time_interval=time_interval,
            temporal_filter=temporal_filter,
            temporal_mode=temporal_mode,
        )
        if self._workers is not None:
            return [
                partial(
                    self._worker_shard_query,
                    shard, list(query), kwargs, cancel, trace,
                )
                for shard in range(self.num_shards)
            ]
        return [
            partial(
                self._in_process_shard_query,
                shard, engine, query, kwargs, cancel, trace,
            )
            for shard, engine in enumerate(self._engines)
        ]

    def _in_process_shard_query(
        self, shard, engine, query, kwargs, cancel, trace
    ) -> QueryResult:
        if trace is None:
            return engine.query(query, cancel=cancel, **kwargs)
        span = trace.child("shard", shard=shard, backend=self._backend)
        try:
            return engine.query(query, cancel=cancel, trace=span, **kwargs)
        except BaseException as exc:
            span.set("error", type(exc).__name__)
            raise
        finally:
            span.finish()

    def _worker_shard_query(
        self, shard, query, kwargs, cancel, trace
    ) -> QueryResult:
        if trace is None:
            return self._workers.query_shard(shard, query, kwargs, cancel)
        span = trace.child("shard", shard=shard, backend=self._backend)
        try:
            result, exported = self._workers.query_shard(
                shard, query, kwargs, cancel, trace_ctx=span.context()
            )
            span.graft(exported)
            return result
        except BaseException as exc:
            span.set("error", type(exc).__name__)
            raise
        finally:
            span.finish()

    def merge_shard_results(
        self, results: Sequence[Optional[QueryResult]]
    ) -> QueryResult:
        """Union shard results (given in shard order) into one global
        :class:`QueryResult`: ids mapped back to the global space, matches
        sorted by ``(id, start, end)``, timings and counters summed.

        A ``None`` entry is a *degraded* shard (its worker stayed down and
        the caller opted into ``allow_partial``): its matches are simply
        missing, the merged result carries ``complete=False`` and the
        shard's index in ``degraded_shards``.  All ``None`` raises
        :class:`~repro.exceptions.ShardUnavailableError` — there is
        nothing to serve a partial answer from."""
        if len(results) != self.num_shards:
            raise QueryError(
                f"expected {self.num_shards} shard results, got {len(results)}"
            )
        degraded = tuple(
            shard for shard, result in enumerate(results) if result is None
        )
        if len(degraded) == self.num_shards:
            raise ShardUnavailableError(
                "every shard is unavailable (nothing to serve a partial "
                "result from)"
            )
        matches: List[Match] = []
        tau_used = 0.0
        candidates = 0
        mincand = lookup = verify = 0.0
        allocations = 0
        dp_rounds = 0
        backend_used = ""
        trie_statuses: List[str] = []
        stats = VerificationStats()
        for result, id_map in zip(results, self._global_ids):
            if result is None:
                continue
            tau_used = result.tau
            candidates += result.num_candidates
            mincand += result.mincand_seconds
            lookup += result.lookup_seconds
            verify += result.verify_seconds
            allocations += result.dp_array_allocations
            dp_rounds += result.dp_rounds
            backend_used = backend_used or result.dp_backend_used
            status = result.trie_cache_status
            if status and status not in trie_statuses:
                trie_statuses.append(status)
            s = result.verification
            stats.candidates += s.candidates
            stats.sw_columns += s.sw_columns
            stats.visited_columns += s.visited_columns
            stats.computed_columns += s.computed_columns
            stats.emitted += s.emitted
            stats.duplicate_candidates += s.duplicate_candidates
            matches.extend(
                Match(id_map[m.trajectory_id], m.start, m.end, m.distance)
                for m in result.matches
            )
        matches.sort(key=lambda m: (m.trajectory_id, m.start, m.end))
        return QueryResult(
            matches=matches,
            tau=tau_used,
            subsequence=[],
            num_candidates=candidates,
            mincand_seconds=mincand,
            lookup_seconds=lookup,
            verify_seconds=verify,
            verification=stats,
            dp_backend_used=backend_used,
            dp_array_allocations=allocations,
            dp_rounds=dp_rounds,
            trie_cache_status="+".join(sorted(trie_statuses)),
            complete=not degraded,
            degraded_shards=degraded,
        )

    def query(
        self,
        query: Sequence[int],
        *,
        tau: Optional[float] = None,
        tau_ratio: Optional[float] = None,
        time_interval: Optional[TimeInterval] = None,
        temporal_filter: bool = True,
        temporal_mode: TemporalMode = "overlap",
        cancel=None,
        trace=None,
        allow_partial: bool = False,
    ) -> QueryResult:
        """Fan out to every shard and merge (exact, same semantics as the
        single-node engine).  ``cancel`` optionally carries a deadline /
        cancellation token through to every shard's verification loop.
        ``trace`` (a :class:`repro.obs.tracing.Span`, or None) collects
        one child span per shard — on the processes backend the workers'
        own engine-stage spans are stitched underneath them.

        ``allow_partial`` opts into graceful degradation on the processes
        backend: a shard whose worker stays down (even after the pool's
        respawn-and-retry) yields no matches instead of failing the whole
        query, and the merged result says so (``complete=False`` +
        ``degraded_shards``).  In-process shards share the parent's fate
        and cannot independently fail, so the flag is accepted but inert
        on the other backends."""
        self._check_open()
        raise_if_cancelled(cancel, "query")
        if self._workers is not None:
            kwargs: Dict[str, Any] = dict(
                tau=tau,
                tau_ratio=tau_ratio,
                time_interval=time_interval,
                temporal_filter=temporal_filter,
                temporal_mode=temporal_mode,
            )
            # Send to every worker before collecting any reply: all shard
            # processes verify concurrently (no parent-side threads needed).
            if trace is None:
                results = self._workers.query_all(
                    list(query), kwargs, cancel, allow_partial=allow_partial
                )
            else:
                spans = [
                    trace.child("shard", shard=i, backend=self._backend)
                    for i in range(self.num_shards)
                ]
                try:
                    # on_reply closes each shard's span the moment its
                    # reply is collected, so span ends track per-shard
                    # completion rather than the full fan-out; on_event
                    # pins retry/degrade decisions onto the shard spans.
                    payloads = self._workers.query_all(
                        list(query),
                        kwargs,
                        cancel,
                        trace_ctxs=[span.context() for span in spans],
                        on_reply=lambda i: spans[i].finish(),
                        allow_partial=allow_partial,
                        on_event=lambda i, event: spans[i].set("fault", event),
                    )
                finally:
                    for span in spans:  # no-op on already-finished spans
                        span.finish()
                results = []
                for span, payload in zip(spans, payloads):
                    if payload is None:
                        results.append(None)
                        continue
                    result, exported = payload
                    span.graft(exported)
                    results.append(result)
            merged = self.merge_shard_results(results)
        else:
            calls = self.shard_query_callables(
                query,
                tau=tau,
                tau_ratio=tau_ratio,
                time_interval=time_interval,
                temporal_filter=temporal_filter,
                temporal_mode=temporal_mode,
                cancel=cancel,
                trace=trace,
            )
            if self._pool is None:
                results = [call() for call in calls]
            else:
                results = list(self._pool.map(lambda call: call(), calls))
            merged = self.merge_shard_results(results)
        if trace is not None:
            trace.set("shards", self.num_shards)
            trace.set("matches", len(merged.matches))
            trace.set("candidates", merged.num_candidates)
        return merged

    def topk(
        self,
        query: Sequence[int],
        k: int,
        *,
        initial_tau_ratio: float = 0.05,
        growth: float = 2.0,
        cancel=None,
        allow_partial: bool = False,
        trace=None,
    ):
        """The ``k`` most similar subtrajectories across all shards —
        :func:`repro.core.topk.topk_search` run with this engine as the
        probe target.  The tau-doubling loop sits *above* the shard
        fan-out: every probe round is one ordinary :meth:`query` (worker
        pipes / remote RPC, supervision, retry-once, journal replay all
        unchanged), and ``allow_partial`` degrades probe rounds exactly
        like range queries (the result is then ``complete=False``)."""
        from repro.core.topk import topk_search  # circular at import time

        self._check_open()
        return topk_search(
            self,
            query,
            k,
            initial_tau_ratio=initial_tau_ratio,
            growth=growth,
            cancel=cancel,
            allow_partial=allow_partial,
            trace=trace,
        )
