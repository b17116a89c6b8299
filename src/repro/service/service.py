"""The serving facade: one request ladder for range and top-k queries.

:class:`QueryService` is the one object a frontend (HTTP handler, CLI,
benchmark driver) talks to.  Each request is built into a frozen
descriptor — :class:`RangeRequest` or :class:`TopKRequest` — that
validates every field (non-finite or out-of-range numbers and bad
symbols raise :class:`~repro.exceptions.QueryError` before admission)
and owns what differs between the kinds: cache signature, cache lookup
and store rule, coalescing flight key, and executor call.  One ladder
then serves both: the LRU :class:`~repro.service.cache.ResultCache`;
on a miss, single-flight coalescing
(:class:`~repro.service.batching.Batcher`); as the flight leader, the
:class:`~repro.service.executor.Executor` (admission, deadline,
execution), whose answer is cached; then
:class:`~repro.service.metrics.Metrics` and tracing record the outcome.

Every layer is exact: a cached or coalesced answer is element-for-element
the answer the engine would compute.  Online updates keep it that way —
:meth:`QueryService.add_trajectory` clears the cache after mutating the
engine, so no stale answer survives an insert (the invalidation hook
deletes will reuse).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import time
from dataclasses import dataclass
from typing import ClassVar, Iterable, Optional, Sequence, Tuple

from repro.core.engine import QueryResult, query_signature, topk_signature
from repro.core.temporal import TemporalMode, TimeInterval
from repro.exceptions import AdmissionError, DeadlineExceededError, QueryError
from repro.service.batching import Batcher
from repro.service.cache import ResultCache
from repro.service.executor import Executor
from repro.service.metrics import Metrics
from repro.service.observability import ServiceObservability

__all__ = ["QueryService", "RangeRequest", "ServiceResponse", "TopKRequest"]


def _deadline_is_retryable(exc: BaseException) -> bool:
    """Coalescing fairness predicate: a leader's deadline miss (or the
    cancellation it decays to) is the leader's budget running out, not the
    follower's — the follower retries while its own budget holds."""
    return isinstance(exc, DeadlineExceededError)


def _number(
    name: str, value, low: float, high: float = math.inf, *, open_low: bool = False
) -> Optional[float]:
    """``value`` as a finite float in ``[low, high]`` — ``(low, high]``
    with ``open_low`` — and ``None`` as ``None``.  Anything else (a
    non-number, a bool, NaN, an infinity, a value out of range) is a
    :class:`QueryError`."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise QueryError(f"{name!r} must be a number, got {value!r}")
    value = float(value)
    above_low = low < value if open_low else low <= value
    if not (math.isfinite(value) and above_low and value <= high):
        raise QueryError(
            f"{name!r} must be a finite number in {'(' if open_low else '['}"
            f"{low:g}, {high:g}], got {value!r}"
        )
    return value


def _path(path) -> Tuple[int, ...]:
    """A query path as a tuple of non-negative integer symbols.  Bools and
    floats are rejected rather than coerced (``int(1.5)`` would silently
    answer a different query); the upper bound — the engine's alphabet —
    is checked by the service, which knows it."""
    if isinstance(path, (str, bytes)) or not isinstance(path, Iterable):
        raise QueryError("'path' must be a non-empty list of symbols")
    symbols = tuple(path)
    if not symbols:
        raise QueryError("empty query")
    for s in symbols:
        if isinstance(s, bool) or not isinstance(s, numbers.Integral) or s < 0:
            raise QueryError(f"path symbols must be non-negative integers, got {s!r}")
    return tuple(int(s) for s in symbols)


@dataclass(frozen=True)
class _Request:
    """The fields and checks every request kind shares.

    A descriptor is built once per request and validates its fields as it
    is built.  ``MODE`` names the executor method that runs it and the
    kind in traces; the base methods implement range behaviour, which
    :class:`TopKRequest` overrides where its truncation rule differs."""

    MODE: ClassVar[str]

    path: Tuple[int, ...]
    deadline: Optional[float] = None
    allow_partial: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.allow_partial, bool):
            raise QueryError(
                f"'allow_partial' must be a boolean, got {self.allow_partial!r}"
            )
        self._normalize(
            path=_path(self.path),
            deadline=_number("deadline", self.deadline, 0.0, open_low=True),
        )

    def _normalize(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def flight_key(self, sig: tuple, generation: int) -> tuple:
        # The deadline keys the flight (a tightly-budgeted leader's
        # DeadlineExceededError must not reach a follower that asked for
        # more time), as do the cache generation (a post-insert request
        # must not share a pre-insert computation) and allow_partial (a
        # partial answer is never handed to a follower that did not opt
        # in).
        return (sig, self.deadline, generation, self.allow_partial)

    def lookup(self, cache: ResultCache, sig: tuple):
        return cache.get(sig)

    def store(self, cache: ResultCache, sig: tuple, result, generation: int) -> None:
        cache.put(sig, result, generation=generation)

    def execute(self, executor: Executor, trace):
        fields = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        run = getattr(executor, self.MODE)
        return run(list(fields.pop("path")), trace=trace, **fields)

    def trace_attributes(self) -> dict:
        attrs = {"query_length": len(self.path)}
        if self.deadline is not None:
            attrs["deadline_seconds"] = self.deadline
        return attrs


@dataclass(frozen=True, kw_only=True)
class RangeRequest(_Request):
    """One range request: every match within ``tau`` (or ``tau_ratio`` of
    the query's filter cost), optionally inside a time window."""

    MODE: ClassVar[str] = "query"

    tau: Optional[float] = None
    tau_ratio: Optional[float] = None
    time_interval: Optional[TimeInterval] = None
    temporal_mode: TemporalMode = "overlap"

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.tau is None) == (self.tau_ratio is None):
            raise QueryError("exactly one of tau / tau_ratio must be given")
        if self.temporal_mode not in ("overlap", "within"):
            raise QueryError("'temporal_mode' must be 'overlap' or 'within'")
        window = self.time_interval
        if window is not None and not (
            math.isfinite(window.start) and math.isfinite(window.end)
        ):
            raise QueryError("time window bounds must be finite")
        self._normalize(
            tau=_number("tau", self.tau, 0.0),
            tau_ratio=_number("tau_ratio", self.tau_ratio, 0.0, 1.0),
        )

    def signature(self, costs) -> tuple:
        return query_signature(
            self.path,
            costs,
            tau=self.tau,
            tau_ratio=self.tau_ratio,
            time_interval=self.time_interval,
            temporal_mode=self.temporal_mode,
        )

    def trace_attributes(self) -> dict:
        attrs = super().trace_attributes()
        for name in ("tau", "tau_ratio"):
            if getattr(self, name) is not None:
                attrs[name] = getattr(self, name)
        return attrs


@dataclass(frozen=True, kw_only=True)
class TopKRequest(_Request):
    """One top-k request: the ``k`` best per-trajectory matches
    (:func:`repro.core.topk.topk_search`).

    Its cache rule is truncation reuse: the signature is k-independent
    (:func:`repro.core.engine.topk_signature`), a cached answer computed
    at ``k' >= k`` answers ``k`` through
    :meth:`~repro.core.topk.TopKResult.at_k`, and a stored answer that
    covers a newly computed one is never replaced by it."""

    MODE: ClassVar[str] = "topk"

    k: int = 1
    initial_tau_ratio: float = 0.05
    growth: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        k = self.k
        if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
            raise QueryError(f"'k' must be a positive integer, got {k!r}")
        self._normalize(
            k=int(k),
            initial_tau_ratio=_number(
                "initial_tau_ratio", self.initial_tau_ratio, 0.0, open_low=True
            ),
            growth=_number("growth", self.growth, 1.0, open_low=True),
        )

    def signature(self, costs) -> tuple:
        return topk_signature(self.path, costs)

    def flight_key(self, sig: tuple, generation: int) -> tuple:
        # Plus k: concurrent requests coalesce only when the leader's
        # answer is exactly the follower's (truncation reuse happens in the
        # cache, not mid-flight).
        return super().flight_key(sig, generation) + (self.k,)

    def lookup(self, cache: ResultCache, sig: tuple):
        return cache.get_topk(sig, self.k)

    def store(self, cache: ResultCache, sig: tuple, result, generation: int) -> None:
        cache.put(
            sig, result, generation=generation,
            keep=lambda stored: stored.covers(result.k),
        )

    def trace_attributes(self) -> dict:
        return {**super().trace_attributes(), "mode": "topk", "k": self.k}


@dataclass(frozen=True, slots=True)
class ServiceResponse:
    """One answered request: the engine result plus serving provenance.

    ``result`` is a :class:`~repro.core.engine.QueryResult` for range
    requests and a :class:`~repro.core.topk.TopKResult` for top-k
    requests (:meth:`QueryService.topk`)."""

    result: QueryResult
    signature: tuple
    cached: bool
    coalesced: bool
    seconds: float


class QueryService:
    """Multi-client query serving over one search engine.

    Parameters
    ----------
    engine:
        :class:`~repro.core.engine.SubtrajectorySearch` or
        :class:`~repro.core.partitioned.PartitionedSubtrajectorySearch`
        (whose backend owns the shard fan-out).
    max_workers / max_pending / default_deadline:
        Forwarded to the :class:`Executor`.
    cache_size:
        LRU capacity; ``0`` disables result caching.
    batching:
        Coalesce concurrent duplicate requests (single-flight).
    observability:
        A prebuilt :class:`~repro.service.observability.ServiceObservability`
        to bind, or ``None`` to construct one from ``trace_sample_rate`` /
        ``slow_query_seconds`` (which are ignored when a prebuilt one is
        given — its own knobs win).
    trace_sample_rate:
        Fraction of requests to trace end-to-end (0 = tracing off, the
        near-zero-overhead default; slow queries are recorded regardless).
    slow_query_seconds:
        Latency threshold over which a query logs a one-line JSON record
        on the ``repro.slowlog`` logger and is force-kept in the flight
        recorder (``None`` disables).
    """

    def __init__(
        self,
        engine,
        *,
        max_workers: int = 4,
        max_pending: int = 64,
        default_deadline: Optional[float] = None,
        cache_size: int = 1024,
        batching: bool = True,
        metrics_window: int = 4096,
        observability: Optional[ServiceObservability] = None,
        trace_sample_rate: float = 0.0,
        slow_query_seconds: Optional[float] = None,
    ) -> None:
        self._engine = engine
        self._costs = engine.costs
        # Symbols at or past the alphabet size are unknown to the engine:
        # rejected as bad input instead of failing deep inside it.
        dataset = getattr(engine, "dataset", None)
        self._alphabet_size: Optional[int] = (
            None if dataset is None else dataset.alphabet_size()
        )
        self.executor = Executor(
            engine,
            max_workers=max_workers,
            max_pending=max_pending,
            default_deadline=default_deadline,
        )
        self.cache = ResultCache(cache_size)
        self.batcher = Batcher() if batching else None
        self.metrics = Metrics(window=metrics_window)
        if observability is None:
            observability = ServiceObservability(
                trace_sample_rate=trace_sample_rate,
                slow_query_seconds=slow_query_seconds,
            )
        self.observability = observability
        observability.bind(self)

    @property
    def engine(self):
        """The wrapped search engine."""
        return self._engine

    def close(self, *, close_engine: bool = False) -> None:
        """Drain the executor pool and stop admitting queries (idempotent).

        ``close_engine=True`` also closes the engine itself — required to
        terminate shard worker processes when serving a
        ``backend="processes"`` engine this service owns."""
        self.executor.close(close_engine=close_engine)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request path -------------------------------------------------------

    def signature(self, query: Sequence[int], **fields) -> tuple:
        """The cache/coalescing key this service uses for a range request
        (``fields`` as for :class:`RangeRequest`)."""
        return RangeRequest(query, **fields).signature(self._costs)

    def topk_signature(self, query: Sequence[int]) -> tuple:
        """The cache/coalescing key this service uses for a top-k
        request.  Deliberately k-independent (see
        :func:`repro.core.engine.topk_signature`): the cached answer's
        own ``k`` decides coverage."""
        return TopKRequest(query).signature(self._costs)

    def query(self, query: Sequence[int], **fields) -> ServiceResponse:
        """Answer one range request through cache, coalescing, and
        executor; ``fields`` are those of :class:`RangeRequest` (``tau`` or
        ``tau_ratio``, ``time_interval`` / ``temporal_mode``,
        ``deadline``, ``allow_partial``).

        Semantics match the engine exactly; raises
        :class:`~repro.exceptions.QueryError` for invalid input and
        :class:`~repro.exceptions.AdmissionError` /
        :class:`~repro.exceptions.DeadlineExceededError` under overload.

        ``allow_partial`` opts this request into graceful degradation
        (processes/remote-backend engines — see
        :meth:`~repro.core.partitioned.PartitionedSubtrajectorySearch.query`):
        with shards down, the response carries ``result.complete=False``
        and ``result.degraded_shards`` instead of an error.  Partial
        answers are never cached (the shard could come back) and never
        shared with a coalesced follower that did not opt in.
        """
        return self._serve(RangeRequest, query, **fields)

    def topk(self, query: Sequence[int], k: int, **fields) -> ServiceResponse:
        """Answer one top-k request through the same ladder as
        :meth:`query`, with the same errors; ``fields`` are those of
        :class:`TopKRequest` (``initial_tau_ratio``, ``growth``,
        ``deadline``, ``allow_partial``).

        An earlier answer computed at ``k' >= k`` (same query, same cost
        model) serves this request from the cache without touching the
        engine, re-cut to ``k`` with its tie count recomputed.
        """
        return self._serve(TopKRequest, query, k=k, **fields)

    def _serve(self, kind, query: Sequence[int], **fields) -> ServiceResponse:
        """The one request ladder: validate → cache → coalesce → admit
        and execute → observe.  Failures at any rung, validation
        included, are counted and traced before they propagate."""
        obs = self.observability
        trace = obs.start_trace()
        root = None if trace is None else trace.root
        t0 = time.perf_counter()
        coalesced = False
        try:
            request = kind(query, **fields)
            top = max(request.path)
            if self._alphabet_size is not None and top >= self._alphabet_size:
                raise QueryError(
                    f"unknown symbol {top}: the alphabet has "
                    f"{self._alphabet_size} symbols"
                )
            if root is not None:
                for name, value in request.trace_attributes().items():
                    root.set(name, value)
            sig = request.signature(self._costs)
            # Captured before the cache lookup: this generation also keys
            # the coalescing flight, so a request arriving after an
            # invalidation never joins a pre-invalidation flight
            # (read-your-writes for the inserter) and a computed result is
            # never re-cached across one.
            generation = self.cache.generation
            lookup_span = None if root is None else root.child("cache_lookup")
            result = request.lookup(self.cache, sig)
            cached = result is not None
            if lookup_span is not None:
                lookup_span.set("hit", cached)
                lookup_span.finish()
            if not cached:
                result, coalesced = self._compute(request, sig, generation, root)
        except TimeoutError as exc:
            # A follower's own budget ran out waiting on a leader.
            converted = DeadlineExceededError(str(exc))
            self._failed(trace, t0, kind, converted)
            raise converted from None
        except Exception as exc:
            self._failed(trace, t0, kind, exc)
            raise
        seconds = time.perf_counter() - t0
        self.metrics.observe(
            seconds, cached=cached, coalesced=coalesced, result=result
        )
        obs.observe_response(
            seconds, cached=cached, coalesced=coalesced, result=result
        )
        obs.finish_trace(
            trace, seconds=seconds, result=result, cached=cached,
            coalesced=coalesced,
        )
        return ServiceResponse(result, sig, cached, coalesced, seconds)

    def _compute(
        self, request, sig: tuple, generation: int, root
    ) -> Tuple[object, bool]:
        """The cache-miss rungs: coalesce with an identical in-flight
        request, or lead the flight through the executor and cache its
        answer.  Returns ``(result, coalesced)``."""

        def compute():
            result = request.execute(self.executor, root)
            # Partial answers are never cached: a later request must not be
            # served yesterday's degradation as if it were complete.  The
            # store is generation-guarded: a result an online update raced
            # past is stale and is dropped.
            if result.complete:
                request.store(self.cache, sig, result, generation)
            return result

        if self.batcher is None:
            return compute(), False
        # wait_timeout enforces a follower's own budget when it joined a
        # leader's flight late; follower_retry is the fairness half of the
        # same rule — such a follower still has budget when the leader's
        # deadline fires, so it goes around as a new leader instead of
        # inheriting a miss it did not earn.
        budget = (
            request.deadline
            if request.deadline is not None
            else self.executor.default_deadline
        )
        flight_span = None if root is None else root.child("coalesce")
        coalesced = False
        try:
            result, coalesced = self.batcher.run(
                request.flight_key(sig, generation),
                compute,
                wait_timeout=budget,
                follower_retry=_deadline_is_retryable,
            )
        finally:
            if flight_span is not None:
                flight_span.set("coalesced", coalesced)
                flight_span.finish()
        return result, coalesced

    def _failed(self, trace, t0: float, kind, exc: BaseException) -> None:
        """Observe one failed request: error counters and its trace."""
        if isinstance(exc, AdmissionError):
            self.metrics.observe_error("rejected", exc=exc)
        elif isinstance(exc, DeadlineExceededError):
            self.metrics.observe_error("deadline", exc=exc)
        else:
            self.metrics.observe_error(exc=exc)
        obs = self.observability
        obs.observe_error(exc)
        obs.finish_trace(
            trace, seconds=time.perf_counter() - t0, error=exc, mode=kind.MODE
        )

    # -- online updates -----------------------------------------------------

    def add_trajectory(self, trajectory, *, validate: bool = False) -> int:
        """Insert one trajectory online and invalidate every cached answer
        (any of them could now be stale — new matches may exist).

        Returns the new global trajectory id.
        """
        tid = self._engine.add_trajectory(trajectory, validate=validate)
        self.metrics.observe_invalidation(self.cache.clear())
        return tid

    def invalidate(self) -> int:
        """Explicit invalidation hook: drop every cached answer (for
        callers that mutate the engine directly).  Returns entries
        dropped."""
        dropped = self.cache.clear()
        self.metrics.observe_invalidation(dropped)
        return dropped

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """Metrics snapshot enriched with cache and engine facts."""
        snap = self.metrics.snapshot()
        snap["cache_size"] = len(self.cache)
        snap["cache_capacity"] = self.cache.capacity
        snap["pending"] = self.executor.pending
        num_shards = getattr(self._engine, "num_shards", 1)
        snap["num_shards"] = num_shards
        snap["backend"] = getattr(self._engine, "backend", "single")
        snap["dp_backend"] = getattr(self._engine, "dp_backend", "")
        snap["coalesced_retries"] = (
            self.batcher.retried_followers if self.batcher is not None else 0
        )
        # One combined snapshot: on the processes backend the worker
        # pipes are polled once, and both caches report the same moment.
        cache_stats = getattr(self._engine, "cache_stats", None)
        if cache_stats is not None:
            combined = cache_stats()
            snap["substitution_cache"] = combined["substitution"]
            snap["trie_cache"] = combined["trie"]
        snap["observability"] = {
            "trace_sample_rate": self.observability.tracer.sample_rate,
            "slow_query_seconds": self.observability.slow_query_seconds,
            "flight_recorder": self.observability.recorder.stats(),
        }
        return snap
