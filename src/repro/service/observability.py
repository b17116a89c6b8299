"""Service-side observability wiring: tracer + flight recorder + registry.

:mod:`repro.obs` supplies the primitives (spans, Prometheus exposition,
bounded trace history); this module binds them to one
:class:`~repro.service.QueryService`:

- :class:`ServiceObservability` owns the :class:`~repro.obs.Tracer`
  (sampling), the :class:`~repro.obs.FlightRecorder` (``/debug/traces``
  and ``repro trace``), and a :class:`~repro.obs.MetricsRegistry` of
  push instruments (query/error counters, latency / candidate /
  DP-column histograms) plus pull collectors (engine cache counters per
  shard, executor/cache/batcher gauges, flight-recorder depth) that the
  ``/metrics`` endpoint renders;
- every query over ``slow_query_seconds`` emits a one-line JSON record
  on the ``repro.slowlog`` logger and is *always* preserved in the
  flight recorder — sampled queries keep their real span tree, unsampled
  ones get a stage breakdown synthesized from the engine's own timings
  (:func:`~repro.obs.synthesize_trace`), so the slowest requests are
  debuggable even at ``trace_sample_rate=0``.
"""

from __future__ import annotations

import json
import logging
from typing import Any, Dict, List, Optional, Tuple

from repro.core.topk import TopKResult
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    Trace,
    Tracer,
    slow_query_record,
    synthesize_trace,
)

__all__ = ["ServiceObservability"]

#: one-line JSON records for queries over the slow threshold land here.
slow_query_logger = logging.getLogger("repro.slowlog")

_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
_CANDIDATE_BUCKETS = (1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000)
_DP_COLUMN_BUCKETS = (
    10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000, 300000,
)
_K_BUCKETS = (1, 3, 10, 30, 100, 300, 1000)


def _stages(result) -> List[Tuple[str, float, Dict[str, Any]]]:
    """The engine stage breakdown a synthesized trace shows for one
    computed result: summed probe-round clocks plus the tau expansion for
    top-k, the verification's DP provenance for a range query."""
    if isinstance(result, TopKResult):
        verify = {"tau_rounds": result.tau_rounds, "swept": result.swept}
    else:
        verify = {
            "dp_backend": result.dp_backend_used,
            "dp_rounds": result.dp_rounds,
            "trie_cache": result.trie_cache_status or "n/a",
            "computed_columns": result.verification.computed_columns,
        }
    return [
        ("mincand", result.mincand_seconds, {}),
        ("lookup", result.lookup_seconds, {"candidates": result.num_candidates}),
        ("verify", result.verify_seconds, verify),
    ]


class ServiceObservability:
    """Tracing, metrics export, and the flight recorder for one service.

    Parameters
    ----------
    trace_sample_rate:
        Fraction of requests to trace in ``[0, 1]``; 0 (the default)
        keeps the request path on the near-zero-cost unsampled branch.
        Slow queries are preserved regardless (see module docstring).
    slow_query_seconds:
        End-to-end latency threshold over which a query is logged and
        force-recorded; ``None`` disables slow-query handling.
    recent_traces / slowest_traces:
        Flight recorder capacities.
    """

    def __init__(
        self,
        *,
        trace_sample_rate: float = 0.0,
        slow_query_seconds: Optional[float] = None,
        recent_traces: int = 64,
        slowest_traces: int = 16,
    ) -> None:
        if slow_query_seconds is not None and slow_query_seconds < 0:
            raise ValueError("slow_query_seconds must be >= 0")
        self.tracer = Tracer(trace_sample_rate)
        self.recorder = FlightRecorder(
            recent=recent_traces, slowest=slowest_traces
        )
        self.slow_query_seconds = slow_query_seconds
        self.registry = MetricsRegistry()
        reg = self.registry
        self._queries = reg.counter(
            "repro_queries_total",
            "Completed queries by serving outcome.",
            labelnames=("outcome",),
        )
        self._errors = reg.counter(
            "repro_errors_total",
            "Failed queries by error type.",
            labelnames=("type",),
        )
        self._latency = reg.histogram(
            "repro_query_latency_seconds",
            "End-to-end request latency by serving outcome.",
            buckets=_LATENCY_BUCKETS,
            labelnames=("outcome",),
        )
        self._candidates = reg.histogram(
            "repro_query_candidates",
            "Candidates verified per engine-computed query.",
            buckets=_CANDIDATE_BUCKETS,
        )
        self._dp_columns = reg.histogram(
            "repro_query_dp_columns",
            "DP columns computed per engine-computed query.",
            buckets=_DP_COLUMN_BUCKETS,
        )
        self._by_backend = reg.counter(
            "repro_queries_by_dp_backend_total",
            "Engine-computed queries by resolved DP backend.",
            labelnames=("dp_backend",),
        )
        self._stage_seconds = reg.counter(
            "repro_stage_seconds_total",
            "Engine time by stage (MinCand / lookup / verification).",
            labelnames=("stage",),
        )
        self._dp_rounds = reg.counter(
            "repro_dp_rounds_total",
            "Verification DP kernel launches (batched rounds and "
            "single-column steps).",
        )
        self._sampled = reg.counter(
            "repro_traces_sampled_total", "Requests that recorded a trace."
        )
        self._slow = reg.counter(
            "repro_slow_queries_total",
            "Queries over the slow-query threshold.",
        )
        self._degraded = reg.counter(
            "repro_degraded_queries_total",
            "Queries answered partially (allow_partial with shards down).",
        )
        self._topk_queries = reg.counter(
            "repro_topk_queries_total",
            "Completed top-k queries by serving outcome.",
            labelnames=("outcome",),
        )
        self._topk_reuse = reg.counter(
            "repro_topk_cache_reuse_total",
            "Top-k requests answered by truncating a cached answer "
            "computed at k' >= k.",
        )
        self._topk_rounds = reg.counter(
            "repro_topk_tau_rounds_total",
            "Threshold probe rounds run by engine-computed top-k queries.",
        )
        self._topk_sweeps = reg.counter(
            "repro_topk_exhaustion_sweeps_total",
            "Top-k queries whose threshold expansion exhausted and fell "
            "through to the Smith-Waterman sweep.",
        )
        self._topk_ties = reg.counter(
            "repro_topk_ties_at_k_total",
            "Ties cut at the k-th distance across answered top-k queries.",
        )
        self._topk_k = reg.histogram(
            "repro_topk_k",
            "Requested k per top-k query.",
            buckets=_K_BUCKETS,
        )
        reg.register_collector(self._collect_recorder)
        self._service = None

    # -- wiring ---------------------------------------------------------------

    def bind(self, service) -> None:
        """Register the pull collectors that read ``service`` state
        (executor depth, result cache, coalescer, engine caches)."""
        if self._service is not None:
            raise ValueError("observability is already bound to a service")
        self._service = service
        self.registry.register_collector(self._collect_service)
        self.registry.register_collector(self._collect_engine_caches)
        self.registry.register_collector(self._collect_worker_states)

    # -- request-path hooks ---------------------------------------------------

    def start_trace(self, **attributes: Any) -> Optional[Trace]:
        """Begin a trace for one request iff sampled."""
        trace = self.tracer.start("query", **attributes)
        if trace is not None:
            self._sampled.inc()
        return trace

    def observe_response(
        self,
        seconds: float,
        *,
        result,
        cached: bool = False,
        coalesced: bool = False,
    ) -> None:
        """Record one successful response in the export registry.

        The result type picks the instruments: a
        :class:`~repro.core.topk.TopKResult` counts under the
        ``repro_topk_*`` families, a range
        :class:`~repro.core.engine.QueryResult` under the DP-provenance
        ones.  Both share the latency histogram's outcome labels — one
        latency SLO covers both modalities."""
        outcome = "cached" if cached else ("coalesced" if coalesced else "computed")
        topk = isinstance(result, TopKResult)
        (self._topk_queries if topk else self._queries).inc(outcome=outcome)
        self._latency.observe(seconds, outcome=outcome)
        if not result.complete:
            self._degraded.inc()
        if topk:
            self._topk_k.observe(result.k)
            self._topk_ties.inc(result.ties_at_k)
            if cached:
                self._topk_reuse.inc()
        if cached or coalesced:
            return
        self._candidates.observe(result.num_candidates)
        self._stage_seconds.inc(result.mincand_seconds, stage="mincand")
        self._stage_seconds.inc(result.lookup_seconds, stage="lookup")
        self._stage_seconds.inc(result.verify_seconds, stage="verify")
        if topk:
            self._topk_rounds.inc(result.tau_rounds)
            if result.swept:
                self._topk_sweeps.inc()
        else:
            self._dp_columns.observe(result.verification.computed_columns)
            self._by_backend.inc(dp_backend=result.dp_backend_used or "unknown")
            self._dp_rounds.inc(result.dp_rounds)

    def observe_error(self, exc: BaseException) -> None:
        """Record one failed request, labelled by exception type."""
        self._errors.inc(type=type(exc).__name__)

    def finish_trace(
        self,
        trace: Optional[Trace],
        *,
        seconds: float,
        result=None,
        cached: bool = False,
        coalesced: bool = False,
        error: Optional[BaseException] = None,
        mode: str = "query",
    ) -> None:
        """Close out one request's trace and apply slow-query handling.

        Sampled traces are finished and filed in the flight recorder
        (errors annotated, never dropped).  Queries over the slow
        threshold additionally log a one-line JSON record; when unsampled
        they get a synthesized stage-breakdown trace so the recorder's
        ``slowest`` view never misses a slow query merely because
        sampling skipped it.  ``mode`` (``"query"`` or ``"topk"``) names
        a synthesized trace when a failed request has no result to speak
        for it.
        """
        topk = mode == "topk" or isinstance(result, TopKResult)
        slow = (
            self.slow_query_seconds is not None
            and seconds >= self.slow_query_seconds
        )
        attrs: Dict[str, Any] = {}
        if cached or coalesced:
            attrs["outcome"] = "cached" if cached else "coalesced"
        if error is not None:
            attrs["error"] = type(error).__name__
        record: Optional[Dict[str, Any]] = None
        if trace is not None:
            if topk and result is not None:
                attrs["tau_rounds"] = result.tau_rounds
                attrs["ties_at_k"] = result.ties_at_k
            trace.root.set("seconds", round(seconds, 6))
            for name, value in attrs.items():
                trace.root.set(name, value)
            trace.finish()
            record = trace.to_dict()
        elif slow:
            stages: List[Tuple[str, float, Dict[str, Any]]] = []
            if result is not None and not (cached or coalesced):
                stages = _stages(result)
                if topk:
                    attrs["k"] = result.k
                attrs["matches"] = len(result.matches)
            if topk:
                attrs["mode"] = "topk"
            record = synthesize_trace(
                "topk" if topk else "query", seconds=seconds, stages=stages,
                **attrs,
            )
        if record is None:
            return
        if slow:
            record["slow"] = True
            self._slow.inc()
            if topk:
                dp_backend = "topk"
            else:
                dp_backend = "" if result is None else result.dp_backend_used
            payload = slow_query_record(
                record,
                seconds=seconds,
                threshold=self.slow_query_seconds,
                cached=cached,
                coalesced=coalesced,
                error="" if error is None else type(error).__name__,
                matches=0 if result is None else len(result.matches),
                candidates=0 if result is None else result.num_candidates,
                dp_backend=dp_backend,
            )
            slow_query_logger.warning(json.dumps(payload, sort_keys=True))
        self.recorder.record(record)

    # -- pull collectors ------------------------------------------------------

    def _collect_recorder(self):
        stats = self.recorder.stats()
        return [
            (
                "repro_traces_recorded_total",
                "counter",
                "Traces filed in the flight recorder.",
                [({}, stats["recorded"])],
            ),
            (
                "repro_flight_recorder_traces",
                "gauge",
                "Traces currently held, by buffer.",
                [
                    ({"buffer": "recent"}, stats["recent"]),
                    ({"buffer": "slowest"}, stats["slowest"]),
                ],
            ),
        ]

    def _collect_service(self):
        service = self._service
        families = [
            (
                "repro_inflight_queries",
                "gauge",
                "Queries admitted and not yet finished.",
                [({}, service.executor.pending)],
            ),
            (
                "repro_result_cache_entries",
                "gauge",
                "Cached query results.",
                [({}, len(service.cache))],
            ),
            (
                "repro_result_cache_capacity",
                "gauge",
                "Result cache capacity.",
                [({}, service.cache.capacity)],
            ),
        ]
        if service.batcher is not None:
            families.append(
                (
                    "repro_coalesce_flights",
                    "gauge",
                    "Distinct computations currently in flight.",
                    [({}, service.batcher.in_flight())],
                )
            )
            families.append(
                (
                    "repro_coalesce_flights_led_total",
                    "counter",
                    "Flights led (one engine pass each).",
                    [({}, service.batcher.flights)],
                )
            )
        return families

    def _collect_worker_states(self):
        """Shard-worker supervision state (processes backend; in-process
        backends export synthetic always-up states so dashboards keep one
        shape).  A failing snapshot yields no samples rather than failing
        the scrape."""
        from repro.core.supervision import BREAKER_STATES

        engine = self._service.engine
        states_of = getattr(engine, "worker_states", None)
        if states_of is None:
            return []
        try:
            states = states_of()
        except Exception:  # noqa: BLE001 - scrape must survive a closing
            # engine; /healthz reports the failure.
            return []
        up = []
        restarts = []
        breaker = []
        failures = []
        node_up = []
        node_reconnects = []
        for s in states:
            label = {"shard": str(s.shard)}
            up.append((label, 1.0 if s.alive else 0.0))
            restarts.append((label, float(s.restarts)))
            breaker.append(
                (
                    label,
                    float(
                        BREAKER_STATES.index(s.breaker)
                        if s.breaker in BREAKER_STATES
                        else len(BREAKER_STATES)
                    ),
                )
            )
            failures.append((label, float(s.consecutive_failures)))
            if s.node is not None:
                # Remote backend: node-addressed views of the same state,
                # so dashboards can join on the shard-map address (a
                # "reconnect" is the remote spelling of a respawn).
                node_label = {"shard": str(s.shard), "node": s.node}
                node_up.append((node_label, 1.0 if s.alive else 0.0))
                node_reconnects.append((node_label, float(s.restarts)))
        families = [
            (
                "repro_worker_up",
                "gauge",
                "Shard worker process liveness (1 = alive).",
                up,
            ),
            (
                "repro_worker_restarts_total",
                "counter",
                "Completed shard-worker respawns.",
                restarts,
            ),
            (
                "repro_shard_breaker_state",
                "gauge",
                "Circuit breaker state per shard "
                "(0 = closed, 1 = half_open, 2 = open).",
                breaker,
            ),
            (
                "repro_shard_consecutive_failures",
                "gauge",
                "Consecutive shard failures counted by the breaker.",
                failures,
            ),
        ]
        if node_up:
            families.append(
                (
                    "repro_node_up",
                    "gauge",
                    "Remote worker-node connectivity (1 = connected).",
                    node_up,
                )
            )
            families.append(
                (
                    "repro_node_reconnects_total",
                    "counter",
                    "Completed reconnects to remote worker nodes.",
                    node_reconnects,
                )
            )
        return families

    def _collect_engine_caches(self):
        """Per-shard engine cache counters from one (non-blocking on the
        processes backend) poll; a failing poll yields no samples rather
        than failing the whole scrape."""
        engine = self._service.engine
        stats_of = getattr(engine, "observability_cache_stats", None)
        if stats_of is None:
            return []
        try:
            combined = stats_of()
        except Exception:  # noqa: BLE001 - scrape must not 500 on a
            # closing engine or dead worker; /healthz reports the failure.
            return []
        families = [
            (
                "repro_cache_shards_reporting",
                "gauge",
                "Shards that answered the cache poll (busy workers on "
                "the processes backend are skipped).",
                [({}, combined.get("reporting", 0))],
            )
        ]
        sub_fields = (
            ("entries", "size", "gauge", "Cached substitution matrices."),
            ("hits_total", "hits", "counter", "Substitution cache hits."),
            ("misses_total", "misses", "counter", "Substitution cache misses."),
        )
        trie_fields = (
            ("entries", "size", "gauge", "Cached verification tries."),
            ("bytes", "bytes", "gauge",
             "Measured bytes held by cached tries (arrays + edge maps)."),
            ("hits_total", "hits", "counter", "Trie cache hits."),
            ("misses_total", "misses", "counter", "Trie cache misses."),
            ("evictions_total", "evictions", "counter", "Trie cache evictions."),
        )
        index_fields = (
            ("bytes", "bytes", "gauge",
             "Bytes held by the inverted index postings (packed arrays "
             "for the frozen backend, getsizeof estimate for dict)."),
            ("file_bytes", "file_bytes", "gauge",
             "On-disk bytes of the frozen index file (0 for in-memory "
             "backends)."),
            ("resident_bytes", "resident_bytes", "gauge",
             "Page-cache-resident bytes of the frozen index mapping via "
             "mincore (0 when unavailable)."),
            ("postings", "num_postings", "gauge", "Total postings indexed."),
            ("delta_postings", "delta_postings", "gauge",
             "Postings added by online inserts since the freeze."),
            ("mmap", "mmap", "gauge",
             "Whether the shard serves its index from a shared file "
             "mapping (1) or private process memory (0)."),
        )
        for prefix, parts, fields in (
            ("repro_substitution_cache", combined.get("substitution", []), sub_fields),
            ("repro_trie_cache", combined.get("trie", []), trie_fields),
            ("repro_index", combined.get("index", []), index_fields),
        ):
            for suffix, key, kind, help_text in fields:
                samples = [
                    ({"shard": label}, float(part.get(key, 0)))
                    for label, part in parts
                ]
                if samples:
                    families.append(
                        (f"{prefix}_{suffix}", kind, help_text, samples)
                    )
        return families
