"""Concurrent query serving over the exact search core.

The first subsystem *above* the engine: where the core answers one query
at a time in-process, :mod:`repro.service` turns it into a multi-client
service —

- :class:`Executor` — thread-pool execution with per-query deadlines and
  admission control (shard fan-out is the engine's);
- :class:`ResultCache` — LRU over normalized query signatures, with
  invalidation hooks wired to the online-update path;
- :class:`Batcher` — single-flight coalescing of concurrent duplicate
  requests;
- :class:`Metrics` — QPS, latency percentiles, hit rates, per-stage
  timing rollups;
- :class:`ServiceObservability` — request tracing, the Prometheus-text
  ``/metrics`` registry, and the slow-query flight recorder (built on
  :mod:`repro.obs`);
- :class:`RangeRequest` / :class:`TopKRequest` — validated requests;
- :class:`QueryService` — the facade composing the above;
- :class:`ServiceServer` — a stdlib JSON-over-HTTP frontend
  (``python -m repro serve``).

Every layer preserves exactness: cached, coalesced, and fanned-out
answers are element-for-element identical to a direct
:meth:`~repro.core.engine.SubtrajectorySearch.query` call.
"""

from repro.service.batching import Batcher
from repro.service.cache import ResultCache
from repro.service.executor import Executor
from repro.service.http import ServiceServer, response_payload, topk_payload
from repro.service.metrics import Metrics, percentile
from repro.service.observability import ServiceObservability
from repro.service.service import (
    QueryService,
    RangeRequest,
    ServiceResponse,
    TopKRequest,
)

__all__ = [
    "Batcher",
    "Executor",
    "Metrics",
    "QueryService",
    "RangeRequest",
    "ResultCache",
    "ServiceObservability",
    "ServiceResponse",
    "ServiceServer",
    "TopKRequest",
    "percentile",
    "response_payload",
    "topk_payload",
]
