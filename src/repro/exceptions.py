"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing configuration problems from data problems.
"""

from __future__ import annotations

from typing import Tuple


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised for malformed road networks (unknown vertices, bad edges...)."""


class TrajectoryError(ReproError):
    """Raised for invalid trajectories (non-paths, bad timestamps...)."""


class CostModelError(ReproError):
    """Raised when a cost model violates the WED assumptions (§2.2)."""


class QueryError(ReproError):
    """Raised for invalid queries (empty query, non-positive threshold...)."""


class IndexError_(ReproError):
    """Raised for index construction/lookup failures.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class MapMatchError(ReproError):
    """Raised when HMM map matching cannot produce a path (broken HMM)."""


class ServiceError(ReproError):
    """Base class for query-serving failures (:mod:`repro.service`)."""


class DeadlineExceededError(ServiceError):
    """Raised when a query misses its per-query deadline."""


class AdmissionError(ServiceError):
    """Raised when admission control sheds a query (pending limit reached,
    or the service is shutting down)."""


class QueryCancelledError(ServiceError):
    """Raised inside a query when its cooperative cancellation token fires
    (deadline expired or the caller abandoned the query).  Execution layers
    normally translate it into :class:`DeadlineExceededError` before it
    reaches a client."""


class WorkerError(ServiceError):
    """Raised when a shard worker process fails: it died mid-request, its
    pipe desynchronized, or a replicated update diverged from the parent.

    ``shards`` names the shards whose failure the raising fan-out saw
    (empty when the error is not tied to a shard), so a report of the
    failure never has to re-derive it from a later health snapshot."""

    shards: Tuple[int, ...] = ()


class ShardUnavailableError(WorkerError):
    """Raised when a shard cannot serve right now: its circuit breaker is
    open (flapping worker in cooldown) or every shard is down so not even
    a partial answer exists.  A :class:`WorkerError` subclass so existing
    worker-failure handling (HTTP 503, retries) applies unchanged."""


class TransportError(WorkerError):
    """Raised by the socket transport (:mod:`repro.core.transport`) when a
    connection fails mid-frame: the peer vanished, a send/recv hit an OS
    error, or a per-call deadline expired.  A :class:`WorkerError`
    subclass so the pool's reconnect-and-retry-once path treats a broken
    link exactly like a dead worker process."""


class FrameTooLargeError(TransportError):
    """Raised when a frame (outgoing or incoming) exceeds the transport's
    maximum frame size.  Raised *before* any payload bytes are consumed,
    so the stream never desynchronizes — the connection is simply
    unusable and must be re-established."""


class FrameTruncatedError(TransportError):
    """Raised when the stream ends (EOF) inside a frame: the length
    prefix promised more bytes than ever arrived.  Distinguishes a
    half-written frame from a clean close between frames."""
