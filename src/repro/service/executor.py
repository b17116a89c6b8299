"""Query execution on a thread pool, with deadlines and admission control.

:class:`Executor` owns the worker pool for one service instance.  Each
admitted request — a range query or a whole top-k threshold loop — runs
as one pool task; shard fan-out belongs to the engine alone (the
``threads`` backend's shard thread pool, one worker process or remote
node per shard on the ``processes`` / ``remote`` backends, inline on the
``serial`` backend), so the pool thread coordinates while the engine's
own machinery burns the CPU.  Two protections keep the pool healthy
under overload:

- *admission control*: at most ``max_pending`` queries may be in flight;
  beyond that, new arrivals are shed immediately with
  :class:`~repro.exceptions.AdmissionError` (fail fast beats queueing
  into timeout);
- *deadlines*: a per-query budget (seconds) covers queueing *and*
  execution, carried by a :class:`~repro.core.cancellation.CancelToken`
  that is threaded into every shard's verification loop.  When the budget
  expires the caller gets
  :class:`~repro.exceptions.DeadlineExceededError`, and — via the token —
  the running task stops cooperatively within one verification-loop
  iteration instead of running to completion (this works across the
  process boundary as well: workers rebuild the deadline locally and poll
  a shared flag).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from typing import Any, Callable, Dict, Optional, Sequence

from repro.core import topk as _topk
from repro.core.cancellation import CancelToken
from repro.core.engine import QueryResult
from repro.core.partitioned import PartitionedSubtrajectorySearch
from repro.exceptions import (
    AdmissionError,
    DeadlineExceededError,
    QueryCancelledError,
)

__all__ = ["Executor"]


class Executor:
    """Run engine queries on a bounded thread pool.

    Parameters
    ----------
    engine:
        A :class:`SubtrajectorySearch` or
        :class:`PartitionedSubtrajectorySearch` (anything exposing
        ``query``; top-k additionally needs ``costs`` / ``dataset``).
    max_workers:
        Pool size: the number of queries that execute at once (each one
        is a single pool task).
    max_pending:
        Admission limit on concurrently in-flight *queries* (not shard
        tasks).
    default_deadline:
        Per-query budget in seconds applied when the caller passes none
        (``None`` = unbounded).
    """

    def __init__(
        self,
        engine,
        *,
        max_workers: int = 4,
        max_pending: int = 64,
        default_deadline: Optional[float] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError("default_deadline must be positive")
        self._engine = engine
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._max_pending = max_pending
        self._default_deadline = default_deadline
        self._lock = threading.Lock()
        self._pending = 0
        self._closed = False

    @property
    def engine(self):
        """The wrapped search engine."""
        return self._engine

    @property
    def default_deadline(self) -> Optional[float]:
        """The per-query budget applied when a caller passes none."""
        return self._default_deadline

    @property
    def pending(self) -> int:
        """Queries currently admitted and not yet finished."""
        with self._lock:
            return self._pending

    def close(self, *, close_engine: bool = False) -> None:
        """Stop admitting queries and drain the pool (idempotent).

        ``close_engine=True`` additionally closes the wrapped engine —
        for partitioned engines that terminates the shard worker
        processes / thread pool.  Off by default because the engine is
        caller-owned and may outlive this executor (e.g. one engine
        served by successive executors in benchmarks)."""
        with self._lock:
            already = self._closed
            self._closed = True
        if not already:
            self._pool.shutdown(wait=True)
        if close_engine and hasattr(self._engine, "close"):
            self._engine.close()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- query path ---------------------------------------------------------

    def query(
        self,
        query: Sequence[int],
        *,
        deadline: Optional[float] = None,
        trace=None,
        allow_partial: bool = False,
        **engine_kwargs: Any,
    ) -> QueryResult:
        """Execute one range query on the pool and return its result;
        ``engine_kwargs`` (``tau`` / ``tau_ratio``, the temporal window,
        ...) go to the engine's ``query``.

        Raises :class:`AdmissionError` when shed and
        :class:`DeadlineExceededError` when the budget (``deadline``
        seconds from now, defaulting to ``default_deadline``) expires.
        ``trace`` (a :class:`repro.obs.tracing.Span`, or None) collects
        ``admission`` and ``execute`` child spans; the engine hangs its
        per-shard and per-stage spans under ``execute``.

        ``allow_partial`` opts the query into graceful degradation and is
        forwarded to partitioned engines (meaningful on the processes and
        remote backends, where a shard worker can die independently;
        in-process engines never degrade, so elsewhere it is inert).
        """
        if allow_partial and isinstance(
            self._engine, PartitionedSubtrajectorySearch
        ):
            engine_kwargs["allow_partial"] = True
        return self._run(
            self._engine.query, (query,), engine_kwargs, deadline, trace
        )

    def topk(
        self,
        query: Sequence[int],
        k: int,
        *,
        deadline: Optional[float] = None,
        trace=None,
        **topk_kwargs: Any,
    ):
        """Execute one top-k query on the pool; same admission control and
        deadline semantics as :meth:`query`.  ``topk_kwargs``
        (``initial_tau_ratio`` / ``growth`` / ``allow_partial``) go to
        :func:`repro.core.topk.topk_search`.

        The whole tau-doubling loop is one pool task: each round is one
        ``engine.query``, fanned out by the engine's backend.  The deadline
        token is threaded through every probe round *and* the exhaustion
        sweep, so an expired budget stops within one verification
        iteration or one swept trajectory.
        """
        return self._run(
            _topk.topk_search, (self._engine, query, k), topk_kwargs,
            deadline, trace, mode="topk",
        )

    def _run(
        self,
        call: Callable[..., Any],
        args: tuple,
        kwargs: Dict[str, Any],
        deadline: Optional[float],
        trace,
        **span_attrs: Any,
    ):
        """Admit, then run ``call(*args, cancel=token, **kwargs)`` as one
        pool task under the deadline, inside an ``execute`` span."""
        if deadline is not None and deadline <= 0:
            # A malformed request, not a missed deadline: report it as
            # such instead of polluting the deadline-miss metric.
            raise ValueError("deadline must be positive")
        if trace is None:
            self._admit()
        else:
            span = trace.child("admission", pending=self.pending)
            try:
                self._admit()
            except BaseException as exc:
                span.set("error", type(exc).__name__)
                raise
            finally:
                span.finish()
        try:
            budget = deadline if deadline is not None else self._default_deadline
            token = CancelToken(budget)
            exec_span = (
                None if trace is None else trace.child("execute", **span_attrs)
            )
            if exec_span is not None:
                kwargs["trace"] = exec_span
            try:
                future = self._pool.submit(call, *args, cancel=token, **kwargs)
                return self._wait(future, token)
            except RuntimeError as exc:
                # Admitted concurrently with close(): the pool refuses new
                # futures.  Report it as the shed it is, not a 500.
                if "shutdown" in str(exc):
                    raise AdmissionError("service is shutting down") from None
                raise
            except BaseException as exc:
                if exec_span is not None:
                    exec_span.set("error", type(exc).__name__)
                raise
            finally:
                if exec_span is not None:
                    exec_span.finish()
        finally:
            with self._lock:
                self._pending -= 1

    # -- internals ----------------------------------------------------------

    def _admit(self) -> None:
        with self._lock:
            if self._closed:
                raise AdmissionError("service is shutting down")
            if self._pending >= self._max_pending:
                raise AdmissionError(
                    f"too many in-flight queries (limit {self._max_pending})"
                )
            self._pending += 1

    @staticmethod
    def _wait(future, token: CancelToken):
        """The future's result, honouring the deadline.

        On expiry the token is tripped — the running task observes it
        inside its verification loop and stops within one iteration — the
        future is cancelled if it has not started, and the caller gets
        :class:`DeadlineExceededError`.  A task that noticed its own
        deadline first (raising :class:`QueryCancelledError`) is folded
        into the same outcome."""
        try:
            return future.result(timeout=token.remaining())
        except (_FutureTimeout, TimeoutError, QueryCancelledError):
            token.cancel()
            future.cancel()
            raise DeadlineExceededError("query missed its deadline") from None
