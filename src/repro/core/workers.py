"""Cross-process shard workers: CPU-bound verification past the GIL.

The thread-pool fan-out of :class:`~repro.core.partitioned.
PartitionedSubtrajectorySearch` parallelizes I/O-ish work but not the
Smith–Waterman-style verification that dominates query cost (§6) — pure-
Python DP holds the GIL, so N shard threads share one core.  This module
moves each shard's engine into a long-lived **worker process**:

- workers are spawned once, at index build: each receives its shard's
  :class:`~repro.trajectory.dataset.TrajectoryDataset` + cost model +
  engine options and builds its :class:`~repro.core.engine.
  SubtrajectorySearch` locally (inheriting the engine's defaults,
  including the adaptive ``dp_backend="auto"`` verification path and the
  per-engine SubstitutionMatrix LRU), so the (expensive) index
  construction and the (large) index memory live only in the worker;
- queries travel as small pickled descriptors over a per-worker
  :func:`multiprocessing.Pipe`; results come back as pickled
  :class:`~repro.core.engine.QueryResult` objects (the merge-irrelevant
  ``subsequence`` field is stripped to keep replies small);
- deadlines survive the process boundary: the parent sends the *remaining*
  budget with each query and the worker rebuilds a local token from it, so
  clock-skew between processes cannot extend a deadline; the parent can
  additionally trip a per-worker shared cancellation flag
  (:class:`multiprocessing.Value`) that the worker's token polls between
  verification-loop iterations — abandoning a query stops shard CPU work
  within one iteration;
- online inserts replicate through a **versioned** ``add`` message: the
  parent sends the shard-local id it expects the insert to receive, and
  the worker acknowledges only if its replica agrees — any divergence
  (a lost or reordered update) surfaces as :class:`~repro.exceptions.
  WorkerError` instead of silently wrong answers, which is what the
  serving layer's cache-generation guarantees rest on;
- lifecycle is leak-proof: workers are daemon processes, pools shut down
  idempotently (a wedged worker is escalated SIGTERM → SIGKILL so it can
  never outlive ``close()``), and a module-level ``atexit`` hook
  terminates every pool still alive at interpreter exit (so ``repro
  serve --self-test`` cannot strand children).

**Fault tolerance** (the supervision layer; policy objects live in
:mod:`repro.core.supervision`):

- a pool-level *supervisor thread* polls worker liveness and respawns
  dead workers with bounded exponential backoff + per-shard jitter; the
  query path additionally respawns eagerly when it trips over a corpse,
  so recovery latency is bounded by one engine rebuild, not a poll tick;
- a respawned worker rebuilds its engine from the parent's shard dataset
  mirror, then the parent *replays its insert journal* — the write-ahead
  record of every acknowledged online insert — through the same
  versioned ``add`` protocol, so the replica is bit-identical to the
  crashed one (the handshake reports the rebuilt engine's length; only
  the entries past it replay, and any id disagreement fails loudly);
- a per-shard :class:`~repro.core.supervision.CircuitBreaker` (closed →
  open after N consecutive shard failures → half-open probe) keeps a
  flapping shard from eating every query's deadline: with the breaker
  open, queries either fail fast (:class:`~repro.exceptions.
  ShardUnavailableError`) or — with ``allow_partial`` — degrade to the
  live shards;
- :meth:`ShardWorkerPool.query_all` retries a dead shard's query exactly
  once on the respawned worker, within the caller's remaining deadline
  budget, re-shipping the *updated* remaining time;
- deterministic chaos: a :class:`~repro.faultinject.FaultPlan` ships
  per-shard worker-side fault tables into the children (kill before /
  after request K, delay or drop a reply, ignore stop) and parent-side
  respawn failures into the supervisor, all keyed to request ordinals
  that survive respawns — see :mod:`repro.faultinject`.

Protocol (one request in flight per worker, enforced by a parent-side
lock; every request gets exactly one reply, keeping the pipe in sync even
when the caller stops waiting):

    ("query", req_id, symbols, kwargs, remaining_seconds | None,
              trace_ctx | None)
    ("add",   req_id, expected_local_id, trajectory, validate)
    ("stats", req_id)                 -> {"substitution": ..., "trie": ...}
    ("ping",  req_id)                 -> {"pid": ...}   (liveness heartbeat)
    ("stop",  req_id)
    reply: (req_id, "ok", payload) | (req_id, "error", exception)

``trace_ctx`` is a ``(trace_id, parent_span_id)`` pair (see
:mod:`repro.obs.tracing`): when present, the worker wraps the engine
query in a local trace rooted at the shipped context and the "ok"
payload becomes ``(result, exported_spans)`` — span starts relative to
the worker root, re-anchored by the parent via ``Span.graft`` — so one
request's trace crosses the pickle boundary intact.  Untraced queries
keep the bare-``QueryResult`` payload.

plus a readiness handshake: the worker's first message (req 0) reports
whether its engine built — and, on success, the engine's dataset length
and pid (the journal-replay watermark) — so constructor errors (bad
engine options, mismatched representation) raise in the parent at pool
construction with their real cause, exactly as the in-process backends
do.

**Remote nodes** (``shard_map=``): the same protocol runs over the
length-prefixed socket transport of :mod:`repro.core.transport` against
standalone ``repro worker --listen`` node processes
(:mod:`repro.core.remote`).  Each (re)connection ships a ``hello``
carrying the shard dataset + engine config, and the node answers with
the same req-0 readiness handshake — so a *reconnect is a respawn*: the
node builds a fresh engine from the shipped snapshot and the parent
replays its insert journal past the handshake watermark before the
connection takes traffic.  Cancellation travels as an out-of-band
``("cancel", req_id)`` frame instead of a shared flag, per-call
deadlines derive from the shipped remaining budget (a half-open link
costs at most the caller's own budget), and the supervisor heartbeats
idle connections with ``ping`` so silent node death is detected without
traffic.  Network chaos (``conn_drop`` / ``conn_hang`` /
``slow_link_ms`` / ``short_write``) is injected client-side around the
sends, keyed to the same across-reconnect ordinals as worker faults.
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing as mp
import os
import threading
import weakref
from collections import deque
from time import monotonic, sleep
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import transport
from repro.core.supervision import CircuitBreaker, RespawnBackoff, WorkerState
from repro.exceptions import ShardUnavailableError, TransportError, WorkerError

__all__ = ["ShardWorkerPool", "default_start_method"]

logger = logging.getLogger(__name__)

#: parent-side poll slice while waiting on a worker reply; bounds how fast
#: a tripped token propagates to the worker's shared flag.
_POLL_SECONDS = 0.02
#: grace given to a worker to exit after a "stop" before SIGTERM (and, a
#: join later, SIGKILL).
_STOP_TIMEOUT = 5.0
#: supervisor liveness-poll period.
_SUPERVISOR_POLL = 0.1
#: how long after the shipped remaining budget expires the parent keeps
#: waiting for a remote reply before declaring the link dead — covers
#: transport latency plus the worker's own cancellation reply.
_REMOTE_DEADLINE_GRACE = 5.0
#: bound on a remote readiness handshake (connection + engine build).
_REMOTE_HANDSHAKE_TIMEOUT = 120.0
#: bound on remote liveness/stats probes when no call timeout is set.
_REMOTE_PROBE_TIMEOUT = 5.0
#: period of the supervisor's remote heartbeat (idle connections get a
#: "ping" this often, so silent node death is detected without traffic).
_HEARTBEAT_INTERVAL = 1.0


def default_start_method() -> str:
    """The multiprocessing start method used when none is requested.

    ``REPRO_MP_START`` overrides; otherwise ``fork`` where available
    (instant worker start, no re-import or re-pickle of the shard data)
    — but only while the parent is single-threaded.  Forking a threaded
    parent (e.g. rebuilding an engine while an HTTP server is live) can
    deadlock the child on locks held mid-fork by other threads, so such
    parents get ``spawn``, which always works: the worker entry point and
    every shipped object are picklable.  (Supervised *respawns* reuse the
    pool's original context: the replacement worker must build from the
    same inheritance path as the one it replaces.)
    """
    env = os.environ.get("REPRO_MP_START")
    if env:
        return env
    if "fork" in mp.get_all_start_methods() and threading.active_count() == 1:
        return "fork"
    return "spawn"


class _WorkerCancelToken:
    """Worker-side cancellation token for one request.

    Duck-types :class:`~repro.core.cancellation.CancelToken`: combines the
    deadline the parent shipped (as a *remaining* budget, re-anchored on
    the worker's own monotonic clock) with the pool's shared cancellation
    flag.  The flag holds a request-id watermark — every request id at or
    below it is cancelled — so one plain 64-bit store cancels the in-flight
    request without locks.
    """

    __slots__ = ("_req_id", "_flag", "_expires")

    def __init__(self, req_id: int, flag, remaining: Optional[float]) -> None:
        self._req_id = req_id
        self._flag = flag
        self._expires = None if remaining is None else monotonic() + remaining

    def cancelled(self) -> bool:
        if self._expires is not None and monotonic() >= self._expires:
            return True
        return self._flag.value >= self._req_id


def _worker_main(
    conn, flag, shard_index, dataset, costs, engine_kwargs,
    faults=None, request_offsets=None,
) -> None:
    """Worker process entry point: build the shard engine, serve the pipe.

    Top-level (not a closure) so ``spawn`` contexts can pickle it.  Every
    received request is answered exactly once; failures — including
    cancellations — travel back as pickled exceptions.  ``faults`` is an
    optional :class:`~repro.faultinject.WorkerFaults` table and
    ``request_offsets`` the per-kind ordinals already consumed by this
    shard's previous incarnations (so fault rules fire once across
    respawns).
    """
    # Imported here, not at module top, so the worker builds its engine
    # against whatever is on *its* path under spawn (and to keep this
    # module importable without pulling the whole engine in first).
    from repro.core.engine import SubtrajectorySearch

    if faults is not None:
        faults.install()
    counts: Dict[str, int] = dict(request_offsets or {})

    def _guarded_send(message) -> bool:
        """Send a reply; a pipe torn down mid-send (parent died, or the
        parent closed our conn racing this send) must end the loop
        cleanly, not crash the worker with traceback noise."""
        try:
            conn.send(message)
            return True
        except (OSError, ValueError, BrokenPipeError):
            return False

    # Readiness handshake (req 0): a failed engine build must raise in the
    # parent's constructor with its real cause, not as an opaque dead
    # worker at first query.  On success the payload carries the dataset
    # length — the parent's journal-replay watermark — and the pid.
    try:
        engine = SubtrajectorySearch(dataset, costs, **engine_kwargs)
    except BaseException as exc:  # noqa: BLE001 — ship the failure to the parent
        if not _guarded_send((0, "error", exc)):
            _guarded_send(
                (0, "error", WorkerError(f"engine build failed: {exc!r}"))
            )
        conn.close()
        return
    if not _guarded_send((0, "ok", {"len": len(dataset), "pid": os.getpid()})):
        conn.close()
        return
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break  # parent gone (or interactive interrupt): nothing to reply to
        kind, req_id = msg[0], msg[1]
        if kind == "ping":
            # Liveness heartbeat: answered before fault accounting so a
            # probe can never consume (or trip) a request-ordinal rule.
            if not _guarded_send((req_id, "ok", {"pid": os.getpid()})):
                break
            continue
        ordinal = 0
        if faults is not None and kind in ("query", "add"):
            ordinal = counts.get(kind, 0) + 1
            counts[kind] = ordinal
            faults.before(kind, ordinal)
            if faults.drop_pipe(kind, ordinal):
                conn.close()
                os._exit(70)
        try:
            if kind == "stop":
                if faults is not None and faults.wedge_stop:
                    continue  # chaos: pretend not to hear — forces escalation
                _guarded_send((req_id, "ok", None))
                break
            if kind == "query":
                symbols, kwargs, remaining = msg[2], msg[3], msg[4]
                trace_ctx = msg[5] if len(msg) > 5 else None
                token = _WorkerCancelToken(req_id, flag, remaining)
                if trace_ctx is None:
                    result = engine.query(symbols, cancel=token, **kwargs)
                    # The merge ignores the tau-subsequence; stripping it
                    # keeps reply pickles small (neighborhoods are large).
                    result.subsequence = []
                    payload = result
                else:
                    from repro.obs.tracing import Trace

                    trace = Trace(
                        "shard_worker",
                        trace_id=trace_ctx[0],
                        parent_id=trace_ctx[1],
                        shard=shard_index,
                        pid=os.getpid(),
                    )
                    result = engine.query(
                        symbols, cancel=token, trace=trace.root, **kwargs
                    )
                    result.subsequence = []
                    trace.finish()
                    payload = (result, trace.export())
                if faults is not None:
                    faults.delay(kind, ordinal)
                if not _guarded_send((req_id, "ok", payload)):
                    break
            elif kind == "add":
                expected, trajectory, validate = msg[2], msg[3], msg[4]
                tid = engine.add_trajectory(trajectory, validate=validate)
                if tid != expected:
                    raise WorkerError(
                        f"shard {shard_index} replica diverged: insert got local "
                        f"id {tid}, parent expected {expected}"
                    )
                if faults is not None:
                    faults.delay(kind, ordinal)
                if not _guarded_send((req_id, "ok", tid)):
                    break
            elif kind == "stats":
                # One combined payload for every engine-level cache plus
                # the index, so a single non-blocking poll serves all
                # observability consumers (healthz, /stats, /metrics,
                # aggregated shard stats).
                if not _guarded_send(
                    (
                        req_id,
                        "ok",
                        {
                            "substitution": engine.substitution_cache_stats(),
                            "trie": engine.trie_cache_stats(),
                            "index": engine.index_stats(),
                        },
                    )
                ):
                    break
            else:
                raise WorkerError(f"unknown message kind {kind!r}")
        except BaseException as exc:  # noqa: BLE001 — ship failures to the parent
            if not _guarded_send((req_id, "error", exc)):
                # Unpicklable exception: degrade to a description so the
                # parent still gets its one reply.  If even the fallback
                # cannot be sent the pipe is gone — exit the loop cleanly
                # instead of dying with a BrokenPipeError traceback.
                if not _guarded_send(
                    (req_id, "error", WorkerError(f"worker error: {exc!r}"))
                ):
                    break
            continue
        if faults is not None and kind in ("query", "add"):
            faults.after(kind, ordinal)
    try:
        conn.close()
    except OSError:
        pass


class _ShardWorker:
    """Parent-side proxy for one (respawnable) worker process.

    Serializes request/response round-trips with a lock (the worker is
    single-threaded, so pipelining would only queue in the pipe) and
    monitors process liveness while waiting, so a crashed worker surfaces
    as :class:`WorkerError` instead of a hang.  The constructor arguments
    are retained so the supervisor can respawn the process; ``restarts``
    counts completed respawns.
    """

    def __init__(
        self, ctx, index: int, dataset, costs, engine_kwargs: Dict[str, Any],
        faults=None,
    ) -> None:
        self.index = index
        self.restarts = 0
        self._ctx = ctx
        self._dataset = dataset
        self._costs = costs
        self._engine_kwargs = dict(engine_kwargs)
        self._faults = faults
        self._lock = threading.Lock()
        self._req = 0
        #: requests sent per kind over ALL incarnations — shipped to a
        #: respawned worker so fault-rule ordinals keep counting.
        self._sent: Dict[str, int] = {"query": 0, "add": 0}
        self._spawn()

    # -- process lifecycle --------------------------------------------------

    def _spawn(self) -> Dict[str, Any]:
        """Start (or restart) the worker process and run the readiness
        handshake.  Returns the handshake payload (engine length, pid).
        The caller must hold ``_lock`` on every call but the first."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # Raw (lockless) value is enough: single writer semantics per
        # request, and a stale read only delays cancellation by one poll.
        self._flag = self._ctx.Value("q", 0, lock=False)
        self._process = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._flag,
                self.index,
                self._dataset,
                self._costs,
                dict(self._engine_kwargs),
                self._faults,
                dict(self._sent),
            ),
            name=f"repro-shard-{self.index}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        self._conn = parent_conn
        self._pipe_broken = False
        # Block until the worker reports its engine built (req 0); engine
        # construction errors re-raise here with their original type.
        return self._receive(0, None)

    def _teardown_incarnation(self) -> None:
        """Dispose of the current (dead or dying) incarnation before a
        respawn.  Caller must hold ``_lock``."""
        if self._process.is_alive():
            # Pipe-level death (dropped conn) with the process lingering:
            # the old incarnation must not keep burning CPU beside the new.
            self._process.kill()
            self._process.join(_STOP_TIMEOUT)
        try:
            self._conn.close()
        except OSError:
            pass

    def _dead_reason(self) -> str:
        return (
            f"shard {self.index} worker process exited "
            f"(exitcode {self._process.exitcode})"
        )

    def respawn(self, journal: Sequence[Tuple[int, Any, bool]]) -> None:
        """Replace a dead worker with a fresh process and replay the
        insert journal so the replica is bit-identical.

        Caller must hold ``_lock``.  The handshake reports the rebuilt
        engine's dataset length; only journal entries at or past that
        watermark replay (the respawn dataset mirror normally already
        contains every acknowledged insert — the journal closes the race
        where an insert was acknowledged but not yet mirrored when the
        respawn snapshot was taken).  Any id disagreement during replay
        raises :class:`WorkerError` — divergence fails loudly.
        """
        self._teardown_incarnation()
        handshake = self._spawn()
        watermark = int(handshake.get("len", 0)) if handshake else 0
        for expected, trajectory, validate in journal:
            if expected < watermark:
                continue  # already inside the respawn dataset snapshot
            self._req += 1
            self._sent["add"] += 1  # replays consume fault ordinals too
            req_id = self._req
            self._conn.send(("add", req_id, expected, trajectory, validate))
            self._receive(req_id, None)  # versioned: divergence raises
        self.restarts += 1

    @property
    def alive(self) -> bool:
        # A dying worker's pipe reaches EOF before waitpid can reap it, so
        # a broken pipe is death as far as serving goes: liveness reports
        # the failure a request saw, not a later process-table snapshot.
        return not self._pipe_broken and self._process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid

    @property
    def daemon(self) -> bool:
        return self._process.daemon

    # -- request/response ---------------------------------------------------

    def call(self, kind: str, payload: Tuple, token=None):
        """One round-trip: send ``(kind, ...payload)``, await the reply."""
        req_id = self.begin(kind, payload)
        return self.finish(req_id, token)

    def try_call(self, kind: str, payload: Tuple):
        """Like :meth:`call`, but returns ``None`` instead of waiting when
        the worker is busy with an in-flight request.

        Diagnostics path (``/healthz`` polling a worker's cache stats):
        a liveness probe must never queue behind a long-running
        verification on the single-request-per-worker pipe.  A *dead*
        worker raises :class:`WorkerError` (never hangs)."""
        if not self._lock.acquire(blocking=False):
            return None
        try:
            if not self.alive:
                raise WorkerError(self._dead_reason())
            self._req += 1
            req_id = self._req
            self._conn.send((kind, req_id, *payload))
            return self._receive(req_id, None)
        except (OSError, ValueError) as exc:
            self._pipe_broken = True
            raise WorkerError(
                f"shard {self.index} worker unreachable: {exc}"
            ) from exc
        finally:
            self._lock.release()

    def begin(self, kind: str, payload: Tuple) -> int:
        """Send a request and return its id *without* waiting.

        Acquires this worker's lock; the caller MUST pair every successful
        ``begin`` with exactly one ``finish`` (which releases it).
        """
        self._lock.acquire()
        try:
            self._req += 1
            req_id = self._req
            if kind in self._sent:
                self._sent[kind] += 1
            self._conn.send((kind, req_id, *payload))
            return req_id
        except BaseException as exc:
            self._lock.release()
            if isinstance(exc, (OSError, ValueError)):
                self._pipe_broken = True
                raise WorkerError(
                    f"shard {self.index} worker unreachable: {exc}"
                ) from exc
            raise

    def finish(self, req_id: int, token=None):
        """Await the reply to ``req_id``, polling ``token`` while waiting.

        When the token trips, the worker's shared flag is raised so the
        worker abandons the request within one verification-loop iteration
        — and still sends its (error) reply, keeping the pipe in sync.
        """
        try:
            return self._receive(req_id, token)
        finally:
            self._lock.release()

    def signal_cancel(self, req_id: int) -> None:
        """Cancel ``req_id`` (and everything before it) on the worker."""
        self._flag.value = max(self._flag.value, req_id)

    def _receive(self, req_id: int, token):
        signalled = token is None
        while True:
            try:
                ready = self._conn.poll(_POLL_SECONDS)
                reply = self._conn.recv() if ready else None
            except (EOFError, OSError) as exc:
                self._pipe_broken = True
                raise WorkerError(
                    f"shard {self.index} worker died mid-request"
                ) from exc
            if reply is not None:
                rid, status, payload = reply
                if rid != req_id:
                    raise WorkerError(
                        f"shard {self.index} pipe desynchronized: got reply for "
                        f"request {rid}, expected {req_id}"
                    )
                if status == "ok":
                    return payload
                raise payload
            if not signalled and token.cancelled():
                self.signal_cancel(req_id)
                signalled = True
            if not self.alive and not self._conn.poll(0):
                raise WorkerError(self._dead_reason())

    # -- lifecycle ----------------------------------------------------------

    def stop(self, timeout: float = _STOP_TIMEOUT) -> None:
        """Stop the worker: polite "stop", SIGTERM if it lingers, SIGKILL
        if it is wedged — a worker can never outlive ``close()``."""
        self.signal_cancel(self._req)  # unblock any abandoned in-flight work
        if self._process.is_alive():
            # Polite phase: send "stop" without waiting for the reply (the
            # join below observes the orderly exit; the unread reply dies
            # with the pipe).  A worker wedged mid-request may hold the
            # lock indefinitely — bound the wait and escalate instead.
            acquired = self._lock.acquire(timeout=timeout)
            try:
                if acquired:
                    try:
                        self._req += 1
                        self._conn.send(("stop", self._req))
                    except (OSError, ValueError):
                        pass  # already dead or pipe broken — escalate below
            finally:
                if acquired:
                    self._lock.release()
            self._process.join(timeout)
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout)
            if self._process.is_alive():
                # SIGTERM ignored (wedged in native code, or a chaos
                # `wedge_stop` fault): SIGKILL cannot be ignored.
                self._process.kill()
                self._process.join(timeout)
        try:
            self._conn.close()
        except OSError:
            pass


class _RemoteShardWorker(_ShardWorker):
    """Parent-side proxy for one shard served by a remote worker node
    over the framed socket transport.

    Shares the request/response machinery of :class:`_ShardWorker` (lock,
    req ids, begin/finish pairing, journal-replaying ``respawn``) but the
    "process" is a TCP connection to a ``repro worker --listen`` node:

    - **connection = incarnation**: every (re)connection ships a
      ``hello`` carrying the shard dataset snapshot + engine config, and
      the node builds a *fresh* engine for it, answering with the usual
      req-0 readiness handshake.  A surviving node-side engine across
      reconnects would be unsound: an insert the node committed whose ack
      was lost in a connection drop would leave the replica permanently
      ahead of the parent's expected ids.  Rebuild-from-snapshot plus
      journal replay past the handshake watermark — exactly the pipe
      backend's respawn semantics — makes reconnection idempotent;
    - ``restarts`` therefore counts *reconnects* (the
      ``repro_node_reconnects_total`` metric);
    - cancellation is an out-of-band ``("cancel", req_id)`` frame on the
      same full-duplex socket (the node's reader thread folds it into the
      engine's shared flag); the node still sends its one reply, keeping
      the stream in sync;
    - per-call deadlines: a query's reply must arrive within the shipped
      remaining budget plus a grace window, other calls within
      ``call_timeout`` (when set).  Expiry **poisons the connection** —
      a late reply would desynchronize the next request — so the link is
      dropped and the normal reconnect path takes over.  This is the only
      way a half-open connection (``conn_hang``, a silently dead peer)
      is ever unmasked;
    - injected network chaos (:class:`~repro.faultinject.NetworkFaults`)
      is consulted around every request send, keyed to this proxy's
      per-kind send ordinals, which persist across reconnects.
    """

    def __init__(
        self,
        index: int,
        address: str,
        dataset,
        costs,
        engine_kwargs: Dict[str, Any],
        faults=None,
        net_faults=None,
        *,
        connect_timeout: float = 5.0,
        call_timeout: Optional[float] = None,
        max_frame: int = transport.DEFAULT_MAX_FRAME,
    ) -> None:
        self.index = index
        self.restarts = 0
        self.address = str(address)
        self._host, self._port = transport.parse_hostport(address)
        self._dataset = dataset
        self._costs = costs
        self._engine_kwargs = dict(engine_kwargs)
        self._faults = faults
        self._net_faults = net_faults
        self._connect_timeout = connect_timeout
        self._call_timeout = call_timeout
        self._max_frame = max_frame
        self._lock = threading.Lock()
        self._req = 0
        self._sent: Dict[str, int] = {"query": 0, "add": 0}
        self._conn: Optional[transport.FramedSocket] = None
        self._connected = False
        self._pid: Optional[int] = None
        #: absolute monotonic deadline of the in-flight call (one request
        #: in flight per worker, so a scalar is enough).
        self._call_expires: Optional[float] = None
        self._spawn()

    # -- connection lifecycle ----------------------------------------------

    def _spawn(self) -> Dict[str, Any]:
        """(Re)connect to the node, ship the hello, run the handshake.
        Returns the handshake payload (engine length = replay watermark,
        node pid).  Caller must hold ``_lock`` on every call but the
        first.

        ``connect_timeout`` is a *total* budget over the whole attempt —
        connect, hello, and handshake are all retried inside it.  A
        killed node's replacement takes a moment to rebind its port, and
        the race has more than one losing shape: connection-refused
        before the rebind, but also an RST or EOF *mid-handshake* when
        the connect lands on a node that is still going down.  Any
        transport failure before the handshake completes just means
        "this incarnation attempt lost the race" — try again until the
        budget runs out."""
        deadline = monotonic() + self._connect_timeout
        while True:
            try:
                return self._spawn_once()
            except TransportError:
                self._teardown_incarnation()
                if monotonic() >= deadline:
                    raise
                sleep(0.05)

    def _spawn_once(self) -> Dict[str, Any]:
        conn = transport.connect(
            self._host,
            self._port,
            timeout=self._connect_timeout,
            max_frame=self._max_frame,
        )
        self._conn = conn
        self._connected = True
        self._call_expires = monotonic() + _REMOTE_HANDSHAKE_TIMEOUT
        conn.send(
            (
                "hello",
                0,
                {
                    "shard": self.index,
                    "dataset": self._dataset,
                    "costs": self._costs,
                    "engine_kwargs": dict(self._engine_kwargs),
                    "faults": self._faults,
                    "request_offsets": dict(self._sent),
                },
            )
        )
        handshake = self._receive(0, None)
        self._pid = int(handshake.get("pid", 0)) or None
        return handshake

    def _teardown_incarnation(self) -> None:
        self._connected = False
        if self._conn is not None:
            self._conn.close()

    def _dead_reason(self) -> str:
        return f"shard {self.index} node {self.address} is disconnected"

    @property
    def alive(self) -> bool:
        return (
            self._connected and self._conn is not None and not self._conn.closed
        )

    @property
    def pid(self) -> Optional[int]:
        """The node process's pid as reported in the handshake."""
        return self._pid

    @property
    def daemon(self) -> bool:
        return True  # the node is external; nothing here outlives us

    def heartbeat(self) -> None:
        """Idle-connection liveness probe: a bounded ``ping`` that flips
        :attr:`alive` off when the node is gone (the supervisor's
        reconnect path takes it from there).  Skips silently when the
        connection is busy with an in-flight request — traffic is its own
        heartbeat."""
        try:
            self.try_call("ping", ())
        except WorkerError:
            pass  # _receive already marked the connection dead

    # -- request/response ---------------------------------------------------

    def begin(self, kind: str, payload: Tuple) -> int:
        self._lock.acquire()
        try:
            self._req += 1
            req_id = self._req
            ordinal = 0
            if kind in self._sent:
                self._sent[kind] += 1
                ordinal = self._sent[kind]
            # Per-call deadline: the shipped remaining budget (queries
            # carry it at payload[2]) plus grace, else the static call
            # timeout.  None = wait forever, exactly like a pipe.
            remaining = payload[2] if kind == "query" else None
            budget = (
                remaining + _REMOTE_DEADLINE_GRACE
                if remaining is not None
                else self._call_timeout
            )
            self._call_expires = (
                None if budget is None else monotonic() + budget
            )
            conn = self._conn
            if conn is None or conn.closed:
                raise WorkerError(self._dead_reason())
            net = self._net_faults
            chunk = None
            if net is not None and ordinal:
                latency = net.latency(kind, ordinal)
                if latency > 0:
                    sleep(latency)
                if net.hang(kind, ordinal):
                    conn.hang()
                chunk = net.short_write(kind, ordinal)
            conn.send((kind, req_id, *payload), chunk=chunk)
            if net is not None and ordinal and net.drop_after(kind, ordinal):
                conn.drop()
            return req_id
        except BaseException as exc:
            self._lock.release()
            if isinstance(exc, TransportError):
                self._connected = False
            raise

    def try_call(self, kind: str, payload: Tuple):
        if not self._lock.acquire(blocking=False):
            return None
        try:
            if not self.alive:
                raise WorkerError(self._dead_reason())
            self._req += 1
            req_id = self._req
            budget = (
                self._call_timeout
                if self._call_timeout is not None
                else _REMOTE_PROBE_TIMEOUT
            )
            self._call_expires = monotonic() + budget
            self._conn.send((kind, req_id, *payload))
            return self._receive(req_id, None)
        except TransportError:
            self._connected = False
            raise
        finally:
            self._lock.release()

    def signal_cancel(self, req_id: int) -> None:
        """Cancel ``req_id`` on the node via an out-of-band frame (the
        socket is full-duplex; the node's reader thread consumes it
        without a reply, so the stream stays one-reply-per-request)."""
        conn = self._conn
        if conn is None or conn.closed:
            return
        try:
            conn.send(("cancel", req_id))
        except (TransportError, OSError):
            pass  # a torn link is already being handled by the caller

    def _receive(self, req_id: int, token):
        signalled = token is None
        expires = self._call_expires
        while True:
            conn = self._conn
            if not self._connected or conn is None or conn.closed:
                raise WorkerError(self._dead_reason())
            try:
                reply = conn.recv() if conn.poll(_POLL_SECONDS) else None
            except TransportError:
                self._connected = False
                raise
            if reply is not None:
                rid, status, payload = reply
                if rid != req_id:
                    self._connected = False
                    conn.drop()
                    raise WorkerError(
                        f"shard {self.index} stream desynchronized: got reply "
                        f"for request {rid}, expected {req_id}"
                    )
                if status == "ok":
                    return payload
                raise payload
            if not signalled and token.cancelled():
                self.signal_cancel(req_id)
                signalled = True
            if expires is not None and monotonic() >= expires:
                # A late reply would poison the next request's framing —
                # a timed-out link must be torn down, never reused.
                self._connected = False
                conn.drop()
                raise TransportError(
                    f"shard {self.index} node {self.address}: no reply "
                    "within the per-call deadline"
                )
            if conn.hung and expires is None:
                # Injected half-open link with nothing bounding the wait:
                # fail deterministically instead of spinning forever.
                self._connected = False
                conn.drop()
                raise TransportError(
                    f"shard {self.index} node {self.address}: link went "
                    "half-open with no call deadline"
                )

    # -- lifecycle ----------------------------------------------------------

    def stop(self, timeout: float = _STOP_TIMEOUT) -> None:
        """End this connection's engine politely and disconnect.  The
        node itself is an external process with its own lifecycle — pool
        shutdown must never kill it."""
        conn = self._conn
        if conn is None:
            return
        if self.alive:
            acquired = self._lock.acquire(timeout=timeout)
            try:
                if acquired:
                    try:
                        self._req += 1
                        conn.send(("stop", self._req))
                    except (TransportError, OSError):
                        pass
            finally:
                if acquired:
                    self._lock.release()
        self._connected = False
        conn.close()


# Pools still open at interpreter exit get closed here.  Workers are
# daemonic as a second line of defense, but an orderly close lets them
# exit their loop instead of being killed mid-pickle.
_LIVE_POOLS: "weakref.WeakSet[ShardWorkerPool]" = weakref.WeakSet()
_ATEXIT_REGISTERED = False


def _shutdown_live_pools() -> None:
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception:
            pass  # exit-time cleanup must never raise


class ShardWorkerPool:
    """One worker process per shard, queried over pipes, supervised.

    Parameters
    ----------
    shard_datasets:
        One :class:`~repro.trajectory.dataset.TrajectoryDataset` per
        shard; each worker builds its engine from its dataset.  The pool
        keeps the reference: a respawned worker rebuilds from the same
        (possibly since-grown) dataset mirror, topped up by the insert
        journal.
    costs / engine_kwargs:
        Forwarded to every worker's ``SubtrajectorySearch``.
    start_method:
        ``multiprocessing`` start method (default:
        :func:`default_start_method`).
    per_shard_kwargs:
        Optional list (one dict per shard) of engine kwargs merged *over*
        ``engine_kwargs`` for that shard's worker — how the partitioned
        engine ships each worker its own frozen ``index_path`` (the path
        crosses the pipe, never the index: the worker mmaps the file —
        including again on every respawn).
    supervise:
        Run the supervisor thread (liveness poll + respawn with backoff)
        and enable the query path's respawn-and-retry.  Off, a dead
        worker stays dead and every query to it raises
        :class:`WorkerError` — the pre-supervision semantics, kept for
        tests that pin crash behavior.
    fault_plan:
        Optional :class:`~repro.faultinject.FaultPlan` — deterministic
        chaos, see that module.
    breaker_failures / breaker_cooldown:
        Per-shard circuit breaker: consecutive shard failures that open
        it, and seconds before a half-open probe is allowed.
    respawn_backoff / respawn_backoff_cap:
        Base and cap (seconds) of the supervisor's exponential respawn
        backoff (jittered per shard).
    shard_map:
        One ``"host:port"`` node address per shard.  When given, shards
        are served by standalone ``repro worker --listen`` node processes
        over the framed socket transport instead of child processes —
        respawns become reconnects (hello + handshake + journal replay),
        the supervisor heartbeats idle connections, and injected network
        faults from ``fault_plan`` apply around the sends.
    connect_timeout / call_timeout:
        Socket-transport bounds (remote only): TCP connect timeout, and
        the per-call reply deadline used when a request ships no
        remaining budget (None = wait forever, like a pipe; queries that
        carry a budget are always bounded by it plus a grace window).
    """

    def __init__(
        self,
        shard_datasets: Sequence,
        costs,
        engine_kwargs: Optional[Dict[str, Any]] = None,
        *,
        start_method: Optional[str] = None,
        per_shard_kwargs: Optional[Sequence[Optional[Dict[str, Any]]]] = None,
        supervise: bool = True,
        fault_plan=None,
        breaker_failures: int = 3,
        breaker_cooldown: float = 1.0,
        respawn_backoff: float = 0.05,
        respawn_backoff_cap: float = 2.0,
        supervisor_poll: float = _SUPERVISOR_POLL,
        shard_map: Optional[Sequence[str]] = None,
        connect_timeout: float = 5.0,
        call_timeout: Optional[float] = None,
        heartbeat_interval: float = _HEARTBEAT_INTERVAL,
    ) -> None:
        if per_shard_kwargs is not None and len(per_shard_kwargs) != len(
            shard_datasets
        ):
            raise WorkerError(
                f"expected {len(shard_datasets)} per-shard kwarg dicts, "
                f"got {len(per_shard_kwargs)}"
            )
        if shard_map is not None and len(shard_map) != len(shard_datasets):
            raise WorkerError(
                f"shard map has {len(shard_map)} nodes but the pool has "
                f"{len(shard_datasets)} shards"
            )
        self._remote = shard_map is not None
        ctx = (
            None
            if self._remote
            else mp.get_context(start_method or default_start_method())
        )
        self._closed = False
        self._workers: List[_ShardWorker] = []
        self._supervise = bool(supervise)
        self._heartbeat_interval = heartbeat_interval
        self._fault_plan = fault_plan
        seed = 0 if fault_plan is None else int(getattr(fault_plan, "seed", 0))
        n = len(shard_datasets)
        self._journals: List[List[Tuple[int, Any, bool]]] = [[] for _ in range(n)]
        self._breakers = [
            CircuitBreaker(
                failure_threshold=breaker_failures, cooldown=breaker_cooldown
            )
            for _ in range(n)
        ]
        self._backoffs = [
            RespawnBackoff(
                base=respawn_backoff, cap=respawn_backoff_cap, seed=seed + i
            )
            for i in range(n)
        ]
        self._respawn_attempts = [0] * n
        self._respawn_not_before = [0.0] * n
        self._respawn_fail_budget = [
            0 if fault_plan is None else fault_plan.respawn_failures(i)
            for i in range(n)
        ]
        self._last_errors = [""] * n
        self._events: List[deque] = [deque(maxlen=16) for _ in range(n)]
        self._supervisor_poll = supervisor_poll
        self._supervisor: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        try:
            for index, dataset in enumerate(shard_datasets):
                kwargs = dict(engine_kwargs or {})
                if per_shard_kwargs is not None and per_shard_kwargs[index]:
                    kwargs.update(per_shard_kwargs[index])
                faults = (
                    None if fault_plan is None else fault_plan.worker_faults(index)
                )
                if shard_map is not None:
                    net = (
                        None
                        if fault_plan is None
                        else fault_plan.network_faults(index)
                    )
                    self._workers.append(
                        _RemoteShardWorker(
                            index,
                            shard_map[index],
                            dataset,
                            costs,
                            kwargs,
                            faults,
                            net,
                            connect_timeout=connect_timeout,
                            call_timeout=call_timeout,
                        )
                    )
                else:
                    self._workers.append(
                        _ShardWorker(ctx, index, dataset, costs, kwargs, faults)
                    )
        except BaseException:
            self.close()
            raise
        global _ATEXIT_REGISTERED
        _LIVE_POOLS.add(self)
        if not _ATEXIT_REGISTERED:
            atexit.register(_shutdown_live_pools)
            _ATEXIT_REGISTERED = True
        if self._supervise:
            self._supervisor = threading.Thread(
                target=self._supervise_loop,
                name="repro-shard-supervisor",
                daemon=True,
            )
            self._supervisor.start()

    def __len__(self) -> int:
        return len(self._workers)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def supervised(self) -> bool:
        """Whether the supervisor thread and query-path retry are on."""
        return self._supervise

    @property
    def remote(self) -> bool:
        """Whether shards are served by remote nodes over sockets."""
        return self._remote

    def nodes(self) -> List[Optional[str]]:
        """Per-shard node addresses (None entries on the pipe backend)."""
        return [getattr(w, "address", None) for w in self._workers]

    def workers_alive(self) -> List[bool]:
        """Liveness of each worker process (diagnostics/tests)."""
        return [w.alive for w in self._workers]

    # -- supervision --------------------------------------------------------

    def _supervise_loop(self) -> None:
        """Liveness poll: respawn dead workers on the backoff schedule.

        Runs until ``close()``.  Never raises; a failed respawn is
        recorded and retried after backoff.  On the remote transport the
        loop doubles as the heartbeat: idle connections get a bounded
        ``ping`` every ``heartbeat_interval`` seconds, so a silently dead
        node flips to not-alive (and into this same respawn/reconnect
        path) without waiting for query traffic to trip over it."""
        next_beat = monotonic() + self._heartbeat_interval
        while not self._stop_event.wait(self._supervisor_poll):
            if self._closed:
                break
            beat = False
            if self._remote and monotonic() >= next_beat:
                beat = True
                next_beat = monotonic() + self._heartbeat_interval
            for shard, worker in enumerate(self._workers):
                if worker.alive:
                    if beat:
                        try:
                            worker.heartbeat()
                        except Exception:  # noqa: BLE001 — loop must survive
                            logger.exception(
                                "heartbeat of shard %d failed", shard
                            )
                    continue
                try:
                    self._try_respawn(shard, blocking=False)
                except Exception:  # noqa: BLE001 — the loop must survive
                    logger.exception("supervisor respawn of shard %d failed", shard)

    def _try_respawn(
        self,
        shard: int,
        *,
        blocking: bool,
        force: bool = False,
        seen_restarts: Optional[int] = None,
    ) -> bool:
        """Attempt to bring ``shard``'s worker back up.  Returns True when
        the worker is alive afterwards (already, or freshly respawned).

        ``blocking`` waits (bounded) for the worker lock — the query-path
        retry; non-blocking skips the tick when the lock is busy — the
        supervisor, which must never queue behind an in-flight request.
        The blocking wait is bounded rather than infinite because a
        fan-out retry may still hold *later* shards' locks: an unbounded
        wait here against another fan-out holding this lock while wanting
        one of ours would deadlock.  ``force`` ignores the backoff window
        — used by the query path, whose bound is the caller's own
        deadline budget.

        ``seen_restarts`` is the worker's restart generation the caller
        observed *failing*.  A dying worker closes its pipe before
        ``waitpid`` reports it dead, so ``is_alive()`` can stay True for
        a worker whose requests already EOF — trusting it would retry on
        a corpse's pipe.  When the generation hasn't changed since the
        failure, respawn over the stale-alive process (``respawn`` kills
        any lingering incarnation first); when it has, the supervisor
        beat us to it and the live worker really is fresh.
        """
        if self._closed or not self._supervise:
            return False
        worker = self._workers[shard]
        if blocking:
            if not worker._lock.acquire(timeout=2.0):
                # The lock is usually held by the supervisor mid-respawn
                # (a remote reconnect can take up to connect_timeout).
                # Giving up here would lose the caller's retry — instead
                # wait, bounded, for the holder's outcome: a changed
                # generation means the worker came back fresh and the
                # caller can simply retry on it.
                budget = getattr(worker, "_connect_timeout", 0.0) + 2.0
                waited = 0.0
                acquired = False
                while waited < budget:
                    if worker.alive and not (
                        seen_restarts is not None
                        and worker.restarts == seen_restarts
                    ):
                        return True
                    if worker._lock.acquire(timeout=0.1):
                        acquired = True
                        break
                    waited += 0.1
                if not acquired:
                    return False
        elif not worker._lock.acquire(blocking=False):
            return False
        try:
            if self._closed:
                return False
            if worker.alive and not (
                seen_restarts is not None and worker.restarts == seen_restarts
            ):
                return True
            now = monotonic()
            if not force and now < self._respawn_not_before[shard]:
                return False
            if self._respawn_fail_budget[shard] > 0:
                # Injected respawn failure (deterministic chaos): consume
                # one budget unit and behave exactly like a real failure.
                self._respawn_fail_budget[shard] -= 1
                self._note_respawn_failure(
                    shard, "fault-injected respawn failure"
                )
                return False
            try:
                worker.respawn(list(self._journals[shard]))
            except BaseException as exc:  # noqa: BLE001 — recorded, retried
                self._note_respawn_failure(shard, repr(exc))
                return False
            self._respawn_attempts[shard] = 0
            self._respawn_not_before[shard] = 0.0
            self._last_errors[shard] = ""
            self._events[shard].append(f"respawned pid={worker.pid}")
            logger.warning(
                "shard %d worker respawned (pid %s, restart #%d)",
                shard, worker.pid, worker.restarts,
            )
            return True
        finally:
            worker._lock.release()

    def _note_respawn_failure(self, shard: int, error: str) -> None:
        attempt = self._respawn_attempts[shard]
        delay = self._backoffs[shard].delay(attempt)
        self._respawn_attempts[shard] = attempt + 1
        self._respawn_not_before[shard] = monotonic() + delay
        self._last_errors[shard] = error
        self._events[shard].append(
            f"respawn failed (attempt {attempt + 1}, backoff {delay:.3f}s): {error}"
        )

    def _note_shard_failure(self, shard: int, exc: BaseException) -> None:
        self._breakers[shard].record_failure()
        self._last_errors[shard] = repr(exc)
        self._events[shard].append(f"query failed: {type(exc).__name__}")

    def worker_states(self) -> List[WorkerState]:
        """Per-shard supervision snapshots (the ``/healthz`` payload)."""
        now = monotonic()
        states = []
        for shard, worker in enumerate(self._workers):
            breaker = self._breakers[shard]
            states.append(
                WorkerState(
                    shard=shard,
                    alive=worker.alive,
                    pid=worker.pid,
                    restarts=worker.restarts,
                    breaker=breaker.state,
                    consecutive_failures=breaker.consecutive_failures,
                    respawn_wait=max(
                        0.0, self._respawn_not_before[shard] - now
                    ),
                    last_error=self._last_errors[shard],
                    events=list(self._events[shard]),
                    node=getattr(worker, "address", None),
                    retry_after=breaker.cooldown_remaining(),
                )
            )
        return states

    def restarts_total(self) -> int:
        """Completed worker respawns across all shards (monotonic).  On
        the remote transport a "respawn" is a completed reconnect —
        this is also the ``repro_node_reconnects_total`` figure."""
        return sum(w.restarts for w in self._workers)

    def retry_after(self) -> float:
        """Seconds a client should wait before retrying: the soonest any
        currently-open breaker will admit a probe (0 when none is open).
        The HTTP layer turns this into the 503 ``Retry-After`` header."""
        waits = [
            b.cooldown_remaining()
            for b in self._breakers
            if b.state == "open"
        ]
        return min(waits) if waits else 0.0

    # -- queries ------------------------------------------------------------

    def query_shard(self, shard: int, query: Sequence[int], kwargs: Dict[str, Any],
                    cancel=None, trace_ctx=None, on_event=None):
        """Run one query on one shard worker (blocking round-trip), with
        the same breaker gate and respawn-and-retry-once the fan-out path
        applies.

        With ``trace_ctx`` (a ``(trace_id, parent_span_id)`` pair) the
        worker traces its engine query and the return value is
        ``(result, exported_spans)`` instead of the bare result."""
        self._check_open()
        breaker = self._breakers[shard]
        if not breaker.allow():
            exc = ShardUnavailableError(
                f"shard {shard} circuit breaker is {breaker.state}"
            )
            exc.shards = (shard,)
            raise exc
        worker = self._workers[shard]

        def attempt():
            payload = (list(query), kwargs, _remaining_of(cancel), trace_ctx)
            return worker.call("query", payload, cancel)

        try:
            result = attempt()
        except WorkerError as exc:
            exc.shards = (shard,)
            failed_gen = worker.restarts
            self._note_shard_failure(shard, exc)
            if not self._retry_budget_left(cancel) or not self._try_respawn(
                shard, blocking=True, force=True, seen_restarts=failed_gen
            ):
                raise
            if on_event is not None:
                on_event(shard, "retried")
            try:
                result = attempt()
            except WorkerError as retry_exc:
                retry_exc.shards = (shard,)
                self._note_shard_failure(shard, retry_exc)
                raise
        breaker.record_success()
        return result

    def _retry_budget_left(self, cancel) -> bool:
        """Whether the caller's deadline still has room for a retry."""
        if not self._supervise:
            return False
        return cancel is None or not cancel.cancelled()

    def query_all(
        self,
        query: Sequence[int],
        kwargs: Dict[str, Any],
        cancel=None,
        trace_ctxs: Optional[Sequence] = None,
        on_reply=None,
        *,
        allow_partial: bool = False,
        on_event: Optional[Callable[[int, str], None]] = None,
    ) -> List:
        """Fan one query out to every worker; results in shard order.

        Requests are *all sent before any reply is awaited* — that is what
        buys more than one core: every worker verifies concurrently while
        the parent merely waits.  On the first non-retryable failure the
        remaining workers are cancelled (not abandoned), so no reply is
        ever left in a pipe.

        Fault tolerance: a shard whose worker died (``WorkerError``) is
        respawned and retried exactly once within the remaining deadline
        budget; a shard whose circuit breaker is open is not even sent to.
        With ``allow_partial=False`` (the default) any shard that stays
        down fails the whole query loudly; with ``allow_partial=True``
        such shards yield ``None`` in the result list (callers mark the
        merged answer ``complete=False``) — unless *every* shard is down,
        which always raises.

        ``trace_ctxs`` (one span context per shard, or None) makes each
        worker return ``(result, exported_spans)`` — see
        :meth:`query_shard`.  ``on_reply(shard_index)`` is invoked right
        after each shard's reply is successfully collected (the hook the
        caller uses to close per-shard RPC spans at their true end).
        ``on_event(shard_index, event)`` reports retry/degrade decisions
        (``"retried"`` / ``"degraded"`` / ``"breaker_open"``) for span
        annotation.
        """
        self._check_open()
        n = len(self._workers)
        if trace_ctxs is not None and len(trace_ctxs) != n:
            raise WorkerError(
                f"expected {n} trace contexts, got {len(trace_ctxs)}"
            )

        def payload_for(shard: int) -> Tuple:
            ctx = None if trace_ctxs is None else trace_ctxs[shard]
            # Rebuilt per (re)send so a retry ships the *updated*
            # remaining deadline budget.
            return (list(query), kwargs, _remaining_of(cancel), ctx)

        def emit(shard: int, event: str) -> None:
            if on_event is not None:
                on_event(shard, event)

        # req id per shard, or None for shards not sent to (breaker open /
        # send failed and degraded).
        pending: List[Optional[int]] = [None] * n
        degraded: List[bool] = [False] * n
        first_error: Optional[BaseException] = None

        def fail_shard(shard: int, exc: WorkerError) -> None:
            nonlocal first_error
            exc.shards = (shard,)
            if allow_partial:
                degraded[shard] = True
                emit(shard, "degraded")
            elif first_error is None:
                first_error = exc

        # -- send phase ----------------------------------------------------
        try:
            for shard, worker in enumerate(self._workers):
                if first_error is not None:
                    break  # strict mode already doomed: don't start more work
                if not self._breakers[shard].allow():
                    emit(shard, "breaker_open")
                    fail_shard(
                        shard,
                        ShardUnavailableError(
                            f"shard {shard} circuit breaker is "
                            f"{self._breakers[shard].state}"
                        ),
                    )
                    continue
                try:
                    pending[shard] = worker.begin("query", payload_for(shard))
                except WorkerError as exc:
                    failed_gen = worker.restarts
                    self._note_shard_failure(shard, exc)
                    if self._retry_budget_left(cancel) and self._try_respawn(
                        shard, blocking=True, force=True,
                        seen_restarts=failed_gen,
                    ):
                        emit(shard, "retried")
                        try:
                            pending[shard] = worker.begin(
                                "query", payload_for(shard)
                            )
                            continue
                        except WorkerError as retry_exc:
                            self._note_shard_failure(shard, retry_exc)
                            exc = retry_exc
                    fail_shard(shard, exc)
        except BaseException:
            self._drain(pending, cancel)
            raise

        if first_error is not None:
            # Strict mode already doomed during the send phase: cancel and
            # drain whatever was sent, then raise without waiting for
            # full results.
            self._drain(pending, cancel)
            raise first_error

        # -- collect phase -------------------------------------------------
        results: List = [None] * n
        for shard, worker in enumerate(self._workers):
            rid = pending[shard]
            if rid is None:
                continue
            try:
                results[shard] = worker.finish(rid, cancel)
                self._breakers[shard].record_success()
                pending[shard] = None
                if on_reply is not None:
                    on_reply(shard)
                continue
            except WorkerError as exc:
                pending[shard] = None
                failed_gen = worker.restarts
                self._note_shard_failure(shard, exc)
                if first_error is None and self._retry_budget_left(
                    cancel
                ) and self._try_respawn(
                    shard, blocking=True, force=True, seen_restarts=failed_gen
                ):
                    emit(shard, "retried")
                    try:
                        rid = worker.begin("query", payload_for(shard))
                        results[shard] = worker.finish(rid, cancel)
                        self._breakers[shard].record_success()
                        if on_reply is not None:
                            on_reply(shard)
                        continue
                    except WorkerError as retry_exc:
                        self._note_shard_failure(shard, retry_exc)
                        exc = retry_exc
                fail_shard(shard, exc)
            except BaseException as exc:
                # Non-worker failure (deadline, cancellation, engine
                # error shipped back from a healthy worker): dooms the
                # query on every mode — cancel the shards we have not
                # collected yet, drain their replies, and raise.
                pending[shard] = None
                if first_error is None:
                    first_error = exc
            if first_error is not None:
                self._drain(pending, cancel)
                raise first_error
        if first_error is not None:
            self._drain(pending, cancel)
            raise first_error
        if allow_partial and all(
            degraded[i] or results[i] is None for i in range(n)
        ):
            exc = ShardUnavailableError(
                "every shard is unavailable (nothing to serve a partial "
                "result from)"
            )
            exc.shards = tuple(range(n))
            raise exc
        return results

    def _drain(self, pending: List[Optional[int]], cancel) -> None:
        """Cancel and drain every still-pending request so no reply is
        left in a pipe (keeps request/reply framing in sync)."""
        for shard, rid in enumerate(pending):
            if rid is None:
                continue
            worker = self._workers[shard]
            worker.signal_cancel(rid)
            try:
                worker.finish(rid, cancel)
            except Exception:
                pass
            pending[shard] = None

    # -- diagnostics --------------------------------------------------------

    def cache_stats(self) -> List[Optional[Dict[str, Dict[str, int]]]]:
        """Per-worker engine-cache counters (``{"substitution": ...,
        "trie": ...}``), polled without blocking: a worker busy with an
        in-flight query — or dead and awaiting respawn — yields ``None``
        (the caller reports partial coverage instead of stalling or
        erroring a health probe)."""
        self._check_open()
        stats: List[Optional[Dict[str, Dict[str, int]]]] = []
        for worker in self._workers:
            try:
                stats.append(worker.try_call("stats", ()))
            except WorkerError:
                stats.append(None)
        return stats

    def substitution_cache_stats(self) -> List[Optional[Dict[str, int]]]:
        """Per-worker SubstitutionMatrix-LRU counters (see
        :meth:`cache_stats` for the polling semantics)."""
        return [
            None if part is None else part.get("substitution")
            for part in self.cache_stats()
        ]

    def trie_cache_stats(self) -> List[Optional[Dict[str, int]]]:
        """Per-worker TrieCache counters (see :meth:`cache_stats` for the
        polling semantics)."""
        return [
            None if part is None else part.get("trie")
            for part in self.cache_stats()
        ]

    # -- replication --------------------------------------------------------

    def replicate_add(self, shard: int, expected_local_id: int, trajectory,
                      *, validate: bool = False) -> int:
        """Apply one online insert on a shard worker, versioned and
        journaled.

        ``expected_local_id`` is the shard-local id the parent's replica
        assigns; the worker acknowledges only if its own insert agrees,
        so parent and worker cannot silently diverge.  Synchronous — when
        this returns, queries on that worker see the new trajectory
        (read-your-writes for the inserter).  The acknowledged insert is
        appended to the shard's journal *before* the worker lock is
        released, so a respawn can never snapshot a state where the
        insert is committed on the worker but absent from both the
        dataset mirror and the journal.
        """
        self._check_open()
        worker = self._workers[shard]
        entry = (int(expected_local_id), trajectory, bool(validate))
        req_id = worker.begin("add", entry)
        try:
            tid = worker._receive(req_id, None)
            self._journals[shard].append(entry)
            self._breakers[shard].record_success()
            return tid
        except WorkerError as exc:
            self._note_shard_failure(shard, exc)
            raise
        finally:
            worker._lock.release()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop the supervisor, then every worker (idempotent; also runs
        via ``atexit``)."""
        if self._closed:
            return
        self._closed = True
        _LIVE_POOLS.discard(self)
        # The supervisor must be down before workers stop, or it would
        # respawn what close() is killing.
        self._stop_event.set()
        if self._supervisor is not None and self._supervisor.is_alive():
            if self._supervisor is not threading.current_thread():
                self._supervisor.join(timeout=2.0)
        for worker in self._workers:
            worker.stop()

    def _check_open(self) -> None:
        if self._closed:
            raise WorkerError("worker pool is closed")


def _remaining_of(cancel) -> Optional[float]:
    """The budget to ship with a request: seconds left on the token's
    deadline at send time (clamped at 0 so an expired token still yields
    an immediately-expired worker token), or ``None``."""
    if cancel is None:
        return None
    remaining = getattr(cancel, "remaining", None)
    if remaining is None:
        return None
    value = remaining()
    return None if value is None else max(0.0, value)
