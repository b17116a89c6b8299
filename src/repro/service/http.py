"""Stdlib JSON-over-HTTP frontend for :class:`~repro.service.QueryService`.

No web framework — ``http.server.ThreadingHTTPServer`` is enough for a
reproduction-scale serving layer and keeps the dependency budget at zero.
One handler thread per connection feeds the service, whose executor pool
does the actual work (so slow queries don't serialize behind each other).

API surface (all bodies JSON):

- ``GET /healthz`` — liveness: ``{"status": "ok", ...}``;
- ``GET /stats`` — the metrics snapshot of :meth:`QueryService.stats`;
- ``GET /metrics`` — Prometheus text exposition (version 0.0.4) of the
  service's :class:`~repro.obs.MetricsRegistry`;
- ``GET /debug/traces?order=recent|slowest&limit=n`` — flight-recorder
  dump: completed trace records, JSON;
- ``POST /query`` — ``{"path": [symbols...], "tau": x | "tau_ratio": r,
  "time_from": t0?, "time_to": t1?, "temporal_mode": "overlap"|"within"?,
  "deadline": seconds?, "limit": n?, "allow_partial": bool?}`` → matches
  plus serving provenance (``cached`` / ``coalesced`` / timing).  With
  ``"allow_partial": true`` and shards down, the answer is still a 200
  but flagged ``"partial": true`` with the missing ``degraded_shards``;
- ``POST /query`` with ``{"path": [...], "k": n}`` instead of a
  threshold — top-k mode: the n best matches (one per trajectory),
  ranked; optional ``"initial_tau_ratio"`` / ``"growth"`` tune the
  threshold expansion.  The response carries ``results`` (with explicit
  ``rank``), ``ties_at_k``, and the expansion provenance (``tau_rounds``
  / ``tau_final`` / ``swept``); ``deadline`` / ``limit`` /
  ``allow_partial`` work as in range mode.  ``k`` is mutually exclusive
  with ``tau`` / ``tau_ratio`` and with temporal constraints;
- ``POST /trajectories`` — ``{"path": [symbols...], "timestamps":
  [...]?}`` → online insert; invalidates the result cache.  Paths are
  validated as graph walks by default (``"validate": false`` opts out).

Error mapping: malformed requests → 400 (including non-finite or
out-of-range numbers and path symbols that are not integers in
``[0, alphabet size)``), admission shed → 429, missed deadline → 504,
shard worker down/unavailable (and the client did not opt into a partial
answer) → 503.  503 bodies carry the ``degraded_shards`` whose failure
the request saw plus a ``Retry-After`` header derived from the soonest
breaker cooldown, so clients back off for exactly as long as the
supervisor needs.
"""

from __future__ import annotations

import json
import logging
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.temporal import TimeInterval
from repro.exceptions import (
    AdmissionError,
    DeadlineExceededError,
    QueryCancelledError,
    ReproError,
    WorkerError,
)
from repro.service.service import QueryService, ServiceResponse
from repro.trajectory.model import Trajectory

__all__ = ["ServiceServer", "response_payload", "topk_payload"]

logger = logging.getLogger(__name__)

_MAX_BODY = 16 * 1024 * 1024


def _match_row(m) -> Dict[str, Any]:
    return {
        "trajectory": m.trajectory_id,
        "start": m.start,
        "end": m.end,
        "distance": m.distance,
    }


def _provenance(response: ServiceResponse) -> Dict[str, Any]:
    """The serving fields every answered request carries."""
    result = response.result
    payload = {
        "candidates": result.num_candidates,
        "cached": response.cached,
        "coalesced": response.coalesced,
        "seconds": response.seconds,
        "engine_seconds": result.total_seconds,
        "partial": not result.complete,
    }
    if not result.complete:
        payload["degraded_shards"] = list(result.degraded_shards)
    return payload


def response_payload(response: ServiceResponse, *, limit: Optional[int] = None) -> Dict[str, Any]:
    """The JSON shape of one answered query (shared with the CLI)."""
    result = response.result
    matches = result.matches if limit is None else result.matches[:limit]
    return {
        "tau": result.tau,
        "matches": [_match_row(m) for m in matches],
        "total_matches": len(result.matches),
        **_provenance(response),
    }


def topk_payload(
    response: ServiceResponse, *, limit: Optional[int] = None
) -> Dict[str, Any]:
    """The JSON shape of one answered top-k query (shared with the CLI).

    ``results`` carries an explicit 1-based ``rank`` — the ranking *is*
    the answer here, unlike range mode's order-irrelevant match set —
    and ``ties_at_k`` says how many equal-distance entries the k-th cut
    dropped (0 = the ranking boundary is strict)."""
    result = response.result
    matches = result.matches if limit is None else result.matches[:limit]
    return {
        "k": result.k,
        "results": [
            {"rank": rank, **_match_row(m)}
            for rank, m in enumerate(matches, start=1)
        ],
        "total_results": len(result.matches),
        "ties_at_k": result.ties_at_k,
        "tau_rounds": result.tau_rounds,
        "tau_final": result.tau_final,
        "swept": result.swept,
        **_provenance(response),
    }


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the service stored on the server object."""

    protocol_version = "HTTP/1.1"

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("%s - %s", self.address_string(), format % args)

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_body(status, body, "application/json", headers)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_body(status, text.encode("utf-8"), content_type)

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if status >= 400:
            # The request body may not have been (fully) drained on error
            # paths; closing keeps the keep-alive stream from
            # desynchronizing on leftover bytes.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _send_unavailable(self, service: QueryService, exc: WorkerError) -> None:
        """One shard-unavailability 503: the body names the shards whose
        failure this request saw (``degraded_shards``, carried on the
        error itself — a later health snapshot can race a dying worker's
        reaping) and the ``Retry-After`` header tells the client how long
        the soonest open breaker keeps rejecting — retrying sooner is
        guaranteed wasted."""
        retry_after = 0.0
        retry_of = getattr(service.engine, "retry_after", None)
        if retry_of is not None:
            try:
                retry_after = float(retry_of())
            except Exception:  # noqa: BLE001 — the 503 itself must go out
                retry_after = 0.0
        # Retry-After is integral delta-seconds; a dead-but-unbroken shard
        # (cooldown 0) still wants a beat for the supervisor's respawn.
        seconds = max(1, math.ceil(retry_after)) if retry_after > 0 else 1
        payload = {
            "error": str(exc),
            "degraded_shards": sorted(exc.shards),
            "retry_after": seconds,
        }
        self._send_json(503, payload, headers={"Retry-After": str(seconds)})

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ValueError("missing request body")
        if length > _MAX_BODY:
            raise ValueError("request body too large")
        data = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    # -- routes -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        self._respond(self._route_get)

    def do_POST(self) -> None:  # noqa: N802
        self._respond(self._route_post)

    def _respond(self, route) -> None:
        """Run one route, mapping its failure to a JSON error response."""
        service: QueryService = self.server.service  # type: ignore[attr-defined]
        try:
            route(service)
        except AdmissionError as exc:
            self._send_json(429, {"error": str(exc)})
        except (DeadlineExceededError, QueryCancelledError) as exc:
            # A cancellation that escapes the executor untranslated is
            # still "the server gave up on the budget" to a client.
            self._send_json(504, {"error": str(exc)})
        except WorkerError as exc:
            # A dead/diverged/breaker-open shard is an availability
            # failure, not a bad request: 503 Service Unavailable so
            # clients retry (the supervisor is likely respawning it) and
            # monitoring pages someone.  Clients that can live with less
            # can opt into a 200 instead via {"allow_partial": true}.
            logger.error("shard worker failure serving %s: %s", self.path, exc)
            self._send_unavailable(service, exc)
        except (ValueError, TypeError, KeyError, ReproError) as exc:
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - keep-alive clients need a
            # response body, not a dropped connection, on unexpected bugs.
            logger.exception("unhandled error serving %s", self.path)
            try:
                self._send_json(500, {"error": f"internal error: {exc}"})
            except Exception:  # headers may already be on the wire
                self.close_connection = True

    def _route_get(self, service: QueryService) -> None:
        parsed = urlsplit(self.path)
        path = parsed.path
        if path == "/healthz":
            engine = service.engine
            count = (
                len(engine.dataset) if hasattr(engine, "dataset") else len(engine)
            )
            payload = {
                "status": "ok",
                "trajectories": count,
                "shards": getattr(engine, "num_shards", 1),
                "backend": getattr(engine, "backend", "single"),
                "dp_backend": getattr(engine, "dp_backend", "auto"),
            }
            # Cache-hit observability for repeated-query traffic
            # (substitution rows and warm verification tries), read
            # as ONE combined snapshot so the processes backend's
            # non-blocking worker poll runs once per probe; busy
            # workers are skipped (the probe must not queue behind a
            # long verification), and a failing poll (dead worker,
            # closing engine) degrades the fields rather than the
            # probe — /healthz answers liveness, not shard health.
            cache_stats = getattr(engine, "cache_stats", None)
            if cache_stats is not None:
                try:
                    combined = cache_stats()
                    payload["substitution_cache"] = combined["substitution"]
                    payload["trie_cache"] = combined["trie"]
                    # Index backend, bytes, and (for a frozen mmap)
                    # page-cache residency — same single snapshot.
                    if "index" in combined:
                        payload["index"] = combined["index"]
                except Exception as exc:  # noqa: BLE001
                    payload["substitution_cache"] = {"error": str(exc)}
                    payload["trie_cache"] = {"error": str(exc)}
                    payload["index"] = {"error": str(exc)}
            # Per-shard worker supervision state: a dead worker (or an
            # open breaker) is visible here *before* a query hits it,
            # and flips the top-level status to "degraded" (still 200
            # — the server itself is up and can serve partial/other
            # shards; monitoring alerts on the field, load balancers
            # on the process).
            worker_states = getattr(engine, "worker_states", None)
            if worker_states is not None:
                try:
                    states = worker_states()
                    payload["workers"] = [s.to_dict() for s in states]
                    payload["restarts_total"] = sum(s.restarts for s in states)
                    if any(
                        not s.alive or s.breaker != "closed" for s in states
                    ):
                        payload["status"] = "degraded"
                except Exception as exc:  # noqa: BLE001
                    payload["workers"] = [{"error": str(exc)}]
            self._send_json(200, payload)
        elif path == "/stats":
            self._send_json(200, service.stats())
        elif path == "/metrics":
            # Prometheus text exposition.  The registry renders push
            # instruments and pull collectors; the engine-cache
            # collector polls processes-backend workers WITHOUT
            # blocking, so a scrape never queues behind a
            # long-running query.
            self._send_text(
                200,
                service.observability.registry.render(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif path == "/debug/traces":
            self._handle_traces(service, parse_qs(parsed.query))
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def _route_post(self, service: QueryService) -> None:
        if self.path == "/query":
            self._handle_query(service)
        elif self.path == "/trajectories":
            self._handle_insert(service)
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def _handle_traces(self, service: QueryService, params: Dict[str, list]) -> None:
        order = params.get("order", ["recent"])[0]
        if order not in ("recent", "slowest"):
            raise ValueError("'order' must be 'recent' or 'slowest'")
        raw_limit = params.get("limit", [None])[0]
        limit = None
        if raw_limit is not None:
            limit = int(raw_limit)
            if limit < 0:
                raise ValueError("'limit' must be a nonnegative integer")
        recorder = service.observability.recorder
        traces = (
            recorder.slowest(limit) if order == "slowest" else recorder.recent(limit)
        )
        self._send_json(
            200, {"order": order, "traces": traces, "stats": recorder.stats()}
        )

    def _handle_query(self, service: QueryService) -> None:
        # Field values go to the service as decoded: its request
        # descriptors are the one validation boundary (types, finiteness,
        # ranges, symbols), so a bad value is a QueryError — a 400.
        body = self._read_body()
        limit = body.get("limit")
        if limit is not None and (
            isinstance(limit, bool) or not isinstance(limit, int) or limit < 0
        ):
            raise ValueError("'limit' must be a nonnegative integer")
        common = dict(
            deadline=body.get("deadline"),
            allow_partial=body.get("allow_partial", False),
        )
        path, k = body.get("path"), body.get("k")
        if k is None:
            interval, mode = self._interval_of(body)
            response = service.query(
                path,
                tau=body.get("tau"),
                tau_ratio=body.get("tau_ratio"),
                time_interval=interval,
                temporal_mode=mode,
                **common,
            )
            self._send_json(200, response_payload(response, limit=limit))
            return
        # Top-k mode: the request names a depth instead of a radius.
        if any(
            body.get(field) is not None
            for field in ("tau", "tau_ratio", "time_from", "time_to")
        ):
            raise ValueError(
                "'k' is mutually exclusive with 'tau'/'tau_ratio' and with "
                "temporal constraints — a request is either top-k or range"
            )
        for knob in ("initial_tau_ratio", "growth"):
            if body.get(knob) is not None:
                common[knob] = body[knob]
        response = service.topk(path, k, **common)
        self._send_json(200, topk_payload(response, limit=limit))

    def _handle_insert(self, service: QueryService) -> None:
        body = self._read_body()
        path = body.get("path")
        if not isinstance(path, list) or not path:
            raise ValueError("'path' must be a non-empty list of vertex ids")
        timestamps = body.get("timestamps")
        trajectory = Trajectory(
            [int(s) for s in path],
            timestamps=None if timestamps is None else [float(t) for t in timestamps],
        )
        # Untrusted write endpoint: reject non-walks unless the client
        # explicitly opts out with {"validate": false}.
        validate = body.get("validate")
        tid = service.add_trajectory(
            trajectory, validate=True if validate is None else bool(validate)
        )
        self._send_json(200, {"trajectory": tid, "invalidated_cache": True})

    @staticmethod
    def _interval_of(body: Dict[str, Any]) -> Tuple[Optional[TimeInterval], str]:
        t0, t1 = body.get("time_from"), body.get("time_to")
        if (t0 is None) != (t1 is None):
            raise ValueError("'time_from' and 'time_to' must be given together")
        mode = body.get("temporal_mode", "overlap")
        if t0 is None:
            return None, mode
        return TimeInterval(float(t0), float(t1)), mode


class ServiceServer:
    """A threaded HTTP server bound to one :class:`QueryService`.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`).
    Use :meth:`start` for a background thread (tests, ``--self-test``) or
    :meth:`serve_forever` to occupy the caller's thread (the CLI).
    """

    def __init__(
        self, service: QueryService, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._service = service
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._serving = False

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the bound endpoint."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        """Serve on a daemon background thread; returns self."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._serving = True
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop serving, close the socket, and drain the service pool.

        Safe to call on a server that was never started —
        ``BaseServer.shutdown`` would otherwise block forever waiting for
        a ``serve_forever`` loop that never ran."""
        if self._serving:
            self._httpd.shutdown()
            self._serving = False
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._service.close()

    def __enter__(self) -> "ServiceServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
