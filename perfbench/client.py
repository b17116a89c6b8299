"""Closed-loop HTTP load: a few keep-alive connections, each waiting for
its reply before it sends the next request from one shared list."""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from perfbench.workloads import Request


@dataclass
class Record:
    """One request as the client saw it; times are ``perf_counter`` seconds."""

    index: int
    kind: str
    sent: float
    received: float
    status: int  # HTTP status, or 0 for a connection error or timeout
    reply: Optional[Dict[str, Any]]
    reply_bytes: int

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_ms(self) -> float:
        return (self.received - self.sent) * 1e3


@dataclass
class LoadResult:
    records: List[Record]
    window_start: float  # end of warm-up
    window_end: float  # when the last request sent in the window completed
    drained: bool  # the request list ran out before the window closed

    def timed(self) -> List[Record]:
        """Requests sent inside the timed window (warm-up excluded)."""
        return [r for r in self.records if self.window_start <= r.sent]


def run_closed_loop(
    host: str,
    port: int,
    requests: Sequence[Request],
    *,
    connections: int,
    warmup: float,
    seconds: float,
    request_timeout: float,
) -> LoadResult:
    """Drive the server until ``warmup + seconds`` have passed.

    Requests go out in list order; a connection that fails is reopened
    for its next request.  Every reply, warm-up included, is recorded so
    the answer check sees all of them."""
    lock = threading.Lock()
    cursor = [0]
    records: List[Record] = []
    start = time.perf_counter()
    window_start = start + warmup
    stop_at = window_start + seconds

    def next_index() -> Optional[int]:
        with lock:
            if cursor[0] >= len(requests) or time.perf_counter() >= stop_at:
                return None
            cursor[0] += 1
            return cursor[0] - 1

    def connection_loop() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=request_timeout)
        try:
            while (index := next_index()) is not None:
                request = requests[index]
                body = json.dumps(request.body())
                sent = time.perf_counter()
                status, reply, size = 0, None, 0
                try:
                    conn.request(
                        "POST", request.url_path, body,
                        {"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    data = response.read()
                    received = time.perf_counter()
                    status, size = response.status, len(data)
                except (OSError, http.client.HTTPException):
                    received = time.perf_counter()
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=request_timeout)
                if status == 200:
                    try:
                        reply = json.loads(data)
                    except ValueError:
                        status = 0
                with lock:
                    records.append(
                        Record(index, request.kind, sent, received, status, reply, size)
                    )
        finally:
            conn.close()

    threads = [
        threading.Thread(target=connection_loop, name=f"perfbench-conn-{i}", daemon=True)
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(stop_at - time.perf_counter() + 2 * request_timeout)
    if any(thread.is_alive() for thread in threads):
        raise TimeoutError("a load connection did not finish within its request timeout")
    records.sort(key=lambda r: r.index)
    # The window closes when the last request sent inside it completes.
    timed_ends = [r.received for r in records if window_start <= r.sent]
    end = max(timed_ends, default=stop_at)
    return LoadResult(records, window_start, end, drained=cursor[0] >= len(requests))
