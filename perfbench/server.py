"""Launch ``repro serve`` as a separate process and tear it down again.

The server runs in its own session, so it and every shard worker it
forks share one process group: teardown interrupts the server (its
clean shutdown path), then kills whatever of the group is left and
checks that nothing survived.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PAGE_KB = os.sysconf("SC_PAGE_SIZE") / 1024


class ServerError(RuntimeError):
    """The server did not come up, or did not go away."""


class Server:
    """One running server; use as a context manager."""

    def __init__(self, argv: List[str], *, shards: int, env: Dict[str, str],
                 cwd: Path, start_timeout: float) -> None:
        self.shards = shards
        launched = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            text=True, start_new_session=True,
        )
        try:
            self.host, self.port = self._read_address(start_timeout)
            self._wait_healthy(launched + start_timeout)
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - launched

    def _read_address(self, timeout: float):
        # "serving N trajectories on http://HOST:PORT (...)"; the pipe is
        # read on a helper thread so a silent server cannot block us.
        line: List[str] = []
        reader = threading.Thread(
            target=lambda: line.append(self.proc.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(timeout)
        if not line or " on http://" not in line[0]:
            raise ServerError(f"server did not announce its address: {line!r}")
        address = line[0].split(" on http://", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        return host, int(port)

    def _wait_healthy(self, deadline: float) -> None:
        """Poll ``/healthz`` until every shard worker reports alive."""
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise ServerError(f"server exited with code {self.proc.returncode}")
            try:
                health = self.get("/healthz")
            except (OSError, http.client.HTTPException, ValueError):
                health = {}
            workers = health.get("workers") or []
            if len(workers) == self.shards and all(w.get("alive") for w in workers):
                return
            time.sleep(0.005)
        raise ServerError("server workers did not come up in time")

    def get(self, path: str, timeout: float = 10.0) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise ServerError(f"GET {path} returned {response.status}")
            return json.loads(body)
        finally:
            conn.close()

    # -- /proc accounting ------------------------------------------------

    def group_pids(self) -> List[int]:
        """The server and every live process in its group."""
        pids = []
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                stat = _stat_fields(int(entry))
                if stat is not None and stat[0] != "Z" and int(stat[2]) == self.proc.pid:
                    pids.append(int(entry))
        return sorted(pids)

    def cpu_seconds(self) -> Dict[str, float]:
        """User+system CPU of the server process and of its workers."""
        parent = workers = 0.0
        for pid in self.group_pids():
            stat = _stat_fields(pid)
            if stat is None:
                continue
            seconds = (int(stat[11]) + int(stat[12])) / _CLK_TCK
            if pid == self.proc.pid:
                parent += seconds
            else:
                workers += seconds
        return {"parent": parent, "workers": workers}

    def rss_mb(self) -> float:
        """Summed resident memory of the server and its workers."""
        total_kb = 0.0
        for pid in self.group_pids():
            try:
                resident = int(Path(f"/proc/{pid}/statm").read_text().split()[1])
            except (OSError, IndexError, ValueError):
                continue
            total_kb += resident * _PAGE_KB
        return total_kb / 1024

    # -- teardown --------------------------------------------------------

    def stop(self, grace: float = 10.0) -> Optional[int]:
        """Interrupt, wait, kill the rest of the group; raise if anything
        outlives that.  Returns the server's exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(grace)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        deadline = time.perf_counter() + 5.0
        while self.group_pids() and time.perf_counter() < deadline:
            time.sleep(0.02)
        leftover = self.group_pids()
        if leftover:
            raise ServerError(f"processes left over after teardown: {leftover}")
        return self.proc.returncode

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def _stat_fields(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/PID/stat`` after the command name: index 0 is
    the state, 2 the process group, 11/12 user/system clock ticks."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rindex(")") + 2:].split()


def serve_argv(entry: List[str], network: Path, trips: Path, shards: int) -> List[str]:
    """The deployment every workload runs (see README.md)."""
    return entry + [
        "serve", "--network", str(network), "--trips", str(trips),
        "--backend", "processes", "--shards", str(shards),
        "--function", "edr", "--host", "127.0.0.1", "--port", "0",
    ]
