"""Serving benchmark: ``repro serve`` driven over HTTP by a closed loop.

    python3 perfbench/run.py --workload range_unique --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the workload untraced and then against the
traced entry point (``traced_serve.py``) and reports the per-layer
ledger.  Every reply of every run is checked against an in-process
reference.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are the human-readable report.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SHARDS = 2  # one shard worker per core of the reference machine
CONNECTIONS = 2
SETUP_REPEATS = 7  # server launches per untraced run; setup_s is their median
WARMUP_SHARE, MIN_WARMUP = 0.1, 3.0
REQUEST_TIMEOUT = 20.0
WALL_CAP = 170.0  # a run that is not done by then fails
CHECK_PROCESSES = 2


class RunFailed(RuntimeError):
    pass


@dataclass
class Phase:
    """One server's life under load."""

    setup_seconds: float
    load: "LoadResult"  # perfbench.client; imported late, after src/ is on sys.path
    cpu: Dict[str, float]  # CPU seconds spent inside the timed window
    rss_mb: float
    stats_before: dict
    stats_after: dict
    spans_path: Optional[Path]


def _cpu_sampler(server, at: List[float], out: List[dict], done: threading.Event):
    """Sample the server's CPU at each time in ``at`` until ``done``."""

    def sample():
        for when in at:
            if done.wait(max(0.0, when - time.perf_counter())):
                return
            out.append(server.cpu_seconds())

    thread = threading.Thread(target=sample, daemon=True)
    thread.start()
    return thread


def run_phase(argv, env, requests, seconds: float, spans_path=None) -> Phase:
    from perfbench.client import run_closed_loop
    from perfbench.server import Server

    warmup = max(MIN_WARMUP, WARMUP_SHARE * seconds)
    with Server(argv, shards=SHARDS, env=env, cwd=ROOT, start_timeout=60.0) as server:
        before = server.get("/stats")
        start = time.perf_counter()
        samples: List[dict] = []
        done = threading.Event()
        sampler = _cpu_sampler(
            server, [start + warmup, start + warmup + seconds], samples, done
        )
        load = run_closed_loop(
            server.host, server.port, requests, connections=CONNECTIONS,
            warmup=warmup, seconds=seconds, request_timeout=REQUEST_TIMEOUT,
        )
        done.set()
        sampler.join()
        while len(samples) < 2:  # the list drained before the window closed
            samples.append(server.cpu_seconds())
        after = server.get("/stats")
        rss = server.rss_mb()
        cpu = {key: samples[1][key] - samples[0][key] for key in samples[0]}
        setup = server.setup_seconds
    return Phase(setup, load, cpu, rss, before, after, spans_path)


# -- metrics -----------------------------------------------------------------


def _reads(records):
    return [r for r in records if r.ok and r.kind != "insert"]


def _throughput(load) -> float:
    done = sum(1 for r in load.timed() if r.ok)
    return done / (load.window_end - load.window_start)


def kind_latencies(load) -> Dict[str, List[float]]:
    timed = [r for r in load.timed() if r.ok]
    out = {"read": [r.latency_ms for r in timed if r.kind != "insert"]}
    for kind in ("range", "topk", "insert"):
        out[kind] = [r.latency_ms for r in timed if r.kind == kind]
    return out


def end_to_end(phase: Phase, setups: List[float]) -> Dict[str, float]:
    from perfbench.stats import percentile

    reads = kind_latencies(phase.load)["read"]
    return {
        "setup_s": statistics.median(setups),
        "throughput_rps": _throughput(phase.load),
        "read_p50_ms": percentile(reads, 50)[0],
        "read_p95_ms": percentile(reads, 95)[0],
        "server_rss_mb": phase.rss_mb,
    }


def _delta(phase: Phase, *path: str) -> float:
    def get(stats):
        for key in path:
            stats = stats[key]
        return stats

    return get(phase.stats_after) - get(phase.stats_before)


def traced_requests(traced: Phase):
    """The traced phase's requests inside its timed window."""
    from perfbench.ledger import load_spans, requests_in_window

    load = traced.load
    return requests_in_window(load_spans(traced.spans_path), load.window_start, load.window_end)


def per_layer(untraced: Phase, traced: Phase, requests) -> Dict[str, float]:
    from perfbench.ledger import layer_metrics
    from perfbench.stats import mean, percentile, ratio

    reads = _reads(untraced.load.timed())
    topks = [r for r in reads if r.kind == "topk"]
    computed_topks = [r for r in topks if not r.reply["cached"] and not r.reply["coalesced"]]
    done = sum(1 for r in untraced.load.timed() if r.ok)
    inserts = sum(1 for r in untraced.load.records if r.ok and r.kind == "insert")
    substitution_lookups = _delta(untraced, "substitution_cache", "hits") + _delta(
        untraced, "substitution_cache", "misses"
    )
    metrics = {
        "http.gap_ms": percentile(
            [r.latency_ms - 1e3 * r.reply["seconds"] for r in reads], 50
        )[0],
        "http.response_kb": mean([r.reply_bytes / 1024 for r in reads]),
        "cache.hit_rate": ratio(sum(r.reply["cached"] for r in reads), len(reads)),
        "cache.coalesce_rate": ratio(sum(r.reply["coalesced"] for r in reads), len(reads)),
        "cache.invalidations_per_insert": ratio(_delta(untraced, "invalidations"), inserts),
        "executor.rejected": _delta(untraced, "rejected"),
        "substitution_cache.hit_rate": ratio(
            _delta(untraced, "substitution_cache", "hits"), substitution_lookups
        ),
        "topk.tau_rounds": mean([r.reply["tau_rounds"] for r in computed_topks]),
        "topk.swept_share": ratio(
            sum(r.reply["swept"] > 0 for r in computed_topks), len(computed_topks)
        ),
        "cpu.parent_ms_per_req": 1e3 * ratio(untraced.cpu["parent"], done),
        "cpu.workers_ms_per_req": 1e3 * ratio(untraced.cpu["workers"], done),
        "trace.overhead": ratio(_throughput(traced.load), _throughput(untraced.load)),
    }
    metrics.update(layer_metrics(requests))
    traced_reads = _reads(traced.load.timed())
    server_reads = [r.root.seconds for r in requests if r.is_read]
    metrics["http.wire_ms"] = mean([r.latency_ms for r in traced_reads]) - 1e3 * mean(
        server_reads
    )
    return metrics


# -- provenance --------------------------------------------------------------


def provenance(seed: int, requests_by_kind: Dict[str, int]) -> dict:
    import numpy

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "seed": seed,
        "requests": requests_by_kind,
    }


def _commit() -> str:
    """The git commit, or a digest of ``src/`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


# -- report ------------------------------------------------------------------


def _print_latencies(label: str, load) -> None:
    from perfbench.stats import highest_percentile, percentile, TooFewSamples

    for kind, values in kind_latencies(load).items():
        if not values:
            continue
        parts = []
        try:
            parts.append(f"p50 {percentile(values, 50)[0]:.2f} ms")
        except TooFewSamples:
            parts.append("p50 -")
        top = highest_percentile(values)
        if top is not None:
            parts.append(f"p{top[0]:g} {top[1]:.2f} ms")
        print(f"  {label} {kind:<7} {', '.join(parts)} (n={len(values)})")


def _print_self_times(requests) -> None:
    from perfbench.ledger import self_times

    reads = [r for r in requests if r.is_read]
    if not reads:
        return
    print(f"  self time per read request, traced (n={len(reads)}):")
    for name, ms in sorted(self_times(reads).items(), key=lambda kv: -kv[1]):
        print(f"    {name:<16} {ms:9.3f} ms/req")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    def on_signal(signum, frame):
        # Raised in the main thread, so every server and pool is torn
        # down on the way out.
        if signum == signal.SIGALRM:
            raise RunFailed(f"run exceeded its {WALL_CAP:.0f} s wall-clock cap")
        raise RunFailed(f"stopped by signal {signum}")

    for signum in (signal.SIGALRM, signal.SIGTERM):
        signal.signal(signum, on_signal)
    signal.alarm(int(WALL_CAP))
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    from perfbench.stats import TooFewSamples

    try:
        return _run(args, workdir)
    except TooFewSamples as exc:
        print(f"perfbench: {exc}; the run is too short for its percentiles", file=sys.stderr)
        return 3
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 4
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass


def _run(args, workdir: Path) -> int:
    from perfbench.check import check_run, compute_references, inserts_of, reference_tasks
    from perfbench.server import serve_argv
    from perfbench.workloads import build_requests, deployment, write_deployment

    dataset = deployment()
    network, trips = write_deployment(workdir, dataset)
    requests = build_requests(args.workload, args.seed, dataset)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    untraced_argv = serve_argv([sys.executable, "-m", "repro"], network, trips, SHARDS)

    phases: Dict[str, Phase] = {}
    setups: List[float] = []
    if args.trace == 0:
        from perfbench.server import Server

        for _ in range(SETUP_REPEATS - 1):
            with Server(untraced_argv, shards=SHARDS, env=env, cwd=ROOT,
                        start_timeout=60.0) as server:
                setups.append(server.setup_seconds)
    # A traced run splits its seconds between an untraced and a traced
    # phase, so it takes no longer than an untraced run.
    seconds = args.seconds if args.trace == 0 else args.seconds / 2
    phases["untraced"] = run_phase(untraced_argv, env, requests, seconds)
    setups.append(phases["untraced"].setup_seconds)
    if args.trace == 1:
        spans = workdir / "spans.jsonl"
        traced_entry = [sys.executable, str(HERE / "traced_serve.py"), str(spans)]
        traced_argv = serve_argv(traced_entry, network, trips, SHARDS)
        phases["traced"] = run_phase(traced_argv, env, requests, seconds, spans)
    checked_at = time.perf_counter()

    # -- answer check (outside every timed window) --------------------------
    records = [r for phase in phases.values() for r in phase.load.records]
    inserted = sorted(
        {(w.index, requests[w.index].path, requests[w.index].timestamps)
         for w in inserts_of(records)}
    )
    references = compute_references(
        str(network), str(trips), reference_tasks(records, requests), inserted,
        CHECK_PROCESSES,
    )
    problems = [
        f"{name}: {problem}"
        for name, phase in phases.items()
        for problem in check_run(phase.load.records, requests, references)
    ]
    check_seconds = time.perf_counter() - checked_at

    # -- report --------------------------------------------------------------
    attempted = len(records)
    failed = sum(1 for r in records if not r.ok)
    by_kind: Dict[str, int] = {}
    for r in records:
        by_kind[r.kind] = by_kind.get(r.kind, 0) + 1
    record = provenance(args.seed, by_kind)
    record.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  machine: {record['nproc']} cpus {record['cpu_affinity']}, {record['cpu_model']}, "
          f"python {record['python']}, numpy {record['numpy']}, commit {record['commit']}")
    for name, phase in phases.items():
        load = phase.load
        print(f"  {name}: {len(load.timed())} timed requests over "
              f"{load.window_end - load.window_start:.2f} s"
              + (" (request list drained early)" if load.drained else ""))
        _print_latencies(name, load)
    print(f"  requests {by_kind}, failed {failed}/{attempted} "
          f"(error_rate {failed / attempted:.4f})")
    print(f"  answer check: {len(problems)} mismatches against {len(references)} "
          f"reference answers ({check_seconds:.1f} s)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace == 0:
        metrics = end_to_end(phases["untraced"], setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        print(f"  setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}")
    else:
        requests_traced = traced_requests(phases["traced"])
        metrics = per_layer(phases["untraced"], phases["traced"], requests_traced)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        _print_self_times(requests_traced)
    for name, value in metrics.items():
        print(f"  {name:<32} {value:12.4f} {units[name]}")
    for problem in problems[:20]:
        print(f"  ANSWER MISMATCH {problem}")
    record.update(metrics=metrics, problems=len(problems))
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.path[0] = str(ROOT)  # import perfbench as a package, not its modules
    sys.exit(main())
