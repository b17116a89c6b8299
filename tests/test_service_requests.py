"""Request descriptors: the one validation boundary for request input.

:class:`~repro.service.RangeRequest` and :class:`~repro.service.TopKRequest`
reject non-finite or out-of-range numbers and non-integer symbols with a
typed :class:`~repro.exceptions.QueryError`, which HTTP answers with a
400 before anything is admitted.  The HTTP regressions pin the failures
these checks close (a NaN ``growth`` that never returned, a NaN ``tau``
that silently answered nothing, out-of-alphabet and float symbols that
became a 500 or a different query); a hypothesis fuzz of the ``POST
/query`` schema pins that no body gets a 500 or outlives a client
timeout.
"""

from __future__ import annotations

import http.client
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SubtrajectorySearch
from repro.core.partitioned import PartitionedSubtrajectorySearch
from repro.core.temporal import TimeInterval
from repro.core.results import Match
from repro.core.topk import TopKResult, topk_search
from repro.distance.costs import LevenshteinCost
from repro.exceptions import QueryError, WorkerError
from repro.faultinject import FaultPlan, FaultRule
from repro.service import (
    QueryService,
    RangeRequest,
    ResultCache,
    ServiceServer,
    TopKRequest,
)
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.model import Trajectory
from tests.conftest import sample_query

#: generous per-request client timeout: every request must answer well
#: within it (the NaN-growth loop never answered at all).
CLIENT_TIMEOUT = 20.0


def _post_raw(server, body: str):
    """POST a raw JSON text to /query; returns (status, decoded body)."""
    conn = http.client.HTTPConnection(
        server.host, server.port, timeout=CLIENT_TIMEOUT
    )
    try:
        conn.request(
            "POST", "/query", body=body.encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def _pending(server) -> int:
    conn = http.client.HTTPConnection(
        server.host, server.port, timeout=CLIENT_TIMEOUT
    )
    try:
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read().decode("utf-8"))["pending"]
    finally:
        conn.close()


def _line_service(line_graph) -> QueryService:
    ds = TrajectoryDataset(line_graph)
    ds.add(Trajectory([0, 1, 2, 3], timestamps=[0, 1, 2, 3]))
    ds.add(Trajectory([2, 3, 4, 5], timestamps=[4, 5, 6, 7]))
    ds.add(Trajectory([5, 4, 3], timestamps=[8, 9, 10]))
    engine = SubtrajectorySearch(ds, LevenshteinCost())
    return QueryService(engine, max_workers=2, cache_size=32)


@pytest.fixture()
def server(line_graph):
    with ServiceServer(_line_service(line_graph)).start() as srv:
        yield srv


# ---------------------------------------------------------------------------
# Descriptor validation
# ---------------------------------------------------------------------------


class TestRangeRequest:
    def test_normalizes_fields(self):
        request = RangeRequest([1, 2], tau=1, deadline=5)
        assert request.path == (1, 2)
        assert isinstance(request.tau, float) and request.tau == 1.0
        assert request.deadline == 5.0

    @pytest.mark.parametrize(
        "fields",
        [
            {"tau": math.nan},
            {"tau": math.inf},
            {"tau": -1.0},
            {"tau": "1.0"},
            {"tau": True},
            {"tau_ratio": math.nan},
            {"tau_ratio": 1.5},
            {"tau_ratio": -0.1},
            {"tau": 1.0, "deadline": math.nan},
            {"tau": 1.0, "deadline": 0.0},
            {"tau": 1.0, "deadline": -math.inf},
            {"tau": 1.0, "allow_partial": "yes"},
            {"tau": 1.0, "temporal_mode": "sideways"},
            {"tau": 1.0, "time_interval": TimeInterval(math.nan, math.nan)},
            {"tau": 1.0, "time_interval": TimeInterval(0.0, math.inf)},
            {},
            {"tau": 1.0, "tau_ratio": 0.1},
        ],
    )
    def test_rejects_bad_fields(self, fields):
        with pytest.raises(QueryError):
            RangeRequest([1, 2], **fields)

    @pytest.mark.parametrize(
        "path", [[], "12", None, 5, [1.5, 2], [True, 1], [-1, 2], [1, "2"]]
    )
    def test_rejects_bad_paths(self, path):
        with pytest.raises(QueryError):
            RangeRequest(path, tau=1.0)


class TestTopKRequest:
    @pytest.mark.parametrize(
        "fields",
        [
            {"k": 0},
            {"k": -3},
            {"k": 2.5},
            {"k": True},
            {"k": "5"},
            {"k": 3, "growth": math.nan},
            {"k": 3, "growth": math.inf},
            {"k": 3, "growth": 1.0},
            {"k": 3, "initial_tau_ratio": math.nan},
            {"k": 3, "initial_tau_ratio": 0.0},
            {"k": 3, "initial_tau_ratio": -math.inf},
            {"k": 3, "deadline": math.nan},
        ],
    )
    def test_rejects_bad_fields(self, fields):
        with pytest.raises(QueryError):
            TopKRequest([1, 2], **fields)

    def test_store_never_replaces_a_covering_entry(self):
        cache = ResultCache(4)
        request = TopKRequest([1, 2], k=2)
        deep = TopKResult([Match(i, 0, 1, float(i)) for i in range(5)], k=5)
        shallow = TopKResult([Match(0, 0, 1, 0.0), Match(1, 0, 1, 1.0)], k=2)
        request.store(cache, "sig", deep, cache.generation)
        request.store(cache, "sig", shallow, cache.generation)
        served = request.lookup(cache, "sig")
        assert served.k == 2 and served.matches == deep.matches[:2]
        assert TopKRequest([1, 2], k=6).lookup(cache, "sig") is None


class TestTopkSearchRejectsNaN:
    """``repro query --top-k`` reaches topk_search without the service,
    so its own checks must fail NaN too (a NaN growth never ended)."""

    @pytest.mark.parametrize(
        "knobs", [{"growth": math.nan}, {"initial_tau_ratio": math.nan}]
    )
    def test_nan_knobs_raise(self, line_graph, knobs):
        ds = TrajectoryDataset(line_graph)
        ds.add(Trajectory([0, 1, 2, 3]))
        engine = SubtrajectorySearch(ds, LevenshteinCost())
        with pytest.raises(QueryError):
            topk_search(engine, [1, 2], 1, **knobs)


class TestAlphabetBound:
    def test_unknown_symbol_is_a_query_error(self, line_graph):
        service = _line_service(line_graph)
        try:
            with pytest.raises(QueryError):
                service.query([1, 10**9], tau=1.0)
            with pytest.raises(QueryError):
                service.topk([6], 1)
            assert service.stats()["errors_by_type"] == {"QueryError": 2}
        finally:
            service.close()

    def test_partitioned_view_forwards_alphabet_size(self, vertex_dataset, edr_cost):
        engine = PartitionedSubtrajectorySearch(vertex_dataset, edr_cost, num_shards=2)
        try:
            assert engine.dataset.alphabet_size() == vertex_dataset.alphabet_size()
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# HTTP regressions
# ---------------------------------------------------------------------------


class TestHTTPRejectsBadNumbers:
    def test_nan_growth_is_400_and_releases_admission(self, server):
        status, body = _post_raw(
            server, json.dumps({"path": [1, 2, 3], "k": 5, "growth": "nan"})
        )
        assert status == 400, body
        assert _pending(server) == 0

    def test_nan_tau_is_400(self, server):
        status, _ = _post_raw(server, '{"path": [1, 2, 3], "tau": NaN}')
        assert status == 400

    def test_out_of_alphabet_symbol_is_400(self, server):
        status, _ = _post_raw(
            server, json.dumps({"path": [1, 10**9], "tau": 1.0})
        )
        assert status == 400

    def test_float_symbol_is_400(self, server):
        status, _ = _post_raw(server, json.dumps({"path": [1.5, 2], "tau": 1.0}))
        assert status == 400

    def test_negative_symbol_is_400_for_topk(self, server):
        status, _ = _post_raw(server, json.dumps({"path": [-1], "k": 3}))
        assert status == 400


# ---------------------------------------------------------------------------
# 503 bodies name the shards that failed
# ---------------------------------------------------------------------------


def test_worker_error_carries_the_failed_shard(vertex_dataset, edr_cost, rng):
    engine = PartitionedSubtrajectorySearch(
        vertex_dataset,
        edr_cost,
        num_shards=3,
        backend="processes",
        fault_plan=FaultPlan(
            rules=[
                FaultRule(shard=1, op="kill_before", request=0),
                FaultRule(shard=1, op="fail_respawn", count=10_000),
            ]
        ),
    )
    service = QueryService(engine)
    try:
        with pytest.raises(WorkerError) as excinfo:
            service.query(sample_query(vertex_dataset, rng, 6), tau_ratio=0.25)
        assert excinfo.value.shards == (1,)
    finally:
        service.close(close_engine=True)


def test_broken_pipe_reads_as_dead_before_the_process_is_reaped(
    vertex_dataset, edr_cost, rng
):
    """Liveness reports the failure a request saw: a shard whose pipe
    broke is not alive, even while its process has not been reaped."""
    engine = PartitionedSubtrajectorySearch(
        vertex_dataset, edr_cost, num_shards=2, backend="processes",
        supervise=False,
    )
    try:
        engine._workers._workers[1]._conn.close()  # the process lives on
        with pytest.raises(WorkerError) as excinfo:
            engine.query(sample_query(vertex_dataset, rng, 6), tau_ratio=0.25)
        assert excinfo.value.shards == (1,)
        assert [s.alive for s in engine.worker_states()] == [True, False]
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# Schema fuzz
# ---------------------------------------------------------------------------

#: raw JSON fragments: non-finite spellings, wrong types, and valid values.
_NUMBERS = st.sampled_from(
    ['"nan"', '"inf"', "1e999", "-1e999", "NaN", "Infinity", "-Infinity",
     '"0.5"', '"x"', "[]", "{}", "true", "false", "null", "0", "-1", "0.25",
     "1", "3", "1e18"]
)
_DEADLINES = st.sampled_from(
    ['"nan"', "1e999", "NaN", "-Infinity", '"30"', "[]", "true", "null",
     "0", "-1", "30"]
)
_KS = st.sampled_from(
    ["1", "3", "0", "-2", "1000000000000000000", "2.5", "true", '"5"',
     "null", "1e999", "NaN", "[]"]
)
_PATHS = st.sampled_from(
    ["[]", '"abc"', "5", "{}", "null", "[1, 2]", "[0, 1, 2]", "[2, 3, 4]",
     "[1.5, 2]", "[1000000000]", "[-1, 2]", "[true, 1]", '[1, "2"]',
     "[1e999]", "[6]", "[[1], 2]"]
)
_FIELDS = {
    "tau": _NUMBERS,
    "tau_ratio": _NUMBERS,
    "k": _KS,
    "deadline": _DEADLINES,
    "initial_tau_ratio": _NUMBERS,
    "growth": _NUMBERS,
    "limit": _NUMBERS,
    "time_from": _NUMBERS,
    "time_to": _NUMBERS,
    "allow_partial": st.sampled_from(["true", "false", '"yes"', "1", "null"]),
    "temporal_mode": st.sampled_from(['"overlap"', '"within"', '"x"', "[]", "1"]),
}


@st.composite
def _bodies(draw) -> str:
    parts = [f'"path": {draw(_PATHS)}']
    names = draw(st.lists(st.sampled_from(sorted(_FIELDS)), unique=True, max_size=5))
    parts += [f'"{name}": {draw(_FIELDS[name])}' for name in names]
    return "{" + ", ".join(parts) + "}"


@pytest.fixture(scope="module")
def fuzz_server(line_graph):
    with ServiceServer(_line_service(line_graph)).start() as srv:
        yield srv


@settings(max_examples=300, deadline=None)
@given(body=_bodies())
def test_query_schema_fuzz_never_500s_or_hangs(fuzz_server, body):
    status, payload = _post_raw(fuzz_server, body)
    assert status in (200, 400, 503), (status, body, payload)
    assert _pending(fuzz_server) == 0
