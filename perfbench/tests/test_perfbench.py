"""Tests for the benchmark's own logic (no server is started)."""

from __future__ import annotations

import pytest

from perfbench.check import Expected, check_range, check_topk
from perfbench.client import Record
from perfbench.stats import TooFewSamples, percentile, self_time, union_length
from perfbench.workloads import build_requests, deployment


@pytest.fixture(scope="module")
def dataset():
    return deployment()


@pytest.mark.parametrize("workload", ["range_unique", "zipf_hot", "mixed_ingest"])
def test_same_seed_same_requests_other_seed_other_requests(dataset, workload):
    first = build_requests(workload, 3, dataset)
    assert build_requests(workload, 3, dataset) == first
    assert build_requests(workload, 4, dataset) != first


def test_workload_shapes(dataset):
    unique = build_requests("range_unique", 1, dataset)
    assert len({r.path for r in unique}) == len(unique)
    assert {len(r.path) for r in unique} == {12, 24}
    assert len({r.path for r in build_requests("zipf_hot", 1, dataset)}) <= 64
    mixed = build_requests("mixed_ingest", 1, dataset)
    assert {r.kind for r in mixed} == {"range", "topk", "insert"}
    assert len({r.path for r in mixed if r.kind != "insert"}) <= 24
    assert {r.k for r in mixed if r.kind == "topk"} == {3, 5, 8}


def test_percentile_reports_sample_count():
    values = list(range(1, 101))
    assert percentile(values, 50) == (50, 100)
    assert percentile(values, 90) == (90, 100)


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    values = list(range(100))
    with pytest.raises(TooFewSamples):
        percentile(values, 95)  # only 5 samples beyond
    assert percentile(list(range(200)), 95)[1] == 200  # exactly 10 beyond
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)


def test_self_time_counts_overlapping_children_once():
    # Two parallel children covering [2, 6] and [4, 8] inside [0, 10]:
    # together they cover 6 units, not 8.
    assert union_length([(2, 6), (4, 8)]) == 6
    assert self_time(0, 10, [(2, 6), (4, 8)]) == 4
    # A child sticking out of its parent only counts inside it.
    assert self_time(0, 10, [(8, 12)]) == 8
    assert self_time(0, 10, []) == 10


def _record(kind, sent, received, reply):
    return Record(0, kind, sent, received, 200, reply, 0)


def _range_reply(matches):
    return {
        "matches": [
            {"trajectory": t, "start": s, "end": e, "distance": d} for t, s, e, d in matches
        ],
        "total_matches": len(matches),
    }


class _Insert:
    """An insert window as the check sees it."""

    def __init__(self, index, trajectory, sent, received):
        self.index, self.trajectory = index, trajectory
        self.sent, self.received = sent, received


BASE = [(1, 0, 3, 0.0), (5, 2, 4, 1.0)]
# Request 40 inserted trip 2000, whose range match is (0, 2, 0.5).
EXPECTED = Expected(list(BASE), {40: [(0, 0, 2, 0.5)]})
NEW = (2000, 0, 2, 0.5)


def test_range_check_accepts_in_flight_insert_either_way():
    in_flight = [_Insert(40, 2000, sent=1.0, received=3.0)]
    for served in (BASE, BASE + [NEW]):
        record = _record("range", 2.0, 2.5, _range_reply(served))
        assert check_range(record, EXPECTED, in_flight) is None


def test_range_check_requires_committed_insert():
    committed = [_Insert(40, 2000, sent=0.0, received=1.0)]
    record = _record("range", 2.0, 2.5, _range_reply(BASE))
    assert check_range(record, EXPECTED, committed) is not None
    record = _record("range", 2.0, 2.5, _range_reply(BASE + [NEW]))
    assert check_range(record, EXPECTED, committed) is None


def test_range_check_rejects_dropped_or_altered_match():
    dropped = _record("range", 2.0, 2.5, _range_reply(BASE[:1]))
    assert check_range(dropped, EXPECTED, []) is not None
    altered = _record("range", 2.0, 2.5, _range_reply([BASE[0], (5, 2, 4, 1.0000001)]))
    assert check_range(altered, EXPECTED, []) is not None
    future = _record("range", 2.0, 2.5, _range_reply(BASE + [NEW]))
    assert check_range(future, EXPECTED, [_Insert(40, 2000, 3.0, 3.5)]) is not None


def _topk_reply(matches):
    return {
        "results": [
            {"rank": i, "trajectory": t, "start": s, "end": e, "distance": d}
            for i, (t, s, e, d) in enumerate(matches, start=1)
        ]
    }


def test_topk_check_accepts_in_flight_insert_either_way():
    expected = Expected(list(BASE), {40: [NEW]})
    in_flight = [_Insert(40, 2000, sent=1.0, received=3.0)]
    without = _record("topk", 2.0, 2.5, _topk_reply(BASE))
    with_new = _record("topk", 2.0, 2.5, _topk_reply([BASE[0], NEW]))
    assert check_topk(without, 2, expected, in_flight) is None
    assert check_topk(with_new, 2, expected, in_flight) is None
    assert check_topk(without, 2, expected, []) is None
    assert check_topk(with_new, 2, expected, []) is not None


def test_topk_check_rejects_dropped_or_altered_match():
    expected = Expected(list(BASE), {})
    assert check_topk(_record("topk", 0, 1, _topk_reply(BASE[:1])), 2, expected, []) is not None
    altered = [BASE[0], (5, 2, 4, 0.9)]
    assert check_topk(_record("topk", 0, 1, _topk_reply(altered)), 2, expected, []) is not None
