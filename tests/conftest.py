"""Shared fixtures: small deterministic graphs, datasets, and cost models.

Also a stdlib hang guard for machines without ``pytest-timeout``: the
``timeout`` ini key (and the ``timeout(seconds)`` marker) then arm
:func:`faulthandler.dump_traceback_later` around each test, so a hung
test dumps every thread's traceback and ends the run instead of wedging
it.  Where the plugin is installed it owns both and this guard is off.
"""

from __future__ import annotations

import faulthandler
import importlib.util
import os
import random

import pytest

from repro.distance.costs import (
    EDRCost,
    ERPCost,
    LevenshteinCost,
    NetEDRCost,
    NetERPCost,
    SURSCost,
)
from repro.network.generators import grid_city
from repro.network.graph import RoadNetwork
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.generator import TripGenerator


if importlib.util.find_spec("pytest_timeout") is None:
    _real_stderr = []

    def pytest_addoption(parser):
        parser.addini(
            "timeout",
            "per-test timeout in seconds (faulthandler fallback)",
            default="0",
        )

    def pytest_configure(config):
        # Captured while a test runs, fd 2 would swallow the dump: keep a
        # copy of the terminal's stderr from before capture resumes.
        _real_stderr.append(os.fdopen(os.dup(2), "w"))

    def _hang_guard(item):
        # Armed per phase, not per test: pytest's own faulthandler plugin
        # cancels the timer when a test fails, and a hung teardown after a
        # failed call must still end the run.
        marker = item.get_closest_marker("timeout")
        seconds = float(
            marker.args[0] if marker is not None and marker.args
            else item.config.getini("timeout")
        )
        if seconds > 0:
            faulthandler.dump_traceback_later(
                seconds, exit=True, file=_real_stderr[0]
            )
        try:
            yield
        finally:
            faulthandler.cancel_dump_traceback_later()

    pytest_runtest_setup = pytest.hookimpl(hookwrapper=True)(_hang_guard)
    pytest_runtest_call = pytest.hookimpl(hookwrapper=True)(_hang_guard)
    pytest_runtest_teardown = pytest.hookimpl(hookwrapper=True)(_hang_guard)


@pytest.fixture(scope="session")
def small_graph() -> RoadNetwork:
    """An 8x8 jittered grid (about 64 vertices, 200+ edges)."""
    return grid_city(8, 8, seed=42)


@pytest.fixture(scope="session")
def line_graph() -> RoadNetwork:
    """A bidirectional 6-vertex line: simple hand-checkable topology."""
    g = RoadNetwork()
    for i in range(6):
        g.add_vertex((float(i), 0.0))
    for i in range(5):
        g.add_edge(i, i + 1, 1.0)
        g.add_edge(i + 1, i, 1.0)
    return g


@pytest.fixture(scope="session")
def trips(small_graph):
    gen = TripGenerator(small_graph, seed=7)
    return gen.generate(30, min_length=5, max_length=30)


@pytest.fixture(scope="session")
def vertex_dataset(small_graph, trips) -> TrajectoryDataset:
    ds = TrajectoryDataset(small_graph, "vertex")
    ds.extend(trips)
    return ds


@pytest.fixture(scope="session")
def edge_dataset(small_graph, trips) -> TrajectoryDataset:
    ds = TrajectoryDataset(small_graph, "edge")
    ds.extend(trips)
    return ds


@pytest.fixture(scope="session")
def lev_cost() -> LevenshteinCost:
    return LevenshteinCost()


@pytest.fixture(scope="session")
def edr_cost(small_graph) -> EDRCost:
    return EDRCost(small_graph, epsilon=60.0)


@pytest.fixture(scope="session")
def erp_cost(small_graph) -> ERPCost:
    return ERPCost(small_graph, eta=25.0)


@pytest.fixture(scope="session")
def netedr_cost(small_graph) -> NetEDRCost:
    return NetEDRCost(small_graph)


@pytest.fixture(scope="session")
def neterp_cost(small_graph) -> NetERPCost:
    return NetERPCost(small_graph, g_del=250.0)


@pytest.fixture(scope="session")
def surs_cost(small_graph) -> SURSCost:
    return SURSCost(small_graph)


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(12345)


def sample_query(dataset: TrajectoryDataset, rng: random.Random, length: int):
    """A random subtrajectory of a random (long-enough) trajectory."""
    eligible = [
        tid for tid in range(len(dataset)) if len(dataset.symbols(tid)) >= length
    ]
    tid = rng.choice(eligible)
    symbols = dataset.symbols(tid)
    s = rng.randrange(0, len(symbols) - length + 1)
    return list(symbols[s : s + length])
