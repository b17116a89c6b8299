"""Percentiles with sample counts, and span self time."""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

MIN_BEYOND = 10  # samples a reported percentile must have above it


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values: Sequence[float], p: float) -> Tuple[float, int]:
    """Nearest-rank ``p``-th percentile and the sample count.

    Refuses (``TooFewSamples``) when fewer than ``MIN_BEYOND`` samples lie
    beyond the percentile: with 100 samples there is a p50 and a p90 but
    no p95."""
    n = len(values)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(f"p{p:g} of {n} samples has {max(n - rank, 0)} beyond it")
    return sorted(values)[rank - 1], n


def highest_percentile(values: Sequence[float], candidates=(99.0, 95.0, 90.0)):
    """The highest of ``candidates`` the sample supports, as ``(p, value)``,
    or ``None``."""
    for p in candidates:
        try:
            return p, percentile(values, p)[0]
        except TooFewSamples:
            continue
    return None


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by ``intervals``; overlaps count once."""
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover."""
    clipped: List[Tuple[float, float]] = [
        (max(lo, start), min(hi, end)) for lo, hi in children if hi > start and lo < end
    ]
    return (end - start) - union_length(clipped)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
