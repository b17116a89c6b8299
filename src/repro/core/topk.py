"""Top-k subtrajectory similarity search.

The paper's effectiveness study (§6.2.1, Table 3) uses a top-k setting
when thresholded search returns too few results.  This module implements
top-k on top of the exact threshold engine by *iterative threshold
doubling*: query with a small ``tau``, and widen until ``k`` distinct
trajectories respond.  Every intermediate result is exact, so the final
top-k is exact as well.

The loop runs *above* the engine — each probe is one ordinary range
query, so on a :class:`~repro.core.partitioned.PartitionedSubtrajectorySearch`
every round fans out to all shards through the unchanged range-query
descriptors (worker pipes, remote-node RPC, supervision, retry-once and
journal replay all apply as-is).  Per-trajectory bests accumulate
*across* rounds, and the current k-th-best distance feeds back as the
stopping bound on tau: a range probe at ``tau`` surfaces every match
with distance ``< tau``, so once ``k`` distinct trajectories are in
hand their k-th-best distance ``d_k < tau`` upper-bounds any unseen
trajectory's best distance (``>= tau > d_k``) — no wider probe can
change the answer, and expansion stops there instead of growing toward
the degenerate-query ceiling.  The cross-round accumulation is also
what keeps degraded rounds sound: a shard that answered round ``i`` and
died in round ``i+1`` keeps its round-``i`` contributions, and the
result is flagged ``complete=False`` rather than silently short.

When the expansion does hit the ceiling (``tau`` may not reach the
query's total insertion cost), a Smith–Waterman sweep over the unseen
remainder completes the answer; the sweep checks the cancellation token
between trajectories so an expired deadline stops within one
trajectory's O(|P||Q|) scan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.apps._common import best_match_per_trajectory
from repro.core.cancellation import raise_if_cancelled
from repro.core.results import Match
from repro.distance.smith_waterman import best_match
from repro.exceptions import QueryError

__all__ = ["TopKResult", "topk_search"]

def _rank_key(m: Match) -> tuple:
    """Ranking order of the final list: distance first, then the
    deterministic (id, start, end) tie-break so equal-distance answers
    are stable across backends and runs."""
    return (m.distance, m.trajectory_id, m.start, m.end)


@dataclass(slots=True)
class TopKResult:
    """The ``k`` best per-trajectory matches plus search provenance.

    Behaves as a sequence of :class:`~repro.core.results.Match` (ranked
    best-first), so code written against the old ``List[Match]`` return
    of :func:`topk_search` keeps working unchanged.
    """

    #: ranked matches, best first; at most ``k`` (fewer when the dataset
    #: holds fewer trajectories).
    matches: List[Match]
    #: the k this answer was computed for.
    k: int
    #: trajectories tied at the k-th distance that ``matches[:k]`` cut —
    #: callers that care about tie completeness can detect the truncation
    #: instead of mistaking the cut for a strict ranking.
    ties_at_k: int = 0
    #: threshold probe rounds run (tau expansions = ``tau_rounds - 1``).
    tau_rounds: int = 0
    #: the last threshold probed.
    tau_final: float = 0.0
    #: trajectories scanned by the Smith–Waterman exhaustion sweep (0
    #: when threshold expansion alone answered).
    swept: int = 0
    #: candidates verified across all probe rounds.
    num_candidates: int = 0
    #: engine stage seconds summed across all probe rounds.
    mincand_seconds: float = 0.0
    lookup_seconds: float = 0.0
    verify_seconds: float = 0.0
    #: False when any probe round was served partially (``allow_partial``
    #: with shards down): trajectories on the shards listed in
    #: :attr:`degraded_shards` may be missing or mis-ranked.  Never
    #: silently short — the flag travels with the answer.
    complete: bool = True
    degraded_shards: Tuple[int, ...] = ()

    @property
    def total_seconds(self) -> float:
        """Engine time summed over every probe round."""
        return self.mincand_seconds + self.lookup_seconds + self.verify_seconds

    def __len__(self) -> int:
        return len(self.matches)

    def __iter__(self) -> Iterator[Match]:
        return iter(self.matches)

    def __getitem__(self, index):
        return self.matches[index]

    def covers(self, k: int) -> bool:
        """Whether this answer can serve a request for ``k`` results: it
        was computed at ``k' >= k``, or it already ranks the entire
        dataset (``matches`` ran out before ``k'`` — no deeper answer
        exists)."""
        return k <= self.k or len(self.matches) < self.k

    def at_k(self, k: int) -> "TopKResult":
        """This answer re-cut for a smaller (or covered) ``k``.

        The serving layer's reuse rule: a cached top-k' at ``k' >= k``
        answers ``k`` by truncation, with :attr:`ties_at_k` recomputed
        for the new cut.  Raises :class:`~repro.exceptions.QueryError`
        when this answer does not cover ``k`` (see :meth:`covers`).
        """
        if k <= 0:
            raise QueryError("k must be positive")
        if not self.covers(k):
            raise QueryError(
                f"top-{self.k} answer cannot serve k={k} (only a full "
                "ranking answers beyond its own k)"
            )
        if k == self.k:
            return self
        if len(self.matches) <= k:
            # The ranking ran out of trajectories before the new cut:
            # nothing is truncated (ties_at_k was already 0).
            return replace(self, k=k)
        matches = self.matches[:k]
        kth = matches[-1].distance
        ties = sum(1 for m in self.matches[k:] if m.distance == kth)
        if self.matches and self.matches[-1].distance == kth:
            # The stored cut at self.k fell on the same distance: the
            # entries it dropped are ties at the new cut too.
            ties += self.ties_at_k
        return replace(self, matches=matches, k=k, ties_at_k=ties)


def _engine_surfaces(engine):
    """The public ``costs`` / ``dataset`` accessors top-k builds on.

    Raises a typed :class:`~repro.exceptions.QueryError` (not a bare
    ``AttributeError``) when the engine does not expose them — the
    actionable message names what a supported engine provides.
    """
    costs = getattr(engine, "costs", None)
    dataset = getattr(engine, "dataset", None)
    if costs is None or dataset is None:
        raise QueryError(
            f"{type(engine).__name__} does not support top-k search: the "
            "engine must expose public 'costs' and 'dataset' accessors "
            "(SubtrajectorySearch and PartitionedSubtrajectorySearch do)"
        )
    return costs, dataset


def topk_search(
    engine,
    query: Sequence[int],
    k: int,
    *,
    initial_tau_ratio: float = 0.05,
    growth: float = 2.0,
    cancel=None,
    allow_partial: bool = False,
    trace=None,
) -> TopKResult:
    """The ``k`` most similar subtrajectories, one per trajectory.

    ``engine`` is a :class:`~repro.core.engine.SubtrajectorySearch` or a
    :class:`~repro.core.partitioned.PartitionedSubtrajectorySearch` (any
    backend — each threshold probe is one ordinary fan-out range query).
    Returns a :class:`TopKResult` of up to ``k`` matches ordered by
    ``(distance, trajectory_id, start, end)``; fewer when the dataset
    holds fewer trajectories.  Ties at the k-th distance are cut
    deterministically and counted in :attr:`TopKResult.ties_at_k`.

    ``cancel`` (a :class:`~repro.core.cancellation.CancelToken`) is
    threaded into every probe round *and* the exhaustion sweep, which
    checks it between trajectories.  ``allow_partial`` opts probe rounds
    into graceful degradation on engines that support it (shards down
    mark the answer ``complete=False``).  ``trace`` (a
    :class:`repro.obs.tracing.Span`, or None) collects one child span
    per probe round plus a sweep span.
    """
    if k <= 0:
        raise QueryError("k must be positive")
    # Written so NaN fails them too: a NaN growth would never reach the
    # exhaustion bound and the expansion loop would never end.
    if not growth > 1.0:
        raise QueryError("growth must exceed 1")
    if not initial_tau_ratio > 0:
        raise QueryError("initial_tau_ratio must be positive")
    costs, dataset = _engine_surfaces(engine)
    total_ins = sum(costs.ins(q) for q in query)
    if total_ins <= 0:
        raise QueryError("query has zero total insertion cost")
    c_total = sum(costs.filter_cost(q) for q in query)
    tau = max(min(initial_tau_ratio * c_total, total_ins * 0.5), 1e-9)

    probe_kwargs: Dict[str, object] = {}
    if allow_partial and hasattr(engine, "merge_shard_results"):
        # Only partitioned engines degrade; the single-node engine's
        # query() does not take the flag.
        probe_kwargs["allow_partial"] = True

    best: Dict[int, Match] = {}
    degraded: set = set()
    rounds = 0
    swept = 0
    candidates = 0
    mincand = lookup = verify = 0.0
    while True:
        raise_if_cancelled(cancel, "topk probe")
        span = (
            None
            if trace is None
            else trace.child("topk_round", round=rounds, tau=float(tau))
        )
        try:
            result = engine.query(
                query, tau=tau, cancel=cancel, trace=span, **probe_kwargs
            )
        except BaseException as exc:
            if span is not None:
                span.set("error", type(exc).__name__)
            raise
        finally:
            if span is not None:
                span.finish()
        rounds += 1
        degraded.update(result.degraded_shards)
        candidates += result.num_candidates
        mincand += result.mincand_seconds
        lookup += result.lookup_seconds
        verify += result.verify_seconds
        # Accumulate across rounds (same §6.2.1 tie-break as one round):
        # a shard that answered an earlier round keeps its contribution
        # even if it degrades later.
        best = best_match_per_trajectory(list(best.values()) + result.matches)
        if len(best) >= k:
            # k-th-best feedback: every match with distance < tau is in
            # hand, so the k-th best distance d_k < tau and every unseen
            # trajectory sits at >= tau > d_k — tau has reached the
            # tightening bound and no wider probe can change the answer.
            break
        next_tau = tau * growth
        if next_tau >= total_ins:
            # Threshold expansion exhausted (tau must stay below the
            # query's total insertion cost): sweep the trajectories that
            # still have no match with the O(|P||Q|) best-substring scan.
            sweep_span = (
                None if trace is None else trace.child("topk_sweep")
            )
            # Under degradation the sweep must not quietly resurrect a
            # dead shard's trajectories from the coordinator's mirror:
            # a partial answer is *exactly* the live-shard answer, so
            # skip trajectories placed on shards that failed to probe.
            num_shards = getattr(engine, "num_shards", 0)
            try:
                for tid in range(len(dataset)):
                    if tid in best:
                        continue
                    if degraded and num_shards and tid % num_shards in degraded:
                        continue
                    # The whole point of threading the token here: the
                    # sweep is O(|T|·|P||Q|) and must stop within one
                    # trajectory of a cancel/deadline, not run to the end.
                    raise_if_cancelled(cancel, "topk sweep")
                    s, t, d = best_match(dataset.symbols(tid), query, costs)
                    if t >= s:
                        best[tid] = Match(tid, s, t, d)
                    swept += 1
            except BaseException as exc:
                if sweep_span is not None:
                    sweep_span.set("error", type(exc).__name__)
                raise
            finally:
                if sweep_span is not None:
                    sweep_span.set("swept", swept)
                    sweep_span.finish()
            break
        tau = next_tau

    ranked = sorted(best.values(), key=_rank_key)
    top = ranked[:k]
    ties = 0
    if len(ranked) > k and top:
        kth = top[-1].distance
        ties = sum(1 for m in ranked[k:] if m.distance == kth)
    result = TopKResult(
        matches=top,
        k=k,
        ties_at_k=ties,
        tau_rounds=rounds,
        tau_final=tau,
        swept=swept,
        num_candidates=candidates,
        mincand_seconds=mincand,
        lookup_seconds=lookup,
        verify_seconds=verify,
        complete=not degraded,
        degraded_shards=tuple(sorted(degraded)),
    )
    if trace is not None:
        trace.set("k", int(k))
        trace.set("tau_rounds", rounds)
        trace.set("ties_at_k", ties)
        trace.set("swept", swept)
        if degraded:
            trace.set("degraded_shards", sorted(degraded))
    return result
