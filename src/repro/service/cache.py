"""LRU result cache for the serving layer.

Keys are the normalized query signatures of
:func:`repro.core.engine.query_signature` (range) and
:func:`repro.core.engine.topk_signature` (top-k): two requests with the
same signature are guaranteed the same answer *on an unchanged dataset*,
so a cached :class:`~repro.core.engine.QueryResult` can be returned
verbatim, and a cached :class:`~repro.core.topk.TopKResult` computed at
``k' >= k`` answers ``k`` by truncation (:meth:`ResultCache.get_topk`).
The "unchanged dataset" part is the caller's contract — the serving
facade clears the cache on every online update (insert today, delete when
the engine grows one), and exposes :meth:`ResultCache.invalidate` for
finer-grained hooks.

Cached results are shared objects: callers must treat them as immutable.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional

__all__ = ["ResultCache"]


class ResultCache:
    """A thread-safe LRU map from query signature to query result.

    ``capacity`` bounds the number of retained entries; inserting beyond it
    evicts the least-recently-*used* entry (a ``get`` refreshes recency).
    ``capacity=0`` disables retention entirely (every ``get`` misses) while
    keeping the counters, so hit-rate accounting stays uniform.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        self._capacity = capacity
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._generation = 0

    @property
    def capacity(self) -> int:
        """Maximum number of retained entries."""
        return self._capacity

    @property
    def generation(self) -> int:
        """Bumped by every :meth:`clear`.  Capture it before computing a
        value and pass it to :meth:`put` to avoid re-caching a result that
        an invalidation raced past (compute started pre-clear, put lands
        post-clear)."""
        with self._lock:
            return self._generation

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, refreshing its recency — or ``None``."""
        return self._lookup(key)

    def get_topk(self, key: Hashable, k: int):
        """The cached top-k answer re-cut to ``k``
        (:meth:`~repro.core.topk.TopKResult.at_k`) — or ``None`` when no
        entry exists or the stored one is too shallow to cover ``k``
        (counted as a miss either way: the caller must compute)."""
        entry = self._lookup(key, lambda stored: stored.covers(k))
        return None if entry is None else entry.at_k(k)

    def _lookup(
        self, key: Hashable, usable: Optional[Callable[[Any], bool]] = None
    ) -> Optional[Any]:
        with self._lock:
            value = self._data.get(key)
            if value is None or (usable is not None and not usable(value)):
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(
        self,
        key: Hashable,
        value: Any,
        *,
        generation: Optional[int] = None,
        keep: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        """Insert (or refresh) one entry, evicting LRU entries beyond
        capacity.

        When ``generation`` is given and a :meth:`clear` happened since it
        was captured, the value is stale (computed against the
        pre-invalidation dataset) and the put is dropped.  When ``keep``
        is given and returns True for the entry already stored under
        ``key``, that entry stays (its recency refreshed) — the top-k
        rule that a deeper answer is never replaced by a shallower one
        computed concurrently."""
        if self._capacity == 0:
            return
        with self._lock:
            if generation is not None and generation != self._generation:
                return
            existing = self._data.get(key)
            if existing is None or keep is None or not keep(existing):
                self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self._capacity:
                self._data.popitem(last=False)

    # -- invalidation hooks -------------------------------------------------

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it was present.

        Also bumps the generation (even when nothing was cached yet): an
        in-flight compute for this key may still be running against the
        pre-invalidation state, and its eventual generation-guarded put
        must not land."""
        with self._lock:
            present = self._data.pop(key, None) is not None
            if present:
                self.invalidations += 1
            self._generation += 1
            return present

    def clear(self) -> int:
        """Drop every entry (the online-update hook) and bump the
        generation; returns the count dropped."""
        with self._lock:
            dropped = len(self._data)
            self._data.clear()
            self.invalidations += dropped
            self._generation += 1
            return dropped

    @property
    def hit_rate(self) -> float:
        """Hits over lookups since construction (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0
