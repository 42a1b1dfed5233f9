"""The one way this package remembers: a bounded LRU memo with counters.

The paper's O(1) query cost rests on precomputed, cached shortest paths
(Section V-A4); every cache in ``src/repro`` that bounds itself is a
:class:`BoundedMemo`.  Each one memoises a *pure* function of its key,
so hits, misses and evictions change how fast an answer is reached,
never the answer — which is why the dispatch path may write to one.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable
from typing import TypeVar

K = TypeVar("K")
V = TypeVar("V")


class BoundedMemo(OrderedDict[K, V]):
    """LRU memo holding at most ``capacity`` entries.

    :meth:`lookup` and :meth:`store` are the counted, recency-tracking
    accessors.  The inherited read-only ``dict`` surface (``get``,
    ``in``, ``len``, ``values``) stays available at C speed for peeks
    that should neither count nor touch.  The tallies are plain
    integers on purpose: memos sit on the hottest paths, so the
    observability layer harvests them in bulk at the end of a run
    instead of being called per query.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"memo capacity must be >= 1, got {capacity}")
        super().__init__()
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: K) -> V | None:
        """The value stored under ``key`` (now most recent), or ``None``."""
        try:
            value = self[key]
        except KeyError:
            self.misses += 1
            return None
        self.move_to_end(key)
        self.hits += 1
        return value

    def store(self, key: K, value: V) -> V:
        """Remember ``value`` as most recent, evicting the oldest beyond capacity."""
        self[key] = value
        self.move_to_end(key)
        while len(self) > self.capacity:
            self.popitem(last=False)
            self.evictions += 1
        return value

    def stats(self) -> dict[str, int]:
        """``hits`` / ``misses`` / ``evictions`` tallies and the ``entries`` gauge."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self),
            "evictions": self.evictions,
        }


def memo_stats(named: Iterable[tuple[str, BoundedMemo]]) -> dict[str, int]:
    """``{"<name>_<field>": value}`` over named memos; equal names add up."""
    out: dict[str, int] = {}
    for name, memo in named:
        for field, value in memo.stats().items():
            key = f"{name}_{field}"
            out[key] = out.get(key, 0) + value
    return out
