"""Contraction hierarchies: the scalable routing backend (``mode="ch"``).

The dense all-pairs matrix of :class:`~repro.network.shortest_path.
ShortestPathEngine` is O(V²) memory — ~340 GB at the paper's 214k-vertex
Chengdu scale — and the lazy per-source fallback pays a full O(E log V)
Dijkstra per cold source.  This module implements the standard remedy
(Geisberger et al.; applied to taxi sharing by Laupichler & Sanders, see
PAPERS.md): contract vertices bottom-up in edge-difference order,
inserting shortcuts that preserve shortest distances, then answer
point-to-point queries with a *bidirectional upward* search whose
search space is tiny and independent of |V| in practice.  Many-to-many
queries reuse one backward search per target through meeting-vertex
buckets, so a ``cost_matrix`` over k sources and targets costs
O(k) searches instead of O(k) full Dijkstras.

Bit-identical distances
-----------------------
The engine contract says every backend returns distances bit-identical
to the scalar/scipy Dijkstra reference.  Raw CH sums (nested shortcut
weights) agree with the reference only up to floating-point rounding,
so this module never returns them: a query finds the shortest path
(raw sums are used only to *select* it), unpacks the shortcuts to the
original edge sequence, and re-accumulates the weights left-to-right
from the source — exactly the order :func:`scipy.sparse.csgraph.
dijkstra` uses along its shortest-path tree.  When the shortest path is
unique (always, for the jittered synthetic networks and real road
lengths) the rectified value equals the reference bit for bit.

Per-source rectified prefixes are memoised (an LRU of partial scipy
rows, in effect), so a dispatcher's skewed, repetitive query mix hits
an O(1) dict lookup most of the time and only pays a search + unpack
on the first visit of a (source, target) pair.

The hierarchy itself is nine flat numpy arrays (:meth:`Contraction
Hierarchy.to_arrays`) persisted as a content-addressed artifact kind
(``"ch"``) so warm runs mmap it and skip preprocessing entirely.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping, Sequence

import numpy as np

from ..memo import BoundedMemo, memo_stats
from .graph import RoadNetwork

#: Bump when the serialised array layout changes (part of the artifact key).
CH_FORMAT_VERSION = 1

#: Settled-vertex cap per witness search during contraction.  A lower cap
#: only ever inserts *more* shortcuts (witness not found in time), never
#: wrong ones, so correctness does not depend on it.
WITNESS_SETTLE_CAP = 60

#: Upward/downward search results kept per direction.
SEARCH_CACHE_SIZE = 1024

#: Per-source rectified-prefix memos kept.
RECT_CACHE_SIZE = 1024

#: Shortcut expansions kept.
EXPANSION_CACHE_SIZE = 262_144

_INF = float("inf")

#: ``(dist, pred)`` of one upward/downward search: final distances by
#: vertex in settle order, and ``pred[v] = (other_endpoint, edge_index)``.
SearchResult = tuple[dict[int, float], dict[int, tuple[int, int]]]

_ARRAY_NAMES = (
    "rank",
    "up_indptr",
    "up_head",
    "up_w",
    "up_mid",
    "down_indptr",
    "down_tail",
    "down_w",
    "down_mid",
)


class ContractionHierarchy:
    """A built contraction hierarchy over one :class:`RoadNetwork`.

    Edges of the hierarchy are split by rank into an *upward* CSR
    (``tail`` rank < ``head`` rank, indexed by tail) and a *downward*
    CSR (original direction ``tail -> row vertex`` with the row vertex
    ranked lower, indexed by the row vertex so the backward search can
    climb).  ``*_mid`` holds the contracted middle vertex of a shortcut
    or ``-1`` for an original edge.

    Use :meth:`build` (cold) or :meth:`from_arrays` (artifact-store
    warm path); the constructor itself only attaches prebuilt arrays.
    """

    #: ``stats_snapshot()`` keys that are point-in-time gauges: the
    #: shortcut count and each memo's occupancy.
    STAT_GAUGES = frozenset(
        ["sp.ch.shortcuts"]
        + [f"sp.ch.{memo}_entries" for memo in ("fwd", "bwd", "rect", "expansion")]
    )

    def __init__(self, network: RoadNetwork, arrays: Mapping[str, np.ndarray]) -> None:
        n = network.num_vertices
        missing = [name for name in _ARRAY_NAMES if name not in arrays]
        if missing:
            raise ValueError(f"hierarchy arrays missing {missing}")
        if arrays["rank"].shape != (n,):
            raise ValueError(
                f"hierarchy rank has shape {arrays['rank'].shape}, expected ({n},)"
            )
        self._network = network
        self._arrays: dict[str, np.ndarray] = {
            name: arrays[name] for name in _ARRAY_NAMES
        }
        # Plain Python lists for the query hot loops: unboxed element
        # access is several times faster than per-element numpy indexing,
        # and the O(E) conversion is milliseconds even at 200k vertices.
        # The numpy arrays (possibly memmapped) stay the storage format.
        up_indptr = self._arrays["up_indptr"]
        down_indptr = self._arrays["down_indptr"]
        self._up_indptr: list[int] = up_indptr.tolist()
        self._up_head: list[int] = self._arrays["up_head"].tolist()
        self._up_w: list[float] = self._arrays["up_w"].tolist()
        self._up_mid: list[int] = self._arrays["up_mid"].tolist()
        self._up_tail: list[int] = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(up_indptr)
        ).tolist()
        self._down_indptr: list[int] = down_indptr.tolist()
        self._down_tail: list[int] = self._arrays["down_tail"].tolist()
        self._down_w: list[float] = self._arrays["down_w"].tolist()
        self._down_mid: list[int] = self._arrays["down_mid"].tolist()
        self._down_owner: list[int] = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(down_indptr)
        ).tolist()
        self.num_vertices = n
        self.num_shortcuts = int(
            np.count_nonzero(self._arrays["up_mid"] >= 0)
            + np.count_nonzero(self._arrays["down_mid"] >= 0)
        )
        self.num_edges = len(self._up_head) + len(self._down_tail)
        # Query-side memos.
        self._fwd_memo: BoundedMemo[int, SearchResult] = BoundedMemo(SEARCH_CACHE_SIZE)
        self._bwd_memo: BoundedMemo[int, SearchResult] = BoundedMemo(SEARCH_CACHE_SIZE)
        self._rect: BoundedMemo[int, dict[int, float]] = BoundedMemo(RECT_CACHE_SIZE)
        self._expansions: BoundedMemo[
            tuple[int, int], tuple[tuple[int, float], ...]
        ] = BoundedMemo(EXPANSION_CACHE_SIZE)
        # Plain-int tallies harvested in bulk by ``stats_snapshot``.
        self._stats: dict[str, int] = {
            "queries": 0,
            "settled": 0,
            "bucket_entries": 0,
            "memo_hits": 0,
            "rect_steps": 0,
        }

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, network: RoadNetwork) -> "ContractionHierarchy":
        """Contract ``network`` bottom-up by lazy edge difference.

        Deterministic: the priority queue breaks ties by vertex id, the
        remaining-graph adjacency is insertion-ordered dicts seeded from
        the CSR, and the final per-vertex edge lists are sorted — so two
        builds of the same network produce identical arrays (the basis
        of the content-addressed artifact round-trip).
        """
        n = network.num_vertices
        csr = network.to_csr()
        indptr = csr.indptr
        cols = csr.indices
        data = csr.data
        # Remaining-graph adjacency: out_[u][v] = in_[v][u] = (weight, mid).
        # Uses the same zero-length nudge as ``to_csr`` (it *is* the CSR
        # data), so rectified sums match the scipy reference exactly.
        out_: list[dict[int, tuple[float, int]]] = [{} for _ in range(n)]
        in_: list[dict[int, tuple[float, int]]] = [{} for _ in range(n)]
        for u in range(n):
            lo, hi = int(indptr[u]), int(indptr[u + 1])
            for v, w in zip(cols[lo:hi].tolist(), data[lo:hi].tolist()):
                if v == u:
                    continue
                cur = out_[u].get(v)
                if cur is None or w < cur[0]:
                    out_[u][v] = (w, -1)
                    in_[v][u] = (w, -1)

        rank = np.full(n, -1, dtype=np.int64)
        deleted = [0] * n
        # Neighborhood version: bumped whenever an edge incident to the
        # vertex is added or removed, so shortcut sets (the expensive
        # witness searches) are recomputed only when actually stale.
        version = [0] * n
        shortcut_cache: list[tuple[int, list[tuple[int, int, float]]] | None]
        shortcut_cache = [None] * n
        up_rows: list[list[tuple[int, float, int]]] = [[] for _ in range(n)]
        down_rows: list[list[tuple[int, float, int]]] = [[] for _ in range(n)]

        def witness_dists(
            src: int, excluded: int, limit: float, targets: dict[int, int]
        ) -> dict[int, float]:
            """Bounded Dijkstra from ``src`` avoiding ``excluded``.

            Every tentative distance is the length of a real path, i.e. an
            upper bound on the true distance, which is all a witness test
            needs.  Stops as soon as all ``targets`` are settled (the
            common case, long before the settle cap).
            """
            dist: dict[int, float] = {src: 0.0}
            settled: dict[int, float] = {}
            heap: list[tuple[float, int]] = [(0.0, src)]
            remaining = len(targets) - (1 if src in targets else 0)
            while heap and len(settled) < WITNESS_SETTLE_CAP and remaining > 0:
                d, x = heapq.heappop(heap)
                if x in settled:
                    continue
                if d > limit:
                    break
                settled[x] = d
                if x in targets:
                    remaining -= 1
                for y, (w, _mid) in out_[x].items():
                    if y == excluded or y in settled:
                        continue
                    nd = d + w
                    if nd < dist.get(y, _INF):
                        dist[y] = nd
                        heapq.heappush(heap, (nd, y))
            return dist

        def shortcuts_for(v: int) -> list[tuple[int, int, float]]:
            """Shortcuts (u, w, weight) required if ``v`` were contracted."""
            ins = list(in_[v].items())
            outs = list(out_[v].items())
            needed: list[tuple[int, int, float]] = []
            if not ins or not outs:
                return needed
            max_out = max(w for _t, (w, _m) in outs)
            targets = {t: 0 for t, _wm in outs}
            for u, (w_uv, _mu) in ins:
                dist = witness_dists(u, v, w_uv + max_out, targets)
                for t, (w_vt, _mt) in outs:
                    if t == u:
                        continue
                    via = w_uv + w_vt
                    if dist.get(t, _INF) <= via:
                        continue  # a witness path avoids v
                    needed.append((u, t, via))
            return needed

        def shortcuts_cached(v: int) -> list[tuple[int, int, float]]:
            cached = shortcut_cache[v]
            if cached is not None and cached[0] == version[v]:
                return cached[1]
            needed = shortcuts_for(v)
            shortcut_cache[v] = (version[v], needed)
            return needed

        def priority_of(v: int, num_shortcuts: int) -> int:
            return num_shortcuts - len(in_[v]) - len(out_[v]) + deleted[v]

        heap: list[tuple[int, int]] = []
        for v in range(n):
            heap.append((priority_of(v, len(shortcuts_cached(v))), v))
        heapq.heapify(heap)

        next_rank = 0
        while heap:
            _p, v = heapq.heappop(heap)
            if rank[v] >= 0:
                continue
            needed = shortcuts_cached(v)
            prio = priority_of(v, len(needed))
            # Lazy update: if v no longer has the smallest priority,
            # requeue it with the fresh value and contract the new top.
            if heap and (prio, v) > heap[0]:
                heapq.heappush(heap, (prio, v))
                continue
            rank[v] = next_rank
            next_rank += 1
            for u, (w, mid) in in_[v].items():
                down_rows[v].append((u, w, mid))
                del out_[u][v]
                deleted[u] += 1
                version[u] += 1
            for t, (w, mid) in out_[v].items():
                up_rows[v].append((t, w, mid))
                del in_[t][v]
                deleted[t] += 1
                version[t] += 1
            in_[v].clear()
            out_[v].clear()
            for u, t, weight in needed:
                cur = out_[u].get(t)
                if cur is None or weight < cur[0]:
                    out_[u][t] = (weight, v)
                    in_[t][u] = (weight, v)
                    version[u] += 1
                    version[t] += 1

        arrays = cls._rows_to_arrays(rank, up_rows, down_rows)
        return cls(network, arrays)

    @staticmethod
    def _rows_to_arrays(
        rank: np.ndarray,
        up_rows: Sequence[list[tuple[int, float, int]]],
        down_rows: Sequence[list[tuple[int, float, int]]],
    ) -> dict[str, np.ndarray]:
        n = rank.shape[0]

        def pack(
            rows: Sequence[list[tuple[int, float, int]]],
        ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
            indptr = np.zeros(n + 1, dtype=np.int64)
            total = 0
            for v in range(n):
                total += len(rows[v])
                indptr[v + 1] = total
            other = np.empty(total, dtype=np.int64)
            weight = np.empty(total, dtype=np.float64)
            mid = np.empty(total, dtype=np.int64)
            k = 0
            for v in range(n):
                for o, w, m in sorted(rows[v]):
                    other[k] = o
                    weight[k] = w
                    mid[k] = m
                    k += 1
            return indptr, other, weight, mid

        up_indptr, up_head, up_w, up_mid = pack(up_rows)
        down_indptr, down_tail, down_w, down_mid = pack(down_rows)
        return {
            "rank": rank,
            "up_indptr": up_indptr,
            "up_head": up_head,
            "up_w": up_w,
            "up_mid": up_mid,
            "down_indptr": down_indptr,
            "down_tail": down_tail,
            "down_w": down_w,
            "down_mid": down_mid,
        }

    @classmethod
    def from_arrays(
        cls, network: RoadNetwork, arrays: Mapping[str, np.ndarray]
    ) -> "ContractionHierarchy":
        """Attach a persisted hierarchy (typically mmapped .npy views)."""
        return cls(network, arrays)

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The hierarchy as named flat arrays (the serialisation format)."""
        return dict(self._arrays)

    # ------------------------------------------------------------------
    # searches
    # ------------------------------------------------------------------
    def _search(
        self,
        s: int,
        indptr: list[int],
        other: list[int],
        weight: list[float],
    ) -> SearchResult:
        dist: dict[int, float] = {}
        pred: dict[int, tuple[int, int]] = {}
        best: dict[int, float] = {s: 0.0}
        heap: list[tuple[float, int]] = [(0.0, s)]
        while heap:
            d, x = heapq.heappop(heap)
            if x in dist:
                continue
            dist[x] = d
            for k in range(indptr[x], indptr[x + 1]):
                y = other[k]
                if y in dist:
                    continue
                nd = d + weight[k]
                cur = best.get(y)
                if cur is None or nd < cur:
                    best[y] = nd
                    pred[y] = (x, k)
                    heapq.heappush(heap, (nd, y))
        self._stats["settled"] += len(dist)
        return dist, pred

    def _fwd(self, s: int) -> SearchResult:
        res = self._fwd_memo.lookup(s)
        if res is None:
            res = self._fwd_memo.store(
                s, self._search(s, self._up_indptr, self._up_head, self._up_w)
            )
        return res

    def _bwd(self, t: int) -> SearchResult:
        res = self._bwd_memo.lookup(t)
        if res is None:
            res = self._bwd_memo.store(
                t, self._search(t, self._down_indptr, self._down_tail, self._down_w)
            )
        return res

    # ------------------------------------------------------------------
    # shortcut unpacking
    # ------------------------------------------------------------------
    def _edge_up(self, row: int, head: int) -> int:
        for k in range(self._up_indptr[row], self._up_indptr[row + 1]):
            if self._up_head[k] == head:
                return k
        raise RuntimeError(f"corrupt hierarchy: no up edge {row} -> {head}")

    def _edge_down(self, row: int, tail: int) -> int:
        for k in range(self._down_indptr[row], self._down_indptr[row + 1]):
            if self._down_tail[k] == tail:
                return k
        raise RuntimeError(f"corrupt hierarchy: no down edge {tail} -> {row}")

    def _expand(self, kind: int, edge: int) -> tuple[tuple[int, float], ...]:
        """Original-edge steps ``(vertex, weight)`` of hierarchy edge ``edge``.

        ``kind`` 0 = upward edge, 1 = downward edge; steps run tail to
        head and exclude the tail vertex.  Iterative (explicit stack) so
        deeply nested shortcuts cannot hit the recursion limit; memoised
        per edge because dispatch queries unpack the same corridor edges
        over and over.
        """
        memo = self._expansions
        key = (kind, edge)
        got = memo.lookup(key)
        if got is not None:
            return got
        stack = [key]
        while stack:
            kk = stack[-1]
            if kk in memo:
                stack.pop()
                continue
            kd, ke = kk
            if kd == 0:
                mid = self._up_mid[ke]
                tail = self._up_tail[ke]
                head = self._up_head[ke]
                w = self._up_w[ke]
            else:
                mid = self._down_mid[ke]
                tail = self._down_tail[ke]
                head = self._down_owner[ke]
                w = self._down_w[ke]
            if mid < 0:
                memo.store(kk, ((head, w),))
                stack.pop()
                continue
            # Shortcut tail->head via mid: components tail->mid and
            # mid->head were recorded as mid's down/up edges when mid
            # was contracted (mid ranks below both endpoints).
            first = (1, self._edge_down(mid, tail))
            second = (0, self._edge_up(mid, head))
            e1 = memo.get(first)
            e2 = memo.get(second)
            if e1 is not None and e2 is not None:
                memo.store(kk, e1 + e2)
                stack.pop()
            else:
                if e2 is None:
                    stack.append(second)
                if e1 is None:
                    stack.append(first)
        # ``key`` was stored last, so it is the one entry eviction cannot
        # have taken.
        return memo[key]

    # ------------------------------------------------------------------
    # rectification
    # ------------------------------------------------------------------
    def _memo_for(self, s: int) -> dict[int, float]:
        memo = self._rect.lookup(s)
        if memo is None:
            memo = self._rect.store(s, {s: 0.0})
        return memo

    def _pair_steps(
        self, s: int, t: int, meet: int, fwd: SearchResult, bwd: SearchResult
    ) -> list[tuple[int, float]]:
        """Original-edge steps of the found s->t path (via ``meet``)."""
        steps: list[tuple[int, float]] = []
        chain: list[int] = []
        x = meet
        fwd_pred = fwd[1]
        while x != s:
            px, k = fwd_pred[x]
            chain.append(k)
            x = px
        for k in reversed(chain):
            steps.extend(self._expand(0, k))
        x = meet
        bwd_pred = bwd[1]
        while x != t:
            nx, k = bwd_pred[x]
            steps.extend(self._expand(1, k))
            x = nx
        return steps

    def _rectify(
        self, s: int, t: int, meet: int, fwd: SearchResult, bwd: SearchResult
    ) -> float:
        """Left-to-right re-accumulated distance of the found path.

        Populates (and reuses) the per-source memo: once a prefix vertex
        is known, its canonical distance is adopted rather than resummed,
        which both saves work and keeps every query for the same
        (source, vertex) pair returning the identical float.
        """
        memo = self._memo_for(s)
        got = memo.get(t)
        if got is not None:
            return got
        steps = self._pair_steps(s, t, meet, fwd, bwd)
        self._stats["rect_steps"] += len(steps)
        d = 0.0
        for v, w in steps:
            known = memo.get(v)
            if known is None:
                d = d + w
                memo[v] = d
            else:
                d = known
        return d

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def distance_m(self, u: int, v: int) -> float:
        """Rectified shortest-path distance in metres (``inf`` if none)."""
        if u == v:
            return 0.0
        self._stats["queries"] += 1
        memo = self._rect.get(u)
        if memo is not None:
            got = memo.get(v)
            if got is not None:
                self._rect.lookup(u)  # answered from the memo: touch, tally
                self._stats["memo_hits"] += 1
                return got
        fwd = self._fwd(u)
        bwd = self._bwd(v)
        bd = bwd[0]
        best = _INF
        meet = -1
        for m, dm in fwd[0].items():
            dt = bd.get(m)
            if dt is not None:
                cand = dm + dt
                if cand < best:
                    best = cand
                    meet = m
        if meet < 0:
            return _INF
        return self._rectify(u, v, meet, fwd, bwd)

    def cost_matrix_m(
        self, us: Sequence[int], vs: Sequence[int]
    ) -> np.ndarray:
        """Rectified ``(len(us), len(vs))`` distance matrix in metres.

        One backward search per unique target feeds meeting-vertex
        buckets; each unique source then scans its single forward search
        against the buckets (the bucket-based many-to-many query).
        Warm repeats fill rows straight from the per-source
        rectification memos; only genuinely cold pairs pay searches.
        """
        us_i = [int(u) for u in us]
        vs_i = [int(v) for v in vs]
        self._stats["queries"] += len(us_i) * len(vs_i)
        uniq_s = list(dict.fromkeys(us_i))
        uniq_t = list(dict.fromkeys(vs_i))
        # Per-source full-row fast path: every target already rectified
        # (the source memo holds ``{source: 0.0}``, so diagonal entries
        # come back 0.0 without a special case).
        rows: dict[int, list[float]] = {}
        values: dict[tuple[int, int], float] = {}
        missing: dict[int, list[int]] = {}
        for u in uniq_s:
            memo = self._rect.get(u)
            if memo is not None:
                get = memo.get
                row = [get(t) for t in vs_i]
                if None not in row:
                    rows[u] = row  # type: ignore[assignment]
                    self._rect.lookup(u)  # answered from the memo: touch, tally
                    self._stats["memo_hits"] += len(row)
                    continue
            for t in uniq_t:
                if t == u:
                    values[(u, t)] = 0.0
                    continue
                if memo is not None:
                    got = memo.get(t)
                    if got is not None:
                        values[(u, t)] = got
                        self._stats["memo_hits"] += 1
                        continue
                missing.setdefault(u, []).append(t)
        if missing:
            need_t = list(
                dict.fromkeys(t for ts in missing.values() for t in ts)
            )
            index_of = {t: j for j, t in enumerate(need_t)}
            bwd: dict[int, SearchResult] = {}
            bucket: dict[int, list[tuple[int, float]]] = {}
            for j, t in enumerate(need_t):
                res = self._bwd(t)
                bwd[t] = res
                for m, dm in res[0].items():
                    bucket.setdefault(m, []).append((j, dm))
                self._stats["bucket_entries"] += len(res[0])
            k = len(need_t)
            for u, targets in missing.items():
                fwd = self._fwd(u)
                best = [_INF] * k
                meet = [-1] * k
                for m, dm in fwd[0].items():
                    hits = bucket.get(m)
                    if hits is None:
                        continue
                    for j, dt in hits:
                        cand = dm + dt
                        if cand < best[j]:
                            best[j] = cand
                            meet[j] = m
                for t in targets:
                    j = index_of[t]
                    if meet[j] < 0:
                        values[(u, t)] = _INF
                    else:
                        values[(u, t)] = self._rectify(u, t, meet[j], fwd, bwd[t])
        out = np.empty((len(us_i), len(vs_i)), dtype=np.float64)
        for i, u in enumerate(us_i):
            row = rows.get(u)
            if row is not None:
                out[i] = row
            else:
                for j, t in enumerate(vs_i):
                    out[i, j] = values[(u, t)]
        return out

    def path(self, u: int, v: int) -> list[int] | None:
        """Shortest-path vertex list via shortcut unpacking, or ``None``."""
        if u == v:
            return [u]
        self._stats["queries"] += 1
        fwd = self._fwd(u)
        bwd = self._bwd(v)
        bd = bwd[0]
        best = _INF
        meet = -1
        for m, dm in fwd[0].items():
            dt = bd.get(m)
            if dt is not None:
                cand = dm + dt
                if cand < best:
                    best = cand
                    meet = m
        if meet < 0:
            return None
        steps = self._pair_steps(u, v, meet, fwd, bwd)
        # Feed the rectification memo while the steps are in hand — path
        # and distance queries for the same pair share one unpack.
        memo = self._memo_for(u)
        d = 0.0
        for x, w in steps:
            known = memo.get(x)
            if known is None:
                d = d + w
                memo[x] = d
            else:
                d = known
        return [u] + [x for x, _w in steps]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict[str, int]:
        """Current ``sp.ch.*`` tallies (monotone except :data:`STAT_GAUGES`)."""
        out = {f"sp.ch.{name}": value for name, value in self._stats.items()}
        out["sp.ch.fwd_searches"] = self._fwd_memo.misses
        out["sp.ch.bwd_searches"] = self._bwd_memo.misses
        out["sp.ch.shortcuts"] = self.num_shortcuts
        memos: dict[str, BoundedMemo] = {
            "sp.ch.fwd": self._fwd_memo,
            "sp.ch.bwd": self._bwd_memo,
            "sp.ch.rect": self._rect,
            "sp.ch.expansion": self._expansions,
        }
        out.update(memo_stats(memos.items()))
        return out

    def memory_bytes(self) -> int:
        """Bytes held by the hierarchy arrays (not the query caches)."""
        return sum(int(a.nbytes) for a in self._arrays.values())

    def is_mmapped(self) -> bool:
        """Whether the attached arrays are memory-mapped files."""
        return any(isinstance(a, np.memmap) for a in self._arrays.values())
