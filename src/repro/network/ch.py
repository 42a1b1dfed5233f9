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

Contraction runs in rounds (:meth:`ContractionHierarchy.build`): each
round contracts every vertex that ranks below all of its neighbours —
an independent set — and answers all the witness searches the round
leaves stale with batched, ``limit``-bounded
:func:`scipy.sparse.csgraph.dijkstra` calls over the remaining graph,
so the searches run inside scipy instead of as one Python Dijkstra per
in-neighbour of every vertex.

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
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping, Sequence

import numpy as np

from ..memo import BoundedMemo, memo_stats
from .graph import RoadNetwork

#: Distance cells (sources × remaining vertices) one batched witness
#: search may hold: 4 MB of float64, however large the round.
WITNESS_BLOCK_CELLS = 1 << 19

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

def _lightest_per_pair(
    tail: np.ndarray, head: np.ndarray, weight: np.ndarray, mid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One edge per ``(tail, head)``, sorted by it: the lightest, and of
    equally light ones the first in input order (``lexsort`` is stable)."""
    order = np.lexsort((weight, head, tail))
    tail, head, weight, mid = tail[order], head[order], weight[order], mid[order]
    first = np.ones(tail.size, dtype=bool)
    first[1:] = (tail[1:] != tail[:-1]) | (head[1:] != head[:-1])
    return tail[first], head[first], weight[first], mid[first]


def _needed_shortcuts(
    alive: np.ndarray,
    tail: np.ndarray,
    head: np.ndarray,
    weight: np.ndarray,
    vertices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The shortcuts each of ``vertices`` needs if it were contracted now.

    Every in-edge ``u → v`` meets every out-edge ``v → t`` (``t ≠ u``) of
    each vertex ``v``; the pair needs the shortcut ``(u, t, via)``,
    ``via = w(u, v) + w(v, t)``, unless a witness is strictly shorter:
    ``dist(u, t) < via`` on the remaining graph (the ``alive`` vertices
    and the edges between them), ``v`` included — the path through ``v``
    measures exactly ``via``, so it never passes the test itself.  One
    ``limit``-bounded scipy Dijkstra per distinct ``u`` answers all of
    its pairs; sources run in order of their bound, in batches of
    :data:`WITNESS_BLOCK_CELLS` distance cells, so a batch's ``limit``
    fits its members.  Returns parallel ``(v, u, t, via)`` arrays.
    """
    from scipy import sparse
    from scipy.sparse import csgraph

    n = alive.size
    # The remaining graph in compact ids, so that a search costs the
    # vertices left, not the network's.
    m = int(np.count_nonzero(alive))
    local = np.full(n, -1, dtype=np.int64)
    local[alive] = np.arange(m)
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(np.bincount(local[tail], minlength=m), out=indptr[1:])
    remaining = sparse.csr_matrix(
        (weight, local[head].astype(np.int32), indptr), shape=(m, m)
    )

    is_vertex = np.zeros(n, dtype=bool)
    is_vertex[vertices] = True
    ins = np.flatnonzero(is_vertex[head])
    ins = ins[np.argsort(head[ins], kind="stable")]
    outs = np.flatnonzero(is_vertex[tail])  # grouped by tail already
    out_count = np.bincount(tail[outs], minlength=n)
    out_start = np.cumsum(out_count) - out_count
    reps = out_count[head[ins]]
    first = np.repeat(ins, reps)
    ends = np.cumsum(reps)
    offset = np.arange(first.size) - np.repeat(ends - reps, reps)
    second = outs[np.repeat(out_start[head[ins]], reps) + offset]
    u, v, t = tail[first], head[first], head[second]
    via = weight[first] + weight[second]
    pair = u != t
    u, v, t, via = u[pair], v[pair], t[pair], via[pair]

    sources, source_of = np.unique(u, return_inverse=True)
    limit = np.zeros(sources.size)
    np.maximum.at(limit, source_of, via)
    by_limit = np.argsort(limit, kind="stable")
    row = np.empty(sources.size, dtype=np.int64)
    row[by_limit] = np.arange(sources.size)
    pair_row = row[source_of]
    pairs_by_row = np.argsort(pair_row, kind="stable")
    sorted_rows = pair_row[pairs_by_row]
    witnessed = np.zeros(u.size, dtype=bool)
    batch = max(1, WITNESS_BLOCK_CELLS // m)
    for lo in range(0, sources.size, batch):
        hi = min(lo + batch, sources.size)
        a, b = np.searchsorted(sorted_rows, (lo, hi))
        idx = pairs_by_row[a:b]
        block = csgraph.dijkstra(
            remaining,
            directed=True,
            indices=local[sources[by_limit[lo:hi]]],
            limit=float(limit[by_limit[hi - 1]]),
        )
        witnessed[idx] = block[pair_row[idx] - lo, local[t[idx]]] < via[idx]
    need = ~witnessed
    return v[need], u[need], t[need], via[need]


class ContractionHierarchy:
    """A built contraction hierarchy over one :class:`RoadNetwork`.

    Edges of the hierarchy are split by rank into an *upward* CSR
    (``tail`` rank < ``head`` rank, indexed by tail) and a *downward*
    CSR (original direction ``tail -> row vertex`` with the row vertex
    ranked lower, indexed by the row vertex so the backward search can
    climb).  ``*_mid`` holds the contracted middle vertex of a shortcut
    or ``-1`` for an original edge.

    Use :meth:`build`; the constructor takes the nine flat arrays it
    produces.
    """

    #: ``stats_snapshot()`` keys that are point-in-time gauges: the
    #: shortcut count and each memo's occupancy.
    STAT_GAUGES = frozenset(
        ["sp.ch.shortcuts"]
        + [f"sp.ch.{memo}_entries" for memo in ("fwd", "bwd", "rect", "expansion")]
    )

    def __init__(self, network: RoadNetwork, arrays: Mapping[str, np.ndarray]) -> None:
        n = network.num_vertices
        self._arrays: dict[str, np.ndarray] = dict(arrays)
        # Plain Python lists for the query hot loops: unboxed element
        # access is several times faster than per-element numpy indexing,
        # and the O(E) conversion is milliseconds even at 200k vertices.
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
        self.num_shortcuts = int(
            np.count_nonzero(self._arrays["up_mid"] >= 0)
            + np.count_nonzero(self._arrays["down_mid"] >= 0)
        )
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
        """Contract ``network`` in rounds of independent vertex sets.

        Priority is the edge difference plus the deleted-neighbour count
        (shortcuts needed − remaining in/out edges + contracted
        neighbours).  Each round:

        1. selects every remaining vertex whose ``(priority, id)`` is
           strictly below that of all its remaining in- and
           out-neighbours — an independent set, chosen deterministically;
        2. contracts it in ``(priority, id)`` order, which assigns the
           ranks: each vertex's edges become its up/down rows and the
           shortcuts its latest witness searches asked for are inserted,
           the lightest (then earliest) kept per ``(u, t)``;
        3. re-runs the witness searches of every vertex that lost a
           neighbour, all of them at once (:func:`_needed_shortcuts`);
        4. refreshes those vertices' priorities from the results.

        Contracting an independent set together is exact because the
        witness test is strict and searches the graph *with* the vertex
        in it: a shortest path ``x → … → y`` through contracted vertices
        has each of them between two neighbours that are not contracted
        this round, and the segment ``u → v → t`` around each is itself
        shortest, so ``dist(u, t) < w(u, v) + w(v, t)`` is false for it
        and its shortcut exists.  A ``<=`` test would let two vertices
        of one round each accept the other as the witness of a tie, and
        the distance would be lost.

        Deterministic: every step is a sort with vertex ids as the last
        key, and the final rows are sorted — so two builds of the same
        network produce identical arrays.
        """
        n = network.num_vertices
        csr = network.to_csr()
        # The remaining graph: edge arrays sorted by (tail, head), one
        # edge per ordered pair, ``mid`` -1 for an original edge.  Uses
        # the same zero-length nudge as ``to_csr`` (it *is* the CSR
        # data), so rectified sums match the scipy reference exactly.
        tail, head, weight, mid = _lightest_per_pair(
            np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr)),
            csr.indices.astype(np.int64),
            csr.data,
            np.full(csr.nnz, -1, dtype=np.int64),
        )

        alive = np.ones(n, dtype=bool)
        rank = np.full(n, -1, dtype=np.int64)
        deleted = np.zeros(n, dtype=np.int64)
        priority = np.zeros(n, dtype=np.int64)
        # The shortcuts each remaining vertex needs, as its latest witness
        # searches found them: parallel (vertex, tail, head, weight).
        pending: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * 3 + [np.empty(0)]
        up_parts: list[tuple[np.ndarray, ...]] = []
        down_parts: list[tuple[np.ndarray, ...]] = []
        touched = np.arange(n, dtype=np.int64)
        next_rank = 0
        while next_rank < n:
            # 3-4 of the previous round (all vertices before the first):
            # witness searches and priorities of every vertex touched.
            found = _needed_shortcuts(alive, tail, head, weight, touched)
            stale = np.zeros(n, dtype=bool)
            stale[touched] = True
            keep = ~stale[pending[0]]
            pending = [np.concatenate((old[keep], new)) for old, new in zip(pending, found)]
            needed = np.bincount(found[0], minlength=n)[touched]
            degree = np.bincount(tail, minlength=n) + np.bincount(head, minlength=n)
            priority[touched] = needed - degree[touched] + deleted[touched]
            # 1. The independent set: (priority, id) below every neighbour's.
            ids = np.flatnonzero(alive)
            order = ids[np.lexsort((ids, priority[ids]))]
            position = np.empty(n, dtype=np.int64)
            position[order] = np.arange(order.size)
            lowest_neighbour = np.full(n, n, dtype=np.int64)
            np.minimum.at(lowest_neighbour, tail, position[head])
            np.minimum.at(lowest_neighbour, head, position[tail])
            chosen = order[position[order] < lowest_neighbour[order]]
            # 2. Contract it: ranks, hierarchy rows, shortcuts.
            rank[chosen] = np.arange(next_rank, next_rank + chosen.size)
            next_rank += chosen.size
            alive[chosen] = False
            up = ~alive[tail]
            down = ~alive[head]
            up_parts.append((tail[up], head[up], weight[up], mid[up]))
            down_parts.append((head[down], tail[down], weight[down], mid[down]))
            np.add.at(deleted, head[up], 1)
            np.add.at(deleted, tail[down], 1)
            touched = np.unique(np.concatenate((head[up], tail[down])))
            owner = pending[0]
            inserted = np.flatnonzero(~alive[owner])
            inserted = inserted[np.argsort(rank[owner[inserted]], kind="stable")]
            kept = ~(up | down)
            tail, head, weight, mid = _lightest_per_pair(
                np.concatenate((tail[kept], pending[1][inserted])),
                np.concatenate((head[kept], pending[2][inserted])),
                np.concatenate((weight[kept], pending[3][inserted])),
                np.concatenate((mid[kept], owner[inserted])),
            )
            pending = [column[alive[owner]] for column in pending]

        up_rows: list[list[tuple[int, float, int]]] = [[] for _ in range(n)]
        down_rows: list[list[tuple[int, float, int]]] = [[] for _ in range(n)]
        for rows, parts in ((up_rows, up_parts), (down_rows, down_parts)):
            for row, other, w, m in zip(*(np.concatenate(c).tolist() for c in zip(*parts))):
                rows[row].append((other, w, m))
        return cls(network, cls._rows_to_arrays(rank, up_rows, down_rows))

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
