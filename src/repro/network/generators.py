"""Synthetic city road-network generators.

The paper evaluates on the OpenStreetMap network of Chengdu (214k
vertices, 466k edges) which we cannot download in this offline
environment.  These generators produce directed, strongly connected
planar networks with the structural features the ridesharing algorithms
care about: a dense grid core, arterial shortcuts, and mild geometric
irregularity.  Sizes are configurable so tests run on tiny graphs while
benchmarks use city-scale-in-miniature ones.

A scenario stores the network it generates in the artifact store
(kind ``network``), so :func:`grid_city` runs only on a cold build.
"""

from __future__ import annotations

import numpy as np

from .graph import DEFAULT_SPEED_MPS, RoadNetwork

#: :func:`grid_city`'s positional noise, as a fraction of the block size.
JITTER = 0.25
#: Share of :func:`grid_city`'s street segments removed to break the
#: perfect grid.
REMOVAL_RATE = 0.08
#: Share of the remaining segments that keep only one direction.
ONE_WAY_RATE = 0.10
#: Every ``ARTERIAL_EVERY``-th row and column is an arterial whose
#: segments are never removed or made one-way, mimicking main roads.
ARTERIAL_EVERY = 8


def _largest_scc(num_vertices: int, edges: list[tuple[int, int, float]]) -> tuple[np.ndarray, list[tuple[int, int, float]]]:
    """Restrict to the largest strongly connected component.

    Returns the kept vertex ids (sorted) and the re-indexed edge list.
    Components are scipy's ``connected_components`` labels; the first
    of the largest wins (``argmax``).  Artifact keys hash the network's
    *spec*, not its content, so this choice is pinned: another kept set
    would pair new networks with stored tables.  Only a cold build runs
    this, and a cold build imports scipy for its shortest paths anyway.
    """
    from scipy import sparse
    from scipy.sparse import csgraph

    if not edges:
        return np.array([0]), []
    tails = np.fromiter((e[0] for e in edges), dtype=np.int64, count=len(edges))
    heads = np.fromiter((e[1] for e in edges), dtype=np.int64, count=len(edges))
    mat = sparse.csr_matrix(
        (np.ones(len(edges)), (tails, heads)), shape=(num_vertices, num_vertices)
    )
    n_comp, labels = csgraph.connected_components(mat, directed=True, connection="strong")
    if n_comp == 1:
        return np.arange(num_vertices), edges
    keep = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
    remap = np.full(num_vertices, -1)
    remap[keep] = np.arange(keep.size)
    new_id = remap.tolist()  # one int object per vertex, shared by its edges
    kept_edges = [
        (new_id[u], new_id[v], length)
        for u, v, length in edges
        if new_id[u] >= 0 and new_id[v] >= 0
    ]
    return keep, kept_edges


def grid_city(
    rows: int = 40,
    cols: int = 40,
    spacing_m: float = 220.0,
    speed_mps: float = DEFAULT_SPEED_MPS,
    seed: int | None = 7,
) -> RoadNetwork:
    """Perturbed Manhattan grid with arterial roads.

    Parameters
    ----------
    rows, cols:
        Grid dimensions; the network has at most ``rows * cols`` vertices.
    spacing_m:
        Nominal block size.  A 40x40 grid at 220 m covers ~8.8 km x 8.8 km,
        roughly the extent of Chengdu's 2nd-ring area at 1/5 scale.
    seed:
        RNG seed; ``None`` gives nondeterministic output.

    Positions are jittered by :data:`JITTER`, and segments off the
    arterials are removed at :data:`REMOVAL_RATE` or made one-way at
    :data:`ONE_WAY_RATE`.  The result is the largest strongly connected
    component of the construction, with vertices re-indexed
    contiguously.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid_city needs at least a 2x2 grid")
    rng = np.random.default_rng(seed)
    jitter, arterial_every = JITTER, ARTERIAL_EVERY
    removal_rate, one_way_rate = REMOVAL_RATE, ONE_WAY_RATE

    ids = np.arange(rows * cols).reshape(rows, cols)
    xs = np.tile(np.arange(cols) * spacing_m, (rows, 1))
    ys = np.tile((np.arange(rows) * spacing_m)[:, None], (1, cols))
    xs = xs + rng.normal(0.0, jitter * spacing_m, size=xs.shape)
    ys = ys + rng.normal(0.0, jitter * spacing_m, size=ys.shape)
    xy = np.stack([xs.ravel(), ys.ravel()], axis=1)

    def is_arterial(r: int, c: int, horizontal: bool) -> bool:
        return (r % arterial_every == 0) if horizontal else (c % arterial_every == 0)

    edges: list[tuple[int, int, float]] = []
    for r in range(rows):
        for c in range(cols):
            u = int(ids[r, c])
            for dr, dc, horizontal in ((0, 1, True), (1, 0, False)):
                rr, cc = r + dr, c + dc
                if rr >= rows or cc >= cols:
                    continue
                v = int(ids[rr, cc])
                arterial = is_arterial(r, c, horizontal)
                if not arterial and rng.random() < removal_rate:
                    continue
                length = float(np.hypot(*(xy[u] - xy[v])))
                if not arterial and rng.random() < one_way_rate:
                    if rng.random() < 0.5:
                        edges.append((u, v, length))
                    else:
                        edges.append((v, u, length))
                else:
                    edges.append((u, v, length))
                    edges.append((v, u, length))

    keep, kept_edges = _largest_scc(rows * cols, edges)
    return RoadNetwork(xy[keep], kept_edges, speed_mps=speed_mps)


def ring_radial_city(
    num_rings: int = 6,
    num_radials: int = 16,
    ring_spacing_m: float = 700.0,
    seed: int | None = 11,
) -> RoadNetwork:
    """Ring-and-radial city (European style) used as an alternative topology.

    Vertices lie on ``num_rings`` concentric rings crossed by
    ``num_radials`` radial roads, plus a centre vertex.  All segments are
    bidirectional, so the network is strongly connected by construction.
    """
    if num_rings < 1 or num_radials < 3:
        raise ValueError("need at least 1 ring and 3 radials")
    rng = np.random.default_rng(seed)

    points: list[tuple[float, float]] = [(0.0, 0.0)]
    index: dict[tuple[int, int], int] = {}
    for ring in range(1, num_rings + 1):
        radius = ring * ring_spacing_m
        for k in range(num_radials):
            angle = 2.0 * np.pi * k / num_radials + rng.normal(0.0, 0.02)
            index[(ring, k)] = len(points)
            points.append((radius * np.cos(angle), radius * np.sin(angle)))
    xy = np.asarray(points)

    edges: list[tuple[int, int]] = []

    def link(u: int, v: int) -> None:
        edges.append((u, v))
        edges.append((v, u))

    for ring in range(1, num_rings + 1):
        for k in range(num_radials):
            link(index[(ring, k)], index[(ring, (k + 1) % num_radials)])
    for k in range(num_radials):
        link(0, index[(1, k)])
        for ring in range(1, num_rings):
            link(index[(ring, k)], index[(ring + 1, k)])

    return RoadNetwork(xy, edges)
