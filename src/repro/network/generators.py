"""Synthetic city road-network generators.

The paper evaluates on the OpenStreetMap network of Chengdu (214k
vertices, 466k edges) which we cannot download in this offline
environment.  These generators produce directed, strongly connected
planar networks with the structural features the ridesharing algorithms
care about: a dense grid core, arterial shortcuts, and mild geometric
irregularity.  Sizes are configurable so tests run on tiny graphs while
benchmarks use city-scale-in-miniature ones.
"""

from __future__ import annotations

import numpy as np

from .graph import DEFAULT_SPEED_MPS, RoadNetwork


def _largest_scc(num_vertices: int, edges: list[tuple[int, int, float]]) -> tuple[np.ndarray, list[tuple[int, int, float]]]:
    """Restrict to the largest strongly connected component.

    Returns the kept vertex ids (sorted) and the re-indexed edge list.

    Tarjan's algorithm with an explicit stack, so that importing a
    generator does not import scipy.  Artifact keys hash the network's
    *spec*, not its content, so the kept set must be exactly the one
    ``scipy.sparse.csgraph.connected_components`` + ``argmax`` kept
    (``tests/oracles.py::reference_largest_scc``), ties included: the
    walk starts from the vertices in ascending order and follows
    successors in descending order, which completes components in the
    order scipy numbers them, and the first of the largest wins.
    """
    if not edges:
        return np.array([0]), []
    succ: list[list[int]] = [[] for _ in range(num_vertices)]
    for u, v, _length in edges:
        succ[u].append(v)
    for out in succ:
        out.sort(reverse=True)
    order = [-1] * num_vertices  # discovery number; -1 = not yet reached
    # Smallest discovery number known reachable inside the vertex's
    # still-open component; ``num_vertices`` once its component is complete.
    low = [0] * num_vertices
    pending: list[int] = []  # reached, component not yet complete
    best: list[int] = []
    reached = 0
    for root in range(num_vertices):
        if order[root] >= 0:
            continue
        order[root] = low[root] = reached
        reached += 1
        pending.append(root)
        walk = [(root, iter(succ[root]))]
        while walk:
            v, successors = walk[-1]
            for w in successors:
                if order[w] < 0:
                    order[w] = low[w] = reached
                    reached += 1
                    pending.append(w)
                    walk.append((w, iter(succ[w])))
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                walk.pop()
                if walk and low[v] < low[walk[-1][0]]:
                    low[walk[-1][0]] = low[v]
                if low[v] == order[v]:
                    at = len(pending) - 1
                    while pending[at] != v:
                        at -= 1
                    component = pending[at:]
                    del pending[at:]
                    for w in component:
                        low[w] = num_vertices
                    if len(component) > len(best):
                        best = component
    if len(best) == num_vertices:
        return np.arange(num_vertices), edges
    best.sort()
    remap = {v: i for i, v in enumerate(best)}
    kept_edges = [
        (remap[u], remap[v], length)
        for u, v, length in edges
        if u in remap and v in remap
    ]
    return np.array(best), kept_edges


def grid_city(
    rows: int = 40,
    cols: int = 40,
    spacing_m: float = 220.0,
    jitter: float = 0.25,
    removal_rate: float = 0.08,
    one_way_rate: float = 0.10,
    arterial_every: int = 8,
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
    jitter:
        Positional noise as a fraction of ``spacing_m``.
    removal_rate:
        Fraction of street segments removed to break the perfect grid.
    one_way_rate:
        Fraction of remaining segments that keep only one direction.
    arterial_every:
        Every ``arterial_every``-th row/column becomes an arterial whose
        segments are never removed, mimicking main roads.
    seed:
        RNG seed; ``None`` gives nondeterministic output.

    The result is the largest strongly connected component of the
    construction, with vertices re-indexed contiguously.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid_city needs at least a 2x2 grid")
    rng = np.random.default_rng(seed)

    ids = np.arange(rows * cols).reshape(rows, cols)
    xs = np.tile(np.arange(cols) * spacing_m, (rows, 1))
    ys = np.tile((np.arange(rows) * spacing_m)[:, None], (1, cols))
    xs = xs + rng.normal(0.0, jitter * spacing_m, size=xs.shape)
    ys = ys + rng.normal(0.0, jitter * spacing_m, size=ys.shape)
    xy = np.stack([xs.ravel(), ys.ravel()], axis=1)

    def is_arterial(r: int, c: int, horizontal: bool) -> bool:
        if arterial_every <= 0:
            return False
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
    speed_mps: float = DEFAULT_SPEED_MPS,
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

    return RoadNetwork(xy, edges, speed_mps=speed_mps)


def small_test_network(speed_mps: float = DEFAULT_SPEED_MPS) -> RoadNetwork:
    """Tiny deterministic 3x3 bidirectional grid used across the test suite.

    Vertex layout (ids), spacing 100 m::

        6 7 8
        3 4 5
        0 1 2
    """
    xy = [(100.0 * (i % 3), 100.0 * (i // 3)) for i in range(9)]
    edges: list[tuple[int, int]] = []
    for r in range(3):
        for c in range(3):
            u = 3 * r + c
            if c < 2:
                edges += [(u, u + 1), (u + 1, u)]
            if r < 2:
                edges += [(u, u + 3), (u + 3, u)]
    return RoadNetwork(xy, edges, speed_mps=speed_mps)
