import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

from modrec.grid import GridField, UniformGrid


def knn_brute(grid: UniformGrid, x, k: int):
    """Brute-force kNN oracle in exact arithmetic: rank the l-inf distances of
    all grid points, keep everything within the k-th smallest (full tie
    inclusion).

    Grid point i sits at Fraction(i - 1, m - 1).  A query coordinate that is
    the float of a half-spacing lattice point h/(2(m - 1)) (a grid coordinate
    or a midpoint) stands for that rational; any other coordinate is taken at
    its exact float value.  The radius is returned as a Fraction.
    """
    half = 2 * (grid.m - 1)
    axis_dists = []
    for v in np.asarray(x, dtype=float).reshape(-1).tolist():
        h = round(v * half)
        q = Fraction(h, half) if h / half == v else Fraction(v)
        axis_dists.append([abs(Fraction(i, grid.m - 1) - q) for i in range(grid.m)])
    # Ranks among the distinct exact distances keep every comparison exact.
    values = sorted(set().union(*axis_dists))
    rank = {v: r for r, v in enumerate(values)}
    ranks = [np.array([rank[v] for v in row]) for row in axis_dists]
    cheb = functools.reduce(np.maximum, np.ix_(*ranks)).reshape(-1)  # lexicographic order
    r = np.sort(cheb)[k - 1]
    members = np.flatnonzero(cheb <= r)
    idxs = [tuple(int(j) + 1 for j in js) for js in zip(*np.unravel_index(members, grid.shape))]
    return sorted(idxs), values[r]


def box_sums_brute(prefix: np.ndarray, shape: tuple, k: int):
    """Slow-path oracle for knn._box_sums: a binary search for the radius of
    every grid point over [0, m - 1], then a point-by-point gather of the 2^d
    prefix-sum corners in the same order and with the same signs."""
    d = len(shape)
    m = shape[0]
    idx = [ax.reshape(-1) for ax in np.indices(shape)]
    n = idx[0].size

    def counts(c):
        total = np.ones(n, dtype=np.int64)
        for a in range(d):
            total *= np.minimum(idx[a] + c, m - 1) - np.maximum(idx[a] - c, 0) + 1
        return total

    lo_c = np.zeros(n, dtype=np.int64)
    hi_c = np.full(n, m - 1, dtype=np.int64)
    while np.any(lo_c < hi_c):
        mid = (lo_c + hi_c) // 2
        ok = counts(mid) >= k
        hi_c = np.where(ok, mid, hi_c)
        lo_c = np.where(ok, lo_c, mid + 1)
    radii = lo_c
    lo = [np.maximum(idx[a] - radii, 0) for a in range(d)]
    hi = [np.minimum(idx[a] + radii, m - 1) for a in range(d)]
    total = np.zeros(n, dtype=prefix.dtype)
    for corner in itertools.product((0, 1), repeat=d):
        pick = tuple(hi[a] + 1 if corner[a] else lo[a] for a in range(d))
        sign = 1 if (d - sum(corner)) % 2 == 0 else -1
        total += sign * prefix[pick]
    return total, counts(radii), radii


def graph_edges_brute(d: int, m: int, radius: int):
    """Pair-scan oracle for grid_graph: every rank pair a < b, in lexicographic
    order, whose multi-indices lie at Chebyshev distance <= radius."""
    coords = np.array(np.unravel_index(np.arange(m ** d), (m,) * d)).T
    edges = []
    for a in range(len(coords)):
        for b in range(a + 1, len(coords)):
            if np.max(np.abs(coords[b] - coords[a])) <= radius:
                edges.append((a, b))
    return edges


def random_mod1_field(grid: UniformGrid, rng) -> GridField:
    return GridField(grid, rng.uniform(0.0, 1.0, size=grid.shape), kind="mod1")


@pytest.fixture
def rng():
    return np.random.default_rng(20240831)
