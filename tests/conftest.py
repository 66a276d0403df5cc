import numpy as np
import pytest

from modrec.grid import GridField, UniformGrid, iter_lex


def knn_brute(grid: UniformGrid, x, k: int):
    """Brute-force kNN oracle: sort all l-inf distances, keep everything within
    the k-th smallest (full tie inclusion)."""
    x = np.asarray(x, dtype=float)
    entries = []
    for idx in iter_lex(grid):
        p = grid.point(idx)
        entries.append((float(np.max(np.abs(p - x))), idx))
    dists = sorted(d for d, _ in entries)
    r = dists[k - 1]
    return sorted(idx for d, idx in entries if d <= r), r


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
