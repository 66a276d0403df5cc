"""Uniform grids on [0,1]^d: multi-index arithmetic, fields, and kNN neighborhoods.

Grid points are indexed by d-tuples i = (i_1, ..., i_d) with 1 <= i_j <= m and
have coordinates x_{i_j} = (i_j - 1)/(m - 1).  Fields are stored row-major in
lexicographic multi-index order, which coincides with numpy's C order on an
array of shape (m,)*d.

Neighborhoods use the closed-ball convention: the kNN radius r_k(x) is the
smallest r such that the l-inf ball of radius r around x contains at least k
grid points, and the kNN set is the full ball intersection (ties included,
never truncated).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class UniformGrid:
    """Uniform m^d grid on [0,1]^d; requires m >= 2 so spacing 1/(m-1) is defined."""

    d: int
    m: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension d must be >= 1")
        if self.m < 2:
            raise ValueError("points-per-axis m must be >= 2")

    @property
    def n(self) -> int:
        return self.m ** self.d

    @property
    def shape(self) -> tuple:
        return (self.m,) * self.d

    def axis_coords(self) -> np.ndarray:
        return np.arange(self.m, dtype=float) / (self.m - 1)

    def point(self, idx) -> np.ndarray:
        """Coordinates ((i_j - 1)/(m - 1))_j of a 1-based multi-index."""
        idx = tuple(int(i) for i in idx)
        if len(idx) != self.d:
            raise IndexError(f"index has {len(idx)} components, expected {self.d}")
        for i in idx:
            if not 1 <= i <= self.m:
                raise IndexError(f"index component {i} outside [1, {self.m}]")
        return self.axis_coords()[[i - 1 for i in idx]]


def iter_lex(grid: UniformGrid):
    """Lexicographic enumeration of all 1-based multi-indices; defines storage order."""
    return itertools.product(range(1, grid.m + 1), repeat=grid.d)


def mesh_points(grid: UniformGrid) -> np.ndarray:
    """Coordinates of every grid point as an array of shape (m,)*d + (d,)."""
    mesh = np.meshgrid(*([grid.axis_coords()] * grid.d), indexing="ij")
    return np.stack(mesh, axis=-1)


@dataclass(frozen=True)
class GridField:
    """Values on a uniform grid, one per multi-index, stored as an (m,)*d array.

    kind is "real" (finite floats) or "mod1" (values in [0,1)); complex
    input is rejected rather than cast.  Values are frozen after
    construction.
    """

    grid: UniformGrid
    values: np.ndarray
    kind: str = "real"

    def __post_init__(self):
        v = np.array(self.values, copy=True)
        if np.iscomplexobj(v):
            raise ValueError("field values must be real")
        v = v.astype(float, copy=False)
        if v.shape != self.grid.shape:
            raise ValueError(f"value shape {v.shape} does not match grid shape {self.grid.shape}")
        if self.kind == "mod1":
            if not np.all(np.isfinite(v)):
                raise ValueError("mod1 field must be finite")
            if np.any(v < 0.0) or np.any(v >= 1.0):
                raise ValueError("mod1 field values must lie in [0, 1)")
        elif self.kind == "real":
            if not np.all(np.isfinite(v)):
                raise ValueError("real field must be finite")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_flat(cls, grid: UniformGrid, flat, kind: str = "real") -> "GridField":
        return cls(grid, np.asarray(flat).reshape(grid.shape), kind)

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


def floor_root(k: int, d: int) -> int:
    """Largest integer s >= 0 with s**d <= k, in exact integer arithmetic.

    The float root only seeds the search: it is inexact once k passes 2**53.
    The smallest s with s**d >= k is floor_root(k - 1, d) + 1.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if d < 1:
        raise ValueError("d must be >= 1")
    s = round(k ** (1.0 / d))
    while s ** d > k:
        s -= 1
    while (s + 1) ** d <= k:
        s += 1
    return s


def knn_radius_sup(d: int, m: int, k: int) -> float:
    """Largest kNN radius over grid-point queries: (ceil(k^(1/d)) - 1)/(m - 1).

    The worst case is a corner of the cube, where the tightest box holding k
    grid points has ceil(k^(1/d)) points per edge.  For k >= 2 this is also
    the supremum over arbitrary query points in [0,1]^d; for k = 1 an off-grid
    query can need up to half a grid spacing.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if not 1 <= k <= m ** d:
        raise ValueError(f"k must lie in [1, {m ** d}]")
    return floor_root(k - 1, d) / (m - 1)


def _knn_axis_ranges(grid: UniformGrid, x, k: int):
    """Per-axis index ranges of the kNN ball around x, plus its radius.

    The l-inf ball intersected with the grid is a product of per-axis index
    intervals, so it suffices to find the smallest candidate radius (a
    per-axis point distance) whose interval product holds at least k points.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (grid.d,):
        raise ValueError(f"query point must have {grid.d} coordinates")
    if not np.all((x >= 0.0) & (x <= 1.0)):  # also rejects NaN
        raise ValueError("query point must lie in [0,1]^d")
    if not 1 <= k <= grid.n:
        raise ValueError(f"k must lie in [1, {grid.n}]")
    coords = grid.axis_coords()
    dists = np.abs(x[:, None] - coords[None, :])  # (d, m)
    # A coordinate on the half-spacing lattice h/(2(m-1)) (a grid coordinate
    # or a midpoint) lies a whole number of half spacings from every grid
    # coordinate, but subtracting rounded coordinates can split equal
    # distances by an ulp.  Take them from the integers instead, so ties stay
    # ties and a grid-point query gets the integer box that denoise uses.
    half = 2 * (grid.m - 1)
    h = np.rint(x * half)
    lattice = h / half == x
    dists[lattice] = np.abs(h[lattice, None] - 2 * np.arange(grid.m)) / half
    candidates = np.unique(dists)

    def count(r: float) -> int:
        c = 1
        for a in range(grid.d):
            c *= int(np.count_nonzero(dists[a] <= r))
        return c

    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if count(candidates[mid]) >= k:
            hi = mid
        else:
            lo = mid + 1
    r_k = float(candidates[lo])
    ranges = []
    for a in range(grid.d):
        inside = np.nonzero(dists[a] <= r_k)[0]
        ranges.append((int(inside[0]), int(inside[-1])))  # 0-based inclusive
    return ranges, r_k


def knn_set(grid: UniformGrid, x, k: int):
    """All 1-based multi-indices within the kNN radius of x (ties included).

    Returns a sorted list of index tuples with at least k members.
    """
    ranges, _ = _knn_axis_ranges(grid, x, k)
    axes = [range(lo + 1, hi + 2) for lo, hi in ranges]
    return sorted(itertools.product(*axes))


def knn_radius(grid: UniformGrid, x, k: int) -> float:
    """The kNN radius r_k(x): smallest closed-ball radius holding >= k grid points."""
    _, r_k = _knn_axis_ranges(grid, x, k)
    return r_k
