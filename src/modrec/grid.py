"""Uniform grids on [0,1]^d: multi-index arithmetic and fields.

Grid points are indexed by d-tuples i = (i_1, ..., i_d) with 1 <= i_j <= m and
have coordinates x_{i_j} = (i_j - 1)/(m - 1).  Fields are stored row-major in
lexicographic multi-index order, which coincides with numpy's C order on an
array of shape (m,)*d.
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
