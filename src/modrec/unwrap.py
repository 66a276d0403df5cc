"""Sequential unwrapping of mod-1 estimates on a uniform grid.

First differences of mod-1 values determine the true differences of the
underlying real samples whenever the per-sample error delta and grid
resolution satisfy 2*delta + M/(m-1) < 1/2 (an Itoh-type condition for
l-inf Lipschitz functions): a difference a with |a| < 1/2 needs no branch
correction, a < -1/2 hides an upward integer crossing (+1), a > 1/2 a
downward one (-1).

The multivariate traversal unwraps one axis at a time: the first axis along
the edge rooted at index (1, ..., 1), then for each later axis j every line
along j rooted on the previously unwrapped face, with trailing indices held
at 1.  Every grid point is written exactly once and the result reproduces the
input modulo 1 at every point regardless of whether the condition holds; the
recovery is exact up to one global integer when it does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridField, UniformGrid


@dataclass(frozen=True)
class BranchCounts:
    no_jump: int
    plus_one: int
    minus_one: int
    boundary_hits: int


@dataclass(frozen=True)
class UnwrapResult:
    """Unwrapped real samples plus branch-correction diagnostics.

    ftilde has the shape of the input; itoh_margin = 1/2 - max|corrected
    difference| is the observed slack of the no-ambiguity zone (positive means
    every step stayed strictly inside it).  The global integer offset of the
    recovery is not estimated here; it requires ground truth.
    """

    ftilde: np.ndarray
    branch_counts: BranchCounts
    itoh_margin: float
    grid: UniformGrid | None = None

    @property
    def field(self) -> GridField:
        if self.grid is None:
            raise ValueError("no grid attached to this result")
        return GridField(self.grid, self.ftilde, kind="real")


def branch_correct(a: float) -> float:
    """Branch-corrected difference in [-1/2, 1/2] for |a| < 1.

    Exact half-integer inputs are returned unchanged; under the resolution
    condition they cannot occur.
    """
    if not np.isfinite(a) or abs(a) >= 1.0:
        raise ValueError("difference must satisfy |a| < 1")
    if a < -0.5:
        return a + 1.0
    if a > 0.5:
        return a - 1.0
    return float(a)


def _branch_correct_array(a: np.ndarray):
    """Corrected differences, and the BranchCounts fields of a in field order."""
    corr = a + (a < -0.5) - (a > 0.5)
    mag = np.abs(a)
    counts = [
        np.count_nonzero(mag <= 0.5),
        np.count_nonzero(a < -0.5),
        np.count_nonzero(a > 0.5),
        np.count_nonzero(mag == 0.5),
    ]
    return corr, counts


def unwrap_1d(ghat) -> UnwrapResult:
    """Cumulative branch-corrected unwrapping of a 1-D mod-1 sequence: unwrap_multid
    on the 1-D grid of g.size points (a single sample has no grid)."""
    g = np.asarray(ghat, dtype=float).reshape(-1)
    if g.size < 1:
        raise ValueError("need at least one sample")
    if not np.all((g >= 0.0) & (g < 1.0)):  # also rejects NaN
        raise ValueError("mod1 values must lie in [0, 1)")
    if g.size == 1:
        return UnwrapResult(
            ftilde=g.copy(),
            branch_counts=BranchCounts(0, 0, 0, 0),
            itoh_margin=0.5,
        )
    return unwrap_multid(GridField(UniformGrid(1, g.size), g, kind="mod1"))


def unwrap_multid(ghat: GridField) -> UnwrapResult:
    """Axis-by-axis sequential unwrapping of a mod-1 grid field.

    Axis 1 is unwrapped along the edge rooted at (1, ..., 1); each subsequent
    axis unwraps all lines rooted on the face completed by the previous
    stages, trailing indices pinned at 1.
    """
    if ghat.kind != "mod1":
        raise ValueError("unwrap_multid expects a mod1 field")
    grid = ghat.grid
    g = ghat.values
    ft = np.full(grid.shape, np.nan)
    ft[(0,) * grid.d] = g[(0,) * grid.d]
    counts = np.zeros(4, dtype=np.int64)
    max_step = 0.0
    for j in range(grid.d):
        # Free leading axes, axis j runs, trailing axes pinned at index 0.
        sel = (slice(None),) * (j + 1) + (0,) * (grid.d - j - 1)
        corr, face_counts = _branch_correct_array(np.diff(g[sel], axis=j))
        counts += face_counts
        max_step = max(max_step, float(np.max(np.abs(corr))))
        root = np.take(ft[sel], [0], axis=j)
        ft[sel] = np.concatenate([root, root + np.cumsum(corr, axis=j)], axis=j)
    return UnwrapResult(
        ftilde=ft,
        branch_counts=BranchCounts(*map(int, counts)),
        itoh_margin=0.5 - max_step,
        grid=grid,
    )


@dataclass(frozen=True)
class ItohReport:
    satisfied: bool
    margin: float


def itoh_check(delta: float, M: float, m: int) -> ItohReport:
    """Resolution condition 2*delta + M/(m-1) < 1/2 with its margin."""
    if delta < 0 or M <= 0 or m < 2:
        raise ValueError("invalid inputs")
    margin = 0.5 - 2.0 * delta - M / (m - 1)
    return ItohReport(satisfied=bool(margin > 0.0), margin=float(margin))
