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
    grid: UniformGrid

    @property
    def field(self) -> GridField:
        return GridField(self.grid, self.ftilde, kind="real")


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
    counts = np.zeros(3, dtype=np.int64)
    max_step = 0.0
    for j in range(grid.d):
        # Free leading axes, axis j runs, trailing axes pinned at index 0.
        sel = (slice(None),) * (j + 1) + (0,) * (grid.d - j - 1)
        a = np.diff(g[sel], axis=j)
        plus_one, minus_one = np.count_nonzero(a < -0.5), np.count_nonzero(a > 0.5)
        counts += [a.size - plus_one - minus_one, plus_one, minus_one]  # BranchCounts, a finite
        corr = a + (a < -0.5) - (a > 0.5)
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
    if not 0 <= delta < np.inf:
        raise ValueError(f"delta must be a finite number >= 0, got {delta!r}")
    if not 0 < M < np.inf:
        raise ValueError(f"M must be a finite number above 0, got {M!r}")
    if m < 2:
        raise ValueError("m must be >= 2")
    margin = 0.5 - 2.0 * delta - M / (m - 1)
    return ItohReport(satisfied=bool(margin > 0.0), margin=float(margin))
