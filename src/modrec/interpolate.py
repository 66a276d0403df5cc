"""Multilinear interpolation of grid samples over [0,1]^d.

The fitted model evaluates as the tensor-product piecewise-linear interpolant
of its samples.  It is linear in the samples, reproduces constants exactly,
never exceeds the sample range (weights are a convex combination), and for an
M-Lipschitz function sampled exactly its sup error is at most M/(m-1), i.e.
one grid spacing times the Lipschitz constant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grid import GridField, UniformGrid


@dataclass(frozen=True)
class InterpolantModel:
    grid: UniformGrid
    samples: np.ndarray

    def __post_init__(self):
        s = np.array(self.samples, dtype=float, copy=True)
        if s.shape != self.grid.shape:
            raise ValueError("sample shape does not match grid")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    def __call__(self, x):
        return evaluate(self, x)


def fit(ftilde: GridField) -> InterpolantModel:
    """Store grid samples for multilinear evaluation; linear in the input field."""
    return InterpolantModel(grid=ftilde.grid, samples=ftilde.values)


def evaluate(model: InterpolantModel, x):
    """Evaluate the interpolant at one point (d,) or a batch (..., d) in [0,1]^d."""
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.shape[-1] != model.grid.d:
        raise ValueError(f"points must have {model.grid.d} coordinates")
    if np.any(pts < 0.0) or np.any(pts > 1.0):
        raise ValueError("evaluation points must lie in [0,1]^d")
    m = model.grid.m
    t = pts * (m - 1)
    base = np.minimum(np.floor(t).astype(np.int64), m - 2)
    w = t - base
    flat_base = base.reshape(-1, model.grid.d)
    flat_w = w.reshape(-1, model.grid.d)
    out = np.zeros(flat_base.shape[0])
    for corner in itertools.product((0, 1), repeat=model.grid.d):
        idx = tuple((flat_base[:, a] + corner[a]) for a in range(model.grid.d))
        weight = np.ones(flat_base.shape[0])
        for a in range(model.grid.d):
            weight *= flat_w[:, a] if corner[a] else 1.0 - flat_w[:, a]
        out += weight * model.samples[idx]
    out = out.reshape(pts.shape[:-1])
    return float(out[0]) if single else out
