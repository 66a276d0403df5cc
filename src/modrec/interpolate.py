"""Multilinear interpolation of grid samples over [0,1]^d.

The fitted model is the field itself, which evaluates as the tensor-product
piecewise-linear interpolant of its samples.  It is linear in the samples,
reproduces constants exactly, never exceeds the sample range (weights are a
convex combination), and for an M-Lipschitz function sampled exactly its sup
error is at most M/(m-1), i.e. one grid spacing times the Lipschitz constant.
"""

from __future__ import annotations

import itertools

import numpy as np

from .grid import GridField


def fit(ftilde: GridField) -> GridField:
    """The interpolant of a real field is the field itself: its grid and its
    frozen samples.  A mod1 field raises ValueError: interpolating across the
    0/1 seam is wrong (between 0.9 and 0.1 it gives 0.5, not 0.0), so unwrap it
    first."""
    if ftilde.kind != "real":
        raise ValueError("fit expects a real field; unwrap a mod1 field first")
    return ftilde


def evaluate(model: GridField, x):
    """Evaluate the interpolant at one point (d,) or a batch (..., d) in [0,1]^d."""
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.shape[-1] != model.grid.d:
        raise ValueError(f"points must have {model.grid.d} coordinates")
    if not np.all((pts >= 0.0) & (pts <= 1.0)):  # also rejects NaN
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
        out += weight * model.values[idx]
    out = out.reshape(pts.shape[:-1])
    return float(out[0]) if single else out
