"""Circle arithmetic shared by every stage of the pipeline.

Values in [0,1) ("mod-1 values") live on the circle obtained by gluing 0 to 1.
This module provides the mod-1 map, the wrap-around metric, the embedding onto
the unit complex circle and its inverse, projection of arbitrary complex
numbers back onto the circle, chord/arc conversions, and the centered-modulo
folding used by self-reset hardware together with its correspondence to mod-1
sampling.

All functions accept scalars or numpy arrays and are pure.

Note on the wrap-around metric: the standard metric on [0,1) with codomain
[0, 1/2] is min(|a-b|, 1-|a-b|); that is what ``wrap_distance`` computes.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def _as_float(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _scalar_or_array(x: np.ndarray, scalar: bool):
    return float(x) if scalar else x


def mod1(t):
    """Fractional part t - floor(t), always in [0, 1)."""
    arr = _as_float(t, "t")
    r = arr - np.floor(arr)
    # t just below an integer can round up to 1.0; fold it back.
    r = np.where(r >= 1.0, 0.0, r)
    return _scalar_or_array(r, np.isscalar(t) or np.ndim(t) == 0)


def _check_mod1(x, name: str) -> np.ndarray:
    arr = _as_float(x, name)
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise ValueError(f"{name} must lie in [0, 1)")
    return arr


def wrap_distance(a, b):
    """Wrap-around distance min(|a-b|, 1-|a-b|) between mod-1 values, in [0, 1/2]."""
    aa = _check_mod1(a, "a")
    bb = _check_mod1(b, "b")
    d = np.abs(aa - bb)
    out = np.minimum(d, 1.0 - d)
    return _scalar_or_array(out, np.ndim(a) == 0 and np.ndim(b) == 0)


def circle_embed(y):
    """Map a mod-1 value y to the unit complex number exp(i*2*pi*y)."""
    arr = _check_mod1(y, "y")
    out = np.exp(1j * TWO_PI * arr)
    return complex(out) if np.ndim(y) == 0 else out


def circle_arg(u):
    """Inverse of circle_embed: angle of a unit complex number, scaled to [0, 1).

    The angle branch is [0, 2*pi); angles within 1e-15 below 2*pi snap to 0 so
    the result never touches 1.
    """
    arr = np.asarray(u, dtype=complex)
    a = np.angle(arr)
    a = np.where(a < 0.0, a + TWO_PI, a)
    a = np.where(TWO_PI - a <= 1e-15, 0.0, a)
    y = a / TWO_PI
    y = np.where(y >= 1.0, 0.0, y)
    return _scalar_or_array(y, np.ndim(u) == 0)


def project_to_circle(w):
    """Radial projection w/|w| onto the unit circle; exact zeros map to 1.

    Raises ValueError if the real or imaginary part of any entry is not
    finite.
    """
    arr = np.asarray(w, dtype=complex)
    if not np.isfinite(arr).all():  # a complex entry is finite iff both parts are
        raise ValueError("w must be finite")
    mag = np.abs(arr)
    zero = mag == 0.0
    out = np.where(zero, 1.0 + 0.0j, arr / np.where(zero, 1.0, mag))
    return complex(out) if arr.ndim == 0 else out


def chord_from_wrap(dw):
    """Chord length 2*sin(pi*dw) between unit complexes a wrap-distance dw apart."""
    arr = _as_float(dw, "dw")
    if np.any(arr < 0.0) or np.any(arr > 0.5):
        raise ValueError("dw must lie in [0, 1/2]")
    out = 2.0 * np.sin(np.pi * arr)
    return _scalar_or_array(out, np.ndim(dw) == 0)


def wrap_bound_from_chord(eps):
    """Upper bound eps/4 on the wrap distance of two unit complexes at chord distance eps."""
    arr = _as_float(eps, "eps")
    if np.any(arr < 0.0) or np.any(arr > 2.0):
        raise ValueError("eps must lie in [0, 2]")
    out = arr / 4.0
    return _scalar_or_array(out, np.ndim(eps) == 0)


def centered_wrap(t, gamma):
    """Hardware-style folding of t onto [-gamma, gamma).

    Defined as 2*gamma*(frac(t/(2*gamma) + 1/2) - 1/2) where frac is the
    fractional part. Satisfies centered_wrap(t, g)/(2*g) == center_mod1(mod1(t/(2*g))).
    """
    arr = _as_float(t, "t")
    g = float(gamma)
    if not np.isfinite(g) or g <= 0.0:
        raise ValueError("gamma must be positive")
    out = 2.0 * g * (np.asarray(mod1(arr / (2.0 * g) + 0.5)) - 0.5)
    return _scalar_or_array(out, np.ndim(t) == 0)


def center_mod1(x):
    """Move a mod-1 value to its centered representative in [-1/2, 1/2)."""
    arr = _check_mod1(x, "x")
    out = np.where(arr < 0.5, arr, arr - 1.0)
    return _scalar_or_array(out, np.ndim(x) == 0)


def uncenter_mod1(x):
    """Inverse of center_mod1: map [-1/2, 1/2) back to [0, 1)."""
    arr = _as_float(x, "x")
    if np.any(arr < -0.5) or np.any(arr >= 0.5):
        raise ValueError("x must lie in [-1/2, 1/2)")
    out = np.where(arr < 0.0, arr + 1.0, arr)
    return _scalar_or_array(out, np.ndim(x) == 0)
