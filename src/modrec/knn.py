"""kNN denoising of mod-1 samples on the unit circle, with bandwidth rules.

The estimator embeds each noisy mod-1 sample y as z = exp(i*2*pi*y), averages
z over the kNN neighborhood of every grid point, projects the average back to
the circle and returns its angle divided by 2*pi.  Because the projection
discards the magnitude, the averaging normalization is irrelevant; we divide
by the actual neighborhood size, which is also the right thing under ties.

The kNN set of a grid point is the whole smallest l-inf box around it,
clipped to the grid, that holds at least k grid points: ties at its radius
are included, never truncated.  These boxes have integer Chebyshev radii,
so the whole pass runs on one d-dimensional prefix-sum table (Crow's
summed-area table), with a fixed summation order that makes results
independent of scheduling.  Every box that is not clipped has the same
radius c, and the table carries c edge copies on each side of every axis,
which fold the clipping into the table: each of the 2^d corners of every
radius-c box is one slice, so the grid is summed at c in O(2^d n).  Only the
boundary shell, where clipped boxes hold too few points, searches for larger
radii and gathers its corners point by point: O(s log m) more for s shell
points.

Bandwidth selection implements three rules:

*   ``choose_k_expected_risk`` minimizes the pointwise expected-risk bound
    64*pi^2*M^2*(k/n)^(2/d) + 32*pi^2*sigma^2/k over real k.
*   ``choose_k_sup_norm`` follows the high-probability sup-norm rate, with the
    sample-size hypothesis reported alongside.
*   ``choose_k_practical`` is the desk recipe k = ceil(C * n^(2/(d+2)) *
    (log n)^(d/(d+2))).

The bound evaluators return their value even when the hypotheses
(sigma <= 1/(2*pi), n >= 2^d) fail, flagging the violation, so parameter
sweeps can chart validity regions.  All logarithms are natural.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, circle_arg, circle_embed
from .grid import GridField, floor_root
from .unwrap import itoh_check


@dataclass(frozen=True)
class DenoiseResult:
    """Denoised mod-1 field plus diagnostics.

    zero_resultants counts grid points whose neighborhood average cancelled to
    numerically zero (resultant below 1e-14 per member, i.e. perfect antipodal
    cancellation up to roundoff); those outputs are 0.0 by the projection
    convention that sends the zero vector to 1.

    radius_histogram holds (radius, points) pairs in ascending radius, one per
    radius in use: the number of grid points whose neighborhood is the clipped
    Chebyshev box of that integer radius.  The points sum to n.  Interior
    points share the smallest radius; larger ones occur only near the boundary.
    """

    ghat: GridField
    k: int
    zero_resultants: int
    radius_histogram: tuple


# A resultant this small relative to the member count has no meaningful
# direction: antipodal cancellation computed in binary64.
_CANCEL_TOL = 1e-14


def _bordered_prefix_sums(z: np.ndarray, c: int) -> np.ndarray:
    """Summed-area table of z with a border of c on every side of every axis.

    The plain table P has a zero leading row per axis, P[j] summing z over
    indices below j, so it is m + 1 long; the bordered table Q is
    m + 2c + 1 long with Q[j] = P[clip(j - c, 0, m)] on each axis, the
    values np.pad(P, c, mode="edge") would give, built without a second copy.
    """
    m = z.shape[0]
    table = np.zeros((m + 2 * c + 1,) * z.ndim, dtype=z.dtype)
    inner = table[(slice(c + 1, c + 1 + m),) * z.ndim]
    np.cumsum(z, axis=0, out=inner)
    for ax in range(1, z.ndim):
        np.cumsum(inner, axis=ax, out=inner)
    for ax in range(z.ndim):
        rows = np.moveaxis(table, ax, 0)
        rows[c + m + 1:] = rows[c + m]
    return table


def _windows(idx: tuple, c, m: int):
    """Clipped boxes of Chebyshev radius c around the index arrays idx.

    Returns the per-axis corners max(i - c, 0) and min(i + c, m - 1) and the
    box sizes.  The index arrays may be flat (one box per entry) or an open
    mesh from np.ix_ (every box of the grid); the outputs broadcast alike.
    """
    lo = tuple(np.maximum(i - c, 0) for i in idx)
    hi = tuple(np.minimum(i + c, m - 1) for i in idx)
    sizes = 1
    for lo_a, hi_a in zip(lo, hi):
        sizes = sizes * (hi_a - lo_a + 1)
    return lo, hi, sizes


def _corner_sums(table: np.ndarray, lo: tuple, hi: tuple, shape: tuple) -> np.ndarray:
    """Box sums of the given shape by inclusion-exclusion over the 2^d corners,
    in a fixed order; lo[a] and hi[a] index axis a of the table at each box's
    lower and upper-plus-one corner."""
    d = len(lo)
    total = np.zeros(shape, dtype=table.dtype)
    for corner in itertools.product((0, 1), repeat=d):
        pick = tuple(hi[a] if corner[a] else lo[a] for a in range(d))
        sign = 1 if (d - sum(corner)) % 2 == 0 else -1
        total += sign * table[pick]
    return total


def _box_sums(z: np.ndarray, k: int):
    """Flat sums, sizes and radii of the smallest clipped Chebyshev box of z
    holding >= k grid points, around every grid point.

    Every box that is not clipped has the radius c0 = min{c : (2c+1)^d >= k},
    and clipping only removes points, so no radius is below c0.  In a
    summed-area table bordered by c0 edge copies (_bordered_prefix_sums), the
    corners of every radius-c0 box, clipped or not, sit at one fixed offset
    from the point, so the whole grid is summed from 2^d slices.  Only the
    boundary shell, whose boxes at c0 hold fewer than k points, is searched
    for its radii and gathered point by point.
    """
    d, m = z.ndim, z.shape[0]
    c0 = (floor_root(k - 1, d) + 1) // 2
    table = _bordered_prefix_sums(z, c0)
    lo = (slice(0, m),) * d
    hi = (slice(2 * c0 + 1, 2 * c0 + 1 + m),) * d
    sums = _corner_sums(table, lo, hi, z.shape).reshape(-1)
    counts = _windows(np.ix_(*[np.arange(m)] * d), c0, m)[2].reshape(-1)
    radii = np.full(counts.size, c0)

    shell = np.flatnonzero(counts < k)
    idx = np.unravel_index(shell, z.shape)
    lo_c = np.full(shell.size, c0 + 1)
    hi_c = np.full(shell.size, m - 1)
    while np.any(lo_c < hi_c):
        mid = (lo_c + hi_c) // 2
        ok = _windows(idx, mid, m)[2] >= k
        hi_c = np.where(ok, mid, hi_c)
        lo_c = np.where(ok, lo_c, mid + 1)
    lo, hi, shell_counts = _windows(idx, lo_c, m)
    sums[shell] = _corner_sums(table, [i + c0 for i in lo], [i + 1 + c0 for i in hi], shell.size)
    counts[shell] = shell_counts
    radii[shell] = lo_c
    return sums, counts, radii


def denoise(y: GridField, k: int) -> DenoiseResult:
    """Circle-average denoising of a mod-1 field over kNN neighborhoods.

    For every grid point the embedded samples are averaged over the kNN set of
    that point, the mean is projected back to the circle and converted to a
    mod-1 value.  k = 1 (or any radius-zero neighborhood) returns the input
    sample unchanged.
    """
    if y.kind != "mod1":
        raise ValueError("denoise expects a mod1 field")
    grid = y.grid
    if not 1 <= k <= grid.n:
        raise ValueError(f"k must lie in [1, {grid.n}]")
    sums, counts, radii = _box_sums(circle_embed(y.values), k)

    mags = np.abs(sums)
    zero_mask = mags <= _CANCEL_TOL * counts
    ghat = np.asarray(circle_arg(np.where(zero_mask, 1.0 + 0.0j, sums)))
    # Radius-zero neighborhoods are the sample itself: skip the embed/arg
    # round trip so the output is bitwise equal to the input there.
    ghat = np.where(radii == 0, y.flat, ghat)
    field = GridField(grid, ghat.reshape(grid.shape), kind="mod1")
    points = np.bincount(radii)
    histogram = tuple((int(r), int(points[r])) for r in np.flatnonzero(points))
    return DenoiseResult(
        ghat=field, k=int(k), zero_resultants=int(zero_mask.sum()), radius_histogram=histogram
    )


def _check_sigma_M(sigma: float, M: float) -> None:
    """The noise level and Lipschitz constant that the bandwidth rules accept."""
    if not 0 < M < np.inf:
        raise ValueError(f"M must be a finite number above 0, got {M!r}")
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be a finite number >= 0, got {sigma!r}")


def _power(x: float, y: float) -> float:
    """x ** y, or inf where the power overflows the float range."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


def _ceil_within(k_star: float, n: int) -> int:
    """ceil(k_star) clamped to [1, n]; a k_star past the float range (inf, or
    nan from inf/inf) gives n."""
    return int(max(math.ceil(k_star), 1) if k_star < n else n)


def choose_k_expected_risk(d: int, sigma: float, M: float, n: int) -> int:
    """Number of neighbors minimizing the expected-risk bound, clamped to [1, n].

    The continuous minimizer is (d*sigma^2/(4*M^2))^(d/(d+2)) * n^(2/(d+2));
    the returned k is its ceiling.  sigma = 0 is the bias-only regime and
    returns 1 with a warning.
    """
    _check_sigma_M(sigma, M)
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma == 0.0:
        warnings.warn("sigma = 0: bias-only regime, using k = 1", stacklevel=2)
        return 1
    try:
        ratio = d * sigma ** 2 / (4.0 * M ** 2)
    except (OverflowError, ZeroDivisionError):
        ratio = math.nan
    if math.isnan(ratio):  # sigma^2 or M^2 left the float range, their quotient need not
        ratio = d * (sigma / M) * (sigma / M) / 4.0
    k_star = ratio ** (d / (d + 2)) * n ** (2.0 / (d + 2))
    return _ceil_within(k_star, n)


@dataclass(frozen=True)
class SupNormSelection:
    k: int
    k_star: float
    sample_condition_ok: bool
    k_star_at_least_log_n: bool


def choose_k_sup_norm(d: int, sigma: float, M: float, n: int) -> SupNormSelection:
    """Sup-norm rate bandwidth k = ceil(k_star), with hypothesis reports.

    k_star = n^(2/(d+2)) (log n)^(d/(d+2)) (d*((4*pi^2*sigma^2+2)/3 + pi*sigma)
    / (pi*M))^(2d/(d+2)).  Also reports whether the sample-size condition
    n/log n >= (pi*M / (2*d*((4*pi^2*sigma^2+2)/3 + pi*sigma)))^d holds and
    whether k_star >= log n (the simplification used to derive the rule).
    """
    _check_sigma_M(sigma, M)
    if n < 2:
        raise ValueError("n must be >= 2")
    c_sigma = (4.0 * np.pi ** 2 * _power(sigma, 2) + 2.0) / 3.0 + np.pi * sigma
    log_n = math.log(n)
    k_star = (
        n ** (2.0 / (d + 2))
        * log_n ** (d / (d + 2))
        * _power(d * c_sigma / (np.pi * M), 2.0 * d / (d + 2))
    )
    sample_ok = n / log_n >= _power(np.pi * M / (2.0 * d * c_sigma), d)
    k = _ceil_within(k_star, n)
    return SupNormSelection(
        k=k,
        k_star=float(k_star),
        sample_condition_ok=bool(sample_ok),
        k_star_at_least_log_n=bool(k_star >= log_n),
    )


def choose_k_practical(n: int, d: int = 1, C: float = 0.09) -> int:
    """Desk rule k = ceil(C * n^(2/(d+2)) * (log n)^(d/(d+2))), clamped to [1, n]."""
    if not 0 < C < np.inf:
        raise ValueError(f"C must be a finite number above 0, got {C!r}")
    if n < 2:
        raise ValueError("n must be >= 2")
    k_star = C * n ** (2.0 / (d + 2)) * math.log(n) ** (d / (d + 2))
    return _ceil_within(k_star, n)


@dataclass(frozen=True)
class RiskBoundInputs:
    """Inputs to the risk-bound evaluators; M is the l-inf Lipschitz constant."""

    d: int
    sigma: float
    M: float
    n: int
    k: int

    def __post_init__(self):
        _check_sigma_M(self.sigma, self.M)
        if self.n < 1 or not 1 <= self.k:
            raise ValueError("invalid risk-bound inputs")

    @property
    def envelope_bound(self) -> float:
        """Almost-sure bound 1 + exp(2*pi^2*sigma^2) on the centered embedded noise."""
        return 1.0 + math.exp(2.0 * np.pi ** 2 * self.sigma ** 2)

    @property
    def variance(self) -> float:
        """Exact variance exp(4*pi^2*sigma^2) - 1 of each centered embedded sample."""
        return math.exp(4.0 * np.pi ** 2 * self.sigma ** 2) - 1.0

    def _violations(self) -> tuple:
        out = []
        if self.sigma > 1.0 / TWO_PI:
            out.append("sigma > 1/(2*pi)")
        if self.n < 2 ** self.d:
            out.append("n < 2^d")
        return tuple(out)


@dataclass(frozen=True)
class BoundValue:
    value: float
    hypothesis_ok: bool
    violations: tuple


def expected_risk_bound(inputs: RiskBoundInputs) -> BoundValue:
    """Pointwise expected-risk bound 64*pi^2*M^2*(k/n)^(2/d) + 32*pi^2*sigma^2/k."""
    v = (
        64.0 * np.pi ** 2 * inputs.M ** 2 * (inputs.k / inputs.n) ** (2.0 / inputs.d)
        + 32.0 * np.pi ** 2 * inputs.sigma ** 2 / inputs.k
    )
    viol = inputs._violations()
    return BoundValue(value=float(v), hypothesis_ok=not viol, violations=viol)


def sup_norm_bound(inputs: RiskBoundInputs) -> BoundValue:
    """High-probability (>= 1 - 1/n) in-sample sup-norm bound on the circle estimate.

    8*pi*M*(k/n)^(1/d) + (64/3)*(2*pi^2*sigma^2 + 1)*log(n)/k
    + 32*pi*sigma*sqrt(log(n)/k).  The middle term does not vanish at
    sigma = 0; it comes from the bounded-difference concentration step.
    """
    log_n = math.log(inputs.n)
    v = (
        8.0 * np.pi * inputs.M * (inputs.k / inputs.n) ** (1.0 / inputs.d)
        + (64.0 / 3.0) * (2.0 * np.pi ** 2 * inputs.sigma ** 2 + 1.0) * log_n / inputs.k
        + 32.0 * np.pi * inputs.sigma * math.sqrt(log_n / inputs.k)
    )
    viol = inputs._violations()
    return BoundValue(value=float(v), hypothesis_ok=not viol, violations=viol)


@dataclass(frozen=True)
class SupErrorScale:
    """Uniform chord-error scale delta(n) and the two gates that use it.

    small_enough: delta(n) <= 2, so the bound is informative.
    unwrap_feasible: delta(n) + 2*M/(m - 1) < 1, the resolution condition of
    unwrap.itoh_check at wrap error delta(n)/4, under which the branch
    corrections of the unwrapping stage are exact.
    """

    value: float
    small_enough: bool
    unwrap_feasible: bool


def sup_error_scale(d: int, sigma: float, M: float, n: int) -> SupErrorScale:
    """delta(n) = 6*(8*pi*M)^(d/(d+2)) * (32*((4*pi^2*sigma^2+2)/3 + pi*sigma))^(2/(d+2))
    * (log(n)/n)^(1/(d+2)); one quarter of it bounds the wrap error of the
    denoised samples with probability >= 1 - 1/n."""
    _check_sigma_M(sigma, M)
    if n < 2:
        raise ValueError("n must be >= 2")
    c_sigma = (4.0 * np.pi ** 2 * sigma ** 2 + 2.0) / 3.0 + np.pi * sigma
    gamma = 6.0 * (8.0 * np.pi * M) ** (d / (d + 2)) * (32.0 * c_sigma) ** (2.0 / (d + 2))
    value = gamma * (math.log(n) / n) ** (1.0 / (d + 2))
    m = floor_root(n, d)
    feasible = m >= 2 and itoh_check(value / 4.0, M, m).satisfied
    return SupErrorScale(
        value=float(value),
        small_enough=bool(value <= 2.0),
        unwrap_feasible=bool(feasible),
    )

