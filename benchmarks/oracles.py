"""Independent computations the benchmark checks modrec's outputs against.

Nothing here calls modrec.  Each routine re-derives a result from its
definition with plain numpy: brute-force circle averages over Chebyshev
boxes, dense graph Laplacians, the Schur test for the torus certificate,
spectral solves of the relaxation baselines (a DCT eigenbasis for paths, a
dense eigendecomposition for grids), sequential unwrapping, and a reader
for the grid-field text format.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

TWO_PI = 2.0 * math.pi


class CheckFailure(AssertionError):
    """An output of the program disagrees with the benchmark's own computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# Circle arithmetic


def wrap_dist(a, b):
    """Wrap-around distance between values taken modulo 1, in [0, 1/2]."""
    r = np.mod(np.asarray(a, dtype=float) - np.asarray(b, dtype=float), 1.0)
    return np.minimum(r, 1.0 - r)


def chord_inf(a_turns, b_turns) -> float:
    """max_i |exp(2 pi i a_i) - exp(2 pi i b_i)| for values given in turns."""
    return float(np.max(2.0 * np.sin(math.pi * wrap_dist(a_turns, b_turns))))


def turns(u) -> np.ndarray:
    """Angle of complex numbers in turns, in [0, 1)."""
    return np.mod(np.angle(u) / TWO_PI, 1.0)


# ---------------------------------------------------------------------------
# Test functions and grids


def axis_coords(m: int) -> np.ndarray:
    return np.arange(m, dtype=float) / (m - 1)


def planted_values(params, x) -> np.ndarray:
    """offset + sum_j a_j sin(2 pi f_j x_j + p_j) on points x of shape (..., d)."""
    amps, freqs, phases, offset = params
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape[:-1], float(offset))
    for j, (a, f, p) in enumerate(zip(amps, freqs, phases)):
        out = out + a * np.sin(TWO_PI * f * x[..., j] + p)
    return out


def planted_lipschitz(params) -> float:
    """l-inf Lipschitz constant sum_j 2 pi f_j |a_j| of a planted function."""
    amps, freqs, _, _ = params
    return float(sum(TWO_PI * f * abs(a) for a, f in zip(amps, freqs)))


def grid_points(d: int, m: int) -> np.ndarray:
    """Coordinates of the m^d grid as an array of shape (m,)*d + (d,)."""
    mesh = np.meshgrid(*([axis_coords(m)] * d), indexing="ij")
    return np.stack(mesh, axis=-1)


def practical_k(n: int, d: int, C: float = 0.09) -> int:
    """k = ceil(C n^(2/(d+2)) (log n)^(d/(d+2))), clamped to [1, n]."""
    k = C * n ** (2.0 / (d + 2)) * math.log(n) ** (d / (d + 2))
    return int(min(max(math.ceil(k), 1), n))


# ---------------------------------------------------------------------------
# kNN circle average by brute force


def box_average(y: np.ndarray, index, k: int) -> float:
    """Circle average of mod-1 samples y over the smallest clipped Chebyshev box
    around ``index`` (0-based) holding at least k grid points, in turns."""
    m = y.shape[0]
    r = 0
    while True:
        lo = [max(i - r, 0) for i in index]
        hi = [min(i + r, m - 1) for i in index]
        if math.prod(h - l + 1 for l, h in zip(lo, hi)) >= k:
            break
        r += 1
    if r == 0:
        return float(y[tuple(index)])
    block = y[tuple(slice(l, h + 1) for l, h in zip(lo, hi))]
    s = np.exp(2j * math.pi * block).sum()
    if abs(s) <= 1e-14 * block.size:
        return 0.0
    return float(turns(s))


# ---------------------------------------------------------------------------
# Unwrapping and alignment


def _branch(a: np.ndarray) -> np.ndarray:
    return a + (a < -0.5) - (a > 0.5)


def unwrap(g: np.ndarray) -> np.ndarray:
    """Axis-by-axis unwrapping: axis 0 along the edge through the origin, then
    each later axis along every line rooted on the face already unwrapped."""
    d = g.ndim
    out = np.empty_like(g, dtype=float)
    origin = (0,) * d
    out[origin] = g[origin]
    for j in range(d):
        face = (slice(None),) * (j + 1) + (0,) * (d - j - 1)
        steps = np.cumsum(_branch(np.diff(g[face], axis=j)), axis=j)
        start = np.take(out[face], [0], axis=j)
        rest = (slice(None),) * j + (slice(1, None),)
        out[face][rest] = start + steps
    return out


def integer_offset(ftilde: np.ndarray, truth: np.ndarray) -> int:
    """Integer q with ftilde + q closest to truth: the negated modal rounded
    difference, ties broken by the smaller mean squared error."""
    diff = (ftilde - truth).reshape(-1)
    values, counts = np.unique(np.round(diff).astype(np.int64), return_counts=True)
    top = sorted(int(v) for v in values[counts == counts.max()])
    best = min(top, key=lambda c: float(np.mean((diff - c) ** 2)))
    return -best


def check_exact_recovery(ftilde, ghat, truth, lipschitz: float, m: int, what: str):
    """Checks of an unwrapped recovery against the truth computed by the benchmark.

    ftilde must equal ghat modulo 1.  With delta the measured wrap error of
    ghat, whenever 2*delta + M/(m-1) < 1/2 the recovery must be exact up to one
    global integer q with |ftilde + q - truth| <= delta.  Returns (q, delta).
    """
    ftilde = np.asarray(ftilde, dtype=float)
    truth = np.asarray(truth, dtype=float)
    require(bool(np.all(np.isfinite(ftilde))), f"{what}: non-finite unwrapped values")
    require(
        float(np.max(wrap_dist(ftilde, ghat))) <= 1e-8,
        f"{what}: ftilde differs from ghat modulo 1",
    )
    delta = float(np.max(wrap_dist(ghat, truth)))
    require(
        2.0 * delta + lipschitz / (m - 1) < 0.5,
        f"{what}: resolution condition fails (delta={delta:.4f}, M/(m-1)={lipschitz / (m - 1):.4f})",
    )
    shifts = np.unique(np.round(ftilde - truth))
    require(shifts.size == 1, f"{what}: recovery has {shifts.size} distinct integer offsets")
    q = -int(shifts[0])
    err = float(np.max(np.abs(ftilde + q - truth)))
    require(err <= delta + 1e-9, f"{what}: aligned error {err:.3e} exceeds delta {delta:.3e}")
    return q, delta


# ---------------------------------------------------------------------------
# Graph Laplacians, built from the definitions


def path_laplacian(n: int) -> np.ndarray:
    L = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    L[0, 0] = L[-1, -1] = 1.0
    return L


def grid_laplacian(d: int, m: int, radius: int = 1) -> np.ndarray:
    """Laplacian of the m^d grid joining points at Chebyshev distance <= radius."""
    coords = np.indices((m,) * d).reshape(d, -1).T
    dist = np.max(np.abs(coords[:, None, :] - coords[None, :, :]), axis=2)
    W = ((dist > 0) & (dist <= radius)).astype(float)
    return np.diag(W.sum(axis=1)) - W


# ---------------------------------------------------------------------------
# Torus denoiser: stationarity and the Schur test


def riemannian_grad_inf(L: np.ndarray, lam: float, z: np.ndarray, g: np.ndarray) -> float:
    """Sup norm of P_g(2(lam L g - z)), P_g(v) = v - Re(v conj(g)) g."""
    v = 2.0 * (lam * (L @ g) - z)
    return float(np.max(np.abs(v - np.real(v * np.conj(g)) * g)))


def schur_margin(L: np.ndarray, lam: float, z: np.ndarray, g: np.ndarray):
    """(lambda_min(A), Re(z^* g)) with A = lam L + diag(Re(conj(g) (z - lam L g))).

    The certificate is tight exactly when A is positive definite and
    Re(z^* g) > 0 (a Schur-complement reduction of the (n+1)-sized matrix).
    """
    A = lam * L + np.diag(np.real(np.conj(g) * (z - lam * (L @ g))))
    return float(np.linalg.eigvalsh(A)[0]), float(np.real(np.vdot(z, g)))


def linf_bound_sq(delta: float, lam_delta: float, smoothness: float) -> float:
    """(2 delta + delta^2 + lam Delta (B^2 + sqrt 2)) / (1 - lam Delta / sqrt 2)."""
    num = 2.0 * delta + delta ** 2 + lam_delta * (smoothness ** 2 + math.sqrt(2.0))
    return num / (1.0 - lam_delta / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Relaxation baselines by spectral solves


def dct2(x: np.ndarray) -> np.ndarray:
    """Unnormalized DCT-II, X_k = sum_j x_j cos(pi k (2j+1) / 2n), of a real vector."""
    n = x.size
    y = np.fft.fft(np.concatenate([x, x[::-1]]))[:n]
    return 0.5 * np.real(np.exp(-1j * math.pi * np.arange(n) / (2 * n)) * y)


def idct2(X: np.ndarray) -> np.ndarray:
    """Inverse of dct2: x_j = sum_k c_k^2 X_k cos(pi k (2j+1) / 2n), c_0^2 = 1/n, c_k^2 = 2/n."""
    n = X.size
    w = (2.0 / n) * X * np.exp(1j * math.pi * np.arange(n) / (2 * n))
    w[0] *= 0.5
    return np.real(2 * n * np.fft.ifft(np.concatenate([w, np.zeros(n)]))[:n])


class PathSpectrum:
    """Eigenbasis of the path Laplacian: DCT-II vectors, eigenvalues 2 - 2cos(pi k/n)."""

    def __init__(self, n: int):
        self.n = n
        self.eigenvalues = 2.0 - 2.0 * np.cos(math.pi * np.arange(n) / n)
        self._scale = np.full(n, math.sqrt(2.0 / n))
        self._scale[0] = math.sqrt(1.0 / n)

    def forward(self, z: np.ndarray) -> np.ndarray:
        return self._scale * (dct2(z.real) + 1j * dct2(z.imag))

    def inverse(self, c: np.ndarray) -> np.ndarray:
        X = c / self._scale
        return idct2(X.real) + 1j * idct2(X.imag)


class DenseSpectrum:
    """Eigenbasis of a dense Laplacian by numpy.linalg.eigh."""

    def __init__(self, L: np.ndarray):
        self.n = L.shape[0]
        self.eigenvalues, self._Q = np.linalg.eigh(L)

    def forward(self, z: np.ndarray) -> np.ndarray:
        return self._Q.T @ z

    def inverse(self, c: np.ndarray) -> np.ndarray:
        return self._Q @ c


def ucqp_direct(spec, z: np.ndarray, lam: float) -> np.ndarray:
    """Minimizer of (I + lam L) g = z."""
    return spec.inverse(spec.forward(z) / (1.0 + lam * spec.eigenvalues))


def trs_direct(spec, z: np.ndarray, lam: float) -> np.ndarray:
    """Solution of (lam L + mu I) g = z with mu > 0 and ||g||^2 = n.

    ||g(mu)||^2 = sum_k |c_k|^2 / (lam w_k + mu)^2 is decreasing in mu, so the
    root is bracketed and then bisected to floating-point resolution.
    """
    c = spec.forward(z)
    power = np.abs(c) ** 2
    stiffness = lam * spec.eigenvalues

    def excess(mu):
        return float(np.sum(power / (stiffness + mu) ** 2)) - spec.n

    lo = hi = 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
    while excess(lo) < 0.0:
        lo *= 0.5
        require(lo > 1e-200, "sphere relaxation has no positive multiplier")
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return spec.inverse(c / (stiffness + 0.5 * (lo + hi)))


# ---------------------------------------------------------------------------
# Grid-field text format


def read_gridfield(path):
    """Parse a grid-field file without modrec.

    Returns (header, index, tokens, values): header is a dict of the
    key=value tokens on the first line, index the multi-index text of each
    row, tokens the value strings as written and values their parsed floats.
    """
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    require(text.endswith("\n"), f"{path}: missing final newline")
    lines = text[:-1].split("\n")
    first = lines[0].split(" ")
    require(first[:2] == ["#GRIDFIELD", "v1"], f"{path}: bad header {lines[0]!r}")
    header = dict(tok.split("=", 1) for tok in first[2:])
    require({"d", "m", "kind"} <= header.keys(), f"{path}: header lacks d, m or kind")
    start = 1
    while start < len(lines) and lines[start].startswith("#meta "):
        start += 1
    split = [row.rpartition(",") for row in lines[start:]]
    index = [s[0] for s in split]
    tokens = [s[2] for s in split]
    return header, index, tokens, np.array(list(map(float, tokens)))


@functools.lru_cache(maxsize=8)
def lex_index_text(d: int, m: int) -> list:
    """Row prefixes "i1,...,id" of the m^d grid in lexicographic order, 1-based."""
    return [",".join(map(str, idx)) for idx in itertools.product(range(1, m + 1), repeat=d)]


def check_gridfield(path, d: int, m: int, kind: str, seed=None) -> np.ndarray:
    """Header, row count, lexicographic index order and 17-digit round trip of
    every value; returns the values as an (m,)*d array."""
    header, index, tokens, values = read_gridfield(path)
    want = {"d": str(d), "m": str(m), "kind": kind}
    if seed is not None:
        want["seed"] = str(seed)
    require(header == want, f"{path}: header {header} != {want}")
    require(len(tokens) == m ** d, f"{path}: {len(tokens)} rows, expected {m ** d}")
    require(index == lex_index_text(d, m), f"{path}: rows out of lexicographic order")
    require(
        [format(v, ".17g") for v in values.tolist()] == tokens,
        f"{path}: a value does not round-trip at 17 significant digits",
    )
    if kind == "mod1":
        require(bool(np.all((values >= 0.0) & (values < 1.0))), f"{path}: mod1 value outside [0, 1)")
    return values.reshape((m,) * d)
