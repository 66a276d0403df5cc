import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from modrec.certificate import dual_certificate, lift_matrix
from modrec.fileio import FormatError, read_header
from modrec.grid import GridField, UniformGrid, iter_lex
from modrec.harness import PlantedFunction
from modrec.linalg import hermitian_eig
from modrec.qcqp import QcqpProblem, objective, riemannian_grad


def knn_brute(grid: UniformGrid, x, k: int):
    """Brute-force kNN oracle in exact arithmetic: rank the l-inf distances of
    all grid points, keep everything within the k-th smallest (full tie
    inclusion).

    Grid point i sits at Fraction(i - 1, m - 1).  A query coordinate that is
    the float of a half-spacing lattice point h/(2(m - 1)) (a grid coordinate
    or a midpoint) stands for that rational; any other coordinate is taken at
    its exact float value.  The radius is returned as a Fraction.
    """
    half = 2 * (grid.m - 1)
    axis_dists = []
    for v in np.asarray(x, dtype=float).reshape(-1).tolist():
        h = round(v * half)
        q = Fraction(h, half) if h / half == v else Fraction(v)
        axis_dists.append([abs(Fraction(i, grid.m - 1) - q) for i in range(grid.m)])
    # Ranks among the distinct exact distances keep every comparison exact.
    values = sorted(set().union(*axis_dists))
    rank = {v: r for r, v in enumerate(values)}
    ranks = [np.array([rank[v] for v in row]) for row in axis_dists]
    cheb = functools.reduce(np.maximum, np.ix_(*ranks)).reshape(-1)  # lexicographic order
    r = np.sort(cheb)[k - 1]
    members = np.flatnonzero(cheb <= r)
    idxs = [tuple(int(j) + 1 for j in js) for js in zip(*np.unravel_index(members, grid.shape))]
    return sorted(idxs), values[r]


def box_sums_brute(prefix: np.ndarray, shape: tuple, k: int):
    """Slow-path oracle for knn._box_sums: a binary search for the radius of
    every grid point over [0, m - 1], then a point-by-point gather of the 2^d
    prefix-sum corners in the same order and with the same signs."""
    d = len(shape)
    m = shape[0]
    idx = [ax.reshape(-1) for ax in np.indices(shape)]
    n = idx[0].size

    def counts(c):
        total = np.ones(n, dtype=np.int64)
        for a in range(d):
            total *= np.minimum(idx[a] + c, m - 1) - np.maximum(idx[a] - c, 0) + 1
        return total

    lo_c = np.zeros(n, dtype=np.int64)
    hi_c = np.full(n, m - 1, dtype=np.int64)
    while np.any(lo_c < hi_c):
        mid = (lo_c + hi_c) // 2
        ok = counts(mid) >= k
        hi_c = np.where(ok, mid, hi_c)
        lo_c = np.where(ok, lo_c, mid + 1)
    radii = lo_c
    lo = [np.maximum(idx[a] - radii, 0) for a in range(d)]
    hi = [np.minimum(idx[a] + radii, m - 1) for a in range(d)]
    total = np.zeros(n, dtype=prefix.dtype)
    for corner in itertools.product((0, 1), repeat=d):
        pick = tuple(hi[a] + 1 if corner[a] else lo[a] for a in range(d))
        sign = 1 if (d - sum(corner)) % 2 == 0 else -1
        total += sign * prefix[pick]
    return total, counts(radii), radii


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


@dataclass(frozen=True)
class KktReport:
    """Optimality-condition residuals for a primal/dual pair (X, S) at lift matrix T.

    Each condition's threshold is fixed at build time from the matrix scales:
    tol for the unit diagonal and the dual structure, tol times the scale of
    X or S for the PSD tests, and for S X = 0 a bound on its size plus tol
    times the scale of the product.
    """

    diag_ones_err: float
    x_min_eig: float
    complementary_err: float
    dual_structure_err: float
    s_min_eig: float
    tol: float
    tol_psd_x: float
    tol_psd_s: float
    tol_complementary: float

    @property
    def diag_ones(self) -> bool:
        return self.diag_ones_err <= self.tol

    @property
    def x_psd(self) -> bool:
        return self.x_min_eig >= -self.tol_psd_x

    @property
    def complementary(self) -> bool:
        return self.complementary_err <= self.tol_complementary

    @property
    def dual_structure(self) -> bool:
        return self.dual_structure_err <= self.tol

    @property
    def s_psd(self) -> bool:
        return self.s_min_eig >= -self.tol_psd_s

    @property
    def all_ok(self) -> bool:
        return self.diag_ones and self.x_psd and self.complementary and self.dual_structure and self.s_psd


def lift_gram(g: np.ndarray) -> np.ndarray:
    """Rank-one feasible point gt gt^* of the lifted problem, gt = (g; 1)."""
    gt = np.concatenate([np.asarray(g, dtype=complex), [1.0 + 0.0j]])
    return np.outer(gt, np.conj(gt))


def kkt_check(X: np.ndarray, S: np.ndarray, T: np.ndarray, tol: float = 1e-8) -> KktReport:
    """Evaluate unit diagonal, X >= 0, S X = 0, S - T real diagonal, S >= 0.

    PSD is decided by the smallest eigenvalue against -tol * max(1, max|entry|);
    the complementary condition by the largest entry of S X against
    tol * max(1, max|S|) * max(1, max|X|).
    """
    X = np.asarray(X, dtype=complex)
    S = np.asarray(S, dtype=complex)
    return _kkt_report(
        x_diag=np.diag(X),
        x_min_eig=float(hermitian_eig(X)[0][0]),
        x_scale=max(1.0, float(np.max(np.abs(X)))),
        complementary_err=float(np.max(np.abs(S @ X))),
        complementary_bound=0.0,
        S=S,
        s_min_eig=float(hermitian_eig(S)[0][0]),
        T=np.asarray(T, dtype=complex),
        tol=tol,
    )


def _kkt_report(x_diag, x_min_eig, x_scale, complementary_err, complementary_bound, S, s_min_eig, T, tol):
    s_scale = max(1.0, float(np.max(np.abs(S))))
    D = S - T
    off = D - np.diag(np.diag(D))
    return KktReport(
        diag_ones_err=float(np.max(np.abs(x_diag - 1.0))),
        x_min_eig=x_min_eig,
        complementary_err=complementary_err,
        dual_structure_err=max(float(np.max(np.abs(off))), float(np.max(np.abs(np.imag(np.diag(D)))))),
        s_min_eig=s_min_eig,
        tol=tol,
        tol_psd_x=tol * x_scale,
        tol_psd_s=tol * s_scale,
        tol_complementary=complementary_bound + tol * s_scale * x_scale,
    )


@dataclass(frozen=True)
class DenseVerdict:
    eigenvalues: np.ndarray  # spectrum of S, ascending
    null_multiplicity: int
    psd: bool
    rank_n: bool
    kkt: KktReport
    tight: bool
    indeterminate: bool
    threshold: float
    data_alignment: float
    certificate_residual: float


def dense_verdict(problem: QcqpProblem, ghat: np.ndarray, grad_tol: float = 1e-7) -> DenseVerdict:
    """Slow-path oracle for certificate.tightness_verdict: the dense
    (n+1) x (n+1) certificate S, its full spectrum and every KKT condition.

    Eigenvalues within 1e-8 * max(1, ||S||_max) of zero count as null; tight
    needs S PSD with a one-dimensional null space, every KKT condition and
    Re(z^* ghat) above that threshold.  X = gt gt^* is not decomposed (its
    spectrum is {0, ||gt||^2}), and its complementary residual is allowed
    n*||grad||_inf/2, the bound derived in the tightness_verdict docstring.
    """
    g = np.asarray(ghat, dtype=complex)
    gn = float(np.max(np.abs(riemannian_grad(problem, g))))
    if gn > grad_tol:
        raise ValueError(f"ghat is not critical: grad sup norm {gn:.3e} exceeds {grad_tol:.1e}")
    L = problem.graph.laplacian()
    T = lift_matrix(problem.lam, L, problem.z)
    S = dual_certificate(g, problem.lam, L, problem.z)
    gt = np.concatenate([g, [1.0 + 0.0j]])
    w = np.linalg.eigvalsh(S)
    threshold = 1e-8 * max(1.0, float(np.max(np.abs(S))))
    null_mult = int(np.count_nonzero(np.abs(w) <= threshold))
    psd = bool(w[0] >= -threshold)
    residual = float(np.max(np.abs(S @ gt)))
    gt_max = float(np.max(np.abs(gt)))
    kkt = _kkt_report(
        x_diag=np.real(gt * np.conj(gt)),
        x_min_eig=0.0,
        x_scale=max(1.0, gt_max ** 2),
        complementary_err=residual * gt_max,
        complementary_bound=0.5 * g.size * gn,
        S=S,
        s_min_eig=float(w[0]),
        T=T,
        tol=1e-8,
    )
    data = float(np.real(np.vdot(problem.z, g)))
    indeterminate = data <= threshold
    return DenseVerdict(
        eigenvalues=w,
        null_multiplicity=null_mult,
        psd=psd,
        rank_n=null_mult == 1,
        kkt=kkt,
        tight=psd and null_mult == 1 and kkt.all_ok and not indeterminate,
        indeterminate=indeterminate,
        threshold=threshold,
        data_alignment=data,
        certificate_residual=residual,
    )


def trs_dense(graph, z, lam: float) -> np.ndarray:
    """Slow-path oracle for baselines.solve_trs: the g with (lam L + mu I) g = z,
    mu > 0 and ||g||^2 = n, from a dense eigendecomposition of L.

    In the eigenbasis ||g(mu)||^2 = sum_k |c_k|^2 / (lam w_k + mu)^2 with
    c = V^* z, strictly decreasing in mu.  A connected graph has the simple
    bottom eigenpair (0, 1/sqrt(n)), which is set exactly: near the hard
    case the constant mode carries almost all of g, and the rounding of the
    computed eigenvector would show in it.  The root is bracketed by
    doubling and halving from mu = 1 and bisected to floating-point
    resolution.
    """
    w, V = np.linalg.eigh(graph.laplacian())
    w[0] = 0.0
    V[:, 0] = 1.0 / np.sqrt(graph.n)
    c = V.conj().T @ np.asarray(z, dtype=complex)
    power = np.abs(c) ** 2
    stiffness = lam * w
    n = graph.n

    def excess(mu):
        return float(np.sum(power / (stiffness + mu) ** 2)) - n

    lo = hi = 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
    while excess(lo) < 0.0:
        lo *= 0.5
        assert lo > 1e-300, "sphere relaxation has no positive multiplier"
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return V @ (c / (stiffness + 0.5 * (lo + hi)))


def brute_force_min_n3(prob: QcqpProblem, coarse: int = 400) -> float:
    """Global minimum of the torus objective on the 3-node path: a dense scan
    of the angles plus a simplex polish."""
    from scipy.optimize import minimize

    angles = np.arange(coarse) * (2.0 * np.pi / coarse)
    z = prob.z
    c12 = prob.lam * (2.0 - 2.0 * np.cos(angles[:, None] - angles[None, :]))
    best = (np.inf, None)
    for i1, t1 in enumerate(angles):
        data = (
            -2.0 * np.cos(t1 - np.angle(z[0]))
            - 2.0 * np.cos(angles[:, None] - np.angle(z[1]))
            - 2.0 * np.cos(angles[None, :] - np.angle(z[2]))
        )
        total = data + c12[i1, :][:, None] + c12  # edges (1,2) and (2,3)
        j = np.unravel_index(np.argmin(total), total.shape)
        if total[j] < best[0]:
            best = (float(total[j]), np.array([t1, angles[j[0]], angles[j[1]]]))

    res = minimize(
        lambda theta: objective(prob, np.exp(1j * theta)),
        best[1],
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000},
    )
    return min(best[0], float(res.fun))


def write_field_rowwise(path, fld: GridField, seed: int | None = None) -> None:
    """Slow-path oracle for fileio.write_field: one formatted line per row."""
    header = f"#GRIDFIELD v1 d={fld.grid.d} m={fld.grid.m} kind={fld.kind}"
    if seed is not None:
        header += f" seed={int(seed)}"
    lines = [header]
    for idx, value in zip(iter_lex(fld.grid), fld.flat):
        lines.append(",".join(str(i) for i in idx) + "," + format(float(value), ".17g"))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_field_rowwise(path) -> GridField:
    """Slow-path oracle for fileio.read_field: parse and check one line at a
    time, raising at the first offending line."""
    header = read_header(path)
    grid = UniformGrid(d=header.d, m=header.m)
    values = np.empty(grid.n)
    with open(path, "r", encoding="ascii") as fh:
        rows = 0
        expected = iter(iter_lex(grid))
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != grid.d + 1:
                raise FormatError(
                    f"expected {grid.d} index components and a value", line=lineno
                )
            if rows >= grid.n:
                raise FormatError(f"more than {grid.n} data rows", line=lineno)
            try:
                idx = tuple(int(p) for p in parts[:-1])
                value = float(parts[-1])
            except ValueError:
                raise FormatError(f"cannot parse row {line!r}", line=lineno) from None
            want = next(expected)
            if idx != want:
                raise FormatError(
                    f"index {idx} out of lexicographic order, expected {want}",
                    line=lineno,
                )
            if header.kind == "mod1" and not 0.0 <= value < 1.0:
                raise FormatError(
                    f"mod1 value {value!r} outside [0, 1)", line=lineno
                )
            if not math.isfinite(value):
                raise FormatError(f"real value {value!r} is not finite", line=lineno)
            values[rows] = value
            rows += 1
    if rows != grid.n:
        raise FormatError(f"found {rows} data rows, header promises {grid.n}")
    return GridField.from_flat(grid, values, kind=header.kind)


def random_planted(d: int, rng: np.random.Generator, max_freq: int = 3) -> PlantedFunction:
    amps = tuple(rng.uniform(-1.0, 1.0, size=d))
    freqs = tuple(int(f) for f in rng.integers(1, max_freq + 1, size=d))
    phases = tuple(rng.uniform(0.0, 2.0 * np.pi, size=d))
    return PlantedFunction(amps, freqs, phases, offset=float(rng.uniform(-2.0, 2.0)))


def random_mod1_field(grid: UniformGrid, rng) -> GridField:
    return GridField(grid, rng.uniform(0.0, 1.0, size=grid.shape), kind="mod1")


@pytest.fixture
def rng():
    return np.random.default_rng(20240831)
