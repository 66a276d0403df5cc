"""Dual certificate and tightness verdict for the lifted torus denoiser.

The denoising objective lifts to Tr(T W) over Hermitian W >= 0 with unit
diagonal, where

    T = [[lam*L, -z], [-z^*, 0]].

A rank-one solution W = gt gt^* with gt = (ghat; 1) recovers the torus
denoiser exactly.  From a critical point ghat one builds the dual certificate

    S = T - Re(diag(T gt gt^*)),

which always satisfies the linear optimality conditions (S gt = 0 is exactly
first-order criticality, S - T is real diagonal).  If additionally S >= 0
with rank n, the lifted problem has gt gt^* as its unique solution and ghat
is the unique global denoiser.  This module builds S, evaluates the
optimality conditions, decides rank/PSD by eigenvalue thresholding, and
implements the closed-form sufficient conditions and error bound that
guarantee tightness a priori.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eig
from .qcqp import QcqpProblem, riemannian_grad


def lift_matrix(lam: float, L: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The (n+1) x (n+1) Hermitian matrix [[lam*L, -z], [-z^*, 0]]."""
    z = np.asarray(z, dtype=complex)
    n = z.size
    L = np.asarray(L, dtype=float)
    if L.shape != (n, n):
        raise ValueError("Laplacian shape does not match signal length")
    T = np.zeros((n + 1, n + 1), dtype=complex)
    T[:n, :n] = lam * L
    T[:n, n] = -z
    T[n, :n] = -np.conj(z)
    return T


def lift_gram(g: np.ndarray) -> np.ndarray:
    """Rank-one feasible point gt gt^* with gt = (g; 1)."""
    gt = np.concatenate([np.asarray(g, dtype=complex), [1.0 + 0.0j]])
    return np.outer(gt, np.conj(gt))


def dual_certificate(ghat: np.ndarray, lam: float, L: np.ndarray, z: np.ndarray) -> np.ndarray:
    """S = T - Re(diag(T gt gt^*)) built from the definition."""
    return _certificate_of_lift(lift_matrix(lam, L, z), ghat)


def _certificate_of_lift(T: np.ndarray, ghat: np.ndarray) -> np.ndarray:
    gt = np.concatenate([np.asarray(ghat, dtype=complex), [1.0 + 0.0j]])
    return T - np.diag(np.real((T @ gt) * np.conj(gt)))


def dual_certificate_block(ghat: np.ndarray, lam: float, L: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Block assembly [[lam*L + D, -z], [-z^*, Re(z^* ghat)]] with
    D = diag(Re(conj(ghat) * (z - lam*L*ghat))); agrees with the definition
    form everywhere, exactly so at critical points where the real parts are
    the full values."""
    g = np.asarray(ghat, dtype=complex)
    z = np.asarray(z, dtype=complex)
    n = g.size
    D = np.real(np.conj(g) * (z - lam * (np.asarray(L) @ g)))
    S = np.zeros((n + 1, n + 1), dtype=complex)
    S[:n, :n] = lam * np.asarray(L, dtype=float) + np.diag(D)
    S[:n, n] = -z
    S[n, :n] = -np.conj(z)
    S[n, n] = np.real(np.vdot(z, g))
    return S


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
        return (
            self.diag_ones
            and self.x_psd
            and self.complementary
            and self.dual_structure
            and self.s_psd
        )


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
class CertificateReport:
    """Eigenstructure of the dual certificate and the resulting verdict.

    tight means: S is PSD with a one-dimensional null space and every
    optimality condition holds, certifying the candidate as the unique global
    denoiser.  indeterminate is set when Re(z^* ghat) is numerically zero, a
    degenerate configuration on which the rank reduction says nothing.  The
    two smallest eigenvalues are carried so borderline rank decisions can be
    audited.
    """

    eigenvalues: np.ndarray
    min_eig: float
    null_multiplicity: int
    psd: bool
    rank_n: bool
    kkt: KktReport
    tight: bool
    indeterminate: bool
    threshold: float
    smallest_two: tuple
    data_alignment: float
    certificate_residual: float


def tightness_verdict(problem: QcqpProblem, ghat: np.ndarray, grad_tol: float = 1e-7) -> CertificateReport:
    """Build the dual certificate at a converged critical point and classify it.

    Requires the Riemannian gradient at ghat to be below grad_tol in sup norm
    (the certificate construction presumes first-order criticality).
    Eigenvalues within 1e-8 * max(1, ||S||_max) of zero count as null.

    Only the eigenvalues of S are computed, once; X = gt gt^* needs no
    eigendecomposition, its spectrum being {0 (n times), ||gt||^2}.  The
    complementary residual S X has entries (S gt)_i * conj(gt_j), and S gt is
    exactly (grad/2, -i*Im(z^* ghat)) with grad the Riemannian gradient.
    Since Im(z^* ghat) = sum_i Im(conj(ghat_i) * (lam*L*ghat - z)_i) and each
    term is half a gradient entry in modulus, ||S X||_max <= n*||grad||_inf/2;
    the complementary test allows that bound plus 1e-8 * max(1, ||S||_max)
    for roundoff.
    """
    g = np.asarray(ghat, dtype=complex)
    gn = float(np.max(np.abs(riemannian_grad(problem, g))))
    if gn > grad_tol:
        raise ValueError(
            f"ghat is not critical: grad sup norm {gn:.3e} exceeds {grad_tol:.1e}"
        )
    T = lift_matrix(problem.lam, problem.graph.laplacian(), problem.z)
    S = _certificate_of_lift(T, g)
    gt = np.concatenate([g, [1.0 + 0.0j]])
    w = np.linalg.eigvalsh(S)  # S is Hermitian by construction
    threshold = 1e-8 * max(1.0, float(np.max(np.abs(S))))
    null_mult = int(np.count_nonzero(np.abs(w) <= threshold))
    psd = bool(w[0] >= -threshold)
    rank_n = null_mult == 1
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
    tight = psd and rank_n and kkt.all_ok and not indeterminate
    return CertificateReport(
        eigenvalues=w,
        min_eig=float(w[0]),
        null_multiplicity=null_mult,
        psd=psd,
        rank_n=rank_n,
        kkt=kkt,
        tight=tight,
        indeterminate=indeterminate,
        threshold=threshold,
        smallest_two=(float(w[0]), float(w[1])) if w.size > 1 else (float(w[0]),),
        data_alignment=data,
        certificate_residual=residual,
    )


@dataclass(frozen=True)
class AprioriConditions:
    cond1_value: float
    cond1: bool
    cond2: bool
    ok: bool


def apriori_tightness_conditions(
    delta: float, lam: float, max_degree: float, smoothness: float
) -> AprioriConditions:
    """Closed-form sufficient conditions for tightness from problem data alone:

    1.  delta + sqrt((8/7)*(3*delta + lam*Delta*(B^2 + sqrt(2)))) <= sqrt(2)/3
    2.  lam*Delta <= 1/8

    where delta bounds ||z - h||_inf, Delta is the max degree and B the edge
    smoothness of the ground truth.
    """
    if not 0.0 <= delta <= 2.0:
        raise ValueError("delta must lie in [0, 2]")
    if not 0.0 <= smoothness <= 2.0:
        raise ValueError("smoothness must lie in [0, 2]")
    ld = lam * max_degree
    value = delta + np.sqrt((8.0 / 7.0) * (3.0 * delta + ld * (smoothness ** 2 + np.sqrt(2.0))))
    cond1 = bool(value <= np.sqrt(2.0) / 3.0)
    cond2 = bool(ld <= 1.0 / 8.0)
    return AprioriConditions(
        cond1_value=float(value), cond1=cond1, cond2=cond2, ok=cond1 and cond2
    )


def empirical_tightness_condition(
    lam: float, max_degree: float, smoothness: float, delta: float, ghat_err_inf: float
) -> bool:
    """Data-dependent sufficient condition, given the realized solution error:

    lam*Delta*(B + 2*e) + ((3 - s^2)/(2 - s^2)) * s^2 < 1  with s = delta + e.

    Requires s < sqrt(2) so the denominator is positive.
    """
    s = delta + ghat_err_inf
    if s * s >= 2.0:
        raise ValueError("delta + ghat_err_inf must be below sqrt(2)")
    value = lam * max_degree * (smoothness + 2.0 * ghat_err_inf) + (3.0 - s * s) / (
        2.0 - s * s
    ) * s * s
    return bool(value < 1.0)


def linf_error_bound(delta: float, lam: float, max_degree: float, smoothness: float) -> float:
    """Bound on the squared sup-norm error of any global denoiser:

    ||ghat - h||_inf^2 <= (2*delta + delta^2 + lam*Delta*(B^2 + sqrt(2)))
                          / (1 - lam*Delta/sqrt(2)),

    valid whenever lam*Delta < sqrt(2).
    """
    ld = lam * max_degree
    if ld >= np.sqrt(2.0):
        raise ValueError("lam * max_degree must be below sqrt(2)")
    num = 2.0 * delta + delta ** 2 + ld * (smoothness ** 2 + np.sqrt(2.0))
    return float(num / (1.0 - ld / np.sqrt(2.0)))
