"""Dual certificate and tightness verdict for the lifted torus denoiser.

The denoising objective lifts to Tr(T W) over Hermitian W >= 0 with unit
diagonal, where

    T = [[lam*L, -z], [-z^*, 0]].

A rank-one solution W = gt gt^* with gt = (ghat; 1) recovers the torus
denoiser exactly.  From a critical point ghat one builds the dual certificate

    S = T - Re(diag(T gt gt^*)) = [[A, -z], [-z^*, Re(z^* ghat)]],

which always satisfies the linear optimality conditions (S - T is real
diagonal); S gt = 0 is exactly first-order criticality.  If additionally
S >= 0 with null space span(gt), the lifted problem has gt gt^* as its
unique solution and ghat is the unique global denoiser.  Given S gt = 0 that
holds exactly when the real n x n block

    A = lam*L + diag(Re(conj(ghat) * (z - lam*L*ghat)))

is positive definite (Bandeira-Boumal-Singer, "Tightness of the maximum
likelihood semidefinite relaxation for angular synchronization", 2017), so
the verdict decides on A alone and never forms S.  The dense lift and
certificate remain for the identities they satisfy.  The module also
implements the closed-form sufficient conditions and error bound that
guarantee tightness a priori.  They take lam_delta = lam*Delta, the smoothing
weight times the max degree Delta, the one product through which they
depend on either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import GraphSpec, laplacian_apply
from .qcqp import QcqpProblem, riemannian_grad

GRAD_TOL = 1e-7  # largest Riemannian gradient sup norm the verdict accepts as critical
TOL = 1e-8  # unit-modulus tolerance, and the eigenvalue threshold relative to ||A||_max


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


def dual_certificate(ghat: np.ndarray, lam: float, L: np.ndarray, z: np.ndarray) -> np.ndarray:
    """S = T - Re(diag(T gt gt^*)) built densely from the definition."""
    T = lift_matrix(lam, L, z)
    gt = np.concatenate([np.asarray(ghat, dtype=complex), [1.0 + 0.0j]])
    return T - np.diag(np.real((T @ gt) * np.conj(gt)))


def schur_block(ghat: np.ndarray, lam: float, graph: GraphSpec, z: np.ndarray) -> np.ndarray:
    """The real n x n block A = lam*L + diag(Re(conj(ghat) * (z - lam*L*ghat)))
    of the dual certificate, assembled from the edge list: -lam on each edge,
    lam*degree plus the diagonal term on the diagonal."""
    g = np.asarray(ghat, dtype=complex)
    D = np.real(np.conj(g) * (np.asarray(z, dtype=complex) - lam * laplacian_apply(graph, g)))
    ei, ej = graph._edge_arrays
    A = np.zeros((graph.n, graph.n))
    A[ei, ej] = A[ej, ei] = -lam
    np.fill_diagonal(A, lam * graph.degrees + D)
    return A


@dataclass(frozen=True)
class CertificateReport:
    """Tightness verdict and the margin it was decided by.

    tight means: ghat lies on the torus and schur_min_eig, the smallest
    eigenvalue of the Schur block A, exceeds threshold = 1e-8 * max(1,
    ||A||_max), certifying ghat as the unique global denoiser.
    indeterminate is set when data_alignment = Re(z^* ghat) is at most
    threshold, a degenerate configuration on which the reduction says
    nothing.  certificate_residual is ||S gt||_inf.
    """

    tight: bool
    indeterminate: bool
    schur_min_eig: float
    threshold: float
    data_alignment: float
    certificate_residual: float


def tightness_verdict(problem: QcqpProblem, ghat: np.ndarray) -> CertificateReport:
    """Classify a converged critical point by the Schur block of its certificate.

    Requires the Riemannian gradient at ghat to be below GRAD_TOL in sup
    norm (the certificate construction presumes first-order criticality) and
    raises ValueError otherwise.

    S gt is exactly (grad/2, -i*Im(z^* ghat)) with grad the Riemannian
    gradient, so certificate_residual = max(||grad||_inf/2, |Im(z^* ghat)|)
    needs no S.  Complementarity S X = 0 needs no separate test: for
    X = gt gt^*, S X has entries (S gt)_i * conj(gt_j), and since
    Im(z^* ghat) = sum_i Im(conj(ghat_i) * (lam*L*ghat - z)_i), each term
    half a gradient entry in modulus, ||S X||_max <= n*||grad||_inf/2, which
    the criticality check already bounds.  X >= 0 and S - T real diagonal
    hold by construction, the unit diagonal of X is the check
    |ghat_i|^2 = 1 within 1e-8, and S >= 0 with null space span(gt) is A > 0,
    decided as lambda_min(A) > 1e-8 * max(1, ||A||_max).
    """
    g = np.asarray(ghat, dtype=complex)
    gn = float(np.max(np.abs(riemannian_grad(problem, g))))
    if gn > GRAD_TOL:
        raise ValueError(
            f"ghat is not critical: grad sup norm {gn:.3e} exceeds {GRAD_TOL:.1e}"
        )
    on_torus = float(np.max(np.abs(np.real(g * np.conj(g)) - 1.0))) <= TOL
    A = schur_block(g, problem.lam, problem.graph, problem.z)
    schur_min_eig = float(np.linalg.eigvalsh(A)[0])
    threshold = TOL * max(1.0, float(np.max(np.abs(A))))
    data = complex(np.vdot(problem.z, g))
    indeterminate = data.real <= threshold
    return CertificateReport(
        tight=on_torus and schur_min_eig > threshold and not indeterminate,
        indeterminate=indeterminate,
        schur_min_eig=schur_min_eig,
        threshold=threshold,
        data_alignment=data.real,
        certificate_residual=max(0.5 * gn, abs(data.imag)),
    )


@dataclass(frozen=True)
class AprioriConditions:
    cond1_value: float
    cond1: bool
    cond2: bool
    ok: bool


def apriori_tightness_conditions(
    delta: float, lam_delta: float, smoothness: float
) -> AprioriConditions:
    """Closed-form sufficient conditions for tightness from problem data alone:

    1.  delta + sqrt((8/7)*(3*delta + lam_delta*(B^2 + sqrt(2)))) <= sqrt(2)/3
    2.  lam_delta <= 1/8

    where delta bounds ||z - h||_inf and B is the edge smoothness of the
    ground truth.
    """
    if not 0.0 <= delta <= 2.0:
        raise ValueError("delta must lie in [0, 2]")
    if not 0.0 <= smoothness <= 2.0:
        raise ValueError("smoothness must lie in [0, 2]")
    inner = 3.0 * delta + lam_delta * (smoothness ** 2 + np.sqrt(2.0))
    value = delta + np.sqrt((8.0 / 7.0) * inner)
    cond1 = bool(value <= np.sqrt(2.0) / 3.0)
    cond2 = bool(lam_delta <= 1.0 / 8.0)
    return AprioriConditions(cond1_value=float(value), cond1=cond1, cond2=cond2, ok=cond1 and cond2)


def empirical_tightness_condition(
    delta: float, lam_delta: float, smoothness: float, ghat_err_inf: float
) -> bool:
    """Data-dependent sufficient condition, given the realized solution error:

    lam_delta*(B + 2*e) + ((3 - s^2)/(2 - s^2)) * s^2 < 1  with s = delta + e.

    Requires s < sqrt(2) so the denominator is positive.
    """
    s = delta + ghat_err_inf
    if s * s >= 2.0:
        raise ValueError("delta + ghat_err_inf must be below sqrt(2)")
    value = lam_delta * (smoothness + 2.0 * ghat_err_inf) + (3.0 - s * s) / (2.0 - s * s) * s * s
    return bool(value < 1.0)


def linf_error_bound(delta: float, lam_delta: float, smoothness: float) -> float:
    """Bound on the squared sup-norm error of any global denoiser:

    ||ghat - h||_inf^2 <= (2*delta + delta^2 + lam_delta*(B^2 + sqrt(2)))
                          / (1 - lam_delta/sqrt(2)),

    valid whenever lam_delta < sqrt(2).
    """
    if lam_delta >= np.sqrt(2.0):
        raise ValueError("lam_delta must be below sqrt(2)")
    num = 2.0 * delta + delta ** 2 + lam_delta * (smoothness ** 2 + np.sqrt(2.0))
    return float(num / (1.0 - lam_delta / np.sqrt(2.0)))
