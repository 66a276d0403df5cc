"""Relaxation baselines for the torus denoiser: linear solve and sphere constraint.

Both drop the per-entry unit-modulus constraint of the torus problem.  The
unconstrained relaxation minimizes ||g - z||^2 + lam * g^* L g over all of C^n,
i.e. solves (I + lam*L) g = z.  The sphere relaxation keeps only the aggregate
constraint ||g||^2 = n, whose stationarity system is (lam*L + mu*I) g = z with
a positive multiplier mu fixed by the norm constraint; mu is found by
bisection on the strictly decreasing secular function
phi(mu) = ||(lam*L + mu*I)^{-1} z||^2 - n.  The graph is connected, so the
null space of L is span(1): the constant mode mean(z)/mu of the solution is
exact, and the root is bracketed in closed form by [|mean(z)|, ||z||/sqrt(n)].

Inner systems are Hermitian positive definite and solved by plain conjugate
gradients (the graphs here are sparse paths and neighborhoods).  Both methods
return the solution projected entrywise onto the circle, alongside the raw
minimizer.  A sphere problem whose secular function has no positive root
(mean(z) = 0 to rounding and ||(lam*L)^+ z||^2 <= n) raises HardCaseError
rather than perturbing the data silently.  The inputs (z, graph, lam) are
validated by QcqpProblem, the torus problem that both methods relax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import project_to_circle
from .graphs import GraphSpec, laplacian_apply
from .qcqp import QcqpProblem

TRS_CG_TOL = 1e-12  # relative CG residual of each inner solve of solve_trs


class HardCaseError(RuntimeError):
    """No positive multiplier solves the sphere stationarity system."""


class NumericError(RuntimeError):
    """An inner iterative solve failed to reach its tolerance."""


def conjugate_gradient(apply_A, b: np.ndarray, tol: float, max_iter: int, x0=None):
    """CG for Hermitian positive definite systems; returns (x, rel_residual, iters)."""
    b = np.asarray(b, dtype=complex)
    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=complex).copy()
    r = b - apply_A(x)
    p = r.copy()
    rs = float(np.real(np.vdot(r, r)))
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), 0.0, 0
    for it in range(1, max_iter + 1):
        if np.sqrt(rs) <= tol * b_norm:
            return x, np.sqrt(rs) / b_norm, it - 1
        Ap = apply_A(p)
        alpha = rs / float(np.real(np.vdot(p, Ap)))
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(np.real(np.vdot(r, r)))
        p = r + (rs_new / rs) * p
        rs = rs_new
    if np.sqrt(rs) <= tol * b_norm:
        return x, np.sqrt(rs) / b_norm, max_iter
    raise NumericError(
        f"conjugate gradients stalled at relative residual {np.sqrt(rs) / b_norm:.3e}"
    )


@dataclass(frozen=True)
class UcqpResult:
    signal: np.ndarray
    raw: np.ndarray
    residual_inf: float
    iterations: int


def solve_ucqp(z: np.ndarray, graph: GraphSpec, lam: float, cg_tol: float = 1e-12) -> UcqpResult:
    """Solve (I + lam*L) g = z and project the minimizer onto the circle.

    lam = 0 is the identity system: z itself is returned, exactly.
    """
    z = QcqpProblem(z, graph, lam).z
    if lam == 0.0:
        return UcqpResult(signal=z.copy(), raw=z.copy(), residual_inf=0.0, iterations=0)

    def apply_A(v):
        return v + lam * laplacian_apply(graph, v)

    raw, _, iters = conjugate_gradient(apply_A, z, cg_tol, 10 * graph.n)
    residual = float(np.max(np.abs(apply_A(raw) - z)))
    return UcqpResult(
        signal=np.asarray(project_to_circle(raw)),
        raw=raw,
        residual_inf=residual,
        iterations=iters,
    )


@dataclass(frozen=True)
class TrsResult:
    signal: np.ndarray
    raw: np.ndarray
    mu: float
    norm_sq: float
    stationarity_inf: float
    bisect_iterations: int  # secular evaluations after the first
    cg_iterations: int  # CG iterations of every inner solve, hard-case check included


def solve_trs(
    z: np.ndarray,
    graph: GraphSpec,
    lam: float,
    bisect_tol: float = 1e-10,
) -> TrsResult:
    """Sphere-constrained smoothing via bisection on the secular function.

    Finds mu > 0 with ||g||^2 = n for g = (lam*L + mu*I)^{-1} z.  L has null
    space span(1) (the graph is connected), so the constant part c = mean(z)
    of z maps exactly to c/mu, and CG solves only for z - c, re-centred to
    mean 0 so that rounding drift along 1 cannot build up.  The root lies in
    [|c|, ||z||/sqrt(n)]: at |c| the constant part alone has norm^2 n, and
    ||g|| <= ||z||/mu.  Bisection starts at the upper end and stops once the
    norm defect is within bisect_tol * n; a midpoint equal to an endpoint
    raises NumericError.  |c| <= n*eps (the rounding of a sum of n unit
    entries) counts as c = 0; then phi(0+) = ||(lam*L)^+ (z - c)||^2 - n, and
    HardCaseError is raised when that is not positive.

    lam = 0 has the closed-form solution mu = 1, g = z (the input already
    lies on the sphere), returned exactly.
    """
    z = QcqpProblem(z, graph, lam).z
    n = graph.n
    if lam == 0.0:
        return TrsResult(
            signal=z.copy(),
            raw=z.copy(),
            mu=1.0,
            norm_sq=float(n),
            stationarity_inf=0.0,
            bisect_iterations=0,
            cg_iterations=0,
        )

    c = complex(np.mean(z))
    w = z - c
    if abs(c) <= n * np.finfo(float).eps:
        c = 0.0
    cg_iters = 0

    def centred_solve(mu, x0=None):
        nonlocal cg_iters

        def apply_A(v):
            return lam * laplacian_apply(graph, v) + mu * v

        x, _, iters = conjugate_gradient(apply_A, w, TRS_CG_TOL, 10 * max(n, 50), x0=x0)
        cg_iters += iters
        return x - np.mean(x)

    if c == 0.0:
        x = centred_solve(0.0)
        if float(np.real(np.vdot(x, x))) <= n:
            raise HardCaseError("no positive multiplier: mean(z) = 0 and ||(lam L)^+ z||^2 <= n")

    lo, hi = abs(c), float(np.linalg.norm(z) / np.sqrt(n))
    mu, x, iters = hi, None, 0
    while True:
        x = centred_solve(mu, x0=x)
        g = x + c / mu
        norm_sq = float(np.real(np.vdot(g, g)))
        if abs(norm_sq - n) <= bisect_tol * n:
            break
        if norm_sq > n:
            lo = mu
        else:
            hi = mu
        mu = 0.5 * (lo + hi)
        if not lo < mu < hi:
            raise NumericError(f"secular bisection stalled at mu = {mu!r}, defect {norm_sq - n:.3e}")
        iters += 1

    stationarity = float(np.max(np.abs(lam * laplacian_apply(graph, g) + mu * g - z)))
    return TrsResult(
        signal=np.asarray(project_to_circle(g)),
        raw=g,
        mu=mu,
        norm_sq=norm_sq,
        stationarity_inf=stationarity,
        bisect_iterations=iters,
        cg_iterations=cg_iters,
    )


def lambda_schedule(kappa: float, n: int) -> float:
    """Smoothing weight schedule kappa * n^(10/12), increasing in n."""
    if not 0 < kappa < np.inf:
        raise ValueError("kappa must be finite and positive")
    return float(kappa * n ** (10.0 / 12.0))
