"""Relaxation baselines for the torus denoiser: linear solve and sphere constraint.

Both drop the per-entry unit-modulus constraint of the torus problem.  The
unconstrained relaxation minimizes ||g - z||^2 + lam * g^* L g over all of C^n,
i.e. solves (I + lam*L) g = z.  The sphere relaxation keeps only the aggregate
constraint ||g||^2 = n, whose stationarity system is (lam*L + mu*I) g = z with
a positive multiplier mu fixed by the norm constraint; mu is found by
bisection on the strictly decreasing secular function
phi(mu) = ||(lam*L + mu*I)^{-1} z||^2 - n.

Inner systems are Hermitian positive definite and solved by plain conjugate
gradients (the graphs here are sparse paths and neighborhoods).  Both methods
return the solution projected entrywise onto the circle, alongside the raw
minimizer.  A sphere problem whose secular function has no positive root (z
orthogonal to the smallest eigenspace) raises HardCaseError rather than
perturbing the data silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import project_to_circle
from .graphs import GraphSpec, laplacian_apply

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


def _check_unit_signal(z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(np.abs(z) - 1.0) > 1e-9):
        raise ValueError("z must be a unit-modulus (circle-embedded) signal")
    return z


def solve_ucqp(z: np.ndarray, graph: GraphSpec, lam: float, cg_tol: float = 1e-12) -> UcqpResult:
    """Solve (I + lam*L) g = z and project the minimizer onto the circle.

    lam = 0 is the identity system: z itself is returned, exactly.
    """
    z = _check_unit_signal(z)
    if lam < 0:
        raise ValueError("lam must be >= 0")
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
    bisect_iterations: int


def solve_trs(
    z: np.ndarray,
    graph: GraphSpec,
    lam: float,
    bisect_tol: float = 1e-10,
) -> TrsResult:
    """Sphere-constrained smoothing via bisection on the secular function.

    Finds mu > 0 with ||(lam*L + mu*I)^{-1} z||^2 = n, growing a geometric
    bracket from mu = ||z||/sqrt(n) and bisecting until the norm defect is
    within bisect_tol * n.  Raises HardCaseError when no positive root exists.

    lam = 0 has the closed-form solution mu = 1, g = z (the input already
    lies on the sphere), returned exactly.
    """
    z = _check_unit_signal(z)
    if lam < 0:
        raise ValueError("lam must be >= 0")
    n = graph.n
    if lam == 0.0:
        return TrsResult(
            signal=z.copy(),
            raw=z.copy(),
            mu=1.0,
            norm_sq=float(n),
            stationarity_inf=0.0,
            bisect_iterations=0,
        )

    def solve_for(mu, x0=None):
        def apply_A(v):
            return lam * laplacian_apply(graph, v) + mu * v

        x, _, _ = conjugate_gradient(apply_A, z, TRS_CG_TOL, 10 * max(n, 50), x0=x0)
        return x

    def phi(g):
        return float(np.real(np.vdot(g, g))) - n

    mu = float(np.linalg.norm(z) / np.sqrt(n))
    if mu <= 0.0:
        raise ValueError("z must be nonzero")
    g = solve_for(mu)
    iters = 0
    if abs(phi(g)) <= bisect_tol * n:
        mu_final, g_final = mu, g
    else:
        if phi(g) > 0.0:
            lo, g_lo = mu, g
            hi = 2.0 * mu
            g_hi = solve_for(hi, x0=g)
            while phi(g_hi) > 0.0:
                lo, g_lo = hi, g_hi
                hi *= 2.0
                if hi > 1e18:
                    raise NumericError("secular bracket grew without sign change")
                g_hi = solve_for(hi, x0=g_hi)
        else:
            hi, g_hi = mu, g
            lo = 0.5 * mu
            g_lo = solve_for(lo, x0=g)
            floor = 1e-14 * mu
            while phi(g_lo) < 0.0:
                hi, g_hi = lo, g_lo
                lo *= 0.5
                if lo < floor:
                    raise HardCaseError(
                        "no positive multiplier reaches the sphere: "
                        "z is (numerically) orthogonal to the bottom eigenspace"
                    )
                g_lo = solve_for(lo, x0=g_lo)
        mu_final, g_final = mu, g
        for _ in range(200):
            iters += 1
            mid = 0.5 * (lo + hi)
            g_mid = solve_for(mid, x0=g_final)
            mu_final, g_final = mid, g_mid
            val = phi(g_mid)
            if abs(val) <= bisect_tol * n:
                break
            if val > 0.0:
                lo = mid
            else:
                hi = mid
        else:
            raise NumericError("secular bisection did not reach tolerance")

    stationarity = float(
        np.max(np.abs(lam * laplacian_apply(graph, g_final) + mu_final * g_final - z))
    )
    return TrsResult(
        signal=np.asarray(project_to_circle(g_final)),
        raw=g_final,
        mu=mu_final,
        norm_sq=float(np.real(np.vdot(g_final, g_final))),
        stationarity_inf=stationarity,
        bisect_iterations=iters,
    )


def lambda_schedule(kappa: float, n: int) -> float:
    """Smoothing weight schedule kappa * n^(10/12), increasing in n."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return float(kappa * n ** (10.0 / 12.0))
