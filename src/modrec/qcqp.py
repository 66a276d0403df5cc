"""Smoothness-regularized denoising on the torus of unit complex signals.

The denoiser minimizes F(g) = lam * g^* L g - 2*Re(g^* z) subject to |g_i| = 1,
where L is the Laplacian of a proximity graph and z the observed unit-modulus
signal.  That objective equals ||g - z||^2 + lam * g^* L g - 2n on the torus,
so it trades data fidelity against graph smoothness.

This module provides the objective, tangent-space projection, Riemannian
gradient and Hessian, a projected-gradient solver with Barzilai-Borwein
initial steps and Armijo backtracking (retraction = componentwise radial
projection).  The solver certifies first-order criticality only; global
optimality is established separately via the dual certificate in
:mod:`modrec.certificate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import project_to_circle
from .graphs import GraphSpec, laplacian_apply, quadratic_form

MAX_ITER = 100_000  # iteration cap of one descent
ARMIJO = 1e-4  # sufficient-decrease constant of the line search
STOP_GRAD_INF = 1e-9  # Riemannian gradient sup norm at which a descent stops and converged holds


@dataclass(frozen=True)
class QcqpProblem:
    z: np.ndarray
    graph: GraphSpec
    lam: float

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        if z.shape != (self.graph.n,):
            raise ValueError("signal length does not match graph size")
        if np.any(np.abs(np.abs(z) - 1.0) > 1e-9):
            raise ValueError("z must have unit-modulus entries")
        if not 0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and >= 0")
        z = z.copy()
        z.setflags(write=False)
        object.__setattr__(self, "z", z)


def objective(problem: QcqpProblem, g: np.ndarray) -> float:
    """F(g) = lam * g^* L g - 2*Re(g^* z); real for any complex g."""
    g = np.asarray(g, dtype=complex)
    return problem.lam * quadratic_form(problem.graph, g) - 2.0 * float(np.vdot(g, problem.z).real)


def tangent_project(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project v onto the tangent space at g: v - Re(v * conj(g)) * g, componentwise."""
    g = np.asarray(g, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return v - (v * g.conj()).real * g


def euclidean_grad(problem: QcqpProblem, g: np.ndarray) -> np.ndarray:
    return 2.0 * (problem.lam * laplacian_apply(problem.graph, np.asarray(g, dtype=complex)) - problem.z)


def riemannian_grad(problem: QcqpProblem, g: np.ndarray) -> np.ndarray:
    """Tangent projection of the ambient gradient 2*(lam*L*g - z); zero exactly
    at first-order critical points."""
    g = np.asarray(g, dtype=complex)
    return tangent_project(g, euclidean_grad(problem, g))


def hessian_apply(problem: QcqpProblem, g: np.ndarray, gdot: np.ndarray) -> np.ndarray:
    """Riemannian Hessian applied to a tangent vector:
    P_g(2*(lam*L*gdot - Re((lam*L*g - z) * conj(g)) * gdot))."""
    g = np.asarray(g, dtype=complex)
    gdot = np.asarray(gdot, dtype=complex)
    # Rounding in a tangent vector's radial part scales with its size.
    if np.abs((gdot * g.conj()).real).max() > 1e-9 * np.abs(gdot).max():
        raise ValueError("gdot is not tangent at g")
    radial = np.real((problem.lam * laplacian_apply(problem.graph, g) - problem.z) * np.conj(g))
    raw = 2.0 * (problem.lam * laplacian_apply(problem.graph, gdot) - radial * gdot)
    return tangent_project(g, raw)


@dataclass(frozen=True)
class SolveReport:
    ghat: np.ndarray
    objective: float
    grad_inf_norm: float
    iterations: int
    converged: bool
    backtracks: int  # step halvings summed over every line search


def solve_qcqp(problem: QcqpProblem) -> SolveReport:
    """Projected Riemannian gradient descent with Armijo backtracking.

    Step rule.  Gershgorin bounds the Laplacian by ||L|| <= 2*Delta (Delta
    the max degree), and the radial factor |Re((lam*L*g - z) * conj(g))_i|
    by 1 + 2*lam*Delta, so the Riemannian Hessian (see hessian_apply)
    satisfies ||Hess|| <= 2*(1 + 4*lam*Delta).  Its inverse,
    eta_safe = 1/(2*(1 + 4*lam*Delta)), is a step that contracts every mode
    near a minimizer; it starts the first line search and any line search
    whose last step saw no positive curvature.  Every other line search
    starts at the Barzilai-Borwein step <s, s>/Re<s, y> (s the last step in
    g, y the change in the Riemannian gradient), floored at eta_safe.
    Backtracking halves the step until the Armijo sufficient decrease
    holds, so the objective is monotone.  One descent runs, started at z
    itself (the lam = 0 minimizer), until the gradient sup norm is at most
    STOP_GRAD_INF or MAX_ITER steps are taken.  It seeks a first-order
    critical point; whether that point is the global minimizer is for the
    certificate in modrec.certificate to decide.  Non-convergence is
    reported, never raised.  Every float of the descent is pinned: a test
    compares its outputs byte for byte with a reference copy of the loop
    and of the helper forms it was written with
    (tests/conftest.py, solve_qcqp_reference).
    """
    g = problem.z.copy()
    fg = objective(problem, g)
    lam_delta = problem.lam * problem.graph.max_degree
    eta_safe = 0.5 / (1.0 + 4.0 * lam_delta)
    # Below this the sufficient-decrease test is not resolvable in binary64:
    # F sums lam*g^*Lg and -2Re(g^*z), bounded on the torus by 2n*lam*Delta
    # and 2n, so their rounding stays in F when they cancel.  Near a minimum
    # the step still shrinks the gradient, so accept any step that does not
    # measurably increase F.
    noise = 1e-15 * (1.0 + 2.0 * g.size * (1.0 + lam_delta))
    eta_first = eta_safe
    it = backtracks = 0
    grad = riemannian_grad(problem, g)
    grad_abs = np.abs(grad)  # one modulus serves the stopping test and the next Armijo test
    gn = float(grad_abs.max())
    while gn > STOP_GRAD_INF and it < MAX_ITER:
        gsq = float((grad_abs ** 2).sum())
        eta = eta_first
        g_new = f_new = None
        accepted = False
        while eta >= 1e-20:
            g_new = project_to_circle(g - eta * grad)
            f_new = objective(problem, g_new)
            required = ARMIJO * eta * gsq
            if f_new <= fg - required or (required <= noise and f_new <= fg + noise):
                accepted = True
                break
            eta *= 0.5
            backtracks += 1
        if not accepted or (g_new == g).all():
            break  # line search exhausted at floating-point resolution
        grad_new = riemannian_grad(problem, g_new)
        s, y = g_new - g, grad_new - grad
        sy = float(np.vdot(s, y).real)
        eta_first = max(float(np.vdot(s, s).real) / sy, eta_safe) if sy > 0.0 else eta_safe
        g, fg, grad = g_new, f_new, grad_new
        it += 1
        grad_abs = np.abs(grad)
        gn = float(grad_abs.max())
    g.setflags(write=False)
    return SolveReport(
        ghat=g, objective=fg, grad_inf_norm=gn, iterations=it, converged=gn <= STOP_GRAD_INF,
        backtracks=backtracks,
    )

