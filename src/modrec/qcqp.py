"""Smoothness-regularized denoising on the torus of unit complex signals.

The denoiser minimizes F(g) = lam * g^* L g - 2*Re(g^* z) subject to |g_i| = 1,
where L is the Laplacian of a proximity graph and z the observed unit-modulus
signal.  That objective equals ||g - z||^2 + lam * g^* L g - 2n on the torus,
so it trades data fidelity against graph smoothness.

This module provides the objective, tangent-space projection, Riemannian
gradient and Hessian, a projected-gradient solver with Barzilai-Borwein
initial steps and Armijo backtracking (retraction = componentwise radial
projection), and the sign/realness checks satisfied at first- and
second-order critical points.  The solver certifies first-order criticality
only; global optimality is established separately via the dual certificate
in :mod:`modrec.certificate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import project_to_circle
from .graphs import GraphSpec, adjacency_apply, laplacian_apply, quadratic_form

MAX_ITER = 100_000  # iteration cap of one descent
ARMIJO = 1e-4  # sufficient-decrease constant of the line search
CRITICAL_TOL_SCALE = 1e-7  # critical_point_checks tolerance per vertex


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
    return problem.lam * quadratic_form(problem.graph, g) - 2.0 * float(
        np.real(np.vdot(g, problem.z))
    )


def tangent_project(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project v onto the tangent space at g: v - Re(v * conj(g)) * g, componentwise."""
    g = np.asarray(g, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return v - np.real(v * np.conj(g)) * g


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
    if np.max(np.abs(np.real(gdot * np.conj(g)))) > 1e-9:
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


def _descend(problem, g0, tol):
    g = np.asarray(g0, dtype=complex).copy()
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
    gn = float(np.max(np.abs(grad)))
    while gn > tol and it < MAX_ITER:
        gsq = float(np.sum(np.abs(grad) ** 2))
        eta = eta_first
        g_new = f_new = None
        accepted = False
        while eta >= 1e-20:
            g_new = np.asarray(project_to_circle(g - eta * grad))
            f_new = objective(problem, g_new)
            required = ARMIJO * eta * gsq
            if f_new <= fg - required or (required <= noise and f_new <= fg + noise):
                accepted = True
                break
            eta *= 0.5
            backtracks += 1
        if not accepted or np.array_equal(g_new, g):
            break  # line search exhausted at floating-point resolution
        grad_new = riemannian_grad(problem, g_new)
        s, y = g_new - g, grad_new - grad
        sy = float(np.real(np.vdot(s, y)))
        eta_first = max(float(np.real(np.vdot(s, s))) / sy, eta_safe) if sy > 0.0 else eta_safe
        g, fg, grad = g_new, f_new, grad_new
        it += 1
        gn = float(np.max(np.abs(grad)))
    return g, fg, gn, it, gn <= tol, backtracks


def solve_qcqp(
    problem: QcqpProblem,
    tol: float = 1e-9,
    restarts: int = 0,
    seed: int = 0,
) -> SolveReport:
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
    holds, so the objective is monotone.  The descent starts at z itself
    (the lam = 0 minimizer).  Optional random restarts rerun the descent
    from uniform torus points and keep the best objective.  Non-convergence is
    reported, never raised.
    """
    best = _descend(problem, problem.z, tol)
    if restarts:
        rng = np.random.default_rng(seed)
        for _ in range(restarts):
            angles = rng.uniform(0.0, 2.0 * np.pi, size=problem.graph.n)
            cand = _descend(problem, np.exp(1j * angles), tol)
            if cand[1] < best[1]:
                best = cand
    g, fg, gn, it, ok, backtracks = best
    g.setflags(write=False)
    return SolveReport(
        ghat=g, objective=fg, grad_inf_norm=gn, iterations=it, converged=ok, backtracks=backtracks
    )


@dataclass(frozen=True)
class CriticalPointReport:
    """Realness and sign diagnostics of a candidate critical point.

    At first-order points z^* ghat and every ghat_i^* (z + lam*W*ghat)_i are
    real; at second-order points they are also nonnegative.  tol scales with
    the signal length.
    """

    imag_data_term: float
    max_imag_diag: float
    min_real_diag: float
    data_alignment: float
    tol: float

    @property
    def first_order_ok(self) -> bool:
        return self.imag_data_term <= self.tol and self.max_imag_diag <= self.tol

    @property
    def second_order_ok(self) -> bool:
        return self.data_alignment >= -self.tol and self.min_real_diag >= -self.tol

    @property
    def all_ok(self) -> bool:
        return self.first_order_ok and self.second_order_ok


def critical_point_checks(problem: QcqpProblem, ghat: np.ndarray) -> CriticalPointReport:
    g = np.asarray(ghat, dtype=complex)
    diag_terms = np.conj(g) * (problem.z + problem.lam * adjacency_apply(problem.graph, g))
    data = complex(np.vdot(problem.z, g))
    return CriticalPointReport(
        imag_data_term=abs(data.imag),
        max_imag_diag=float(np.max(np.abs(diag_terms.imag))),
        min_real_diag=float(np.min(diag_terms.real)),
        data_alignment=data.real,
        tol=CRITICAL_TOL_SCALE * problem.graph.n,
    )


def second_order_quadform(problem: QcqpProblem, ghat: np.ndarray, u: np.ndarray) -> float:
    """Real quadratic form u^T {Re diag(z*conj(ghat)) + lam*L_w} u, where L_w is
    the Laplacian of the graph reweighted by Re(ghat_i * conj(ghat_j)).

    Nonnegative (up to roundoff) for every real u at second-order critical
    points.
    """
    g = np.asarray(ghat, dtype=complex)
    u = np.asarray(u, dtype=float)
    if u.shape != (problem.graph.n,):
        raise ValueError("u must be a real vector of length n")
    ei, ej = problem.graph._edge_arrays
    w = np.real(g[ei] * np.conj(g[ej]))
    diag = np.real(problem.z * np.conj(g))
    return float(np.sum(diag * u ** 2) + problem.lam * np.sum(w * (u[ei] - u[ej]) ** 2))
