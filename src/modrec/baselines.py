"""Relaxation baselines for the torus denoiser: linear solve and sphere constraint.

Both drop the per-entry unit-modulus constraint of the torus problem.  The
unconstrained relaxation minimizes ||g - z||^2 + lam * g^* L g over all of C^n,
i.e. solves (I + lam*L) g = z.  The sphere relaxation keeps only the aggregate
constraint ||g||^2 = n, whose stationarity system is (lam*L + mu*I) g = z with
a positive multiplier mu fixed by the norm constraint.  With
g(mu) = (lam*L + mu*I)^{-1} z, mu is the root of
psi(mu) = 1/||g(mu)|| - 1/sqrt(n), which is increasing, concave and close to
linear in mu (More and Sorensen, "Computing a trust region step", 1983); a
safeguarded secant search (regula falsi with the Illinois rule) finds it.
The graph is connected, so the null space of L is span(1): the constant mode
mean(z)/mu of the solution is exact, and the root is bracketed in closed
form by [|mean(z)|, ||z||/sqrt(n)].

Both systems are Hermitian positive definite.  On a path they are diagonal
in the Laplacian's eigenbasis, the orthonormal DCT-II
(graphs.PathEigenbasis): the unconstrained solve is one division between
two transforms, and each secular evaluation is a sum over the transformed
z, with no linear solve.  On every other graph they are solved by
conjugate gradients (the graphs here are sparse neighborhoods).  On a
radius-1 grid_graph(d, m), d >= 2, CG is preconditioned by the same system
on the grid's axis edges alone, which the separable DCT-II diagonalises
(graphs.GridAxisEigenbasis), so its iteration count does not grow with m
(_axis_preconditioner says why); other graphs run plain CG.  Both
solvers compute their reported residual from the edge list
(graphs.laplacian_apply), whichever way they solved.  Both methods
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

CG_TOL = 1e-12  # relative residual at which conjugate_gradient stops
SECULAR_TOL = 1e-10  # relative norm defect |(||g||^2 - n)/n| at which solve_trs stops


class HardCaseError(RuntimeError):
    """No positive multiplier solves the sphere stationarity system."""


class NumericError(RuntimeError):
    """An inner iterative solve failed to reach its tolerance."""


def conjugate_gradient(apply_A, b: np.ndarray, x0=None, precondition=None):
    """Preconditioned CG for Hermitian positive definite systems; returns
    (x, iters).

    precondition applies M^{-1} for a Hermitian positive definite M, or the
    pseudo-inverse M^+ of a semidefinite M whose null space A shares; it is
    the identity if None.  The iteration stops once the residual r = b - A x,
    updated as the iterates are, has ||r|| <= CG_TOL * ||b||, whatever M is;
    the cap is 10 * max(b.size, 50) iterations.  With M = I the floats are
    those of plain CG."""
    b = np.asarray(b, dtype=complex)
    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=complex).copy()
    if precondition is None:
        precondition = _identity
    r = b - apply_A(x)
    s = precondition(r)
    p = s.copy()
    rs = float(np.real(np.vdot(r, r)))
    rz = float(np.real(np.vdot(r, s)))
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), 0
    max_iter = 10 * max(b.size, 50)
    for it in range(1, max_iter + 1):
        if np.sqrt(rs) <= CG_TOL * b_norm:
            return x, it - 1
        Ap = apply_A(p)
        alpha = rz / float(np.real(np.vdot(p, Ap)))
        x = x + alpha * p
        r = r - alpha * Ap
        s = precondition(r)
        rs = float(np.real(np.vdot(r, r)))
        rz_new = float(np.real(np.vdot(r, s)))
        p = s + (rz_new / rz) * p
        rz = rz_new
    if np.sqrt(rs) <= CG_TOL * b_norm:
        return x, max_iter
    raise NumericError(
        f"conjugate gradients stalled at relative residual {np.sqrt(rs) / b_norm:.3e}"
    )


def _identity(v):
    return v


def _axis_preconditioner(graph: GraphSpec, lam: float, mu: float):
    """M^+ for M = lam*L_axis + mu*I on a radius-1 grid_graph(d, m), d >= 2;
    None (M = I) on any other graph.

    L_axis is the Laplacian of the grid's axis edges, diagonal in
    graphs.GridAxisEigenbasis, so M^+ is one transform each way and one
    product with 1 / (lam * Lambda_k + mu); at mu = 0 the constant mode,
    where that is 1/0, maps to 0, so M^+ shares the null space span(1) of
    L.  Why CG then takes a number of iterations that does not grow with m
    (support theory: Boman and Hendrickson, SIAM J. Matrix Anal. Appl.,
    2003): the axis edges are a subgraph, so L_axis <= L.  Every other edge
    joins multi-indices that differ by 1 in s <= d coordinates; route it
    along s axis edges, one coordinate at a time in axis order.  By
    Cauchy-Schwarz its Laplacian is at most s times that of its route, and
    each axis edge lies on the routes of a number of edges bounded in
    terms of d alone, so L <= c_d L_axis with c_d free of m (c_2 = 5 will
    do: a route has 2 edges and an axis edge lies on at most 2 routes).  Hence
    M <= lam*L + mu*I <= c_d M, the preconditioned system has condition
    number at most c_d, and CG gains a fixed factor per iteration.
    """
    basis = graph._axis_eigenbasis
    if basis is None:
        return None
    scale = lam * basis.eigenvalues + mu
    inverse_scale = np.divide(1.0, scale, out=np.zeros_like(scale), where=scale > 0.0)
    return lambda v: basis.inverse(basis.forward(v) * inverse_scale)


@dataclass(frozen=True)
class UcqpResult:
    signal: np.ndarray
    raw: np.ndarray
    residual_inf: float
    iterations: int  # CG iterations, preconditioned on a radius-1 grid; 0 on a path


def solve_ucqp(z: np.ndarray, graph: GraphSpec, lam: float) -> UcqpResult:
    """Solve (I + lam*L) g = z and project the minimizer onto the circle.

    On a path g is transformed back from z_k / (1 + lam Lambda_k) in the
    eigenbasis, directly, and iterations is 0.  Other graphs run conjugate
    gradients, preconditioned on a radius-1 grid by I + lam*L_axis.
    lam = 0 is the identity system: z itself is returned, exactly.
    """
    z = QcqpProblem(z, graph, lam).z
    if lam == 0.0:
        return UcqpResult(signal=z.copy(), raw=z.copy(), residual_inf=0.0, iterations=0)

    def apply_A(v):
        return v + lam * laplacian_apply(graph, v)

    basis = graph._path_eigenbasis
    if basis is None:
        raw, iters = conjugate_gradient(apply_A, z, precondition=_axis_preconditioner(graph, lam, 1.0))
    else:
        raw, iters = basis.inverse(basis.forward(z) / (1.0 + lam * basis.eigenvalues)), 0
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
    bisect_iterations: int  # secular evaluations (root-search steps) after the first
    # CG iterations of every inner solve, hard-case check included; preconditioned
    # on a radius-1 grid; 0 on a path
    cg_iterations: int


def solve_trs(z: np.ndarray, graph: GraphSpec, lam: float) -> TrsResult:
    """Sphere-constrained smoothing via a secant search on the secular equation.

    Finds mu > 0 with ||g||^2 = n for g = (lam*L + mu*I)^{-1} z.  L has null
    space span(1) (the graph is connected), so the constant part c = mean(z)
    of z maps exactly to c/mu, and only z - c is solved for, with its
    constant part held at 0: on a path its constant DCT coefficient is set
    to exactly 0, and elsewhere each CG solution is re-centred to mean 0, so
    that rounding drift along 1 cannot build up.  The root lies in
    [|c|, ||z||/sqrt(n)]: at |c| the constant part alone has norm^2 n, and
    ||g|| <= ||z||/mu.  |c| <= n*eps (the rounding of a sum of n unit
    entries) counts as c = 0; then psi(0+) comes from g = (lam*L)^+ (z - c),
    and HardCaseError is raised when ||g||^2 <= n there.

    The search starts at the upper end and stops once the norm defect is
    within SECULAR_TOL * n.  On a path, w = z - c is transformed once, each
    secular evaluation is ||g||^2 = sum_k |w_k|^2 / (lam Lambda_k + mu)^2
    + n |c|^2 / mu^2 over the coefficients, and g takes one inverse
    transform at the end, so cg_iterations is 0.  On other graphs each
    secular evaluation is one CG solve, warm started from the previous one
    and, on a radius-1 grid, preconditioned by lam*L_axis + mu*I.
    Each evaluation replaces the end of the bracket on its side of the
    root.  The next mu is the regula falsi point: the zero of the secant of
    psi between the two ends.  Illinois rule: when an
    evaluation moves the same end as the one before it, the psi kept for
    the other end is halved, so that end moves too.  The next mu is the
    midpoint instead while psi is known at one end only, or when the
    secant point is not strictly inside the bracket.  So the search
    terminates: every step is a float strictly inside (lo, hi) that becomes
    one of its ends, the bracket holds fewer floats after each step, and a
    midpoint equal to an endpoint raises NumericError.

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
    basis = graph._path_eigenbasis
    cg_iters = 0
    if basis is not None:
        # Diagonal in the path's eigenbasis: x_k = w_k / (lam Lambda_k + mu).
        w_hat = basis.forward(w)
        w_hat[0] = 0.0
        stiffness = lam * basis.eigenvalues
        power = np.abs(w_hat) ** 2
        constant_sq = n * abs(c) ** 2

        def centred_norm_sq(mu):
            return float(np.sum(power[1:] / (stiffness[1:] + mu) ** 2))  # w_0 = 0

        def norm_sq_at(mu):
            return centred_norm_sq(mu) + constant_sq / mu**2

        def solution(mu):
            return basis.inverse(w_hat / (stiffness + mu)) + c / mu

    else:
        x = g = None  # the last solve, which warm-starts the next

        def centred_solve(mu, x0=None):
            nonlocal cg_iters

            def apply_A(v):
                return lam * laplacian_apply(graph, v) + mu * v

            x, iters = conjugate_gradient(apply_A, w, x0=x0, precondition=_axis_preconditioner(graph, lam, mu))
            cg_iters += iters
            return x - np.mean(x)

        def centred_norm_sq(mu):
            y = centred_solve(mu)  # not warm-started: only the hard-case check calls it
            return float(np.real(np.vdot(y, y)))

        def norm_sq_at(mu):
            nonlocal x, g
            x = centred_solve(mu, x0=x)
            g = x + c / mu
            return float(np.real(np.vdot(g, g)))

        def solution(mu):
            return g  # of the last evaluation, which is at mu

    def psi(norm_sq):
        # sqrt(n) * (1/||g|| - 1/sqrt(n)), written without cancellation so
        # that its sign is the sign of n - ||g||^2.
        return float((n - norm_sq) / (np.sqrt(norm_sq) * (np.sqrt(n) + np.sqrt(norm_sq))))

    lo, hi = abs(c), float(np.linalg.norm(z) / np.sqrt(n))
    psi_lo = psi_hi = None  # psi at the ends of the bracket, once evaluated there
    if c == 0.0:
        norm_sq = centred_norm_sq(0.0)
        if norm_sq <= n:
            raise HardCaseError("no positive multiplier: mean(z) = 0 and ||(lam L)^+ z||^2 <= n")
        psi_lo = psi(norm_sq)

    mu, iters, side = hi, 0, 0
    while True:
        norm_sq = norm_sq_at(mu)
        if abs(norm_sq - n) <= SECULAR_TOL * n:
            break
        # Illinois rule (see the docstring); side is the end moved last.
        if norm_sq > n:
            lo, psi_lo = mu, psi(norm_sq)
            if side < 0 and psi_hi is not None:
                psi_hi *= 0.5
            side = -1
        else:
            hi, psi_hi = mu, psi(norm_sq)
            if side > 0 and psi_lo is not None:
                psi_lo *= 0.5
            side = 1
        mu = 0.5 * (lo + hi)
        if psi_lo is not None and psi_hi is not None:
            secant = hi - psi_hi * (hi - lo) / (psi_hi - psi_lo)
            if lo < secant < hi:
                mu = secant
        if not lo < mu < hi:
            raise NumericError(f"secular root search stalled at mu = {mu!r}, defect {norm_sq - n:.3e}")
        iters += 1

    g = solution(mu)
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
