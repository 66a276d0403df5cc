"""Relaxation baselines for the torus denoiser: linear solve and sphere constraint.

Both drop the per-entry unit-modulus constraint of the torus problem.  The
unconstrained relaxation minimizes ||g - z||^2 + lam * g^* L g over all of C^n,
i.e. solves (I + lam*L) g = z.  The sphere relaxation keeps only the aggregate
constraint ||g||^2 = n, whose stationarity system is (lam*L + mu*I) g = z with
a positive multiplier mu fixed by the norm constraint.  The graph is
connected, so the null space of L is span(1), and with c = mean(z) the
solution g(mu) = (lam*L + mu*I)^{-1} z splits into the constant mode c/mu,
exact, and the centred solve x(mu) = (lam*L + mu*I)^{-1} (z - c): mu is the
root of the secular equation ||g(mu)||^2 = n|c|^2/mu^2 + phi(mu) = n, with
phi(mu) = ||x(mu)||^2 decreasing.  The root is bracketed in closed form by
[|c|, ||z||/sqrt(n)].  On smooth data the constant mode carries most of
||g||^2, so the root search models the secular equation by that mode, as
More and Sorensen ("Computing a trust region step", 1983) model it by its
dominant mode; here the mode is known in closed form, and only phi is
modelled, from the last one or two evaluations.  Each model root is only a
step target inside the bracket, whose ends move on the sign of an evaluated
norm defect alone; solve_trs gives the model, a proof that its first step
is a lower bound of the root, and why the search terminates.

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

import math
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
    # secular evaluations after the first, each a model step of the root search
    # (the hard-case check at mu = 0 not counted)
    bisect_iterations: int
    # CG iterations of every inner solve, hard-case check included; preconditioned
    # on a radius-1 grid; 0 on a path
    cg_iterations: int


def solve_trs(z: np.ndarray, graph: GraphSpec, lam: float) -> TrsResult:
    """Sphere-constrained smoothing via a model search on the secular equation.

    Finds mu > 0 with ||g||^2 = n for g = (lam*L + mu*I)^{-1} z.  L has null
    space span(1) (the graph is connected), so the constant part c = mean(z)
    of z maps exactly to c/mu, and only w = z - c is solved for, with its
    constant part held at 0: on a path its constant DCT coefficient is set
    to exactly 0, and elsewhere each CG solution is re-centred to mean 0, so
    that rounding drift along 1 cannot build up.  So ||g(mu)||^2 =
    n|c|^2/mu^2 + phi(mu), with phi(mu) the squared norm of the centred
    solve, decreasing in mu.  The root lies in [|c|, ||z||/sqrt(n)]: at |c|
    the constant part alone has norm^2 n, and ||g|| <= ||z||/mu.  |c| <=
    n*eps (the rounding of a sum of n unit entries) counts as c = 0; then
    phi(0) comes from g = (lam*L)^+ (z - c), and HardCaseError is raised
    when phi(0) <= n.

    On a path, w is transformed once, each secular evaluation of phi is a
    sum over the coefficients, phi(mu) = sum_k |w_k|^2 / (lam Lambda_k +
    mu)^2, and g takes one inverse transform at the end, so cg_iterations
    is 0.  On other graphs each evaluation is one CG solve, warm started
    from the previous one and, on a radius-1 grid, preconditioned by
    lam*L_axis + mu*I.

    The search starts at the upper end and stops once the norm defect is
    within SECULAR_TOL * n.  Each evaluation replaces the end of the bracket
    on its side of the root, by the sign of ||g||^2 - n.  The next mu is the
    root of a model that keeps the constant mode exact and models phi
    (_model_root):
    - After the one evaluation at the upper end mu_0, phi is taken as the
      constant phi(mu_0): mu = |c| sqrt(n / (n - phi(mu_0))).  This is a
      lower bound of the root mu*: mu_0 > mu* and phi decreases, so
      phi(mu*) >= phi(mu_0), and mu*^2 = n|c|^2 / (n - phi(mu*)) >=
      n|c|^2 / (n - phi(mu_0)).
    - After two or more evaluations, 1/sqrt(phi) is taken as the secant
      through the last two (with c = 0, the first is the hard-case check at
      mu = 0, and the step is the secant zero of psi = 1/||g||).
    The model root is a step target only.  When it is not strictly inside
    (lo, hi), the next mu is the midpoint instead.  So the search
    terminates: every step is a float strictly inside (lo, hi) that becomes
    one of its ends, the bracket holds fewer floats after each step, and a
    midpoint equal to an endpoint raises NumericError.  And since the ends
    move on evaluated signs alone, rounding in the model cannot cut the
    root out of the bracket.

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
    constant_sq = n * abs(c) ** 2  # mu^2 times the constant mode's share of ||g||^2
    basis = graph._path_eigenbasis
    cg_iters = 0
    if basis is not None:
        # Diagonal in the path's eigenbasis: x_k = w_k / (lam Lambda_k + mu).
        w_hat = basis.forward(w)
        w_hat[0] = 0.0
        stiffness = lam * basis.eigenvalues
        power = np.abs(w_hat) ** 2

        def centred_norm_sq(mu):
            return float(np.sum(power[1:] / (stiffness[1:] + mu) ** 2))  # w_0 = 0

        def solution(mu):
            return basis.inverse(w_hat / (stiffness + mu)) + c / mu

    else:
        x = None  # the last solve, which warm-starts the next

        def centred_norm_sq(mu):
            nonlocal x, cg_iters

            def apply_A(v):
                return lam * laplacian_apply(graph, v) + mu * v

            x, iters = conjugate_gradient(apply_A, w, x0=x, precondition=_axis_preconditioner(graph, lam, mu))
            cg_iters += iters
            x = x - np.mean(x)
            return float(np.real(np.vdot(x, x)))

        def solution(mu):
            return x + c / mu  # x of the last evaluation, which is at mu

    lo, hi = abs(c), float(np.linalg.norm(z) / np.sqrt(n))
    points = []  # (mu, phi(mu)) of the last two evaluations
    if c == 0.0:
        phi = centred_norm_sq(0.0)
        if phi <= n:
            raise HardCaseError("no positive multiplier: mean(z) = 0 and ||(lam L)^+ z||^2 <= n")
        points.append((0.0, phi))

    mu, iters = hi, 0
    while True:
        phi = centred_norm_sq(mu)
        norm_sq = phi + constant_sq / mu**2
        if abs(norm_sq - n) <= SECULAR_TOL * n:
            break
        if norm_sq > n:
            lo = mu
        else:
            hi = mu
        points = points[-1:] + [(mu, phi)]
        mu = _model_root(points, constant_sq, n, lo, hi)
        if not lo < mu < hi:
            mu = 0.5 * (lo + hi)
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


def _model_root(points, constant_sq: float, n: int, lo: float, hi: float) -> float:
    """Root of the secular model n = constant_sq / mu^2 + phi_model(mu) that
    solve_trs steps to, from its last one or two evaluations (mu, phi(mu)).

    One point, phi < n: phi_model is constant, and the root is closed form.
    Two points: 1/sqrt(phi_model) is the line l(mu) = a + s*mu through them.
    The model is then the squared norm of a two-mode secular problem with
    poles at mu = 0 and l = 0, so 1/sqrt of it is concave and increasing
    where mu > 0 and l > 0 (More and Sorensen).  Newton's method on that
    1/sqrt, started at lo, therefore rises monotonically to the model root
    while the model norm exceeds n; it stops there, or once a step no longer
    rises inside (lo, hi), and returns where it stopped (lo itself when the
    model root is not above lo).  Newton on 1/sqrt rather than on the norm
    is exact for one mode: with constant_sq = 0 one step lands on the root
    of the line.  Every phi is positive: with z - c = 0 the search ends at
    its first evaluation.
    """
    if len(points) == 1:
        ((_, phi),) = points
        return math.sqrt(constant_sq / (n - phi))
    (mu_1, phi_1), (mu_2, phi_2) = points
    slope = (phi_2**-0.5 - phi_1**-0.5) / (mu_2 - mu_1)
    offset = phi_1**-0.5 - slope * mu_1
    root_n = math.sqrt(n)
    mu = lo
    while True:
        ell = offset + slope * mu
        if not ell > 0.0:
            return mu
        norm_sq, decline = ell**-2, slope * ell**-3  # decline = -(d/dmu norm_sq) / 2
        if constant_sq:
            norm_sq += constant_sq / mu**2
            decline += constant_sq / mu**3
        if not (decline > 0.0 and norm_sq > n):
            return mu
        # Newton step on 1/sqrt(norm_sq) - 1/sqrt(n), written without cancellation
        step = (norm_sq - n) * norm_sq / (root_n * (math.sqrt(norm_sq) + root_n) * decline)
        if not mu < mu + step < hi:
            return mu + step
        mu += step


def lambda_schedule(kappa: float, n: int) -> float:
    """Smoothing weight schedule kappa * n^(10/12), increasing in n; a weight
    past the float range is a ValueError, as the relaxations reject it."""
    kappa = float(kappa)
    if not 0 < kappa < math.inf:
        raise ValueError("kappa must be finite and positive")
    lam = kappa * n ** (10.0 / 12.0)
    if lam == math.inf:
        raise ValueError(f"kappa * n^(10/12) is inf at kappa = {kappa!r}, n = {n}")
    return lam
