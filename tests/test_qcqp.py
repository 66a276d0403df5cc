import numpy as np
import pytest

from conftest import graph_edges_brute
from modrec.graphs import (
    GraphSpec,
    edge_smoothness,
    grid_graph,
    laplacian_apply,
    path_graph,
    quadratic_form,
)
from modrec.qcqp import (
    QcqpProblem,
    critical_point_checks,
    hessian_apply,
    objective,
    riemannian_grad,
    second_order_quadform,
    solve_qcqp,
    tangent_project,
)

TWO_PI = 2.0 * np.pi


def _random_torus(rng, n):
    return np.exp(1j * rng.uniform(0.0, TWO_PI, size=n))


# ---------------------------------------------------------------------------
# Graphs


def test_graph_validation():
    with pytest.raises(ValueError):
        GraphSpec(n=3, edges=((0, 0),))
    with pytest.raises(ValueError):
        GraphSpec(n=3, edges=((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        GraphSpec(n=3, edges=((0, 1),))  # vertex 2 disconnected
    with pytest.raises(ValueError):
        GraphSpec(n=2, edges=((0, 5),))
    g = path_graph(4)
    assert g.max_degree == 2 and g.degrees.tolist() == [1, 2, 2, 1]
    gg = grid_graph(2, 3, radius=1)
    assert gg.n == 9 and gg.max_degree == 8


def test_laplacian_apply_examples():
    g = path_graph(3)
    assert np.allclose(laplacian_apply(g, np.ones(3)), 0.0)
    g2 = path_graph(2)
    assert np.allclose(laplacian_apply(g2, np.array([1.0, -1.0])), [2.0, -2.0])
    with pytest.raises(ValueError):
        laplacian_apply(g, np.ones(4))


def test_laplacian_quadratic_identity():
    rng = np.random.default_rng(41)
    for graph in (path_graph(8), grid_graph(2, 3)):
        g = rng.standard_normal(graph.n) + 1j * rng.standard_normal(graph.n)
        via_apply = float(np.real(np.vdot(g, laplacian_apply(graph, g))))
        via_edges = quadratic_form(graph, g)
        via_dense = float(np.real(np.conj(g) @ graph.laplacian() @ g))
        assert via_apply == pytest.approx(via_edges, rel=1e-10)
        assert via_dense == pytest.approx(via_edges, rel=1e-10)


def test_edge_smoothness():
    g = path_graph(5)
    h = np.ones(5, dtype=complex)
    assert edge_smoothness(h, g) == 0.0
    assert edge_smoothness(np.array([1.0 + 0j, -1.0 + 0j]), path_graph(2)) == pytest.approx(2.0)
    # Samples of a Lipschitz phase on the unit grid: gap at most 2*pi*M'/(n-1).
    n, m_lip = 40, 0.8
    x = np.arange(n) / (n - 1)
    h = np.exp(1j * TWO_PI * m_lip * x)
    assert edge_smoothness(h, path_graph(n)) <= TWO_PI * m_lip / (n - 1) + 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("radius", [1, 2])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_grid_graph_matches_pair_scan(d, radius, m):
    graph = grid_graph(d, m, radius)
    expected = np.array(graph_edges_brute(d, m, radius), dtype=np.int64).reshape(-1, 2)
    assert graph.n == m ** d
    assert graph.edges.dtype == np.int64 and np.array_equal(graph.edges, expected)
    if m >= 2 * radius + 1:
        center = np.ravel_multi_index((radius,) * d, (m,) * d)
        assert graph.degrees[center] == graph.max_degree == (2 * radius + 1) ** d - 1


@pytest.mark.parametrize("n", [1, 2, 5])
def test_path_graph_edges(n):
    g = path_graph(n)
    assert g.edges.shape == (n - 1, 2)
    assert g.edges.tolist() == [[i, i + 1] for i in range(n - 1)]
    assert g.degrees.tolist() == ([0] if n == 1 else [1] + [2] * (n - 2) + [1])
    assert edge_smoothness(np.ones(n, dtype=complex), g) == 0.0


def test_graph_edges_normalised_from_any_input():
    rng = np.random.default_rng(43)
    pairs = [(0, 1), (0, 3), (1, 2), (2, 4), (3, 4), (1, 4)]
    ref = GraphSpec(n=5, edges=pairs).edges
    assert ref.tolist() == sorted(list(p) for p in pairs)
    assert not ref.flags.writeable
    shuffled = [pairs[k][::-1] if rng.random() < 0.5 else pairs[k] for k in rng.permutation(len(pairs))]
    for edges in (np.array(pairs), np.array(pairs)[::-1, ::-1], shuffled, tuple(shuffled)):
        e = GraphSpec(n=5, edges=edges).edges
        assert e.dtype == np.int64 and not e.flags.writeable and np.array_equal(e, ref)
    src = np.array(pairs)
    GraphSpec(n=5, edges=src)
    assert src.flags.writeable  # the caller's array is copied, not frozen
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        GraphSpec(n=3, edges=np.array([[0, 1], [2, 2]]))
    with pytest.raises(ValueError, match=r"edge \(0,5\) outside"):
        GraphSpec(n=3, edges=[(0, 1), (0, 5)])
    with pytest.raises(ValueError, match=r"edge \(-1,0\) outside"):
        GraphSpec(n=3, edges=[(-1, 0)])
    with pytest.raises(ValueError, match=r"duplicate edge \(1, 2\)"):
        GraphSpec(n=3, edges=[(0, 1), (2, 1), (1, 2)])
    for bad in ([(0, 1, 2)], [0, 1], np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="vertex pairs"):
            GraphSpec(n=3, edges=bad)


def test_graph_connectivity_under_relabelling():
    rng = np.random.default_rng(47)
    for n in (3, 200, 10 ** 5):
        perm = rng.permutation(n)
        path = np.stack([perm[:-1], perm[1:]], axis=1)[rng.permutation(n - 1)]
        assert GraphSpec(n=n, edges=path).degrees.sum() == 2 * (n - 1)
        with pytest.raises(ValueError, match="connected"):
            GraphSpec(n=n, edges=np.delete(path, rng.integers(n - 1), axis=0))
        isolated = np.stack([perm[:-2], perm[1:-1]], axis=1)  # misses perm[-1]
        with pytest.raises(ValueError, match="connected"):
            GraphSpec(n=n, edges=isolated)


# ---------------------------------------------------------------------------
# Objective, projection, derivatives


def test_objective_examples():
    rng = np.random.default_rng(42)
    n = 5
    z = _random_torus(rng, n)
    prob0 = QcqpProblem(z=z, graph=path_graph(n), lam=0.0)
    assert objective(prob0, z) == pytest.approx(-2.0 * n, rel=1e-12)
    zc = np.ones(4, dtype=complex)
    prob = QcqpProblem(z=zc, graph=path_graph(4), lam=3.7)
    assert objective(prob, zc) == pytest.approx(-8.0, rel=1e-12)
    prob2 = QcqpProblem(z=np.ones(2, dtype=complex), graph=path_graph(2), lam=1.0)
    assert objective(prob2, np.array([1.0 + 0j, -1.0 + 0j])) == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
def test_problem_rejects_bad_lam(lam):
    with pytest.raises(ValueError, match="lam must be finite and >= 0"):
        QcqpProblem(z=np.ones(3, dtype=complex), graph=path_graph(3), lam=lam)


def test_two_objective_forms_agree():
    rng = np.random.default_rng(43)
    for _ in range(5):
        n = 6
        graph = path_graph(n)
        z = _random_torus(rng, n)
        g = _random_torus(rng, n)
        lam = rng.uniform(0, 2)
        prob = QcqpProblem(z=z, graph=graph, lam=lam)
        full = float(np.sum(np.abs(g - z) ** 2)) + lam * quadratic_form(graph, g)
        assert full == pytest.approx(objective(prob, g) + 2 * n, rel=1e-10)


def test_global_phase_is_not_a_symmetry():
    rng = np.random.default_rng(44)
    n = 6
    z = _random_torus(rng, n)
    g = _random_torus(rng, n)
    prob = QcqpProblem(z=z, graph=path_graph(n), lam=0.3)
    rotated = objective(prob, np.exp(1j * 0.7) * g)
    assert abs(rotated - objective(prob, g)) > 1e-3


def test_tangent_project():
    rng = np.random.default_rng(45)
    g = _random_torus(rng, 7)
    assert np.max(np.abs(tangent_project(g, g))) < 1e-14
    assert np.max(np.abs(tangent_project(g, 1j * g) - 1j * g)) < 1e-14
    v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    p = tangent_project(g, v)
    assert np.max(np.abs(np.real(p * np.conj(g)))) < 1e-12
    assert np.max(np.abs(tangent_project(g, p) - p)) < 1e-12


def test_riemannian_grad_zeros():
    rng = np.random.default_rng(46)
    z = _random_torus(rng, 5)
    prob = QcqpProblem(z=z, graph=path_graph(5), lam=0.0)
    assert np.max(np.abs(riemannian_grad(prob, z))) < 1e-14
    h = np.full(6, np.exp(1j * 0.4))
    prob2 = QcqpProblem(z=h, graph=path_graph(6), lam=2.5)
    assert np.max(np.abs(riemannian_grad(prob2, h))) < 1e-12


def test_riemannian_grad_matches_finite_differences():
    rng = np.random.default_rng(47)
    step = 1e-5
    for graph in (path_graph(4), grid_graph(2, 2)):
        z = _random_torus(rng, graph.n)
        g = _random_torus(rng, graph.n)
        lam = rng.uniform(0, 1)
        prob = QcqpProblem(z=z, graph=graph, lam=lam)
        grad = riemannian_grad(prob, g)
        for _ in range(3):
            u = rng.standard_normal(graph.n)
            gdot = 1j * u * g  # tangent curve t -> g * exp(i t u)
            fd = (
                objective(prob, g * np.exp(1j * step * u))
                - objective(prob, g * np.exp(-1j * step * u))
            ) / (2 * step)
            analytic = float(np.real(np.vdot(grad, gdot)))
            assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-8)


def test_hessian_explicit_case():
    rng = np.random.default_rng(48)
    z = _random_torus(rng, 5)
    prob = QcqpProblem(z=z, graph=path_graph(5), lam=0.0)
    gdot = 1j * z
    out = hessian_apply(prob, z, gdot)
    assert np.max(np.abs(out - 2j * z)) < 1e-12
    curvature = float(np.real(np.vdot(gdot, out)))
    assert curvature == pytest.approx(2.0 * 5, rel=1e-12)


def test_hessian_symmetry_and_finite_differences():
    rng = np.random.default_rng(49)
    step = 1e-5
    for graph in (path_graph(5), grid_graph(2, 2)):
        z = _random_torus(rng, graph.n)
        g = _random_torus(rng, graph.n)
        prob = QcqpProblem(z=z, graph=graph, lam=rng.uniform(0, 1))
        u = tangent_project(g, rng.standard_normal(graph.n) + 1j * rng.standard_normal(graph.n))
        v = tangent_project(g, rng.standard_normal(graph.n) + 1j * rng.standard_normal(graph.n))
        hu = hessian_apply(prob, g, u)
        hv = hessian_apply(prob, g, v)
        lhs = float(np.real(np.vdot(u, hv)))
        rhs = float(np.real(np.vdot(v, hu)))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
        # Directional finite difference of the (extended) gradient field.
        from modrec.qcqp import euclidean_grad

        def ext_grad(x):
            return tangent_project(x, euclidean_grad(prob, x))

        fd = tangent_project(g, (ext_grad(g + step * u) - ext_grad(g - step * u)) / (2 * step))
        assert np.max(np.abs(fd - hu)) / max(1.0, np.max(np.abs(hu))) < 1e-5


def test_hessian_rejects_non_tangent():
    rng = np.random.default_rng(50)
    z = _random_torus(rng, 4)
    prob = QcqpProblem(z=z, graph=path_graph(4), lam=0.1)
    with pytest.raises(ValueError):
        hessian_apply(prob, z, z)  # radial, not tangent


# ---------------------------------------------------------------------------
# Solver


def test_solver_trivial_cases():
    rng = np.random.default_rng(51)
    z = _random_torus(rng, 6)
    rep = solve_qcqp(QcqpProblem(z=z, graph=path_graph(6), lam=0.0))
    assert rep.iterations == 0 and rep.converged
    assert np.array_equal(rep.ghat, z)
    zc = np.full(5, np.exp(1j * 1.1))
    rep = solve_qcqp(QcqpProblem(z=zc, graph=path_graph(5), lam=3.0))
    assert rep.iterations == 0 and np.array_equal(rep.ghat, zc)


def _brute_force_min_n3(prob, coarse=400):
    """Dense scan of the 3-torus (angles) plus a simplex polish."""
    from scipy.optimize import minimize

    angles = np.arange(coarse) * (TWO_PI / coarse)
    z = prob.z
    lam = prob.lam
    c12 = lam * (2.0 - 2.0 * np.cos(angles[:, None] - angles[None, :]))
    best = (np.inf, None)
    for i1, t1 in enumerate(angles):
        fit1 = -2.0 * np.cos(t1 - np.angle(z[0]))
        data = (
            fit1
            - 2.0 * np.cos(angles[:, None] - np.angle(z[1]))
            - 2.0 * np.cos(angles[None, :] - np.angle(z[2]))
        )
        total = data + c12[i1, :][:, None] + c12  # edges (1,2) and (2,3)
        j = np.unravel_index(np.argmin(total), total.shape)
        if total[j] < best[0]:
            best = (float(total[j]), np.array([t1, angles[j[0]], angles[j[1]]]))

    def f_angles(theta):
        return objective(prob, np.exp(1j * theta))

    res = minimize(f_angles, best[1], method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000})
    return min(best[0], float(res.fun))


def test_solver_matches_brute_force_n3():
    rng = np.random.default_rng(52)
    graph = path_graph(3)
    for _ in range(3):
        z = _random_torus(rng, 3)
        lam = rng.uniform(0, 0.2)
        prob = QcqpProblem(z=z, graph=graph, lam=lam)
        rep = solve_qcqp(prob, restarts=8, seed=5)
        oracle = _brute_force_min_n3(prob)
        assert rep.objective == pytest.approx(oracle, abs=1e-6)
        assert rep.converged


def test_solver_monotone_objective_and_tolerance():
    rng = np.random.default_rng(53)
    z = _random_torus(rng, 12)
    prob = QcqpProblem(z=z, graph=path_graph(12), lam=0.2)
    rep = solve_qcqp(prob, tol=1e-9)
    assert rep.converged and rep.grad_inf_norm <= 1e-9
    assert objective(prob, rep.ghat) <= objective(prob, z) + 1e-12


@pytest.mark.parametrize("n", [30, 120])
def test_solver_iterations_bounded_on_smooth_paths(n):
    # A first step on the stability boundary of the Hessian takes thousands of
    # iterations on these instances; the solver must converge by its step
    # rule, far below the iteration cap.
    rng = np.random.default_rng(n)
    x = np.arange(n) / (n - 1)
    z = np.exp(1j * TWO_PI * (0.15 * np.sin(TWO_PI * x) + 0.001 * rng.standard_normal(n)))
    rep = solve_qcqp(QcqpProblem(z=z, graph=path_graph(n), lam=0.05))
    assert rep.converged and rep.grad_inf_norm <= 1e-9
    assert rep.iterations <= 100


def test_solver_counts_backtracks():
    rng = np.random.default_rng(54)
    z = _random_torus(rng, 6)
    assert solve_qcqp(QcqpProblem(z=z, graph=path_graph(6), lam=0.0)).backtracks == 0
    # A stiff grid problem rejects some Barzilai-Borwein steps; each halving
    # is counted, and the descent still converges.
    z = _random_torus(rng, 16)
    rep = solve_qcqp(QcqpProblem(z=z, graph=grid_graph(2, 4), lam=3.0))
    assert rep.converged and 0 < rep.backtracks


# ---------------------------------------------------------------------------
# Critical point structure


def test_critical_point_checks_at_lam0():
    rng = np.random.default_rng(54)
    z = _random_torus(rng, 5)
    prob = QcqpProblem(z=z, graph=path_graph(5), lam=0.0)
    rep = critical_point_checks(prob, z)
    assert rep.imag_data_term < 1e-12
    assert rep.max_imag_diag < 1e-12
    assert rep.data_alignment == pytest.approx(5.0, rel=1e-12)
    assert rep.min_real_diag == pytest.approx(1.0, rel=1e-12)
    assert rep.all_ok


def test_critical_point_checks_on_solver_output():
    rng = np.random.default_rng(55)
    for graph in (path_graph(10), grid_graph(2, 3)):
        z = _random_torus(rng, graph.n)
        prob = QcqpProblem(z=z, graph=graph, lam=0.05)
        rep = solve_qcqp(prob)
        assert rep.converged
        checks = critical_point_checks(prob, rep.ghat)
        assert checks.all_ok


def test_critical_point_checks_negative_control():
    rng = np.random.default_rng(56)
    z = _random_torus(rng, 8)
    prob = QcqpProblem(z=z, graph=path_graph(8), lam=0.05)
    rep = solve_qcqp(prob)
    bad = rep.ghat.copy()
    bad[3] *= np.exp(1j * 0.3)
    checks = critical_point_checks(prob, bad)
    assert not checks.all_ok


def test_second_order_quadform():
    rng = np.random.default_rng(57)
    n = 7
    z = _random_torus(rng, n)
    graph = path_graph(n)
    prob = QcqpProblem(z=z, graph=graph, lam=0.04)
    rep = solve_qcqp(prob)
    ones = np.ones(n)
    val = second_order_quadform(prob, rep.ghat, ones)
    assert val == pytest.approx(float(np.real(np.vdot(z, rep.ghat))), rel=1e-9)
    prob0 = QcqpProblem(z=z, graph=graph, lam=0.0)
    u = rng.standard_normal(n)
    assert second_order_quadform(prob0, z, u) == pytest.approx(float(np.sum(u ** 2)), rel=1e-12)
    for _ in range(20):
        u = rng.standard_normal(n)
        assert second_order_quadform(prob, rep.ghat, u) >= -1e-8 * float(np.sum(u ** 2))


def test_linf_stability_bound_on_planted_instance():
    # lam * Delta < sqrt(2) and a certified-global solution: the error bound
    # from the problem data must dominate the realized error.
    from modrec.certificate import linf_error_bound, tightness_verdict

    rng = np.random.default_rng(58)
    n = 24
    x = np.arange(n) / (n - 1)
    h = np.exp(1j * TWO_PI * 0.25 * np.sin(TWO_PI * x))
    graph = path_graph(n)
    delta = 0.03
    z = h * np.exp(1j * rng.uniform(-1, 1, n) * 2 * np.arcsin(delta / 2))
    lam = 0.05 / graph.max_degree
    prob = QcqpProblem(z=z, graph=graph, lam=lam)
    rep = solve_qcqp(prob)
    cert = tightness_verdict(prob, rep.ghat)
    assert cert.tight  # certifies rep.ghat is the unique global solution
    bound = linf_error_bound(delta, lam, graph.max_degree, edge_smoothness(h, graph))
    assert float(np.max(np.abs(rep.ghat - h))) ** 2 <= bound + 1e-8
