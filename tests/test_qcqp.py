import numpy as np
import pytest

from conftest import (
    adjacency_apply_edgewise,
    brute_force_min_n3,
    graph_edges_brute,
    random_torus,
    relabelled_path,
    solve_qcqp_reference,
)
from modrec import baselines, graphs
from modrec.circle import circle_embed
from modrec.harness import PlantedFunction, SyntheticSpec, generate
from modrec.graphs import (
    GraphSpec,
    adjacency_apply,
    edge_smoothness,
    grid_graph,
    laplacian_apply,
    path_graph,
    quadratic_form,
)
from modrec.certificate import linf_error_bound, schur_block, tightness_verdict
from modrec.qcqp import (
    QcqpProblem,
    hessian_apply,
    objective,
    riemannian_grad,
    solve_qcqp,
    tangent_project,
)

TWO_PI = 2.0 * np.pi


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GraphSpec(n=0, edges=()), "graph must have at least one vertex"),
        (lambda: grid_graph(2, 3, radius=0), "radius must be >= 1"),
        (lambda: edge_smoothness(np.ones(3), path_graph(4)), r"signal length \(3,\) does not match n = 4"),
    ],
    ids=["no_vertex", "radius_0", "signal_length"],
)
def test_graphs_check_their_inputs(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_laplacian_apply_examples():
    g = path_graph(3)
    assert np.allclose(laplacian_apply(g, np.ones(3)), 0.0)
    g2 = path_graph(2)
    assert np.allclose(laplacian_apply(g2, np.array([1.0, -1.0])), [2.0, -2.0])
    with pytest.raises(ValueError):
        laplacian_apply(g, np.ones(4))


def _shuffled_path(n, relabel):
    rng = np.random.default_rng(53 + n)
    labels = rng.permutation(n) if relabel else np.arange(n)
    pairs = np.stack([labels[1:], labels[:-1]], axis=1)  # reversed pairs
    return GraphSpec(n=n, edges=pairs[rng.permutation(n - 1)])


APPLY_GRAPHS = {
    **{f"path{n}": path_graph(n) for n in (1, 2, 3, 28, 4096)},
    "grid2x5": grid_graph(2, 5),
    "grid2x16": grid_graph(2, 16),
    "grid3x4": grid_graph(3, 4),
    "grid2x6r2": grid_graph(2, 6, radius=2),
    "path_shuffled": _shuffled_path(40, relabel=False),
    "path_relabelled": _shuffled_path(40, relabel=True),
}
SPECIAL_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300])


def _with_specials(x, rng):
    picks = rng.permutation(x.size)[: 2 * SPECIAL_VALUES.size]
    x[picks] = np.resize(SPECIAL_VALUES, picks.size)
    run = min(x.size, SPECIAL_VALUES.size)
    x[:run] = SPECIAL_VALUES[:run]  # neighbours that are all special
    return x


def _apply_input(n, dtype, seed):
    rng = np.random.default_rng(seed)
    v = _with_specials(rng.standard_normal(n), rng).astype(dtype)
    if dtype == np.complex128:
        v.imag = _with_specials(rng.standard_normal(n), rng)[::-1]
    return v


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("name", list(APPLY_GRAPHS))
def test_apply_bitwise_equals_edgewise_oracle(name, dtype):
    graph = APPLY_GRAPHS[name]
    for seed in range(3):
        v = _apply_input(graph.n, dtype, seed)
        want = adjacency_apply_edgewise(graph, v)
        got = adjacency_apply(graph, v)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        lap = laplacian_apply(graph, v)
        assert np.array_equal(lap.view(np.int64), (graph.degrees * v - want).view(np.int64))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_is_path_detects_paths(n):
    # The path is the lattice path_graph declares; the same edges given
    # explicitly, in order, shuffled or as reversed pairs, declare nothing.
    path = path_graph(n)
    assert path.lattice == (1, n, min(1, n - 1)) and path._path_eigenbasis.n == n
    copies = [GraphSpec(n=n, edges=path.edges)]
    if n > 1:
        copies += [_shuffled_path(n, relabel=False), GraphSpec(n=n, edges=[(i + 1, i) for i in reversed(range(n - 1))])]
    for copy in copies:
        assert np.array_equal(copy.edges, path.edges)
        assert copy.lattice is None and copy._path_eigenbasis is None and copy._axis_eigenbasis is None


def test_is_path_rejects_other_graphs():
    relabelled = GraphSpec(n=4, edges=[(0, 2), (2, 1), (1, 3)])
    cycle = GraphSpec(n=5, edges=[(i, (i + 1) % 5) for i in range(5)])
    star = GraphSpec(n=5, edges=[(0, i) for i in range(1, 5)])
    for g in (relabelled, cycle, star, grid_graph(1, 6, radius=2), grid_graph(2, 2)):
        assert g._path_eigenbasis is None


@pytest.mark.parametrize("n", [1, 2, 3, 5, 28])
def test_path_eigenbasis_matches_the_laplacian(n):
    graph = path_graph(n)
    basis = graph._path_eigenbasis
    identity = np.eye(n, dtype=complex)
    V = np.array([basis.inverse(e) for e in identity]).T  # V e_k: the eigenvector k
    forward = np.array([basis.forward(e) for e in identity]).T
    assert np.max(np.abs(forward - V.T)) <= 1e-15  # forward is V^T: V is real
    assert np.max(np.abs(V.conj().T @ V - np.eye(n))) <= 1e-14
    L = graph.laplacian()
    w, U = np.linalg.eigh(L)  # the path's eigenvalues are simple
    assert basis.eigenvalues[0] == 0.0 and np.all(np.diff(basis.eigenvalues) > 0)
    assert np.max(np.abs(basis.eigenvalues - w)) <= 1e-14
    assert np.max(np.abs(L @ V - V * basis.eigenvalues)) <= 1e-14
    assert np.max(np.abs(np.abs(U.T @ V) - np.eye(n))) <= 1e-13  # the same vectors up to sign
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.max(np.abs(basis.inverse(basis.forward(v)) - v)) <= 1e-14 * np.max(np.abs(v))
    assert np.max(np.abs(basis.forward(basis.inverse(v)) - v)) <= 1e-14 * np.max(np.abs(v))


def _solver_outputs(graph, z):
    lam = baselines.lambda_schedule(0.04, graph.n)
    trs = baselines.solve_trs(z, graph, lam)
    ucqp = baselines.solve_ucqp(z, graph, lam)
    report = solve_qcqp(QcqpProblem(z, graph, 0.5))
    return [
        trs.raw.tobytes(), np.float64(trs.mu).tobytes(), trs.cg_iterations, trs.bisect_iterations,
        ucqp.raw.tobytes(), ucqp.iterations,
        report.ghat.tobytes(), report.iterations,
    ]


@pytest.mark.parametrize(
    "d, m, function",
    [
        pytest.param(1, 4096, "example1", id="path4096"),
        pytest.param(2, 16, PlantedFunction((0.3, 0.25), (1, 1), (0.4, 1.3), 0.1), id="grid16x16"),
        pytest.param(1, 28, "example1", id="path28"),
    ],
)
def test_solvers_bitwise_unchanged_by_the_apply(monkeypatch, d, m, function):
    # A path is relabelled, z carried along: on path_graph itself the
    # relaxations solve in the eigenbasis and apply L only for the residual.
    # The grid keeps its lattice, so its CG stays preconditioned.
    data = generate(SyntheticSpec(function=function, d=d, m=m, sigma=0.1, seed=61))
    z = circle_embed(data.noisy_mod.flat)
    graph = grid_graph(d, m)
    if d == 1:
        graph, z, _ = relabelled_path(z, 61)
    fast = _solver_outputs(graph, z)
    calls = []

    def oracle(graph_, g):
        calls.append(graph_.n)
        return adjacency_apply_edgewise(graph_, g)

    monkeypatch.setattr(graphs, "adjacency_apply", oracle)
    assert _solver_outputs(graph, z) == fast
    assert len(calls) > 100  # the solvers ran the oracle


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
    z = random_torus(rng, n)
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
        z = random_torus(rng, n)
        g = random_torus(rng, n)
        lam = rng.uniform(0, 2)
        prob = QcqpProblem(z=z, graph=graph, lam=lam)
        full = float(np.sum(np.abs(g - z) ** 2)) + lam * quadratic_form(graph, g)
        assert full == pytest.approx(objective(prob, g) + 2 * n, rel=1e-10)


def test_global_phase_is_not_a_symmetry():
    rng = np.random.default_rng(44)
    n = 6
    z = random_torus(rng, n)
    g = random_torus(rng, n)
    prob = QcqpProblem(z=z, graph=path_graph(n), lam=0.3)
    rotated = objective(prob, np.exp(1j * 0.7) * g)
    assert abs(rotated - objective(prob, g)) > 1e-3


def test_tangent_project():
    rng = np.random.default_rng(45)
    g = random_torus(rng, 7)
    assert np.max(np.abs(tangent_project(g, g))) < 1e-14
    assert np.max(np.abs(tangent_project(g, 1j * g) - 1j * g)) < 1e-14
    v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    p = tangent_project(g, v)
    assert np.max(np.abs(np.real(p * np.conj(g)))) < 1e-12
    assert np.max(np.abs(tangent_project(g, p) - p)) < 1e-12


def test_riemannian_grad_zeros():
    rng = np.random.default_rng(46)
    z = random_torus(rng, 5)
    prob = QcqpProblem(z=z, graph=path_graph(5), lam=0.0)
    assert np.max(np.abs(riemannian_grad(prob, z))) < 1e-14
    h = np.full(6, np.exp(1j * 0.4))
    prob2 = QcqpProblem(z=h, graph=path_graph(6), lam=2.5)
    assert np.max(np.abs(riemannian_grad(prob2, h))) < 1e-12


def test_riemannian_grad_matches_finite_differences():
    rng = np.random.default_rng(47)
    step = 1e-5
    for graph in (path_graph(4), grid_graph(2, 2)):
        z = random_torus(rng, graph.n)
        g = random_torus(rng, graph.n)
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
    z = random_torus(rng, 5)
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
        z = random_torus(rng, graph.n)
        g = random_torus(rng, graph.n)
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
    z = random_torus(rng, 4)
    prob = QcqpProblem(z=z, graph=path_graph(4), lam=0.1)
    with pytest.raises(ValueError):
        hessian_apply(prob, z, z)  # radial, not tangent


def test_hessian_tangency_check_scales_with_gdot():
    rng = np.random.default_rng(55)
    g = random_torus(rng, 30)
    prob = QcqpProblem(z=random_torus(rng, 30), graph=path_graph(30), lam=0.1)
    u = tangent_project(g, rng.standard_normal(30) + 1j * rng.standard_normal(30))
    big = 1e8 * u  # tangent; its radial part is rounding of order 1e-8
    assert np.max(np.abs(np.real(big * np.conj(g)))) > 1e-9
    hu = hessian_apply(prob, g, u)
    assert np.max(np.abs(hessian_apply(prob, g, big) - 1e8 * hu)) <= 1e-6 * np.max(np.abs(hu))
    with pytest.raises(ValueError, match="not tangent"):
        hessian_apply(prob, g, 1e-10 * g)  # radial however small
    assert np.array_equal(hessian_apply(prob, g, np.zeros(30, dtype=complex)), np.zeros(30))


# ---------------------------------------------------------------------------
# Solver


REFERENCE_GRAPHS = {
    "path2": lambda: path_graph(2),
    "path28": lambda: path_graph(28),
    "path300": lambda: path_graph(300),
    "relabelled28": lambda: relabelled_path(np.zeros(28), 28)[0],
    "grid5x5": lambda: grid_graph(2, 5),
    "grid11x11": lambda: grid_graph(2, 11),
    "grid7x7r2": lambda: grid_graph(2, 7, radius=2),
    "grid4x4x4": lambda: grid_graph(3, 4),
}


def _reference_signal(name, n):
    """0.15-turn noise about a slow sine in the vertex index; on the 5x5 grid
    the signal of the torus_certify benchmark's grids (noise stream 0),
    stiff at lam = 5."""
    if name == "grid5x5":
        ii, jj = np.indices((5, 5)) / 4.0
        f = (0.05 * np.sin(TWO_PI * (ii + 0.5 * jj))).reshape(-1)
        eta = np.random.default_rng([7, 0]).standard_normal(25)
    else:
        f = 0.05 * np.sin(TWO_PI * np.arange(n) / n)
        eta = np.random.default_rng(n).standard_normal(n)
    return np.exp(1j * TWO_PI * (f + 0.15 * eta))


def _verdict_or_error(prob, ghat):
    try:
        return tightness_verdict(prob, ghat)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("lam", [0.0, 0.02, 1.0, 5.0])
@pytest.mark.parametrize("name", list(REFERENCE_GRAPHS))
def test_solver_bitwise_equals_reference_loop(name, lam):
    graph = REFERENCE_GRAPHS[name]()
    prob = QcqpProblem(z=_reference_signal(name, graph.n), graph=graph, lam=lam)
    fast, ref = solve_qcqp(prob), solve_qcqp_reference(prob)
    assert fast.ghat.tobytes() == ref.ghat.tobytes()
    assert (fast.objective, fast.grad_inf_norm, fast.iterations, fast.converged, fast.backtracks) == (
        ref.objective, ref.grad_inf_norm, ref.iterations, ref.converged, ref.backtracks)
    assert _verdict_or_error(prob, fast.ghat) == _verdict_or_error(prob, ref.ghat)
    if lam > 0:
        assert ref.iterations > 0  # z is not the minimizer, so the descent ran
    if name == "grid5x5" and lam == 5.0:
        assert ref.backtracks > 0  # Barzilai-Borwein steps were rejected and halved


def test_solver_trivial_cases():
    rng = np.random.default_rng(51)
    z = random_torus(rng, 6)
    rep = solve_qcqp(QcqpProblem(z=z, graph=path_graph(6), lam=0.0))
    assert rep.iterations == 0 and rep.converged
    assert np.array_equal(rep.ghat, z)
    # At lam*Delta = 2e21 the first step 1/(2(1 + 4 lam Delta)) is below the
    # line search's 1e-20 floor: the search is exhausted and the descent
    # stops at z, reported as not converged.
    rep = solve_qcqp(QcqpProblem(z=z, graph=path_graph(6), lam=1e21))
    assert rep.iterations == 0 and rep.backtracks == 0 and not rep.converged
    assert np.array_equal(rep.ghat, z)
    zc = np.full(5, np.exp(1j * 1.1))
    rep = solve_qcqp(QcqpProblem(z=zc, graph=path_graph(5), lam=3.0))
    assert rep.iterations == 0 and np.array_equal(rep.ghat, zc)


def test_solver_matches_brute_force_n3():
    rng = np.random.default_rng(52)
    graph = path_graph(3)
    for _ in range(3):
        z = random_torus(rng, 3)
        lam = rng.uniform(0, 0.2)
        prob = QcqpProblem(z=z, graph=graph, lam=lam)
        rep = solve_qcqp(prob)
        oracle = brute_force_min_n3(prob)
        assert rep.objective == pytest.approx(oracle, abs=1e-6)
        assert rep.converged


def test_solver_monotone_objective_and_tolerance():
    rng = np.random.default_rng(53)
    z = random_torus(rng, 12)
    prob = QcqpProblem(z=z, graph=path_graph(12), lam=0.2)
    rep = solve_qcqp(prob)
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
    z = random_torus(rng, 6)
    assert solve_qcqp(QcqpProblem(z=z, graph=path_graph(6), lam=0.0)).backtracks == 0
    # A stiff grid problem rejects some Barzilai-Borwein steps; each halving
    # is counted, and the descent still converges.
    z = random_torus(rng, 16)
    rep = solve_qcqp(QcqpProblem(z=z, graph=grid_graph(2, 4), lam=3.0))
    assert rep.converged and 0 < rep.backtracks


# ---------------------------------------------------------------------------
# Critical point structure


def test_verdict_at_lam0_on_the_data_itself():
    # At lam = 0 the data is the minimizer: no gradient, A = I, Re(z^* z) = n.
    rng = np.random.default_rng(54)
    z = random_torus(rng, 5)
    prob = QcqpProblem(z=z, graph=path_graph(5), lam=0.0)
    cert = tightness_verdict(prob, z)
    assert cert.tight and not cert.indeterminate
    assert cert.certificate_residual < 1e-12  # |Im(z^* z)| and ||grad||_inf / 2
    assert float(np.max(np.abs(riemannian_grad(prob, z)))) < 1e-12
    assert cert.data_alignment == pytest.approx(5.0, rel=1e-12)
    assert np.allclose(schur_block(z, 0.0, prob.graph, z), np.eye(5), rtol=0.0, atol=1e-12)


def test_solver_output_is_certified_tight():
    rng = np.random.default_rng(55)
    for graph in (path_graph(10), grid_graph(2, 3)):
        z = random_torus(rng, graph.n)
        prob = QcqpProblem(z=z, graph=graph, lam=0.05)
        rep = solve_qcqp(prob)
        assert rep.converged
        assert tightness_verdict(prob, rep.ghat).tight


def test_verdict_rejects_a_perturbed_point():
    rng = np.random.default_rng(56)
    z = random_torus(rng, 8)
    prob = QcqpProblem(z=z, graph=path_graph(8), lam=0.05)
    rep = solve_qcqp(prob)
    bad = rep.ghat.copy()
    bad[3] *= np.exp(1j * 0.3)
    with pytest.raises(ValueError, match="not critical"):
        tightness_verdict(prob, bad)


def _second_order_form(prob, g, u):
    """1/2 Re<i*u*g, Hess(i*u*g)> for real u: the curvature of the objective
    along the rotation g*exp(i*t*u), which equals
    u^T {Re diag(z*conj(g)) + lam*L_w} u with L_w the Laplacian reweighted by
    Re(g_i*conj(g_j)).  Nonnegative at second-order critical points."""
    xi = 1j * np.asarray(u, dtype=float) * g
    return 0.5 * float(np.real(np.vdot(xi, hessian_apply(prob, g, xi))))


def test_hessian_second_order_form():
    rng = np.random.default_rng(57)
    n = 7
    z = random_torus(rng, n)
    graph = path_graph(n)
    prob = QcqpProblem(z=z, graph=graph, lam=0.04)
    rep = solve_qcqp(prob)
    ones = np.ones(n)
    val = _second_order_form(prob, rep.ghat, ones)
    assert val == pytest.approx(float(np.real(np.vdot(z, rep.ghat))), rel=1e-9)
    prob0 = QcqpProblem(z=z, graph=graph, lam=0.0)
    u = rng.standard_normal(n)
    assert _second_order_form(prob0, z, u) == pytest.approx(float(np.sum(u ** 2)), rel=1e-12)
    for _ in range(20):
        u = rng.standard_normal(n)
        assert _second_order_form(prob, rep.ghat, u) >= -1e-8 * float(np.sum(u ** 2))


def test_linf_stability_bound_on_planted_instance():
    # lam * Delta < sqrt(2) and a certified-global solution: the error bound
    # from the problem data must dominate the realized error.
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
    bound = linf_error_bound(delta, lam * graph.max_degree, edge_smoothness(h, graph))
    assert float(np.max(np.abs(rep.ghat - h))) ** 2 <= bound + 1e-8
