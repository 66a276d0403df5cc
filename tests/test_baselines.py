import numpy as np
import pytest

from conftest import trs_dense
from modrec import baselines
from modrec.baselines import HardCaseError, lambda_schedule, solve_trs, solve_ucqp
from modrec.graphs import grid_graph, path_graph, quadratic_form
from modrec.qcqp import QcqpProblem, objective, solve_qcqp

TWO_PI = 2.0 * np.pi


def _random_torus(rng, n):
    return np.exp(1j * rng.uniform(0.0, TWO_PI, size=n))


def test_ucqp_lam0_identity():
    rng = np.random.default_rng(81)
    z = _random_torus(rng, 6)
    r = solve_ucqp(z, path_graph(6), 0.0)
    assert np.array_equal(r.raw, z)


def test_ucqp_constant_signal():
    z = np.full(5, np.exp(1j * 0.9))
    r = solve_ucqp(z, path_graph(5), 4.2)
    assert np.max(np.abs(r.raw - z)) < 1e-12


def test_ucqp_against_direct_solve():
    graph = path_graph(3)
    z = np.array([1.0 + 0j, 1j, 1.0 + 0j])
    lam = 1.0
    r = solve_ucqp(z, graph, lam)
    direct = np.linalg.solve(np.eye(3) + lam * graph.laplacian(), z)
    assert np.max(np.abs(r.raw - direct)) < 1e-12
    assert r.residual_inf <= 1e-10 * np.max(np.abs(z))


def test_ucqp_residual_invariant_random():
    rng = np.random.default_rng(82)
    for n, lam in ((10, 0.5), (50, 3.0), (200, 12.6)):
        z = _random_torus(rng, n)
        r = solve_ucqp(z, path_graph(n), lam)
        assert r.residual_inf <= 1e-10 * np.max(np.abs(z))
        direct = np.linalg.solve(np.eye(n) + lam * path_graph(n).laplacian(), z)
        assert np.max(np.abs(r.raw - direct)) < 1e-9


def test_ucqp_relaxation_dominates_torus_points():
    rng = np.random.default_rng(83)
    n = 12
    graph = path_graph(n)
    z = _random_torus(rng, n)
    lam = 0.4

    def full_objective(g):
        return float(np.sum(np.abs(g - z) ** 2)) + lam * quadratic_form(graph, g)

    r = solve_ucqp(z, graph, lam)
    base = full_objective(r.raw)
    for _ in range(25):
        assert base <= full_objective(_random_torus(rng, n)) + 1e-10
    rep = solve_qcqp(QcqpProblem(z=z, graph=graph, lam=lam))
    assert base <= full_objective(rep.ghat) + 1e-10


def test_trs_lam0_identity():
    rng = np.random.default_rng(84)
    z = _random_torus(rng, 7)
    r = solve_trs(z, path_graph(7), 0.0)
    assert r.mu == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(r.raw - z)) < 1e-10


def test_trs_constant_signal():
    z = np.full(6, np.exp(1j * 2.2))
    r = solve_trs(z, path_graph(6), 3.3)
    assert np.max(np.abs(r.raw - z)) < 1e-8
    assert r.norm_sq == pytest.approx(6.0, abs=1e-8)


def test_trs_feasibility_and_stationarity():
    rng = np.random.default_rng(85)
    graph = path_graph(4)
    z = _random_torus(rng, 4)
    r = solve_trs(z, graph, 0.5)
    assert abs(r.norm_sq - 4.0) <= 1e-8
    assert r.stationarity_inf <= 1e-8
    assert r.mu > 0.0


def test_trs_relaxes_torus_objective():
    rng = np.random.default_rng(86)
    n = 9
    graph = path_graph(n)
    z = _random_torus(rng, n)
    lam = 0.3
    prob = QcqpProblem(z=z, graph=graph, lam=lam)
    rep = solve_qcqp(prob)
    trs = solve_trs(z, graph, lam)
    trs_value = lam * quadratic_form(graph, trs.raw) - 2.0 * float(np.real(np.vdot(trs.raw, z)))
    assert trs_value <= objective(prob, rep.ghat) + 1e-8


def test_trs_hard_case_raises():
    z = np.array([1.0 + 0j, -1.0 + 0j])  # orthogonal to the constant null vector
    with pytest.raises(HardCaseError):
        solve_trs(z, path_graph(2), 1.0)


def _alternating(shape):
    """Graph and (-1)^(sum of the multi-index) on it: a path's alternating
    signal or a grid's checkerboard.  Its constant component is exactly 0."""
    graph = path_graph(shape[0]) if len(shape) == 1 else grid_graph(len(shape), shape[0])
    parity = np.indices(shape).sum(axis=0).reshape(-1) % 2
    return graph, np.where(parity == 0, 1.0, -1.0).astype(complex)


@pytest.mark.parametrize("shape, lam", [((64,), 50.0), ((256,), 100.0), ((8, 8), 50.0), ((16, 16), 20.0)])
def test_trs_near_hard_case(shape, lam):
    # The last entry turned by 1e-6 rad leaves a constant component of about
    # 1e-6/n: the root mu* is that small, and the constant mode carries
    # almost the whole solution.
    graph, z = _alternating(shape)
    z[-1] *= np.exp(1e-6j)
    r = solve_trs(z, graph, lam)
    n = graph.n
    assert abs(r.norm_sq - n) <= 1e-10 * n
    assert 0.0 < r.mu < 1e-6
    assert np.max(np.abs(r.raw - trs_dense(graph, z, lam))) <= 1e-8


def test_trs_zero_constant_component():
    # z = (-1)^j on 8 nodes has mean exactly 0 and ||(lam L)^+ z||^2 = 12/lam^2:
    # a root exists for lam = 0.1 (1200 > 8) and none for lam = 2 (3 <= 8).
    graph, z = _alternating((8,))
    assert np.sum(z) == 0.0
    r = solve_trs(z, graph, 0.1)
    assert abs(r.norm_sq - 8.0) <= 1e-10 * 8
    assert np.max(np.abs(r.raw - trs_dense(graph, z, 0.1))) <= 1e-9
    with pytest.raises(HardCaseError):
        solve_trs(z, graph, 2.0)


def test_trs_matches_dense_oracle_sweep():
    # Paths of 3-100 nodes and 3x3-10x10 grids alternately, lam in [0.05, 20].
    rng = np.random.default_rng(88)
    for k in range(60):
        graph = path_graph(int(rng.integers(3, 101))) if k % 2 == 0 else grid_graph(2, int(rng.integers(3, 11)))
        lam = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        z = _random_torus(rng, graph.n)
        r = solve_trs(z, graph, lam)
        assert abs(r.norm_sq - graph.n) <= 1e-10 * graph.n, k
        assert np.max(np.abs(r.raw - trs_dense(graph, z, lam))) <= 1e-9, k


def test_trs_counts_every_cg_iteration(monkeypatch):
    counted = []
    inner = baselines.conjugate_gradient

    def counting(*args, **kwargs):
        x, res, iters = inner(*args, **kwargs)
        counted.append(iters)
        return x, res, iters

    monkeypatch.setattr(baselines, "conjugate_gradient", counting)
    rng = np.random.default_rng(89)
    graph = path_graph(30)
    r = solve_trs(_random_torus(rng, 30), graph, 2.0)
    assert r.cg_iterations == sum(counted) > 0
    assert r.bisect_iterations == len(counted) - 1  # secular evaluations after the first
    counted.clear()
    graph, z = _alternating((30,))
    r = solve_trs(z, graph, 0.01)  # mean 0: one singular solve first
    assert r.cg_iterations == sum(counted) and r.bisect_iterations == len(counted) - 2
    assert solve_trs(z, graph, 0.0).cg_iterations == 0


def test_methods_are_reproducible():
    rng = np.random.default_rng(87)
    n = 15
    graph = path_graph(n)
    z = _random_torus(rng, n)
    a = solve_ucqp(z, graph, 1.1)
    b = solve_ucqp(z, graph, 1.1)
    assert np.array_equal(a.raw, b.raw) and np.array_equal(a.signal, b.signal)
    t1 = solve_trs(z, graph, 0.7)
    t2 = solve_trs(z, graph, 0.7)
    assert np.array_equal(t1.raw, t2.raw) and t1.mu == t2.mu


def test_lambda_schedule():
    assert lambda_schedule(0.04, 1000) == pytest.approx(0.04 * 10 ** 2.5, rel=1e-12)
    assert lambda_schedule(0.04, 1000) == pytest.approx(12.649, abs=1e-3)
    assert lambda_schedule(1.0, 1) == 1.0
    values = [lambda_schedule(0.5, n) for n in (10, 100, 1000)]
    assert values[0] < values[1] < values[2]
    with pytest.raises(ValueError):
        lambda_schedule(0.0, 10)
    for kappa in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="kappa must be finite and positive"):
            lambda_schedule(kappa, 10)


@pytest.mark.parametrize("solve", [solve_ucqp, solve_trs])
@pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
def test_relaxations_reject_bad_lam(solve, lam):
    with pytest.raises(ValueError, match="lam must be finite and >= 0"):
        solve(np.ones(4, dtype=complex), path_graph(4), lam)
