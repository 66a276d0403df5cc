import numpy as np
import pytest

from conftest import relabelled_path, trs_dense
from modrec import baselines
from modrec.baselines import HardCaseError, lambda_schedule, solve_trs, solve_ucqp
from modrec.circle import circle_embed
from modrec.graphs import GraphSpec, grid_graph, path_graph, quadratic_form
from modrec.harness import PlantedFunction, SyntheticSpec, generate
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
    for n, lam in ((10, 0.5), (50, 3.0), (200, 12.6), (1, 0.7), (2, 1.3)):
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


def test_constant_signal_on_a_grid():
    # L z = 0 for a constant z, so both relaxations return it, TRS at
    # mu = |mean(z)| = 1.  Here z - mean(z) is exactly 0, so each CG solve of
    # TRS has a zero right-hand side and returns before its first iteration.
    graph = grid_graph(2, 3)
    z = np.full(graph.n, np.exp(2j * np.pi * 0.1))
    assert not np.any(z - np.mean(z))
    u = solve_ucqp(z, graph, 1.0)
    t = solve_trs(z, graph, 1.0)
    eps = np.finfo(float).eps
    assert np.max(np.abs(u.raw - z)) <= 4 * eps and np.max(np.abs(t.raw - z)) <= 4 * eps
    assert t.mu == pytest.approx(1.0, abs=4 * eps) and t.cg_iterations == 0
    x, iters = baselines.conjugate_gradient(lambda v: v, np.zeros(3, dtype=complex))
    assert iters == 0 and not np.any(x)


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


# Ceilings on the secular evaluations and CG iterations of the root search on
# each near-hard input.  The secant search between the bracket ends, halving
# down from the upper end, took 37-46 evaluations here.  The model step,
# exact in the constant mode that carries almost the whole solution, takes
# 3-4 (21 and 34 CG iterations on the grids).  Paths solve in their
# eigenbasis, with no CG at all; grids precondition CG with their axis edges.
NEAR_HARD_CEILINGS = {
    ((64,), 50.0): (5, 0),
    ((256,), 100.0): (5, 0),
    ((8, 8), 50.0): (5, 30),
    ((16, 16), 20.0): (5, 45),
}


@pytest.mark.parametrize("shape, lam", list(NEAR_HARD_CEILINGS))
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
    evaluations, cg_iterations = NEAR_HARD_CEILINGS[shape, lam]
    assert r.bisect_iterations + 1 <= evaluations
    assert r.cg_iterations <= cg_iterations


def test_trs_zero_constant_component():
    # z = (-1)^j on 8 nodes has mean exactly 0 and ||(lam L)^+ z||^2 = 12/lam^2:
    # a root exists for lam = 0.1 (1200 > 8) and none for lam = 2 (3 <= 8).
    graph, z = _alternating((8,))
    assert np.sum(z) == 0.0
    r = solve_trs(z, graph, 0.1)
    assert abs(r.norm_sq - 8.0) <= 1e-10 * 8
    assert np.max(np.abs(r.raw - trs_dense(graph, z, 0.1))) <= 1e-9
    # With c = 0 the model step is the secant of psi = 1/||g|| through the
    # last two evaluations, the first of them the hard-case check at mu = 0.
    # psi is far from linear between mu = 0 and the upper end here, and the
    # search takes 5 evaluations (plain regula falsi between the bracket
    # ends took 18, with the Illinois rule 7, bisection 35).
    assert r.bisect_iterations + 1 <= 8
    with pytest.raises(HardCaseError):
        solve_trs(z, graph, 2.0)


@pytest.mark.parametrize("shape", [(8, 8), (16, 16)])
def test_trs_zero_constant_component_on_a_grid(shape):
    # The checkerboard has mean exactly 0, so the hard-case check solves at
    # mu = 0, where the axis-edge preconditioner is singular like L itself.
    graph, z = _alternating(shape)
    assert np.sum(z) == 0.0
    for lam in (0.01, 0.05):
        r = solve_trs(z, graph, lam)
        assert abs(r.norm_sq - graph.n) <= 1e-10 * graph.n
        assert np.max(np.abs(r.raw - trs_dense(graph, z, lam))) <= 1e-9
    with pytest.raises(HardCaseError):
        solve_trs(z, graph, 2.0)


@pytest.mark.parametrize("m", [16, 32, 64])
def test_grid_cg_iterations_do_not_grow_with_m(m):
    # Plain CG took 60, 116 and 217 UCQP iterations here, and 51, 101 and
    # 190 per TRS secular evaluation.  Preconditioned by the axis edges,
    # the condition number has a bound free of m (_axis_preconditioner):
    # 21-22 and 16.  The secular evaluations do not grow with m either: the
    # model step takes 5-6 where the secant search between the bracket ends
    # took 10-11.
    data = generate(SyntheticSpec(function=PlantedFunction((0.3, 0.25), (1, 1), (0.4, 1.3), 0.1), d=2, m=m, sigma=0.12, seed=0))
    z = circle_embed(data.noisy_mod.flat)
    graph, lam = grid_graph(2, m), lambda_schedule(0.04, m * m)
    assert solve_ucqp(z, graph, lam).iterations <= 30
    r = solve_trs(z, graph, lam)
    assert r.bisect_iterations + 1 <= 6
    assert r.cg_iterations <= 30 * (r.bisect_iterations + 1)


@pytest.mark.parametrize("m", [8, 16])
def test_trs_few_secular_evaluations_in_3d(m):
    # The secant search between the bracket ends took 18-20 evaluations on
    # these fields, against 10-11 on the 2-D sweep grids; the model step
    # takes 3.
    function = PlantedFunction((0.3, 0.25, 0.2), (1, 1, 1), (0.4, 1.3, 0.7), 0.1)
    graph, lam = grid_graph(3, m), lambda_schedule(0.04, m**3)
    for seed in range(4):
        data = generate(SyntheticSpec(function=function, d=3, m=m, sigma=0.12, seed=seed))
        z = circle_embed(data.noisy_mod.flat)
        r = solve_trs(z, graph, lam)
        assert abs(r.norm_sq - graph.n) <= 1e-10 * graph.n
        assert r.bisect_iterations + 1 <= 4, seed
        if m == 8:
            assert np.max(np.abs(r.raw - trs_dense(graph, z, lam))) <= 1e-9, seed


def test_trs_on_a_grid_without_axis_preconditioner():
    # A radius-2 grid runs plain CG under the same root search: a random z
    # (c != 0; the secant search between the bracket ends took 14
    # evaluations, the model step 4) and the checkerboard (c = 0, whose
    # first model point is the hard-case solve at mu = 0).
    graph = grid_graph(2, 6, radius=2)
    assert graph._axis_eigenbasis is None
    rng = np.random.default_rng(5)
    checkerboard = _alternating((6, 6))[1]
    for z, lam, evaluations in ((_random_torus(rng, graph.n), 0.7, 5), (checkerboard, 0.02, 6)):
        r = solve_trs(z, graph, lam)
        assert abs(r.norm_sq - graph.n) <= 1e-10 * graph.n
        assert r.cg_iterations > 0 and r.bisect_iterations + 1 <= evaluations
        assert np.max(np.abs(r.raw - trs_dense(graph, z, lam))) <= 1e-9


@pytest.mark.parametrize("d, m, mu", [(2, 5, 0.3), (3, 5, 2.0), (2, 5, 0.0)])
def test_axis_preconditioner_inverts_the_axis_edge_system(d, m, mu):
    # Oracle: the dense lam*L_axis + mu*I of the grid's axis edges, those
    # joining multi-indices at distance 1 along one axis.  At mu = 0 it is
    # singular with null space span(1), and the preconditioner is its
    # pseudo-inverse.
    graph, lam = grid_graph(d, m), 0.7
    coords = np.array(np.unravel_index(graph.edges, (m,) * d))
    axis_edges = graph.edges[np.abs(coords[:, :, 1] - coords[:, :, 0]).sum(axis=0) == 1]
    M = lam * GraphSpec(n=graph.n, edges=axis_edges).laplacian() + mu * np.eye(graph.n)
    precondition = baselines._axis_preconditioner(graph, lam, mu)
    got = np.array([precondition(e) for e in np.eye(graph.n, dtype=complex)]).T
    assert np.max(np.abs(got - np.linalg.pinv(M))) <= 1e-13


def test_only_radius_1_grids_carry_the_axis_eigenbasis():
    for d, m in ((2, 2), (2, 7), (3, 3), (3, 4)):
        grid = grid_graph(d, m)
        basis = grid._axis_eigenbasis
        assert (basis.d, basis.m) == (d, m)
        reordered = GraphSpec(n=grid.n, edges=grid.edges[::-1, ::-1])
        assert reordered._axis_eigenbasis is not None
        if m > 2:  # the 2^d grid is complete: every relabelling is itself
            perm = np.random.default_rng(m).permutation(grid.n)
            assert GraphSpec(n=grid.n, edges=perm[grid.edges])._axis_eigenbasis is None
    for graph in (path_graph(9), grid_graph(1, 9, radius=2), grid_graph(2, 4, radius=2), grid_graph(3, 3, radius=2)):
        assert graph._axis_eigenbasis is None
        assert baselines._axis_preconditioner(graph, 1.0, 1.0) is None


def test_trs_matches_dense_oracle_sweep():
    # Paths of 3-100 nodes and 3x3-10x10 grids alternately, then the 1- and
    # 2-node paths, lam in [0.05, 20].  The model step takes at most 8
    # secular evaluations on each; the secant search between the bracket
    # ends took up to 18.
    rng = np.random.default_rng(88)
    for k in range(62):
        if k >= 60:
            graph = path_graph(k - 59)
        else:
            graph = path_graph(int(rng.integers(3, 101))) if k % 2 == 0 else grid_graph(2, int(rng.integers(3, 11)))
        lam = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        z = _random_torus(rng, graph.n)
        r = solve_trs(z, graph, lam)
        assert abs(r.norm_sq - graph.n) <= 1e-10 * graph.n, k
        assert np.max(np.abs(r.raw - trs_dense(graph, z, lam))) <= 1e-9, k
        assert r.bisect_iterations + 1 <= 8, k


@pytest.mark.parametrize(
    "function, d, m, max_evaluations",
    [("example1", 1, 1024, 8), (PlantedFunction((0.3, 0.25), (1, 1), (0.4, 1.3), 0.1), 2, 16, 6)],
    # The case ids keep the names they had when the grid's ceiling was 15.
    ids=["example1-1-1024-8", "function1-2-16-15"],
)
def test_trs_few_secular_evaluations(function, d, m, max_evaluations):
    # Sweep-sized fields at sigma = 0.12 and the sweep's lambda schedule.
    # Bisection took 34 (path) and 36 (grid) secular evaluations here, the
    # secant search between the bracket ends 11 on the grid.
    data = generate(SyntheticSpec(function=function, d=d, m=m, sigma=0.12, seed=0))
    z = np.exp(2j * np.pi * data.noisy_mod.flat)
    n = data.noisy_mod.grid.n
    graph = path_graph(n) if d == 1 else grid_graph(d, m)
    lam = lambda_schedule(0.04, n)
    r = solve_trs(z, graph, lam)
    assert abs(r.norm_sq - n) <= 1e-10 * n
    assert r.bisect_iterations + 1 <= max_evaluations
    assert np.max(np.abs(r.raw - trs_dense(graph, z, lam))) <= 1e-9


def test_trs_counts_every_cg_iteration(monkeypatch):
    counted = []
    inner = baselines.conjugate_gradient

    def counting(*args, **kwargs):
        x, iters = inner(*args, **kwargs)
        counted.append(iters)
        return x, iters

    monkeypatch.setattr(baselines, "conjugate_gradient", counting)
    rng = np.random.default_rng(89)
    graph, z, _ = relabelled_path(_random_torus(rng, 30), 89)
    r = solve_trs(z, graph, 2.0)
    assert r.cg_iterations == sum(counted) > 0
    assert r.bisect_iterations == len(counted) - 1  # secular evaluations after the first
    counted.clear()
    graph, z, _ = relabelled_path(_alternating((30,))[1], 90)
    r = solve_trs(z, graph, 0.01)  # mean 0: one singular solve first
    assert r.cg_iterations == sum(counted) and r.bisect_iterations == len(counted) - 2
    assert solve_trs(z, graph, 0.0).cg_iterations == 0


def test_path_solves_are_exact_to_rounding():
    # The sweep's 4096-point path.  Conjugate gradients stopped at a relative
    # residual of 1e-12 left both residuals near 2.6e-12; in the eigenbasis
    # they are rounding alone.  A residual A g - z carries about eps times
    # ||A|| max|g| per entry, with ||A|| <= 4 lam + shift (shift 1 for UCQP,
    # mu for TRS); the 1 in the bound covers z, whose entries have modulus 1.
    n = 4096
    data = generate(SyntheticSpec(function="example1", d=1, m=n, sigma=0.12, seed=0))
    z = circle_embed(data.noisy_mod.flat)
    lam = lambda_schedule(0.04, n)
    graph = path_graph(n)

    def bound(shift, g):
        return 16.0 * np.finfo(float).eps * (1.0 + 4.0 * lam + shift) * np.max(np.abs(g))

    trs = solve_trs(z, graph, lam)
    ucqp = solve_ucqp(z, graph, lam)
    assert trs.stationarity_inf <= bound(trs.mu, trs.raw)
    assert ucqp.residual_inf <= bound(1.0, ucqp.raw)
    assert trs.cg_iterations == 0 and ucqp.iterations == 0
    relabelled, moved, perm = relabelled_path(z, 91)
    cg_trs = solve_trs(moved, relabelled, lam)
    cg_ucqp = solve_ucqp(moved, relabelled, lam)
    assert cg_trs.cg_iterations > 0 and cg_ucqp.iterations > 0
    assert np.max(np.abs(trs.raw - cg_trs.raw[perm])) <= 1e-11 * np.max(np.abs(z))
    assert np.max(np.abs(ucqp.raw - cg_ucqp.raw[perm])) <= 1e-11 * np.max(np.abs(z))


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


@pytest.mark.parametrize("kappa", [1e308, np.float64(1e308)], ids=["float", "float64"])
def test_lambda_schedule_rejects_a_weight_past_the_float_range(kappa):
    # 1e308 * 16^(10/12) is inf, which the relaxations reject as lam.
    assert lambda_schedule(kappa, 1) == 1e308
    with pytest.raises(ValueError, match=r"kappa \* n\^\(10/12\) is inf at kappa = 1e\+308, n = 16"):
        lambda_schedule(kappa, 16)


@pytest.mark.parametrize("solve", [solve_ucqp, solve_trs])
@pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
def test_relaxations_reject_bad_lam(solve, lam):
    with pytest.raises(ValueError, match="lam must be finite and >= 0"):
        solve(np.ones(4, dtype=complex), path_graph(4), lam)


@pytest.mark.parametrize("solve", [solve_ucqp, solve_trs])
@pytest.mark.parametrize(
    "z, message",
    [
        (np.ones(3, dtype=complex), "signal length does not match graph size"),
        (np.full(4, 0.5 + 0.0j), "z must have unit-modulus entries"),
    ],
)
def test_relaxations_reject_bad_signal(solve, z, message):
    with pytest.raises(ValueError, match=message):
        solve(z, path_graph(4), 1.0)
