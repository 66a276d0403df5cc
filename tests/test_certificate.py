import numpy as np
import pytest

from conftest import dense_verdict, kkt_check
from modrec import certificate, linalg
from modrec.certificate import (
    apriori_tightness_conditions,
    dual_certificate,
    empirical_tightness_condition,
    lift_gram,
    lift_matrix,
    linf_error_bound,
    schur_block,
    tightness_verdict,
)
from modrec.graphs import GraphSpec, edge_smoothness, grid_graph, path_graph
from modrec.linalg import hermitian_eig
from modrec.qcqp import QcqpProblem, objective, riemannian_grad, solve_qcqp

TWO_PI = 2.0 * np.pi


def _random_torus(rng, n):
    return np.exp(1j * rng.uniform(0.0, TWO_PI, size=n))


def _schur_test(prob, g):
    """Independent tightness test at a critical point: lambda_min(A) > 0 and
    Re(z^* g) > 0 with A = lam L + diag(Re(conj(g) (z - lam L g)))."""
    L = prob.graph.laplacian()
    A = prob.lam * L + np.diag(np.real(np.conj(g) * (prob.z - prob.lam * (L @ g))))
    lmin = float(np.linalg.eigvalsh(A)[0])
    return lmin, lmin > 0.0 and float(np.real(np.vdot(prob.z, g))) > 0.0


def _lam5_grid(stream):
    """A 5x5 grid at lam = 5: smooth planted phase plus 0.15-turn noise."""
    ii, jj = np.indices((5, 5)) / 4.0
    f = 0.05 * np.sin(TWO_PI * (ii + 0.5 * jj) + 0.3 * stream)
    eta = np.random.default_rng([7, stream]).standard_normal(25)
    z = np.exp(1j * TWO_PI * (f.reshape(-1) + 0.15 * eta))
    return QcqpProblem(z=z, graph=grid_graph(2, 5), lam=5.0)


def _random_instance(rng, k, lam_range, path_end=30, grid_end=6):
    """A random torus signal on a path (even k) or a square grid (odd k);
    sizes are drawn below path_end nodes and grid_end points per axis."""
    graph = path_graph(int(rng.integers(6, path_end))) if k % 2 == 0 else grid_graph(2, int(rng.integers(3, grid_end)))
    return QcqpProblem(z=_random_torus(rng, graph.n), graph=graph, lam=float(rng.uniform(*lam_range)))


# ---------------------------------------------------------------------------
# Hermitian eigensolver


def test_hermitian_eig_identity_and_diagonal():
    w, v = hermitian_eig(np.eye(4))
    assert np.allclose(w, 1.0)
    assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-12)
    w, _ = hermitian_eig(np.diag([3.0, -1.0, 0.0]))
    assert np.allclose(w, [-1.0, 0.0, 3.0])


def test_hermitian_eig_random_reconstruction():
    rng = np.random.default_rng(61)
    for n in (2, 6, 13, 40):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = a + a.conj().T
        w, v = hermitian_eig(a)
        assert np.linalg.norm(v @ np.diag(w) @ v.conj().T - a) < 1e-10
        assert np.max(np.abs(a @ v - v * w)) < 1e-10 * max(1.0, np.max(np.abs(a)))
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-10
        # independent oracle
        assert np.allclose(w, np.linalg.eigvalsh(a), atol=1e-10 * max(1.0, np.max(np.abs(a))))
        assert np.sum(w) == pytest.approx(np.real(np.trace(a)), abs=1e-10 * n * max(1.0, np.max(np.abs(a))))


def test_hermitian_eig_real_symmetric():
    rng = np.random.default_rng(62)
    a = rng.standard_normal((5, 5))
    a = a + a.T
    w, _ = hermitian_eig(a)
    assert np.allclose(w, np.linalg.eigvalsh(a), atol=1e-11)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError):
        hermitian_eig(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# Lift matrix and certificate construction


def test_lift_matrix_structure():
    rng = np.random.default_rng(63)
    n = 4
    graph = path_graph(n)
    z = _random_torus(rng, n)
    T0 = lift_matrix(0.0, graph.laplacian(), z)
    assert np.allclose(T0[:n, :n], 0.0)
    assert np.allclose(T0[:n, n], -z)
    assert np.allclose(T0[n, :n], -np.conj(z))
    assert T0[n, n] == 0.0
    T = lift_matrix(0.7, graph.laplacian(), z)
    assert np.max(np.abs(T - T.conj().T)) < 1e-14


def test_lift_trace_identity():
    rng = np.random.default_rng(64)
    for _ in range(5):
        n = 6
        graph = path_graph(n)
        z = _random_torus(rng, n)
        g = _random_torus(rng, n)
        lam = rng.uniform(0, 1)
        prob = QcqpProblem(z=z, graph=graph, lam=lam)
        T = lift_matrix(lam, graph.laplacian(), z)
        W = lift_gram(g)
        assert float(np.real(np.trace(T @ W))) == pytest.approx(objective(prob, g), abs=1e-9)


def test_dual_certificate_lam0_block_values():
    rng = np.random.default_rng(65)
    n = 5
    graph = path_graph(n)
    z = _random_torus(rng, n)
    S = dual_certificate(z, 0.0, graph.laplacian(), z)
    assert np.allclose(S[:n, :n], np.eye(n), atol=1e-12)
    assert np.allclose(S[:n, n], -z)
    assert S[n, n] == pytest.approx(n, rel=1e-12)


def test_dual_certificate_minus_lift_is_real_diagonal_for_any_g():
    rng = np.random.default_rng(66)
    n = 6
    graph = path_graph(n)
    z = _random_torus(rng, n)
    g = _random_torus(rng, n)  # arbitrary, not critical
    L = graph.laplacian()
    T = lift_matrix(0.3, L, z)
    S = dual_certificate(g, 0.3, L, z)
    D = S - T
    assert np.max(np.abs(D - np.diag(np.diag(D)))) < 1e-14
    assert np.max(np.abs(np.imag(np.diag(D)))) < 1e-14


def test_dual_certificate_two_constructions_agree_at_critical_points():
    # The dense definition of S and the edge-list Schur block A = S[:n, :n].
    for graph, lam in ((path_graph(10), 0.04), (grid_graph(2, 4), 0.7), (grid_graph(2, 3, 2), 2.0)):
        n = graph.n
        z = _random_torus(np.random.default_rng([67, n]), n)
        rep = solve_qcqp(QcqpProblem(z=z, graph=graph, lam=lam))
        assert rep.converged
        S = dual_certificate(rep.ghat, lam, graph.laplacian(), z)
        A = schur_block(rep.ghat, lam, graph, z)
        assert A.dtype == np.float64 and A.shape == (n, n)
        assert np.max(np.abs(S[:n, :n].real - A)) < 1e-12
        assert np.max(np.abs(S[:n, :n].imag)) == 0.0
        # S annihilates the lifted solution at critical points.
        gt = np.concatenate([rep.ghat, [1.0 + 0j]])
        assert np.max(np.abs(S @ gt)) <= 1e-7 * (1.0 + np.max(np.abs(S)))


# ---------------------------------------------------------------------------
# KKT conditions (the dense oracle in conftest)


def test_kkt_gram_feasibility():
    rng = np.random.default_rng(68)
    n = 5
    g = _random_torus(rng, n)
    X = lift_gram(g)
    graph = path_graph(n)
    z = _random_torus(rng, n)
    T = lift_matrix(0.1, graph.laplacian(), z)
    S = dual_certificate(g, 0.1, graph.laplacian(), z)
    report = kkt_check(X, S, T)
    assert report.diag_ones and report.x_psd and report.dual_structure


def test_kkt_all_pass_at_lam0():
    rng = np.random.default_rng(69)
    n = 6
    graph = path_graph(n)
    z = _random_torus(rng, n)
    T = lift_matrix(0.0, graph.laplacian(), z)
    S = dual_certificate(z, 0.0, graph.laplacian(), z)
    report = kkt_check(lift_gram(z), S, T)
    assert report.all_ok


def test_kkt_complementarity_fails_off_critical():
    rng = np.random.default_rng(70)
    n = 6
    graph = path_graph(n)
    z = _random_torus(rng, n)
    g = _random_torus(rng, n)
    T = lift_matrix(0.2, graph.laplacian(), z)
    S = dual_certificate(g, 0.2, graph.laplacian(), z)
    report = kkt_check(lift_gram(g), S, T)
    assert not report.complementary


# ---------------------------------------------------------------------------
# Tightness verdict


def test_verdict_lam0_always_tight():
    rng = np.random.default_rng(71)
    n = 6
    graph = path_graph(n)
    z = _random_torus(rng, n)
    prob = QcqpProblem(z=z, graph=graph, lam=0.0)
    cert = tightness_verdict(prob, z)
    # A = I up to the rounding of |z_i|^2
    assert cert.tight and cert.schur_min_eig > cert.threshold
    assert cert.schur_min_eig == pytest.approx(1.0, abs=1e-12)
    dense = dense_verdict(prob, z)
    assert dense.tight and dense.psd and dense.rank_n and dense.null_multiplicity == 1
    # spectrum of S is {0, 1 (n-1 times), n+1}
    expected = np.sort(np.concatenate([[0.0], np.ones(n - 1), [n + 1.0]]))
    assert np.allclose(dense.eigenvalues, expected, atol=1e-10)


def test_verdict_planted_smooth_instance():
    rng = np.random.default_rng(72)
    n = 20
    x = np.arange(n) / (n - 1)
    h = np.exp(1j * 0.04 * TWO_PI * np.sin(TWO_PI * x))  # edge gaps well under 0.1
    graph = path_graph(n)
    assert edge_smoothness(h, graph) <= 0.1
    delta = 0.01
    z = h * np.exp(1j * rng.uniform(-1, 1, n) * 2 * np.arcsin(delta / 2))
    lam = 0.1 / graph.max_degree
    prob = QcqpProblem(z=z, graph=graph, lam=lam)
    rep = solve_qcqp(prob)
    cert = tightness_verdict(prob, rep.ghat)
    dense = dense_verdict(prob, rep.ghat)
    assert cert.tight and dense.tight
    assert cert.certificate_residual == pytest.approx(dense.certificate_residual, abs=1e-12)
    assert cert.certificate_residual <= 1e-7 * (1.0 + np.max(np.abs(dense.eigenvalues)))


def test_verdict_adversarial_point_reports_without_asserting():
    # Far outside the guaranteed regime: the verdict may be tight or not;
    # it must evaluate and report, never guess.
    rng = np.random.default_rng(73)
    n = 8
    h = np.ones(n, dtype=complex)
    z = -h * np.exp(1j * rng.uniform(-0.05, 0.05, n))  # delta near 2
    graph = path_graph(n)
    prob = QcqpProblem(z=z, graph=graph, lam=0.5 / graph.max_degree)
    rep = solve_qcqp(prob)
    cert = tightness_verdict(prob, rep.ghat)
    assert cert.tight == (cert.schur_min_eig > cert.threshold and not cert.indeterminate)
    assert isinstance(cert.schur_min_eig, float) and cert.threshold >= 1e-8
    if abs(cert.schur_min_eig) >= 1e-6:
        assert cert.tight == dense_verdict(prob, rep.ghat).tight


@pytest.mark.parametrize("stream", [0, 2])
def test_verdict_tight_on_lam5_grids(stream):
    # ||S||_max is about 42 here, so the complementary residual of a
    # converged point can exceed an absolute 1e-8 while A is positive definite.
    prob = _lam5_grid(stream)
    rep = solve_qcqp(prob)
    assert rep.converged
    lmin, tight = _schur_test(prob, rep.ghat)
    assert lmin > 0.5 and tight
    cert = tightness_verdict(prob, rep.ghat)
    assert cert.tight and cert.schur_min_eig == pytest.approx(lmin, abs=1e-12)
    dense = dense_verdict(prob, rep.ghat)
    assert dense.tight and dense.kkt.complementary


def test_verdict_complementary_tolerance_follows_the_gradient():
    # A global phase rotation of a certified solution keeps the gradient
    # below 1e-8 but moves the last entry of S gt, -i Im(z^* g), above it:
    # that residual is bounded by n ||grad||_inf / 2, not by an absolute 1e-8.
    prob = _lam5_grid(0)
    g = solve_qcqp(prob).ghat * np.exp(3e-9j)
    assert float(np.max(np.abs(riemannian_grad(prob, g)))) <= 1e-8
    assert float(np.imag(np.vdot(prob.z, g))) > 1e-8
    cert = tightness_verdict(prob, g)
    assert cert.certificate_residual > 1e-8
    lmin, tight = _schur_test(prob, g)
    assert cert.tight and tight and lmin > 0.5
    dense = dense_verdict(prob, g)
    assert dense.tight and dense.kkt.complementary_err > 1e-8
    assert cert.certificate_residual == pytest.approx(dense.certificate_residual, abs=1e-12)


def test_verdict_matches_schur_oracle_on_random_instances():
    rng = np.random.default_rng(90)
    outcomes = []
    for k in range(30):
        prob = _random_instance(rng, k, (0.05, 3.0))
        rep = solve_qcqp(prob)
        assert rep.converged
        lmin, tight = _schur_test(prob, rep.ghat)
        if abs(lmin) < 1e-6:
            continue  # too close to call for either test
        cert = tightness_verdict(prob, rep.ghat)
        oracle = dense_verdict(prob, rep.ghat)
        assert cert.tight == tight == oracle.tight
        assert cert.schur_min_eig == pytest.approx(lmin, abs=1e-10)
        assert cert.certificate_residual == pytest.approx(oracle.certificate_residual, abs=1e-12)
        n = prob.graph.n
        L = prob.graph.laplacian()
        S = dual_certificate(rep.ghat, prob.lam, L, prob.z)
        assert np.max(np.abs(schur_block(rep.ghat, prob.lam, prob.graph, prob.z) - S[:n, :n].real)) < 1e-12
        # The oracle's rank-one shortcuts agree with the general KKT
        # evaluation on the explicit X = gt gt^* and dense S.
        full = kkt_check(lift_gram(rep.ghat), S, lift_matrix(prob.lam, L, prob.z))
        assert abs(full.x_min_eig) <= 1e-12 and oracle.kkt.x_min_eig == 0.0
        assert oracle.kkt.complementary_err == pytest.approx(full.complementary_err, abs=1e-11)
        assert oracle.kkt.s_min_eig == pytest.approx(full.s_min_eig, abs=1e-10)
        assert oracle.kkt.diag_ones_err <= 1e-15 and oracle.kkt.dual_structure_err == full.dual_structure_err
        outcomes.append(tight)
    assert 0 < sum(outcomes) < len(outcomes)  # both verdicts occur


def test_verdict_matches_dense_oracle_sweep():
    # 6-40-node paths and 3x3-6x6 grids alternately, lam in [0.02, 3].
    rng = np.random.default_rng(91)
    outcomes = []
    for k in range(300):
        prob = _random_instance(rng, k, (0.02, 3.0), path_end=41, grid_end=7)
        rep = solve_qcqp(prob)
        assert rep.converged, k
        cert = tightness_verdict(prob, rep.ghat)
        oracle = dense_verdict(prob, rep.ghat)
        assert cert.tight == oracle.tight, (k, cert, oracle.eigenvalues[:2])
        outcomes.append(cert.tight)
    assert 0 < sum(outcomes) < len(outcomes)


def test_verdict_decides_on_the_real_schur_block(monkeypatch):
    # No dense lift, Laplacian, complex matrix or (n+1)-square array: the one
    # eigenvalue call sees the real n x n block.
    prob = _lam5_grid(2)
    ghat = solve_qcqp(prob).ghat
    expected = tightness_verdict(prob, ghat)

    def forbidden(*args, **kwargs):
        raise AssertionError("the verdict must not build the dense certificate")

    for owner, name in ((certificate, "lift_matrix"), (certificate, "dual_certificate"),
                        (certificate, "lift_gram"), (linalg, "hermitian_eig"), (GraphSpec, "laplacian")):
        monkeypatch.setattr(owner, name, forbidden)
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        seen.append((a.shape, a.dtype))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    assert tightness_verdict(prob, ghat) == expected
    assert seen == [((25, 25), np.dtype(np.float64))]


def test_verdict_requires_critical_point():
    rng = np.random.default_rng(74)
    n = 5
    z = _random_torus(rng, n)
    prob = QcqpProblem(z=z, graph=path_graph(n), lam=0.3)
    with pytest.raises(ValueError):
        tightness_verdict(prob, _random_torus(rng, n))


# ---------------------------------------------------------------------------
# Closed-form conditions and bounds


def test_apriori_conditions_examples():
    r = apriori_tightness_conditions(0.0, 0.0, 2.0, 0.0)
    assert r.ok and r.cond1_value == 0.0
    r = apriori_tightness_conditions(0.0, 0.1, 2.0, 0.0)  # lam*Delta = 0.2
    assert not r.cond2
    r = apriori_tightness_conditions(0.01, 0.05, 1.0, 0.1)
    inner = (8.0 / 7.0) * (0.03 + 0.05 * (0.01 + np.sqrt(2.0)))
    assert r.cond1_value == pytest.approx(0.01 + np.sqrt(inner), rel=1e-12)
    assert r.cond1_value == pytest.approx(0.3501, abs=2e-4)
    assert r.cond1 and r.cond2 and r.ok
    with pytest.raises(ValueError):
        apriori_tightness_conditions(2.5, 0.0, 1.0, 0.0)


def test_empirical_condition_examples():
    assert empirical_tightness_condition(0.0, 0.0, 0.0, 0.0, 0.0)
    assert not empirical_tightness_condition(0.0, 1.0, 0.0, 1.0, 0.0)  # (2/1)*1 = 2 >= 1
    # moderate regime: 0.1*(0.05 + 0.16) + ((3-s^2)/(2-s^2))*s^2 with s=0.13
    assert empirical_tightness_condition(0.1, 1.0, 0.05, 0.05, 0.08)
    with pytest.raises(ValueError):
        empirical_tightness_condition(0.0, 1.0, 0.0, 1.0, 0.5)


def test_linf_error_bound_examples():
    assert linf_error_bound(0.0, 0.0, 2.0, 0.0) == 0.0
    assert linf_error_bound(0.1, 0.0, 2.0, 0.5) == pytest.approx(0.21, rel=1e-12)
    val = linf_error_bound(0.05, 0.05, 2.0, 0.1)
    num = 0.1 + 0.0025 + 0.1 * (0.01 + np.sqrt(2.0))
    assert val == pytest.approx(num / (1.0 - 0.1 / np.sqrt(2.0)), rel=1e-12)
    assert val == pytest.approx(0.2636, abs=2e-4)
    with pytest.raises(ValueError):
        linf_error_bound(0.1, 1.0, 2.0, 0.1)  # lam*Delta = 2 >= sqrt(2)
