"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time

import numpy as np
import pytest

import modrec as mr
from conftest import brute_force_min_n3, lift_gram
from modrec.grid import mesh_points
from modrec.harness import PlantedFunction, SyntheticSpec, generate
from modrec.qcqp import euclidean_grad

TWO_PI = 2.0 * np.pi


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:0>2}: {status} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Noiseless exact recovery


def test_criterion_01_noiseless_exact_recovery():
    start = time.perf_counter()
    worst = 0.0
    for m in (27, 500):
        data = generate(SyntheticSpec(function="example1", d=1, m=m, sigma=0.0, seed=1))
        pipe = mr.run_pipeline(data.noisy_mod, 1)
        q = round(float(data.truth.flat[0] - pipe.ftilde.flat[0]))
        worst = max(worst, float(np.max(np.abs(pipe.ftilde.values + q - data.truth.values))))
    fn = PlantedFunction((0.5, 0.5), (1, 1), (0.0, np.pi / 2.0))  # sin + cos, M = 2*pi
    assert fn.lipschitz / (21 - 1) < 0.5
    data = generate(SyntheticSpec(function=fn, d=2, m=21, sigma=0.0, seed=2))
    pipe = mr.run_pipeline(data.noisy_mod, 1)
    q = round(float(data.truth.values[0, 0] - pipe.ftilde.values[0, 0]))
    worst = max(worst, float(np.max(np.abs(pipe.ftilde.values + q - data.truth.values))))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "noiseless recovery exact up to one integer (d=1 and d=2)",
        worst <= 1e-10 and elapsed < 1.0,
        f"max aligned error {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. Denoising property


def test_criterion_02_denoising_beats_raw_samples():
    start = time.perf_counter()
    k = mr.choose_k_practical(1000, d=1, C=0.09)
    wins = 0
    noisy_means, den_means = [], []
    for trial in range(50):
        data = generate(SyntheticSpec(function="example1", d=1, m=1000, sigma=0.12, seed=100 + trial))
        den = mr.denoise(data.noisy_mod, k)
        unw = mr.unwrap_multid(den.ghat)
        res = mr.metrics(unw.field, den.ghat, data.noisy_mod, data.truth)
        noisy_means.append(res.wrap_mse_noisy)
        den_means.append(res.wrap_mse_denoised)
        wins += res.wrap_mse_denoised < res.wrap_mse_noisy
    elapsed = time.perf_counter() - start
    ok = (np.mean(den_means) < np.mean(noisy_means)) and wins >= 45 and elapsed < 30.0
    _report(
        2,
        "kNN denoising lowers wrap-MSE (mean and >= 45/50 trials)",
        ok,
        f"mean {np.mean(den_means):.2e} vs {np.mean(noisy_means):.2e}, wins {wins}/50, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. Rate trend


def test_criterion_03_sup_error_rate_trend():
    start = time.perf_counter()
    ns = (250, 1000, 4000)
    summary = mr.monte_carlo(
        mr.McConfig(function="example1", d=1, sigma=0.12, n_sweep=ns, methods=("knn",),
                    trials=50, base_seed=300, C=0.09)
    )
    errors = [summary.cell(n, "knn").means["wrap_sup_denoised"] for n in ns]
    fitted = mr.rate_fit(ns, errors)
    elapsed = time.perf_counter() - start
    ok = 0.15 <= fitted.slope <= 0.60 and elapsed < 300.0
    _report(
        3,
        "max-wrap-error slope vs log(log n / n) within [0.15, 0.60]",
        ok,
        f"slope {fitted.slope:.3f} (target 1/3), {elapsed:.1f}s",
    )



def test_criterion_03b_sup_error_rate_trend_d2():
    # Criterion 03 in d = 2: the window [0.15, 0.60] around the d = 1 target
    # 1/3, scaled to the d = 2 target 1/4 of the rate (log n / n)^(1/(d+2)).
    start = time.perf_counter()
    ns = (1024, 4096, 16384, 65536)
    summary = mr.monte_carlo(
        mr.McConfig(function=PlantedFunction((0.5, 0.4), (1, 1), (0.3, 0.9), 0.2), d=2,
                    sigma=0.12, n_sweep=ns, methods=("knn",), trials=10, base_seed=700, C=0.09)
    )
    errors = [summary.cell(n, "knn").means["wrap_sup_denoised"] for n in ns]
    fitted = mr.rate_fit(ns, errors)
    elapsed = time.perf_counter() - start
    ok = 0.1125 <= fitted.slope <= 0.45 and elapsed < 300.0
    _report(
        "03b",
        "d = 2 max-wrap-error slope vs log(log n / n) within [0.1125, 0.45]",
        ok,
        f"slope {fitted.slope:.3f} (target 1/4), {elapsed:.1f}s",
    )

# ---------------------------------------------------------------------------
# 4. Expected-risk bound


def test_criterion_04_pointwise_risk_below_bound():
    start = time.perf_counter()
    d, sigma, M, m = 1, 0.1, 1.0, 256
    fn = PlantedFunction((1.0 / TWO_PI,), (1,), (0.1,))
    assert fn.lipschitz == pytest.approx(M, rel=1e-12)
    grid = mr.UniformGrid(d, m)
    k = mr.choose_k_expected_risk(d, sigma, M, grid.n)
    points = [20, 70, 128, 180, 240]
    f_true = fn(mesh_points(grid))
    h = np.exp(1j * TWO_PI * f_true[points])
    sq_errors = np.zeros((200, len(points)))
    for trial in range(200):
        data = generate(SyntheticSpec(function=fn, d=d, m=m, sigma=sigma, seed=400 + trial))
        est = np.exp(1j * TWO_PI * mr.denoise(data.noisy_mod, k).ghat.flat[points])
        sq_errors[trial] = np.abs(est - h) ** 2
    bound = mr.expected_risk_bound(d, sigma, M, grid.n, k)
    mc = sq_errors.mean(axis=0)
    elapsed = time.perf_counter() - start
    ok = bool(np.all(mc <= bound.value)) and bound.hypothesis_ok and elapsed < 30.0
    _report(
        4,
        "Monte Carlo pointwise risk below the expected-risk bound at 5 points",
        ok,
        f"max MC risk {mc.max():.3f} <= bound {bound.value:.3f}, k={k}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. Gradient / Hessian correctness


def test_criterion_05_gradient_hessian_finite_differences():
    rng = np.random.default_rng(500)
    step = 1e-5
    graphs = [mr.path_graph(n) for n in (4, 7, 10, 13, 16)]
    graphs += [mr.grid_graph(2, m, radius=1) for m in (2, 3, 4)]
    worst_g, worst_h = 0.0, 0.0
    count = 0
    while count < 25:
        graph = graphs[count % len(graphs)]
        z = np.exp(1j * rng.uniform(0, TWO_PI, graph.n))
        g = np.exp(1j * rng.uniform(0, TWO_PI, graph.n))
        prob = mr.QcqpProblem(z=z, graph=graph, lam=rng.uniform(0, 0.5))
        grad = mr.riemannian_grad(prob, g)
        scale = max(1.0, float(np.max(np.abs(grad))))
        for _ in range(3):
            u = rng.standard_normal(graph.n)
            fd = (
                mr.objective(prob, g * np.exp(1j * step * u))
                - mr.objective(prob, g * np.exp(-1j * step * u))
            ) / (2 * step)
            analytic = float(np.real(np.vdot(grad, 1j * u * g)))
            worst_g = max(worst_g, abs(fd - analytic) / max(abs(fd), scale))
        gdot = mr.tangent_project(g, rng.standard_normal(graph.n) + 1j * rng.standard_normal(graph.n))
        hv = mr.hessian_apply(prob, g, gdot)

        def ext_grad(x):
            return mr.tangent_project(x, euclidean_grad(prob, x))

        fd_vec = mr.tangent_project(
            g, (ext_grad(g + step * gdot) - ext_grad(g - step * gdot)) / (2 * step)
        )
        worst_h = max(worst_h, float(np.max(np.abs(fd_vec - hv))) / max(1.0, float(np.max(np.abs(hv)))))
        count += 1
    ok = worst_g < 1e-5 and worst_h < 1e-5
    _report(
        5,
        "Riemannian gradient and Hessian match finite differences on 25 instances",
        ok,
        f"max rel err grad {worst_g:.2e}, hess {worst_h:.2e}",
    )


# ---------------------------------------------------------------------------
# 6. QCQP optimality at desk scale


def test_criterion_06_desk_scale_global_optimality():
    rng = np.random.default_rng(600)
    graph = mr.path_graph(3)
    worst_gap = 0.0
    all_tight = True
    for _ in range(10):
        z = np.exp(1j * rng.uniform(0, TWO_PI, 3))
        lam = rng.uniform(0.0, 0.2)
        prob = mr.QcqpProblem(z=z, graph=graph, lam=lam)
        rep = mr.solve_qcqp(prob)
        oracle = brute_force_min_n3(prob)
        worst_gap = max(worst_gap, abs(rep.objective - oracle))
        all_tight &= mr.tightness_verdict(prob, rep.ghat).tight
    ok = worst_gap <= 1e-6 and all_tight
    _report(
        6,
        "solver matches the brute-force torus minimum on 10 random n=3 instances",
        ok,
        f"max objective gap {worst_gap:.2e}",
    )


# ---------------------------------------------------------------------------
# 7. Certificate identities


def test_criterion_07_certificate_identities():
    rng = np.random.default_rng(700)
    # Tr(T W(g)) = F(g) on random torus points
    trace_ok = True
    for _ in range(20):
        n = int(rng.integers(3, 30))
        graph = mr.path_graph(n)
        z = np.exp(1j * rng.uniform(0, TWO_PI, n))
        g = np.exp(1j * rng.uniform(0, TWO_PI, n))
        lam = rng.uniform(0, 1)
        T = mr.lift_matrix(lam, graph.laplacian(), z)
        lhs = float(np.real(np.trace(T @ lift_gram(g))))
        trace_ok &= abs(lhs - mr.objective(mr.QcqpProblem(z=z, graph=graph, lam=lam), g)) <= 1e-9

    # certificate annihilates the lifted solution at converged points
    resid_ok = True
    for _ in range(8):
        n = int(rng.integers(5, 40))
        graph = mr.path_graph(n)
        z = np.exp(1j * rng.uniform(0, TWO_PI, n))
        lam = rng.uniform(0, 0.25) / graph.max_degree
        prob = mr.QcqpProblem(z=z, graph=graph, lam=lam)
        rep = mr.solve_qcqp(prob)
        if not rep.converged:
            resid_ok = False
            continue
        S = mr.dual_certificate(rep.ghat, lam, graph.laplacian(), z)
        gt = np.concatenate([rep.ghat, [1.0 + 0j]])
        resid_ok &= float(np.max(np.abs(S @ gt))) <= 1e-7 * (1.0 + float(np.max(np.abs(S))))

    # lam = 0 certificate: tight, its Schur block (the identity) positive definite
    lam0_ok = True
    for n in (5, 20, 50):
        z = np.exp(1j * rng.uniform(0, TWO_PI, n))
        prob = mr.QcqpProblem(z=z, graph=mr.path_graph(n), lam=0.0)
        cert = mr.tightness_verdict(prob, z)
        lam0_ok &= cert.tight and cert.schur_min_eig > cert.threshold
    ok = trace_ok and resid_ok and lam0_ok
    _report(
        7,
        "lift-trace identity, certificate residual, and lam=0 tight verdicts",
        ok,
        f"trace {trace_ok}, residual {resid_ok}, lam0 {lam0_ok}",
    )


# ---------------------------------------------------------------------------
# 8 + 9. Tightness theorem implication and l-inf bound on a planted sweep

_SQRT2 = math.sqrt(2.0)


def _sample_planted_instance(rng, use_grid_graph):
    if use_grid_graph:
        m = int(rng.integers(3, 8))
        graph = mr.grid_graph(2, m, radius=1)
        s = 0.19 * (m - 1) / 2.0
        a, b = rng.uniform(-s, s, size=2)
        pts = mesh_points(mr.UniformGrid(2, m)).reshape(-1, 2)
        theta = a * pts[:, 0] + b * pts[:, 1]
    else:
        n = int(rng.integers(8, 61))
        graph = mr.path_graph(n)
        theta = np.concatenate([[0.0], np.cumsum(rng.uniform(-0.19, 0.19, n - 1))])
    h = np.exp(1j * theta)
    smooth = mr.edge_smoothness(h, graph)
    if smooth > 0.2:
        return None
    # feasible (delta, lam*Delta) for the closed-form conditions
    lam_delta = rng.uniform(0.0, 0.125)
    A, R = 8.0 / 7.0, _SQRT2 / 3.0
    B = lam_delta * (smooth ** 2 + _SQRT2)
    disc = (2 * R + 3 * A) ** 2 - 4 * (R ** 2 - A * B)
    delta_max = ((2 * R + 3 * A) - math.sqrt(disc)) / 2.0
    if delta_max <= 1e-4:
        return None
    delta = rng.uniform(0.0, 0.999 * delta_max)
    lam = lam_delta / graph.max_degree
    cond = mr.apriori_tightness_conditions(delta, lam * graph.max_degree, smooth)
    if not cond.ok:
        return None
    phases = rng.uniform(-1.0, 1.0, graph.n) * 2.0 * math.asin(delta / 2.0)
    z = h * np.exp(1j * phases)
    return h, z, graph, lam, delta, smooth


@pytest.fixture(scope="module")
def planted_sweep():
    rng = np.random.default_rng(800)
    instances = []
    toggle = 0
    while len(instances) < 100:
        sample = _sample_planted_instance(rng, use_grid_graph=(toggle % 3 == 2))
        toggle += 1
        if sample is None:
            continue
        h, z, graph, lam, delta, smooth = sample
        prob = mr.QcqpProblem(z=z, graph=graph, lam=lam)
        rep = mr.solve_qcqp(prob)
        instances.append((h, prob, rep, delta, smooth))
    return instances


def test_criterion_08_tightness_theorem_implication(planted_sweep):
    start = time.perf_counter()
    tight_count = 0
    for h, prob, rep, delta, smooth in planted_sweep:
        assert rep.converged
        cert = mr.tightness_verdict(prob, rep.ghat)
        tight_count += cert.tight
    elapsed = time.perf_counter() - start
    ok = tight_count == len(planted_sweep) and elapsed < 300.0
    _report(
        8,
        "closed-form sufficient conditions imply a tight certificate (100 planted instances)",
        ok,
        f"{tight_count}/{len(planted_sweep)} tight, {elapsed:.1f}s",
    )


def test_criterion_09_linf_bound_on_sweep(planted_sweep):
    holds = 0
    for h, prob, rep, delta, smooth in planted_sweep:
        lam_delta = prob.lam * prob.graph.max_degree
        assert lam_delta < _SQRT2
        bound = mr.linf_error_bound(delta, lam_delta, smooth)
        err_sq = float(np.max(np.abs(rep.ghat - h))) ** 2
        holds += err_sq <= bound + 1e-8
    ok = holds == len(planted_sweep)
    _report(
        9,
        "solution error bound holds across the planted sweep",
        ok,
        f"{holds}/{len(planted_sweep)}",
    )


def test_planted_sweep_solver_iterations_bounded(planted_sweep):
    # The solver converges on every planted instance by its step rule, in far
    # fewer steps than the iteration cap.
    iterations = [rep.iterations for _, _, rep, _, _ in planted_sweep]
    assert all(rep.converged for _, _, rep, _, _ in planted_sweep)
    assert max(iterations) <= 100


# ---------------------------------------------------------------------------
# 10. Baseline correctness


def test_criterion_10_baseline_correctness():
    rng = np.random.default_rng(1000)
    ok = True
    details = []
    for n, lam in ((12, 0.8), (60, 2.5), (150, 8.0)):
        graph = mr.path_graph(n)
        z = np.exp(1j * rng.uniform(0, TWO_PI, n))
        u = mr.solve_ucqp(z, graph, lam)
        ok &= u.residual_inf <= 1e-10 * float(np.max(np.abs(z)))
        t = mr.solve_trs(z, graph, lam)
        ok &= abs(t.norm_sq - n) <= 1e-8
        ok &= t.stationarity_inf <= 1e-8
        details.append(f"n={n}: ucqp res {u.residual_inf:.1e}, trs |g|^2-n {abs(t.norm_sq - n):.1e}")
    z = np.exp(1j * rng.uniform(0, TWO_PI, 25))
    graph = mr.path_graph(25)
    ok &= np.array_equal(mr.solve_ucqp(z, graph, 0.0).signal, z)
    ok &= np.array_equal(mr.solve_trs(z, graph, 0.0).signal, z)
    _report(10, "baseline residual/feasibility tolerances and exact lam=0 behavior", ok,
            "; ".join(details))


# ---------------------------------------------------------------------------
# 11. Appendix identities


def test_criterion_11_circle_identities_bulk():
    rng = np.random.default_rng(1100)
    t = rng.uniform(-100.0, 100.0, 10_000)
    ok = True
    for gamma in (0.25, 0.5, 1.0, np.pi):
        lhs = np.asarray(mr.centered_wrap(t, gamma)) / (2 * gamma)
        rhs = np.asarray(mr.center_mod1(mr.mod1(t / (2 * gamma))))
        ok &= float(np.max(np.abs(lhs - rhs))) < 1e-12
    a = rng.uniform(size=10_000)
    b = rng.uniform(size=10_000)
    chord = np.abs(np.asarray(mr.circle_embed(a)) - np.asarray(mr.circle_embed(b)))
    ident = np.asarray(mr.chord_from_wrap(mr.wrap_distance(a, b)))
    ok &= float(np.max(np.abs(chord - ident))) < 1e-12
    ok &= bool(
        np.all(np.asarray(mr.wrap_distance(a, b)) <= np.asarray(mr.wrap_bound_from_chord(chord)) + 1e-12)
    )
    _report(11, "centered-modulo and chord/wrap identities over 10^4 random inputs", ok)


# ---------------------------------------------------------------------------
# 12. Interpolant contract


def test_criterion_12_interpolant_contract():
    rng = np.random.default_rng(1200)
    ok = True
    # property 1 with C = 1 and integer-shift equivariance
    grid = mr.UniformGrid(2, 6)
    vals = rng.standard_normal(grid.shape)
    model = mr.fit(mr.GridField(grid, vals))
    pts = rng.uniform(size=(2000, 2))
    ok &= float(np.max(np.abs(mr.evaluate(model, pts)))) <= float(np.max(np.abs(vals)))
    # exact up to the package-wide 1e-12 identity tolerance
    shifted = mr.fit(mr.GridField(grid, vals + 4))
    ok &= float(np.max(np.abs(mr.evaluate(shifted, pts) - (mr.evaluate(model, pts) + 4)))) <= 1e-12
    # property 2: constants
    const = mr.fit(mr.GridField(grid, np.full(grid.shape, -1.25)))
    ok &= float(np.max(np.abs(mr.evaluate(const, pts) + 1.25))) < 1e-14
    # Lipschitz rate on 5 analytic functions
    probes_1d = np.linspace(0, 1, 10_001)[:, None]
    for f, M, m in (
        (lambda x: np.sin(4 * np.pi * x), 4 * np.pi, 101),
        (lambda x: np.abs(x - 0.37), 1.0, 101),
        (lambda x: 0.5 * np.cos(2 * np.pi * x), np.pi, 51),
    ):
        g1 = mr.UniformGrid(1, m)
        mdl = mr.fit(mr.GridField(g1, f(g1.axis_coords())))
        ok &= float(np.max(np.abs(mr.evaluate(mdl, probes_1d) - f(probes_1d[:, 0])))) <= M / (m - 1)
    probes_2d = rng.uniform(size=(20_000, 2))
    for f, M, m in (
        (lambda p: np.sin(2 * np.pi * p[..., 0]) + np.cos(2 * np.pi * p[..., 1]), 4 * np.pi, 41),
        (lambda p: 0.3 * p[..., 0] + 0.7 * np.abs(p[..., 1] - 0.5), 1.0, 21),
    ):
        g2 = mr.UniformGrid(2, m)
        mdl = mr.fit(mr.GridField(g2, f(mesh_points(g2))))
        ok &= float(np.max(np.abs(mr.evaluate(mdl, probes_2d) - f(probes_2d)))) <= M / (m - 1)
    _report(12, "interpolant properties (C=1 bound, constants, shifts, Lipschitz rate)", ok)


# ---------------------------------------------------------------------------
# 13. Determinism


def test_criterion_13_byte_identical_reports():
    from modrec.fileio import report_to_json

    config = mr.McConfig(
        function="example1", d=1, sigma=0.12, n_sweep=(250,), methods=("knn", "ucqp", "trs"),
        trials=5, base_seed=1300, C=0.09, kappa=0.04,
    )
    doc1 = report_to_json(mr.monte_carlo(config).to_report())
    doc2 = report_to_json(mr.monte_carlo(config).to_report())
    ok = doc1 == doc2 and len(doc1) > 100
    _report(13, "repeated Monte Carlo runs produce byte-identical reports", ok)
