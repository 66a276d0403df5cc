import dataclasses

import numpy as np
import pytest

from modrec.circle import mod1
from modrec.grid import GridField, UniformGrid, mesh_points
from modrec.harness import (
    LIPSCHITZ_EXAMPLE2,
    McConfig,
    McSummary,
    PlantedFunction,
    SyntheticSpec,
    align,
    elevation_demo,
    example2,
    generate,
    keyed_normals,
    keyed_uniforms,
    metrics,
    monte_carlo,
    rate_fit,
    run_pipeline,
    run_trial,
)


# ---------------------------------------------------------------------------
# Keyed random stream


def test_keyed_stream_is_deterministic_and_order_free():
    a = keyed_uniforms(7, np.arange(100, dtype=np.uint64))
    b = keyed_uniforms(7, np.arange(100, dtype=np.uint64))
    assert np.array_equal(a, b)
    # regenerating a subset, in reverse, matches the full pass entry-wise
    subset = keyed_uniforms(7, np.array([42, 17, 3], dtype=np.uint64))
    assert subset[0] == a[42] and subset[1] == a[17] and subset[2] == a[3]
    assert not np.array_equal(a, keyed_uniforms(8, np.arange(100, dtype=np.uint64)))
    assert np.all(a >= 0.0) and np.all(a < 1.0)


def test_keyed_normals_moments():
    draws = keyed_normals(123, 100_000)
    var = float(np.var(draws))
    assert abs(var - 1.0) <= 3.0 * np.sqrt(2.0 / draws.size)
    assert abs(float(np.mean(draws))) <= 4.0 / np.sqrt(draws.size)


# ---------------------------------------------------------------------------
# Generation


def test_generate_noiseless_and_deterministic():
    spec = SyntheticSpec(function="example1", d=1, m=64, sigma=0.0, seed=5)
    data = generate(spec)
    assert np.array_equal(data.noisy_mod.values, np.asarray(mod1(data.truth.values)))
    spec2 = SyntheticSpec(function="example1", d=1, m=64, sigma=0.3, seed=9)
    d1, d2 = generate(spec2), generate(spec2)
    assert np.array_equal(d1.noisy_mod.values, d2.noisy_mod.values)


def test_generate_noise_moments():
    # sigma small enough that folding past +-1/2 is negligible and the noise
    # can be read back off the mod-1 residuals
    spec = SyntheticSpec(function="example1", d=1, m=100_000, sigma=0.1, seed=11)
    data = generate(spec)
    truth = data.truth.flat
    noisy = data.noisy_mod.flat
    resid = np.asarray(mod1(noisy - truth))
    eta = np.where(resid < 0.5, resid, resid - 1.0)
    var = float(np.var(eta))
    assert abs(var - 0.1 ** 2) <= 3.0 * 0.1 ** 2 * np.sqrt(2.0 / eta.size)


def test_planted_function_dimension_check():
    fn = PlantedFunction((0.5, 0.2), (1, 2), (0.0, 0.1))
    with pytest.raises(ValueError):
        generate(SyntheticSpec(function=fn, d=1, m=8, sigma=0.0, seed=0))
    data = generate(SyntheticSpec(function=fn, d=2, m=8, sigma=0.0, seed=0))
    assert data.truth.values.shape == (8, 8)


def test_lipschitz_example2_constant_vs_finite_differences():
    xs = np.linspace(0.0, 1.0, 100_001)
    fd = float(np.max(np.abs(np.diff(example2(xs)))) * 100_000)
    assert fd == pytest.approx(LIPSCHITZ_EXAMPLE2, rel=0.02)


# ---------------------------------------------------------------------------
# Pipeline / alignment / metrics


def test_pipeline_noiseless_k1_exact():
    spec = SyntheticSpec(function="example1", d=1, m=200, sigma=0.0, seed=0)
    data = generate(spec)
    pipe = run_pipeline(data.noisy_mod, 1)
    res = metrics(pipe.ftilde, pipe.ghat, data.noisy_mod, data.truth)
    assert res.aligned_mse <= 1e-20
    assert res.wrap_mse_denoised <= 1e-20


def test_pipeline_constant_function():
    fn = PlantedFunction((0.0,), (1,), (0.0,), offset=1.3)
    data = generate(SyntheticSpec(function=fn, d=1, m=32, sigma=0.0, seed=0))
    pipe = run_pipeline(data.noisy_mod, 4)
    assert np.max(np.abs(pipe.ftilde.values - pipe.ftilde.flat[0])) < 1e-12


def test_align_examples():
    grid = UniformGrid(1, 50)
    rng = np.random.default_rng(111)
    truth_vals = rng.standard_normal(grid.shape)
    truth = GridField(grid, truth_vals)
    assert align(GridField(grid, truth_vals + 3.0), truth) == 3
    noisy = truth_vals + rng.uniform(-0.4, 0.4, size=grid.shape)
    assert align(GridField(grid, noisy), truth) == 0
    bimodal = truth_vals.copy()
    bimodal[:20] += 1.0  # minority shifted up; mode stays 0
    assert align(GridField(grid, bimodal), truth) == 0
    bimodal[:30] = truth_vals[:30] + 1.0  # now the majority is shifted
    assert align(GridField(grid, bimodal), truth) == 1


def test_metrics_fixture_against_direct_loops():
    from modrec.circle import wrap_distance

    rng = np.random.default_rng(112)
    grid = UniformGrid(1, 30)
    truth = GridField(grid, rng.standard_normal(grid.shape) * 2.0)
    noisy = GridField(grid, rng.uniform(size=grid.shape), kind="mod1")
    ghat = GridField(grid, rng.uniform(size=grid.shape), kind="mod1")
    ftilde = GridField(grid, truth.values + rng.uniform(-0.2, 0.2, grid.shape) - 2.0)
    res = metrics(ftilde, ghat, noisy, truth)
    g_true = [float(mod1(v)) for v in truth.flat]
    wn = np.mean([wrap_distance(a, b) ** 2 for a, b in zip(noisy.flat, g_true)])
    wd = np.mean([wrap_distance(a, b) ** 2 for a, b in zip(ghat.flat, g_true)])
    assert res.wrap_mse_noisy == pytest.approx(float(wn), rel=1e-12)
    assert res.wrap_mse_denoised == pytest.approx(float(wd), rel=1e-12)
    assert res.q_star == 2
    assert res.aligned_mse == pytest.approx(
        float(np.mean((ftilde.flat + 2 - truth.flat) ** 2)), rel=1e-12
    )


def test_metrics_perfect_and_offset():
    grid = UniformGrid(1, 20)
    truth = GridField(grid, np.linspace(0.0, 2.0, 20))
    exact_mod = GridField(grid, np.asarray(mod1(truth.values)), kind="mod1")
    res = metrics(GridField(grid, truth.values), exact_mod, exact_mod, truth)
    assert res.wrap_mse_noisy == 0.0 and res.aligned_mse == 0.0
    shifted = GridField(grid, np.asarray(mod1(truth.values + 0.1)), kind="mod1")
    res = metrics(GridField(grid, truth.values), shifted, exact_mod, truth)
    assert res.wrap_mse_denoised == pytest.approx(0.01, rel=1e-10)


# ---------------------------------------------------------------------------
# Monte Carlo


def test_monte_carlo_single_trial_matches_pipeline():
    config = McConfig(n_sweep=(64,), trials=1, base_seed=3, methods=("knn",), sigma=0.1)
    summary, trials = monte_carlo(config, collect_trials=True)
    spec = SyntheticSpec(function="example1", d=1, m=64, sigma=0.1, seed=3)
    data = generate(spec)
    direct = run_trial("knn", data, config)
    assert trials[0][1] == direct
    cell = summary.cell(64, "knn")
    assert cell.means["wrap_mse_denoised"] == direct.wrap_mse_denoised
    assert cell.trials == 1 and cell.failures == 0


def test_monte_carlo_method_order_invariance():
    base = dict(n_sweep=(27,), trials=2, base_seed=1, sigma=0.05, C=0.2, kappa=0.01)
    s1 = monte_carlo(McConfig(methods=("knn", "ucqp"), **base))
    s2 = monte_carlo(McConfig(methods=("ucqp", "knn"), **base))
    for n in (27,):
        for method in ("knn", "ucqp"):
            assert s1.cell(n, method).means == s2.cell(n, method).means


def test_monte_carlo_deterministic_reports():
    from modrec.fileio import report_to_json

    config = McConfig(n_sweep=(32,), trials=3, base_seed=9, methods=("knn",), sigma=0.12)
    r1 = report_to_json(monte_carlo(config).to_report())
    r2 = report_to_json(monte_carlo(config).to_report())
    assert r1 == r2


def test_monte_carlo_report_records_graph_radius():
    planted = PlantedFunction((0.3, 0.25), (1, 1), (0.4, 1.3), 0.1)
    reports = [
        monte_carlo(McConfig(function=planted, d=2, n_sweep=(16,), methods=("ucqp",), trials=1, graph_radius=r)).to_report()
        for r in (1, 2)
    ]
    assert [rep["config"]["graph_radius"] for rep in reports] == [1, 2]
    assert reports[0]["config"] != reports[1]["config"]


def test_monte_carlo_report_config_lists_every_field():
    planted = PlantedFunction((0.3, 0.25), (1, 1), (0.4, 1.3), 0.1)
    config = McConfig(function=planted, d=2, n_sweep=(16, 64), methods=("ucqp", "trs"), graph_radius=2)
    cfg = McSummary(config, ()).to_report()["config"]
    assert list(cfg) == [f.name for f in dataclasses.fields(McConfig)]
    assert cfg["function"] == str(planted)
    assert cfg["n_sweep"] == [16, 64] and cfg["methods"] == ["ucqp", "trs"]


def test_monte_carlo_report_config_matches_the_listed_keys():
    # Acceptance criterion 13's configuration, against the key list the
    # report was once written from.
    config = McConfig(
        function="example1", d=1, sigma=0.12, n_sweep=(250,), methods=("knn", "ucqp", "trs"),
        trials=5, base_seed=1300, C=0.09, kappa=0.04,
    )
    listed = {
        "function": str(config.function),
        "d": config.d,
        "sigma": config.sigma,
        "n_sweep": list(config.n_sweep),
        "methods": list(config.methods),
        "trials": config.trials,
        "base_seed": config.base_seed,
        "C": config.C,
        "kappa": config.kappa,
        "graph_radius": config.graph_radius,
    }
    cfg = McSummary(config, ()).to_report()["config"]
    assert cfg == listed and list(cfg) == list(listed)


def test_mc_config_sweep_sizes_are_perfect_powers():
    planted = PlantedFunction((0.5,) * 3, (1,) * 3, (0.0,) * 3)
    config = McConfig(function=planted, d=3, n_sweep=(8, 27, 10 ** 15), methods=("ucqp",))
    assert config.n_sweep[-1] == 10 ** 15
    for d, n in ((2, 10), (3, 26), (3, 28), (3, 10 ** 15 - 1), (3, 10 ** 15 + 1)):
        with pytest.raises(ValueError, match="perfect"):
            McConfig(d=d, n_sweep=(n,))
    with pytest.raises(ValueError, match="fewer than 2"):
        McConfig(d=2, n_sweep=(1,))


@pytest.mark.parametrize("trials", [0, -1])
def test_mc_config_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        McConfig(n_sweep=(16,), trials=trials)


@pytest.mark.parametrize(
    "function, message",
    [
        ("example1", "univariate"),
        ("example2", "univariate"),
        (PlantedFunction((0.5,), (1,), (0.0,)), "dimension mismatch"),
    ],
)
def test_mc_config_rejects_function_of_another_dimension(function, message):
    with pytest.raises(ValueError, match=message):
        McConfig(function=function, d=2, n_sweep=(16,))


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"sigma": np.nan}, "sigma must be a finite number >= 0, got nan"),
        ({"sigma": -1.0}, "sigma must be a finite number >= 0"),
        ({"C": -1.0}, "C must be a finite number above 0"),
        ({"C": np.nan}, "C must be a finite number above 0, got nan"),
        ({"kappa": -1.0, "methods": ("ucqp",)}, "kappa must be finite and positive"),
        ({"kappa": np.nan, "methods": ("knn", "trs")}, "kappa must be finite and positive"),
    ],
)
def test_mc_config_rejects_values_its_trials_would_reject(settings, message):
    with pytest.raises(ValueError, match=message):
        McConfig(n_sweep=(16,), **settings)


def test_mc_config_checks_only_the_parameters_its_methods_use():
    McConfig(n_sweep=(16,), methods=("knn",), kappa=-1.0)
    McConfig(n_sweep=(16,), methods=("ucqp", "trs"), C=np.nan)


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"sigma": np.nan}, "sigma must be a finite number >= 0, got nan"),
        ({"sigma": np.inf}, "sigma must be a finite number >= 0, got inf"),
        ({"sigma": -0.5}, "sigma must be a finite number >= 0"),
        ({"d": 2}, "example1 is univariate"),
        ({"m": 1}, "points-per-axis m must be >= 2"),
        ({"d": 0}, "dimension d must be >= 1"),
    ],
)
def test_synthetic_spec_rejects_what_generate_would(settings, message):
    spec = {"function": "example1", "d": 1, "m": 8, "sigma": 0.1, "seed": 0, **settings}
    with pytest.raises(ValueError, match=message):
        SyntheticSpec(**spec)


def test_monte_carlo_error_decreases_with_n():
    config = McConfig(
        n_sweep=(250, 1000, 4000), trials=20, base_seed=40, methods=("knn",), sigma=0.12
    )
    summary = monte_carlo(config)
    means = [summary.cell(n, "knn").means["wrap_mse_denoised"] for n in (250, 1000, 4000)]
    assert means[0] > means[1] > means[2]


def test_monte_carlo_csv_shape():
    config = McConfig(n_sweep=(16, 25), trials=1, methods=("knn",), sigma=0.05, C=0.3)
    csv = monte_carlo(config).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "n,method,metric,mean,std"
    assert len(lines) == 1 + 2 * 4  # two cells, four metrics


# ---------------------------------------------------------------------------
# Rate fit


def test_rate_fit_exact_synthetic():
    ns = np.array([250, 1000, 4000, 16000])
    errors = 3.7 * (np.log(ns) / ns) ** (1.0 / 3.0)
    fitted = rate_fit(ns, errors)
    assert fitted.slope == pytest.approx(1.0 / 3.0, abs=1e-10)
    flat = rate_fit(ns, np.full(4, 0.25))
    assert flat.slope == pytest.approx(0.0, abs=1e-12)
    assert flat.slope_vs_log_n == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        rate_fit([10, 20], [0.1, 0.2])
    with pytest.raises(ValueError):
        rate_fit([10, 20, 30], [0.1, -0.2, 0.3])


# ---------------------------------------------------------------------------
# Elevation demo


def _cone_terrain(m: int, peak: float) -> np.ndarray:
    ax = np.linspace(-1.0, 1.0, m)
    r = np.maximum(np.abs(ax[:, None]), np.abs(ax[None, :]))
    return peak * (1.0 - r)


def test_elevation_noiseless_exact_recovery():
    terrain = _cone_terrain(40, peak=800.0)
    demo = elevation_demo(terrain, scale=500.0, sigma=0.0, k=1, seed=0)
    assert demo.itoh.satisfied
    assert demo.metrics_denoised.aligned_mse <= 1e-20


def test_elevation_denoising_helps():
    terrain = _cone_terrain(36, peak=900.0)
    demo = elevation_demo(terrain, scale=500.0, sigma=0.1, k=40, seed=4)
    assert demo.metrics_denoised.wrap_mse_denoised < demo.metrics_raw.wrap_mse_denoised
    assert demo.metrics_denoised.wrap_mse_denoised < demo.metrics_denoised.wrap_mse_noisy


def test_elevation_unscaled_fails_itoh_and_reports():
    terrain = _cone_terrain(30, peak=900.0)
    demo = elevation_demo(terrain, scale=1.0, sigma=0.0, k=1, seed=0)
    assert not demo.itoh.satisfied
    assert demo.itoh.margin < 0.0
    assert demo.lipschitz_estimate > 0.5 * (30 - 1)


def test_elevation_requires_square():
    with pytest.raises(ValueError):
        elevation_demo(np.zeros((3, 4)))


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_elevation_rejects_scale_outside_open_half_line(scale):
    with pytest.raises(ValueError, match="scale must be a finite number above 0"):
        elevation_demo(_cone_terrain(4, peak=1.0), scale=scale)
