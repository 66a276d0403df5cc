import dataclasses

import numpy as np
import pytest

from conftest import random_planted
from modrec import baselines, harness
from modrec import grid as grid_module
from modrec.circle import mod1
from modrec.graphs import grid_graph
from modrec.grid import GridField, UniformGrid, mesh_points
from modrec.harness import (
    LIPSCHITZ_EXAMPLE2,
    McConfig,
    McSummary,
    PlantedFunction,
    SyntheticSpec,
    align,
    elevation_demo,
    example1,
    example2,
    generate,
    keyed_normals,
    keyed_uniforms,
    metrics,
    monte_carlo,
    rate_fit,
    run_pipeline,
)
from modrec.knn import choose_k_practical
from modrec.unwrap import ItohReport


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


@pytest.mark.parametrize(
    "args, message",
    [
        (((0.5,), (1, 2), ()), "one entry per axis"),
        (((0.5,), (1, 2), (0.0, 0.1)), "one entry per axis"),
        (((0.5, 0.2), (1,), (0.0, 0.1)), "one entry per axis"),
        (((), (), ()), "one entry per axis"),
        (((0.5,), (np.nan,), (0.0,)), "finite"),
        (((np.inf,), (1,), (0.0,)), "finite"),
        (((0.5,), (1,), (-np.inf,)), "finite"),
        (((0.5,), (1,), (0.0,), np.nan), "finite"),
    ],
)
def test_planted_function_rejects_unusable_parameters(args, message):
    with pytest.raises(ValueError, match=message):
        PlantedFunction(*args)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: SyntheticSpec("example3", d=1, m=8, sigma=0.0, seed=0), ValueError, "unknown function spec 'example3'"),
        (
            lambda: SyntheticSpec(lambda p: np.zeros(3), d=1, m=8, sigma=0.0, seed=0),
            ValueError,
            "unknown function spec <function",
        ),
        (lambda: McConfig(function=example2, n_sweep=(16,)), ValueError, "unknown function spec <function example2"),
        (
            lambda: align(GridField(UniformGrid(1, 4), np.zeros(4)), GridField(UniformGrid(1, 5), np.zeros(5))),
            ValueError,
            "fields live on different grids",
        ),
        (lambda: McSummary(McConfig(), ()).cell(64, "knn"), KeyError, "no cell for n=64, method=knn"),
        (lambda: elevation_demo(np.zeros((1, 1))), ValueError, "elevation must be at least 2 x 2"),
    ],
    ids=["unknown_function", "callable_function", "callable_mc_function", "align_grids", "missing_cell", "elevation_size"],
)
def test_harness_checks_its_inputs(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_planted_truth_per_axis_equals_pointwise_call_bytewise():
    # generate evaluates a planted function once per axis; every value must
    # be the bytes that the pointwise call on the mesh gives.
    rng = np.random.default_rng(41)
    for d in (1, 2, 3, 4):
        for m in (2, 3, 7, 17, 64):
            if m ** d > 10 ** 6:
                continue
            fn = random_planted(d, rng, max_freq=5)
            truth = generate(SyntheticSpec(function=fn, d=d, m=m, sigma=0.0, seed=0)).truth
            grid = UniformGrid(d, m)
            assert truth.values.tobytes() == fn(mesh_points(grid)).tobytes(), (d, m)


def test_generate_builds_no_mesh(monkeypatch):
    # Every truth is evaluated on the grid's axis coordinates.
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(grid_module, "mesh_points", no_mesh)
    monkeypatch.setattr(np, "meshgrid", no_mesh)
    planted = random_planted(3, np.random.default_rng(42))
    for function, d in ((planted, 3), ("example1", 1), ("example2", 1)):
        generate(SyntheticSpec(function=function, d=d, m=9, sigma=0.1, seed=1))


def test_named_truths_equal_the_examples_bytewise():
    for function, f in (("example1", example1), ("example2", example2)):
        for m in (2, 7, 200):
            truth = generate(SyntheticSpec(function=function, d=1, m=m, sigma=0.0, seed=0)).truth
            assert truth.values.tobytes() == f(mesh_points(UniformGrid(1, m))[..., 0]).tobytes()


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


def test_align_breaks_a_tie_by_error_then_by_value():
    grid = UniformGrid(1, 4)
    truth = GridField(grid, np.zeros(4))
    # Shifts 0, 0, 1, 1: the shift 1 leaves the smaller squared error.
    assert align(GridField(grid, [0.1, 0.1, 1.4, 1.4]), truth) == 1
    # Both shifts leave the same error: the smaller shift.
    assert align(GridField(grid, [0.4, 0.4, 0.6, 0.6]), truth) == 0


def test_align_takes_shifts_past_the_int64_range():
    line = UniformGrid(1, 2)
    shift = align(GridField(line, [1e20, 1e20]), GridField(line, [0.0, 0.0]))
    assert type(shift) is int and shift == 10**20
    # Every mean squared error of the tie-break is past the float range: inf,
    # so the smaller shift wins and the aligned error is inf.
    demo = elevation_demo(np.array([[1.0, 2.0], [1e307, -1e307]]), scale=1.0, sigma=0.1, k=1)
    for result in (demo.metrics_denoised, demo.metrics_raw):
        assert type(result.q_star) is int and result.q_star == int(1e307)
        assert result.aligned_mse == np.inf


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_align_refuses_a_difference_past_the_float_range(sign):
    line = UniformGrid(1, 2)
    big, small = GridField(line, [sign * 1e308] * 2), GridField(line, [-sign * 1e308] * 2)
    with pytest.raises(ValueError, match="ftilde - truth leaves the float range"):
        align(big, small)
    # One point past the range and one within: the finite shift has no majority.
    mixed = GridField(line, [sign * 1e308, 0.0])
    with pytest.raises(ValueError, match="leaves the float range"):
        align(mixed, GridField(line, [-sign * 1e308, 0.0]))


def test_metrics_rejects_fields_on_another_grid():
    line, square = UniformGrid(1, 16), UniformGrid(2, 4)
    truth = GridField(line, np.zeros(16))
    same = GridField(line, np.zeros(16), kind="mod1")
    other = GridField(square, np.zeros((4, 4)), kind="mod1")
    # Same number of points: nothing but the grid check can tell.
    with pytest.raises(ValueError, match="fields live on different grids"):
        metrics(truth, other, same, truth)
    with pytest.raises(ValueError, match="fields live on different grids"):
        metrics(truth, same, other, truth)


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
    data = generate(SyntheticSpec(function="example1", d=1, m=64, sigma=0.1, seed=3))
    pipe = run_pipeline(data.noisy_mod, choose_k_practical(64, d=1, C=config.C))
    direct = metrics(pipe.ftilde, pipe.ghat, data.noisy_mod, data.truth, method="knn", seed=3)
    assert trials[0][1] == direct
    cell = summary.cell(64, "knn")
    assert cell.means["wrap_mse_denoised"] == direct.wrap_mse_denoised
    assert cell.trials == 1 and cell.failures == 0


def test_monte_carlo_builds_one_graph_per_size(monkeypatch):
    built = []

    def counting(d, m, radius=1):
        built.append((d, m))
        return grid_graph(d, m, radius)

    monkeypatch.setattr(harness, "grid_graph", counting)
    summary = monte_carlo(McConfig(n_sweep=(16, 64), trials=2, methods=("ucqp", "trs")))
    assert built == [(1, 16), (1, 64)]  # not one per method and trial
    assert [(c.trials, c.failures) for c in summary.cells] == [(2, 0)] * 4


def test_monte_carlo_relaxations_solve_in_the_declared_structure(monkeypatch):
    # The sweep's graphs come from grid_graph: no conjugate gradients on the
    # path at d = 1, preconditioned ones on the 16 x 16 grid.
    preconditioned = []
    inner = baselines.conjugate_gradient

    def counting(apply_A, b, x0=None, precondition=None):
        preconditioned.append(precondition is not None)
        return inner(apply_A, b, x0=x0, precondition=precondition)

    monkeypatch.setattr(baselines, "conjugate_gradient", counting)
    monte_carlo(McConfig(n_sweep=(256,), trials=2, methods=("ucqp", "trs")))
    assert preconditioned == []
    planted = PlantedFunction((0.3, 0.25), (1, 1), (0.4, 1.3), 0.1)
    monte_carlo(McConfig(function=planted, d=2, n_sweep=(256,), trials=2, methods=("ucqp", "trs")))
    assert len(preconditioned) > 4 and all(preconditioned)


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


def test_monte_carlo_report_config_lists_every_field():
    planted = PlantedFunction((0.3, 0.25), (1, 1), (0.4, 1.3), 0.1)
    config = McConfig(function=planted, d=2, n_sweep=(16, 64), methods=("ucqp", "trs"))
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
        ({"d": 0}, "d must be >= 1"),
        ({"kappa": 1e308, "methods": ("ucqp",)}, r"kappa \* n\^\(10/12\) is inf"),
    ],
)
def test_mc_config_rejects_values_its_trials_would_reject(settings, message):
    with pytest.raises(ValueError, match=message):
        McConfig(n_sweep=(16,), **settings)


@pytest.mark.parametrize(
    "settings, name",
    [
        ({"n_sweep": ()}, "n_sweep"),
        ({"n_sweep": (16, 25, 16)}, "n_sweep"),
        ({"n_sweep": (16,), "methods": ()}, "methods"),
        ({"n_sweep": (16,), "methods": ("knn", "trs", "knn")}, "methods"),
    ],
)
def test_mc_config_rejects_empty_or_repeated_sweeps(settings, name):
    # A repeated method would count every one of its trials twice.
    with pytest.raises(ValueError, match=f"{name} must be non-empty and without repeats"):
        McConfig(**settings)


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
    with pytest.raises(ValueError, match=r"errors must be finite, got \[nan, 1.0, 2.0\]"):
        rate_fit([10, 100, 1000], [np.nan, 1.0, 2.0])
    with pytest.raises(ValueError, match="errors must be finite"):
        rate_fit([10, 100, 1000], [0.3, np.inf, 0.03])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="sample sizes must be finite"):
            rate_fit([10, bad, 1000], [0.3, 0.1, 0.03])
    # One size, or sizes whose log(log(n)/n) coincide, leave the slope undetermined.
    for ns in ([10, 10, 10], [2, 4, 4]):
        with pytest.raises(ValueError, match="distinct"):
            rate_fit(ns, [0.3, 0.1, 0.03])


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


def test_elevation_flat_terrain_passes_the_resolution_check():
    demo = elevation_demo(np.full((12, 12), 250.0), scale=500.0, sigma=0.05, k=9, seed=1)
    assert demo.lipschitz_estimate == 0.0
    assert demo.itoh == ItohReport(satisfied=True, margin=0.5)
    assert demo.metrics_denoised.aligned_mse < demo.metrics_raw.aligned_mse


@pytest.mark.parametrize(
    "terrain, sigma, message",
    [
        (np.zeros((3, 3)), float("nan"), "sigma must be a finite number >= 0, got nan"),
        (np.zeros((3, 3)), -0.5, "sigma must be a finite number >= 0, got -0.5"),
        (np.full((3, 3), np.nan), 0.1, "elevation must be finite"),
    ],
)
def test_elevation_rejects_unusable_noise_and_terrain(terrain, sigma, message):
    with pytest.raises(ValueError, match=message):
        elevation_demo(terrain, sigma=sigma)


@pytest.mark.parametrize(
    "terrain, scale, message",
    [
        ([[1.0, 2.0], [1e308, -1e308]], 1e-300, r"max \|elevation\| 1e\+308 at scale 1e-300"),
        # Finite after scaling, but the step between the two entries is not.
        ([[1.0, 2.0], [1e308, -1e308]], 1.0, r"max \|elevation\| 1e\+308 at scale 1.0"),
        ([[1.0, np.inf], [0.0, 0.0]], 1.0, "elevation must be finite"),
    ],
    ids=["scaled", "step", "infinite"],
)
def test_elevation_rejects_terrain_outside_the_float_range(terrain, scale, message):
    # Rejected before any numpy operation overflows, which the test
    # configuration would turn into an error of its own.
    with pytest.raises(ValueError, match=message):
        elevation_demo(np.array(terrain), scale=scale)


def test_elevation_requires_square():
    with pytest.raises(ValueError):
        elevation_demo(np.zeros((3, 4)))


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_elevation_rejects_scale_outside_open_half_line(scale):
    with pytest.raises(ValueError, match="scale must be a finite number above 0"):
        elevation_demo(_cone_terrain(4, peak=1.0), scale=scale)
