import numpy as np
import pytest

from modrec.grid import GridField, UniformGrid
from modrec.grid import mesh_points
from modrec.interpolate import evaluate, fit


def test_constant_field_reproduced_everywhere():
    grid = UniformGrid(2, 4)
    model = fit(GridField(grid, np.full(grid.shape, 2.7)))
    rng = np.random.default_rng(91)
    pts = rng.uniform(size=(200, 2))
    assert np.max(np.abs(evaluate(model, pts) - 2.7)) < 1e-14


def test_linearity_in_samples():
    grid = UniformGrid(1, 7)
    rng = np.random.default_rng(92)
    u = rng.standard_normal(grid.shape)
    v = rng.standard_normal(grid.shape)
    a, b = 1.7, -0.4
    mu = fit(GridField(grid, u))
    mv = fit(GridField(grid, v))
    mav = fit(GridField(grid, a * u + b * v))
    pts = rng.uniform(size=(100, 1))
    assert np.max(
        np.abs(evaluate(mav, pts) - (a * evaluate(mu, pts) + b * evaluate(mv, pts)))
    ) < 1e-12


def test_affine_reproduction_1d():
    grid = UniformGrid(1, 6)
    model = fit(GridField(grid, grid.axis_coords()))
    xs = np.linspace(0, 1, 101)[:, None]
    assert np.max(np.abs(evaluate(model, xs) - xs[:, 0])) < 1e-14


def test_bilinear_center_example():
    grid = UniformGrid(2, 2)
    model = fit(GridField(grid, np.array([[0.0, 1.0], [2.0, 3.0]])))
    assert evaluate(model, np.array([0.5, 0.5])) == pytest.approx(1.5, abs=1e-15)


def test_grid_samples_reproduced_exactly():
    rng = np.random.default_rng(93)
    for grid in (UniformGrid(1, 9), UniformGrid(2, 5)):
        vals = rng.standard_normal(grid.shape)
        model = fit(GridField(grid, vals))
        pts = mesh_points(grid).reshape(-1, grid.d)
        assert np.max(np.abs(evaluate(model, pts) - vals.reshape(-1))) < 1e-12


def test_sup_bound_c_equals_one():
    rng = np.random.default_rng(94)
    grid = UniformGrid(2, 6)
    vals = rng.standard_normal(grid.shape)
    model = fit(GridField(grid, vals))
    pts = rng.uniform(size=(500, 2))
    assert np.max(np.abs(evaluate(model, pts))) <= np.max(np.abs(vals)) + 1e-14


def test_integer_shift_equivariance():
    rng = np.random.default_rng(95)
    grid = UniformGrid(2, 5)
    vals = rng.standard_normal(grid.shape)
    pts = rng.uniform(size=(200, 2))
    base = evaluate(fit(GridField(grid, vals)), pts)
    for q in (-3, 1, 7):
        shifted = evaluate(fit(GridField(grid, vals + q)), pts)
        assert np.max(np.abs(shifted - (base + q))) < 1e-12


def test_lipschitz_sup_error():
    probes_1d = np.linspace(0, 1, 10_001)[:, None]
    cases_1d = [
        (lambda x: np.sin(4 * np.pi * x), 4 * np.pi, 101),
        (lambda x: np.abs(x - 0.37), 1.0, 101),
        (lambda x: np.cos(2 * np.pi * x) * 0.5, np.pi, 51),
    ]
    for f, M, m in cases_1d:
        grid = UniformGrid(1, m)
        model = fit(GridField(grid, f(grid.axis_coords())))
        err = np.max(np.abs(evaluate(model, probes_1d) - f(probes_1d[:, 0])))
        assert err <= M / (m - 1)

    rng = np.random.default_rng(96)
    probes_2d = rng.uniform(size=(20_000, 2))
    cases_2d = [
        (lambda p: np.sin(2 * np.pi * p[..., 0]) + np.cos(2 * np.pi * p[..., 1]), 4 * np.pi, 41),
        (lambda p: 0.3 * p[..., 0] + 0.7 * np.abs(p[..., 1] - 0.5), 1.0, 21),
    ]
    for f, M, m in cases_2d:
        grid = UniformGrid(2, m)
        model = fit(GridField(grid, f(mesh_points(grid))))
        err = np.max(np.abs(evaluate(model, probes_2d) - f(probes_2d)))
        assert err <= M / (m - 1)


def test_domain_errors():
    grid = UniformGrid(1, 4)
    model = fit(GridField(grid, np.zeros(grid.shape)))
    with pytest.raises(ValueError):
        evaluate(model, np.array([1.2]))
    with pytest.raises(ValueError):
        evaluate(model, np.array([-0.1]))
    assert evaluate(model, np.array([1.0])) == 0.0  # boundary included
