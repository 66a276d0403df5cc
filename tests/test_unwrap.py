import numpy as np
import pytest

from conftest import random_planted
from modrec.circle import mod1
from modrec.grid import GridField, UniformGrid
from modrec.grid import mesh_points
from modrec.harness import PlantedFunction
from modrec.unwrap import BranchCounts, itoh_check, unwrap_multid


def _unwrap_path(values):
    """unwrap_multid on the 1-D grid of len(values) points."""
    return unwrap_multid(GridField(UniformGrid(1, len(values)), values, kind="mod1"))


def test_branch_correct_cases():
    # (first sample, difference a, corrected difference, BranchCounts fields)
    for start, a, corrected, counts in [
        (0.1, 0.3, 0.3, (1, 0, 0)),
        (0.9, -0.8, 0.2, (0, 1, 0)),
        (0.1, 0.8, -0.2, (0, 0, 1)),
        (0.25, 0.5, 0.5, (1, 0, 0)),  # |a| = 1/2 exactly is left alone
        (0.75, -0.5, -0.5, (1, 0, 0)),
    ]:
        r = _unwrap_path([start, start + a])
        assert r.ftilde[1] - r.ftilde[0] == pytest.approx(corrected, abs=1e-15)
        assert r.branch_counts == BranchCounts(*counts)


def test_unwrap_1d_examples():
    r = _unwrap_path([0.9, 0.1])
    assert np.allclose(r.ftilde, [0.9, 1.1], atol=1e-15)
    assert r.branch_counts.plus_one == 1
    r = _unwrap_path([0.1, 0.9])
    assert np.allclose(r.ftilde, [0.1, -0.1], atol=1e-15)
    assert r.branch_counts.minus_one == 1
    for bad in ([0.1, 1.1], [0.1, np.nan, 0.2]):
        with pytest.raises(ValueError, match="mod1 field"):
            _unwrap_path(bad)
    with pytest.raises(ValueError, match="unwrap_multid expects a mod1 field"):
        unwrap_multid(GridField(UniformGrid(1, 2), [0.9, 0.1]))


def test_unwrap_1d_linear_function_exact():
    grid = UniformGrid(1, 11)
    f = 2.0 * grid.axis_coords()
    r = _unwrap_path(np.asarray(mod1(f)))
    # Recovery is exact here (observed zero error; global shift q* = 0).
    assert np.max(np.abs(r.ftilde - f)) <= 1e-12


def test_unwrap_multid_on_1d_fields_is_the_cumulative_sum():
    rng = np.random.default_rng(37)
    for m in (2, 3, 17, 500):
        g = rng.uniform(size=m)
        r = _unwrap_path(g)
        # The direct cumulative sum of branch-corrected differences, as an oracle.
        a = np.diff(g)
        corr = a + (a < -0.5) - (a > 0.5)
        assert r.ftilde.tobytes() == np.concatenate(([g[0]], g[0] + np.cumsum(corr))).tobytes()
        assert r.itoh_margin == 0.5 - np.max(np.abs(corr))


def test_unwrap_multid_hand_example():
    grid = UniformGrid(2, 2)
    g = GridField(grid, np.array([[0.9, 0.1], [0.1, 0.3]]), kind="mod1")
    r = unwrap_multid(g)
    assert np.allclose(r.ftilde, [[0.9, 1.1], [1.1, 1.3]], atol=1e-15)
    assert r.branch_counts.plus_one == 2
    assert r.branch_counts.no_jump == 1


def test_unwrap_multid_constant():
    grid = UniformGrid(3, 3)
    g = GridField(grid, np.full(grid.shape, 0.42), kind="mod1")
    r = unwrap_multid(g)
    assert np.max(np.abs(r.ftilde - 0.42)) == 0.0
    assert r.branch_counts.plus_one == 0 and r.branch_counts.minus_one == 0


def test_unwrap_multid_additive_function_exact():
    grid = UniformGrid(2, 21)
    pts = mesh_points(grid)
    f = 0.2 * (pts[..., 0] + pts[..., 1])  # M = 0.4 in l-inf, M/(m-1) = 0.02
    g = GridField(grid, np.asarray(mod1(f)), kind="mod1")
    r = unwrap_multid(g)
    assert np.max(np.abs(r.ftilde - f)) < 1e-12


def test_mod_consistency_on_arbitrary_fields():
    # Holds for any input, resolution condition or not: the procedure only
    # adds integers to exact differences.
    rng = np.random.default_rng(31)
    for grid in (UniformGrid(1, 40), UniformGrid(2, 7), UniformGrid(3, 4)):
        g = GridField(grid, rng.uniform(size=grid.shape), kind="mod1")
        r = unwrap_multid(g)
        assert np.max(np.abs(np.asarray(mod1(r.ftilde)) - g.values)) < 1e-12
        assert r.ftilde[(0,) * grid.d] == g.values[(0,) * grid.d]


def _planted_exact_case(d: int, rng) -> tuple:
    fn = random_planted(d, rng)
    target = rng.uniform(1.0, 4.0)  # keep grids small: m ~ ceil(L / 0.4) + 1
    scale = target / fn.lipschitz
    fn = PlantedFunction(
        tuple(a * scale for a in fn.amplitudes), fn.frequencies, fn.phases, fn.offset
    )
    m = max(3, int(np.ceil(fn.lipschitz / 0.4)) + 1)  # M/(m-1) <= 0.4 < 1/2
    return fn, m


def test_exact_recovery_family():
    rng = np.random.default_rng(32)
    for d in (1, 2, 3):
        for _ in range(4):
            fn, m = _planted_exact_case(d, rng)
            grid = UniformGrid(d, m)
            f = fn(mesh_points(grid))
            g = GridField(grid, np.asarray(mod1(f)), kind="mod1")
            r = unwrap_multid(g)
            q_star = round(float(f[(0,) * d] - r.ftilde[(0,) * d]))
            assert np.max(np.abs(r.ftilde + q_star - f)) < 1e-10


def test_perturbation_containment():
    rng = np.random.default_rng(33)
    for d in (1, 2):
        fn = PlantedFunction((0.5,) * d, (1,) * d, (0.3,) * d, offset=1.7)
        M = fn.lipschitz
        delta = 0.1
        m = int(np.ceil(M / (0.5 - 2 * delta - 0.05))) + 1
        assert 2 * delta + M / (m - 1) < 0.5
        grid = UniformGrid(d, m)
        f = fn(mesh_points(grid))
        eta = rng.uniform(-delta, delta, size=grid.shape)
        g = GridField(grid, np.asarray(mod1(f + eta)), kind="mod1")
        r = unwrap_multid(g)
        q_star = round(float(f[(0,) * d] + eta[(0,) * d] - r.ftilde[(0,) * d]))
        assert np.max(np.abs(r.ftilde + q_star - f)) <= delta + 1e-12


def test_global_shift_equivariance():
    rng = np.random.default_rng(34)
    grid = UniformGrid(2, 9)
    base = rng.uniform(0.0, 1.0, size=grid.shape) * 0.1 + 0.3
    g = GridField(grid, base, kind="mod1")
    for c in (0.25, 0.6):
        shifted = GridField(grid, np.asarray(mod1(base + c)), kind="mod1")
        r0 = unwrap_multid(g)
        r1 = unwrap_multid(shifted)
        diff = r1.ftilde - r0.ftilde
        # Constant up to the branch decision at the root, so a single value.
        assert np.max(np.abs(diff - diff[(0, 0)])) < 1e-12


def test_axis_relabeling():
    rng = np.random.default_rng(35)
    grid = UniformGrid(2, 15)
    fn = PlantedFunction((0.4, 0.7), (1, 2), (0.1, 1.2), offset=0.6)
    f = fn(mesh_points(grid))
    g = GridField(grid, np.asarray(mod1(f)), kind="mod1")
    r = unwrap_multid(g)
    g_t = GridField(grid, g.values.T, kind="mod1")
    r_t = unwrap_multid(g_t)
    back = r_t.ftilde.T
    shift = back[(0, 0)] - r.ftilde[(0, 0)]
    assert shift == pytest.approx(round(shift), abs=1e-12)
    assert np.max(np.abs(back - shift - r.ftilde)) < 1e-10


def test_itoh_check_examples():
    r = itoh_check(0.0, 1.0, 11)
    assert r.satisfied and r.margin == pytest.approx(0.4, abs=1e-15)
    r = itoh_check(0.25, 3.0, 100)
    assert not r.satisfied
    r = itoh_check(0.1, 4 * np.pi, 101)
    assert r.satisfied and r.margin == pytest.approx(0.5 - 0.2 - 4 * np.pi / 100, abs=1e-12)
    with pytest.raises(ValueError):
        itoh_check(-0.1, 1.0, 11)
    with pytest.raises(ValueError):
        itoh_check(0.1, 1.0, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_itoh_check_names_non_finite_inputs(bad):
    with pytest.raises(ValueError, match=f"delta must be a finite number >= 0, got {bad}"):
        itoh_check(bad, 1.0, 11)
    with pytest.raises(ValueError, match=f"M must be a finite number above 0, got {bad}"):
        itoh_check(0.1, bad, 11)


@pytest.mark.parametrize("d, m", [(1, 50), (2, 7), (3, 4)])
def test_unwrap_result_invariants(d, m):
    grid = UniformGrid(d, m)
    rng = np.random.default_rng(36)
    g = GridField(grid, rng.uniform(size=grid.shape), kind="mod1")
    r = unwrap_multid(g)
    total = r.branch_counts.no_jump + r.branch_counts.plus_one + r.branch_counts.minus_one
    assert total == grid.n - 1
    assert r.itoh_margin <= 0.5
    assert r.field.kind == "real"
