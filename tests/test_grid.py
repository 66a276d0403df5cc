import numpy as np
import pytest

from conftest import knn_brute
from modrec.grid import (
    GridField,
    UniformGrid,
    floor_root,
    grid_point,
    iter_lex,
    knn_radius,
    knn_radius_sup,
    knn_set,
)


def test_grid_point_examples():
    g = UniformGrid(d=1, m=11)
    assert grid_point(g, (1,)) == pytest.approx([0.0])
    assert grid_point(g, (11,)) == pytest.approx([1.0])
    g2 = UniformGrid(d=2, m=3)
    assert grid_point(g2, (2, 3)) == pytest.approx([0.5, 1.0])
    with pytest.raises(IndexError):
        grid_point(g2, (0, 1))
    with pytest.raises(IndexError):
        grid_point(g2, (1, 4))
    with pytest.raises(IndexError):
        grid_point(g2, (1,))


def test_grid_validation():
    with pytest.raises(ValueError):
        UniformGrid(d=0, m=5)
    with pytest.raises(ValueError):
        UniformGrid(d=1, m=1)


def test_iter_lex():
    assert list(iter_lex(UniformGrid(1, 3))) == [(1,), (2,), (3,)]
    assert list(iter_lex(UniformGrid(2, 2))) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert len(list(iter_lex(UniformGrid(3, 4)))) == 64


def test_knn_set_examples():
    g = UniformGrid(1, 5)
    assert knn_set(g, (0.5,), 1) == [(3,)]
    assert knn_set(g, (0.5,), 2) == [(2,), (3,), (4,)]
    g2 = UniformGrid(2, 3)
    assert knn_set(g2, (0.0, 0.0), 3) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    # 1/6 is inexact in binary; (3,) and (5,) are both one spacing from x.
    g7 = UniformGrid(1, 7)
    assert knn_set(g7, (0.5,), 2) == [(3,), (4,), (5,)]
    assert knn_radius(g7, (0.5,), 2) == 1 / 6
    # Midpoint of (2,) and (3,) on a 4-point grid: a tie at half a spacing.
    assert knn_set(UniformGrid(1, 4), (0.5,), 2) == [(2,), (3,)]
    with pytest.raises(ValueError):
        knn_set(g, (0.5,), 0)
    with pytest.raises(ValueError):
        knn_set(g, (0.5,), 6)


def test_knn_set_matches_brute_force():
    rng = np.random.default_rng(11)
    grids = [
        UniformGrid(1, 2),
        UniformGrid(1, 7),
        UniformGrid(1, 10),
        UniformGrid(1, 64),
        UniformGrid(2, 3),
        UniformGrid(2, 7),
        UniformGrid(2, 9),
        UniformGrid(2, 64),
        UniformGrid(3, 4),
        UniformGrid(3, 16),
    ]
    for grid in grids:
        assert grid.n <= 4096
        probes = [np.zeros(grid.d), np.ones(grid.d), np.full(grid.d, 0.5)]
        probes += [rng.uniform(size=grid.d) for _ in range(4)]
        probes += [grid.point(idx) for idx in list(iter_lex(grid))[:: max(1, grid.n // 5)]]
        ks = sorted(k for k in {1, 2, 3, grid.n // 2 or 1, grid.n} if k <= grid.n)
        for x in probes:
            for k in ks:
                expected, r = knn_brute(grid, x, k)
                got = knn_set(grid, x, k)
                assert got == expected, (grid, x, k)
                assert len(got) >= k
                # The float radius carries the rounding of the grid
                # coordinates; the exact one is a Fraction.
                assert knn_radius(grid, x, k) == pytest.approx(float(r), rel=0, abs=1e-15)


def test_knn_radius_sup_examples():
    assert knn_radius_sup(1, 11, 3) == pytest.approx(0.2, abs=1e-15)
    assert knn_radius_sup(1, 11, 1) == 0.0
    assert knn_radius_sup(3, 5, 1) == 0.0
    assert knn_radius_sup(2, 4, 5) == pytest.approx(2.0 / 3.0, abs=1e-15)
    with pytest.raises(ValueError):
        knn_radius_sup(1, 1, 1)
    with pytest.raises(ValueError):
        knn_radius_sup(2, 3, 10)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_floor_root_around_powers(d):
    # At d = 4 the powers pass 2^53, where the float seed is inexact.
    for s in range(1, 10 ** 4 + 1):
        for k in (s ** d - 1, s ** d, s ** d + 1):
            t = floor_root(k, d)
            assert t ** d <= k < (t + 1) ** d
        assert floor_root(s ** d, d) == s
    with pytest.raises(ValueError):
        floor_root(-1, d)


def test_knn_radius_sup_brute_force_corner_and_fine_grid():
    # Corner query realizes the bound; for k >= 2 no off-grid query beats it.
    for d, m in ((1, 11), (1, 6), (2, 5)):
        grid = UniformGrid(d, m)
        for k in range(2, min(grid.n, 9) + 1):
            _, r_corner = knn_brute(grid, np.zeros(d), k)
            assert r_corner == pytest.approx(knn_radius_sup(d, m, k), abs=1e-15)
            if d == 1:
                sup = max(knn_brute(grid, (x,), k)[1] for x in np.linspace(0, 1, 301))
                assert sup <= knn_radius_sup(d, m, k) + 1e-12


def test_knn_radius_sup_monotone_in_k():
    for d, m in ((1, 9), (2, 4), (3, 3)):
        vals = [knn_radius_sup(d, m, k) for k in range(1, m ** d + 1)]
        assert vals[0] == 0.0
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_grid_point_neighborhoods_respect_radius_bound():
    rng = np.random.default_rng(12)
    for grid in (UniformGrid(1, 17), UniformGrid(2, 6)):
        for k in (1, 2, 5, grid.n):
            bound = knn_radius_sup(grid.d, grid.m, k)
            for idx in iter_lex(grid):
                if rng.uniform() > 0.3:
                    continue
                x = grid.point(idx)
                members = knn_set(grid, x, k)
                dmax = max(float(np.max(np.abs(grid.point(j) - x))) for j in members)
                assert dmax <= bound + 1e-12


def test_gridfield_validation():
    g = UniformGrid(1, 4)
    GridField(g, [0.0, 0.1, 0.2, 0.3], kind="mod1")
    with pytest.raises(ValueError):
        GridField(g, [0.0, 0.1, 0.2, 1.2], kind="mod1")
    with pytest.raises(ValueError):
        GridField(g, [0.0, 0.1, 0.2], kind="real")
    with pytest.raises(ValueError):
        GridField(g, [0.0, np.nan, 0.2, 0.3], kind="real")
    f = GridField.from_flat(g, [1.0, 2.0, 3.0, 4.0])
    assert f.values.shape == (4,)
    with pytest.raises(ValueError):
        f.values[0] = 9.0  # frozen storage
