import numpy as np
import pytest

from modrec.grid import GridField, UniformGrid, floor_root, iter_lex


def test_grid_validation():
    with pytest.raises(ValueError):
        UniformGrid(d=0, m=5)
    with pytest.raises(ValueError):
        UniformGrid(d=1, m=1)


def test_iter_lex():
    assert list(iter_lex(UniformGrid(1, 3))) == [(1,), (2,), (3,)]
    assert list(iter_lex(UniformGrid(2, 2))) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert len(list(iter_lex(UniformGrid(3, 4)))) == 64


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_floor_root_around_powers(d):
    # At d = 4 the powers pass 2^53, where the float seed is inexact.
    for s in range(1, 10 ** 4 + 1):
        for k in (s ** d - 1, s ** d, s ** d + 1):
            t = floor_root(k, d)
            assert t ** d <= k < (t + 1) ** d
        assert floor_root(s ** d, d) == s
    # Past 2^55 the float seed of s**d can round below s, and the search walks up.
    s = 2 ** 55 + 1
    assert floor_root(s ** d, d) == s and floor_root(s ** d - 1, d) == s - 1
    with pytest.raises(ValueError):
        floor_root(-1, d)


@pytest.mark.parametrize("d", [0, -1])
def test_floor_root_rejects_dimension_below_one(d):
    with pytest.raises(ValueError, match="d must be >= 1"):
        floor_root(16, d)


def test_gridfield_validation():
    g = UniformGrid(1, 4)
    GridField(g, [0.0, 0.1, 0.2, 0.3], kind="mod1")
    with pytest.raises(ValueError):
        GridField(g, [0.0, 0.1, 0.2, 1.2], kind="mod1")
    with pytest.raises(ValueError):
        GridField(g, [0.0, 0.1, 0.2], kind="real")
    with pytest.raises(ValueError):
        GridField(g, [0.0, np.nan, 0.2, 0.3], kind="real")
    with pytest.raises(ValueError, match="unknown field kind 'complex'"):
        GridField(g, [0.0, 0.1, 0.2, 0.3], kind="complex")
    f = GridField.from_flat(g, [1.0, 2.0, 3.0, 4.0])
    assert f.values.shape == (4,)
    with pytest.raises(ValueError):
        f.values[0] = 9.0  # frozen storage


@pytest.mark.parametrize("kind", ["real", "mod1"])
def test_gridfield_rejects_complex_values(kind):
    # Casting would keep the real parts and drop the imaginary ones.
    with pytest.raises(ValueError, match="must be real"):
        GridField(UniformGrid(1, 4), np.exp(1j * np.array([0.1, 0.2, 0.3, 0.4])), kind=kind)
    with pytest.raises(ValueError, match="must be real"):
        GridField(UniformGrid(1, 2), np.array([0.5, 0.25], dtype=complex), kind=kind)
