import numpy as np
import pytest

from modrec.circle import (
    center_mod1,
    centered_wrap,
    chord_from_wrap,
    circle_arg,
    circle_embed,
    mod1,
    project_to_circle,
    uncenter_mod1,
    wrap_bound_from_chord,
    wrap_distance,
)


def test_mod1_examples():
    assert mod1(1.25) == 0.25
    assert mod1(-0.25) == 0.75
    assert mod1(3.0) == 0.0


def test_mod1_periodicity():
    # Exact for dyadic t where t + k is computed without rounding.
    for t in np.arange(0.0, 1.0, 1.0 / 64.0):
        for k in (-5, -1, 1, 3, 10):
            assert mod1(t + k) == mod1(t)
    rng = np.random.default_rng(0)
    for t in rng.uniform(-50.0, 50.0, size=200):
        for k in (-3, 2, 7):
            assert abs(mod1(t + k) - mod1(t)) % 1.0 < 1e-10 or abs(
                abs(mod1(t + k) - mod1(t)) - 1.0
            ) < 1e-10


def test_mod1_rejects_nonfinite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            mod1(bad)


def test_wrap_distance_examples():
    assert wrap_distance(0.1, 0.9) == pytest.approx(0.2, abs=1e-15)
    assert wrap_distance(0.3, 0.3) == 0.0
    assert wrap_distance(0.0, 0.5) == 0.5


def test_wrap_distance_is_a_metric_sample():
    rng = np.random.default_rng(1)
    a, b, c = rng.uniform(size=(3, 500))
    dab = np.asarray(wrap_distance(a, b))
    assert np.all(dab >= 0.0) and np.all(dab <= 0.5)
    assert np.allclose(dab, wrap_distance(b, a))
    assert np.all(dab <= np.asarray(wrap_distance(a, c)) + np.asarray(wrap_distance(c, b)) + 1e-15)


def test_circle_embed_examples():
    assert circle_embed(0.0) == 1.0 + 0.0j
    assert circle_embed(0.25) == pytest.approx(1j, abs=1e-15)
    assert circle_embed(0.5) == pytest.approx(-1.0, abs=1e-15)


def test_circle_arg_examples_and_round_trip():
    assert circle_arg(1j) == pytest.approx(0.25, abs=1e-15)
    assert circle_arg(1.0 + 0.0j) == 0.0
    assert circle_arg(np.exp(1j * 2 * np.pi * 0.7)) == pytest.approx(0.7, abs=1e-12)
    rng = np.random.default_rng(2)
    ys = rng.uniform(size=1000)
    back = np.asarray(circle_arg(np.asarray(circle_embed(ys))))
    assert np.max(np.abs(back - ys)) < 1e-12
    assert np.all(back >= 0.0) and np.all(back < 1.0)


def test_circle_arg_snaps_just_below_full_turn():
    u = np.exp(-1j * 1e-16)  # angle 2*pi - 1e-16 on the [0, 2*pi) branch
    assert circle_arg(u) == 0.0


def test_project_to_circle_examples():
    assert project_to_circle(0.0 + 0.0j) == 1.0 + 0.0j
    assert project_to_circle(3.0 + 0.0j) == 1.0 + 0.0j
    assert project_to_circle(0.0 - 2.0j) == pytest.approx(-1j, abs=1e-15)


def test_project_to_circle_maps_zeros_inside_an_array_to_one():
    w = np.array([0.0, -4.0 + 0.0j, complex(-0.0, -0.0), -2.0j, 0.0j])
    out = project_to_circle(w)
    assert out.tobytes() == np.array([1.0, -1.0, 1.0, -1j, 1.0], dtype=complex).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("shape", ["scalar", "array"])
def test_project_to_circle_rejects_nonfinite(bad, part, shape):
    w = complex(bad, 0.5) if part == "real" else complex(0.5, bad)
    if shape == "array":
        w = np.array([1.0 + 1.0j, w, 0.0j])
    with pytest.raises(ValueError, match="w must be finite"):
        project_to_circle(w)


def test_project_idempotent_and_scale_invariant():
    rng = np.random.default_rng(3)
    w = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    p = np.asarray(project_to_circle(w))
    assert np.max(np.abs(np.abs(p) - 1.0)) < 1e-12
    assert np.max(np.abs(np.asarray(project_to_circle(p)) - p)) < 1e-12
    for c in (0.5, 2.0, 1e6):
        assert np.max(np.abs(np.asarray(project_to_circle(c * w)) - p)) < 1e-12


def test_chord_from_wrap_examples():
    assert chord_from_wrap(0.0) == 0.0
    assert chord_from_wrap(0.5) == pytest.approx(2.0, abs=1e-15)
    dw = wrap_distance(0.1, 0.9)
    assert chord_from_wrap(dw) == pytest.approx(2.0 * np.sin(0.2 * np.pi), abs=1e-12)
    with pytest.raises(ValueError):
        chord_from_wrap(0.6)
    with pytest.raises(ValueError):
        chord_from_wrap(-0.1)


def test_chord_identity_against_embedding():
    rng = np.random.default_rng(4)
    a, b = rng.uniform(size=(2, 2000))
    chord = np.abs(np.asarray(circle_embed(a)) - np.asarray(circle_embed(b)))
    assert np.max(np.abs(chord - np.asarray(chord_from_wrap(wrap_distance(a, b))))) < 1e-12


def test_wrap_bound_from_chord():
    assert wrap_bound_from_chord(2.0) == 0.5
    assert wrap_bound_from_chord(0.0) == 0.0
    assert wrap_bound_from_chord(1.0) == 0.25
    with pytest.raises(ValueError):
        wrap_bound_from_chord(2.5)
    # For unit u, v at chord distance eps the wrap distance is at most eps/4.
    rng = np.random.default_rng(5)
    a, b = rng.uniform(size=(2, 2000))
    eps = np.abs(np.asarray(circle_embed(a)) - np.asarray(circle_embed(b)))
    assert np.all(
        np.asarray(wrap_distance(a, b)) <= np.asarray(wrap_bound_from_chord(eps)) + 1e-12
    )


def test_centered_wrap_examples():
    assert centered_wrap(0.3, 0.5) == pytest.approx(0.3, abs=1e-15)
    assert centered_wrap(0.6, 0.5) == pytest.approx(-0.4, abs=1e-15)
    assert centered_wrap(-1.2, 1.0) == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(ValueError):
        centered_wrap(0.3, 0.0)
    with pytest.raises(ValueError):
        centered_wrap(0.3, -1.0)


def test_centered_wrap_range():
    rng = np.random.default_rng(6)
    t = rng.uniform(-100.0, 100.0, size=5000)
    for gamma in (0.25, 0.5, 1.0, np.pi):
        w = np.asarray(centered_wrap(t, gamma))
        assert np.all(w >= -gamma) and np.all(w < gamma)


def test_centered_modulo_correspondence():
    rng = np.random.default_rng(7)
    t = rng.uniform(-100.0, 100.0, size=5000)
    for gamma in (0.25, 0.5, 1.0, np.pi):
        lhs = np.asarray(centered_wrap(t, gamma)) / (2.0 * gamma)
        rhs = np.asarray(center_mod1(mod1(t / (2.0 * gamma))))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_center_mod1_pair():
    assert center_mod1(0.7) == pytest.approx(-0.3, abs=1e-15)
    assert center_mod1(0.2) == 0.2
    assert uncenter_mod1(center_mod1(0.9)) == pytest.approx(0.9, abs=1e-15)
    rng = np.random.default_rng(8)
    xs = rng.uniform(size=1000)
    assert np.max(np.abs(np.asarray(uncenter_mod1(center_mod1(xs))) - xs)) == 0.0
    with pytest.raises(ValueError):
        uncenter_mod1(0.5)
    with pytest.raises(ValueError):
        center_mod1(1.0)
