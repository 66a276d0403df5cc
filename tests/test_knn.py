import math

import numpy as np
import pytest

from conftest import box_sums_brute, random_mod1_field
from modrec import knn
from modrec.circle import circle_arg, mod1, wrap_distance
from modrec.grid import GridField, UniformGrid, iter_lex, knn_radius, knn_set
from modrec.knn import (
    RiskBoundInputs,
    choose_k_expected_risk,
    choose_k_practical,
    choose_k_sup_norm,
    circle_estimate,
    denoise,
    expected_risk_bound,
    sup_error_scale,
    sup_norm_bound,
)

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Denoising


def test_denoise_constant_field():
    grid = UniformGrid(1, 9)
    f = GridField(grid, np.full(grid.shape, 0.3), kind="mod1")
    for k in (1, 3, 9):
        out = denoise(f, k)
        assert np.max(np.abs(out.ghat.values - 0.3)) < 1e-12
        assert out.zero_resultants == 0


def test_denoise_k1_is_identity_exactly():
    rng = np.random.default_rng(21)
    for grid in (UniformGrid(1, 13), UniformGrid(2, 5)):
        f = random_mod1_field(grid, rng)
        out = denoise(f, 1)
        assert np.array_equal(out.ghat.values, f.values)


def test_denoise_three_point_example():
    grid = UniformGrid(1, 3)
    f = GridField(grid, np.array([0.0, 0.25, 0.5]), kind="mod1")
    out = denoise(f, 3)
    # mean of (1, i, -1) is i/3: angle pi/2 at every grid point
    assert np.max(np.abs(out.ghat.values - 0.25)) < 1e-12


def test_denoise_zero_resultant_convention():
    grid = UniformGrid(1, 2)
    f = GridField(grid, np.array([0.0, 0.5]), kind="mod1")
    out = denoise(f, 2)  # 1 + (-1) = 0 exactly at both points
    assert np.array_equal(out.ghat.values, [0.0, 0.0])
    assert out.zero_resultants == 2


def _denoise_oracle(f: GridField, k: int) -> np.ndarray:
    """Definition-level oracle: explicit kNN sets, complex mean, angle."""
    grid = f.grid
    out = np.empty(grid.n)
    for rank, idx in enumerate(iter_lex(grid)):
        members = knn_set(grid, grid.point(idx), k)
        zs = [np.exp(1j * TWO_PI * f.values[tuple(j - 1 for j in m)]) for m in members]
        mean = np.sum(zs) / len(zs)
        out[rank] = circle_arg(mean / abs(mean)) if abs(mean) > 0 else 0.0
    return out


def test_denoise_matches_definition_oracle():
    # m = 7 and 6 have spacings inexact in binary; the kNN sets of grid points
    # must tie exactly as the integer boxes do.
    rng = np.random.default_rng(22)
    for grid, ks in (
        (UniformGrid(1, 9), (1, 2, 4, 9)),
        (UniformGrid(2, 5), (1, 3, 7, 25)),
        (UniformGrid(1, 7), (2, 3, 4, 7)),
        (UniformGrid(2, 6), (2, 5, 10, 36)),
    ):
        f = random_mod1_field(grid, rng)
        for k in ks:
            got = denoise(f, k).ghat.flat
            want = _denoise_oracle(f, k)
            assert np.max(np.abs(got - want)) < 1e-12, (grid, k)


def test_box_machinery_against_integer_brute_force():
    # The internal box radii / box sums are pure integer index arithmetic, so
    # they can be checked tie-exactly on any m via Chebyshev distances.
    from itertools import product

    from modrec.knn import _box_sums, _padded_prefix_sums

    rng = np.random.default_rng(29)
    for d, m in ((1, 6), (1, 7), (2, 6), (3, 4)):
        shape = (m,) * d
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        prefix = _padded_prefix_sums(vals)
        coords = list(product(range(m), repeat=d))
        for k in (1, 2, 5, m ** d):
            sums, counts, radii = _box_sums(prefix, shape, k)
            for flat_idx, j in enumerate(coords):
                cheb = np.array([max(abs(a - b) for a, b in zip(j, other)) for other in coords])
                c_expected = int(np.sort(cheb)[k - 1])
                assert radii[flat_idx] == c_expected, (d, m, k, j)
                members = cheb <= c_expected
                assert counts[flat_idx] == members.sum()
                direct = sum(vals[coords[t]] for t in np.nonzero(members)[0])
                assert abs(sums[flat_idx] - direct) < 1e-10


# Every k on these grids covers m = 2, k = 1, k = n and boxes wider than the
# grid (2 c0 + 1 > m).
SMALL_GRIDS = [(1, m) for m in (2, 3, 4, 7, 12)] + [(2, m) for m in (2, 3, 5, 8)]
SMALL_GRIDS += [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]


def test_denoise_bitwise_equals_slow_path_oracle(monkeypatch):
    # The shared-radius box stage must reproduce the full-grid radius search
    # and point-by-point gather exactly, so denoise outputs are compared as
    # bytes.  Half- and quarter-turn fields cancel exactly in some boxes.
    rng = np.random.default_rng(30)
    cancelled = wider_than_grid = 0
    for d, m in SMALL_GRIDS:
        grid = UniformGrid(d, m)
        fields = [
            random_mod1_field(grid, rng),
            GridField(grid, 0.5 * rng.integers(0, 2, size=grid.shape), kind="mod1"),
            GridField(grid, 0.25 * rng.integers(0, 4, size=grid.shape), kind="mod1"),
        ]
        for f in fields:
            prefix = knn._padded_prefix_sums(np.exp(1j * TWO_PI * f.values))
            for k in range(1, grid.n + 1):
                got = denoise(f, k)
                with monkeypatch.context() as mp:
                    mp.setattr(knn, "_box_sums", box_sums_brute)
                    want = denoise(f, k)
                assert got.ghat.values.tobytes() == want.ghat.values.tobytes(), (d, m, k)
                assert got.zero_resultants == want.zero_resultants, (d, m, k)
                radii = box_sums_brute(prefix, grid.shape, k)[2]
                r, points = np.unique(radii, return_counts=True)
                assert got.radius_histogram == tuple(zip(r.tolist(), points.tolist()))
                assert sum(p for _, p in got.radius_histogram) == grid.n
                cancelled += want.zero_resultants > 0
                wider_than_grid += 2 * radii.min() + 1 > m
    assert cancelled > 0 and wider_than_grid > 0


def test_denoise_normalization_invariance_on_ties():
    # Averaging with 1/k instead of 1/|set| rescales the resultant and cannot
    # change its angle; check at a grid point whose neighborhood has ties.
    grid = UniformGrid(1, 5)
    rng = np.random.default_rng(23)
    f = random_mod1_field(grid, rng)
    k = 2  # interior points see 3 members at radius one spacing
    members = knn_set(grid, grid.point((3,)), k)
    assert len(members) == 3
    zs = np.array([np.exp(1j * TWO_PI * f.values[m[0] - 1]) for m in members])
    via_k = circle_arg((zs.sum() / k) / abs(zs.sum() / k))
    via_size = circle_arg((zs.sum() / len(zs)) / abs(zs.sum() / len(zs)))
    assert via_k == pytest.approx(via_size, abs=1e-14)
    assert abs(denoise(f, k).ghat.values[2] - via_size) < 1e-12


def test_denoise_rotation_equivariance():
    rng = np.random.default_rng(24)
    grid = UniformGrid(1, 33)
    f = random_mod1_field(grid, rng)
    for c in (0.1, 0.37, 0.93):
        rotated = GridField(grid, np.asarray(mod1(f.values + c)), kind="mod1")
        lhs = denoise(rotated, 5).ghat.values
        rhs = np.asarray(mod1(denoise(f, 5).ghat.values + c))
        assert np.max(np.asarray(wrap_distance(lhs, rhs))) < 1e-10


def test_denoise_validates_input():
    grid = UniformGrid(1, 4)
    f = GridField(grid, np.zeros(4), kind="mod1")
    with pytest.raises(ValueError):
        denoise(f, 0)
    with pytest.raises(ValueError):
        denoise(f, 5)
    with pytest.raises(ValueError):
        denoise(GridField(grid, np.zeros(4), kind="real"), 1)


def test_queries_reject_nan_and_infinite_coordinates():
    field = GridField(UniformGrid(2, 5), np.zeros((5, 5)), kind="mod1")
    for bad in (np.nan, np.inf, -np.inf):
        for x in ((bad, 0.5), (0.5, bad)):
            for query in (knn_set, knn_radius):
                with pytest.raises(ValueError, match=r"\[0,1\]\^d"):
                    query(field.grid, x, 2)
            with pytest.raises(ValueError, match=r"\[0,1\]\^d"):
                circle_estimate(field, 2, x)
    with pytest.raises(ValueError, match=r"\[0,1\]\^d"):
        knn_set(UniformGrid(1, 5), (np.nan,), 2)


def test_circle_estimate_matches_full_field_denoise():
    # Spacings 1/6, 1/9 and 1/10 are inexact in binary, yet grid points
    # equidistant from the query must tie: at a grid point the estimate uses
    # the same integer box as denoise.
    rng = np.random.default_rng(25)
    grids = [UniformGrid(1, m) for m in (9, 7, 10, 11)] + [UniformGrid(2, 7), UniformGrid(2, 10)]
    for grid in grids:
        f = random_mod1_field(grid, rng)
        for k in (k for k in (2, 3, 4, 5, 8, 9, 10) if k <= grid.n):
            den = denoise(f, k).ghat.flat
            for rank, idx in enumerate(iter_lex(grid)):
                u = circle_estimate(f, k, grid.point(idx))
                assert wrap_distance(circle_arg(u), den[rank]) < 1e-12, (grid, k, idx)


# ---------------------------------------------------------------------------
# Bandwidth rules


def _minimize_risk(d, sigma, M, n):
    """Independent oracle: dense + golden-section minimization of the
    expected-risk bound over real k in [1, n]."""

    def risk(k):
        return 64 * np.pi ** 2 * M ** 2 * (k / n) ** (2 / d) + 32 * np.pi ** 2 * sigma ** 2 / k

    ks = np.linspace(1.0, float(n), 200001)
    k0 = ks[np.argmin(risk(ks))]
    lo, hi = max(1.0, k0 - 2.0), min(float(n), k0 + 2.0)
    phi = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    for _ in range(200):
        c1, c2 = b - phi * (b - a), a + phi * (b - a)
        if risk(c1) < risk(c2):
            b = c2
        else:
            a = c1
    return 0.5 * (a + b)


def test_choose_k_expected_risk_against_minimizer():
    cases = [(1, 0.1, 1.0, 10_000), (1, 0.05, 2.0, 2_000), (2, 0.1, 1.0, 40_000)]
    for d, sigma, M, n in cases:
        k_star = _minimize_risk(d, sigma, M, n)
        assert choose_k_expected_risk(d, sigma, M, n) == math.ceil(round(k_star, 6))


def test_choose_k_expected_risk_frozen_value():
    # (d*sigma^2/(4 M^2))^(1/3) * n^(2/3) at d=1, sigma=0.1, M=1, n=1e4 equals
    # 250000^(1/3) = 62.996...; ceil gives 63 (confirmed by the minimizer oracle).
    assert choose_k_expected_risk(1, 0.1, 1.0, 10_000) == 63


def test_choose_k_expected_risk_clamps_and_sigma_zero():
    assert choose_k_expected_risk(1, 10.0, 0.001, 50) == 50  # k* >> n clamps
    with pytest.warns(UserWarning):
        assert choose_k_expected_risk(1, 0.0, 1.0, 1000) == 1


def test_choose_k_sup_norm_frozen_and_ratio_to_minimizer():
    sel = choose_k_sup_norm(1, 0.0, 1.0, 1000)
    # direct evaluation: 10^(2/3) * (ln 1000)^(1/3) * (2/(3 pi))^(2/3)
    direct = 1000 ** (2 / 3) * math.log(1000) ** (1 / 3) * (2 / (3 * np.pi)) ** (2 / 3)
    assert sel.k_star == pytest.approx(direct, rel=1e-12)
    assert sel.k == 68

    # Numeric minimizer of a(n) k^(1/d) + b(n) k^(-1/2) sits exactly at
    # 2^(2d/(d+2)) times the selection rule's k_star.
    for d, sigma, M, n in ((1, 0.0, 1.0, 1000), (1, 0.12, 4 * np.pi, 1000), (2, 0.1, 1.0, 10_000)):
        c_sigma = (4 * np.pi ** 2 * sigma ** 2 + 2) / 3 + np.pi * sigma
        alpha = 8 * np.pi * M / n ** (1 / d)
        beta = 32 * c_sigma * math.sqrt(math.log(n))
        ks = np.linspace(1.0, float(n), 400001)
        risk = alpha * ks ** (1 / d) + beta / np.sqrt(ks)
        k_min = ks[np.argmin(risk)]
        sel = choose_k_sup_norm(d, sigma, M, n)
        assert k_min / sel.k_star == pytest.approx(2 ** (2 * d / (d + 2)), rel=1e-3)


def test_choose_k_sup_norm_monotone_and_condition():
    k3 = choose_k_sup_norm(1, 0.12, 1.0, 1000).k
    k4 = choose_k_sup_norm(1, 0.12, 1.0, 10_000).k
    assert k4 > k3
    # sigma=0.12, M=4*pi, n=1000: same order as the practical rule with C=0.09
    sel = choose_k_sup_norm(1, 0.12, 4 * np.pi, 1000)
    practical = choose_k_practical(1000, 1, 0.09)
    assert sel.k == 19 and practical == 18
    assert sel.sample_condition_ok


def test_choose_k_practical_examples():
    assert choose_k_practical(1000, 1, 0.09) == 18
    assert choose_k_practical(1000, 1, 0.07) == 14
    assert choose_k_practical(1000, 1, 1e-9) == 1
    with pytest.raises(ValueError):
        choose_k_practical(1000, 1, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bandwidth_rules_name_non_finite_inputs(bad):
    with pytest.raises(ValueError, match=f"C must be a finite number above 0, got {bad}"):
        choose_k_practical(1000, 1, bad)
    for rule in (choose_k_expected_risk, choose_k_sup_norm):
        with pytest.raises(ValueError, match=f"sigma must be a finite number >= 0, got {bad}"):
            rule(1, bad, 1.0, 1000)
        with pytest.raises(ValueError, match=f"M must be a finite number above 0, got {bad}"):
            rule(1, 0.1, bad, 1000)


# ---------------------------------------------------------------------------
# Bounds


def test_expected_risk_bound_values():
    b = expected_risk_bound(RiskBoundInputs(d=1, sigma=0.1, M=1.0, n=100, k=10))
    assert b.value == pytest.approx(64 * np.pi ** 2 * 0.01 + 32 * np.pi ** 2 * 0.01 / 10, rel=1e-14)
    assert b.value == pytest.approx(6.63237, abs=2e-5)
    assert b.hypothesis_ok
    b = expected_risk_bound(RiskBoundInputs(d=1, sigma=0.0, M=2.0, n=50, k=50))
    assert b.value == pytest.approx(64 * np.pi ** 2 * 4.0, rel=1e-14)
    b = expected_risk_bound(RiskBoundInputs(d=1, sigma=0.0, M=1.0, n=100, k=1))
    assert b.value == pytest.approx(64 * np.pi ** 2 / 100 ** 2, rel=1e-14)


def test_risk_inputs_noise_constants():
    inp = RiskBoundInputs(d=1, sigma=0.1, M=1.0, n=100, k=5)
    assert inp.envelope_bound == pytest.approx(1.0 + math.exp(2 * np.pi ** 2 * 0.01), rel=1e-14)
    assert inp.variance == pytest.approx(math.exp(4 * np.pi ** 2 * 0.01) - 1.0, rel=1e-14)
    zero = RiskBoundInputs(d=1, sigma=0.0, M=1.0, n=100, k=5)
    assert zero.envelope_bound == 2.0 and zero.variance == 0.0


def test_bound_hypothesis_flags():
    b = expected_risk_bound(RiskBoundInputs(d=1, sigma=0.5, M=1.0, n=100, k=5))
    assert not b.hypothesis_ok and "sigma > 1/(2*pi)" in b.violations
    b = sup_norm_bound(RiskBoundInputs(d=4, sigma=0.1, M=1.0, n=8, k=2))
    assert not b.hypothesis_ok and "n < 2^d" in b.violations


def test_sup_norm_bound_structure():
    inp = RiskBoundInputs(d=1, sigma=0.0, M=1.0, n=1000, k=50)
    b = sup_norm_bound(inp)
    expected = 8 * np.pi * 50 / 1000 + (64 / 3) * math.log(1000) / 50
    assert b.value == pytest.approx(expected, rel=1e-14)
    # bias grows with k, variance terms shrink
    b_small = sup_norm_bound(RiskBoundInputs(d=1, sigma=0.1, M=1.0, n=1000, k=10))
    b_large = sup_norm_bound(RiskBoundInputs(d=1, sigma=0.1, M=1.0, n=1000, k=400))
    bias = lambda k: 8 * np.pi * (k / 1000)
    var = lambda k: (64 / 3) * (2 * np.pi ** 2 * 0.01 + 1) * math.log(1000) / k + 32 * np.pi * 0.1 * math.sqrt(math.log(1000) / k)
    assert bias(400) > bias(10) and var(400) < var(10)
    assert b_small.value == pytest.approx(bias(10) + var(10), rel=1e-12)
    assert b_large.value == pytest.approx(bias(400) + var(400), rel=1e-12)


def test_sup_error_scale():
    r = sup_error_scale(1, 0.0, 1.0, 10 ** 6)
    gamma = 6 * (8 * np.pi) ** (1 / 3) * (64 / 3) ** (2 / 3)
    assert r.value == pytest.approx(gamma * (math.log(10 ** 6) / 10 ** 6) ** (1 / 3), rel=1e-12)
    assert r.value == pytest.approx(3.2455, abs=2e-3)
    ns = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    vals = [sup_error_scale(1, 0.0, 1.0, n).value for n in ns]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert sup_error_scale(1, 0.1, 1.0, 10 ** 4).value > sup_error_scale(1, 0.0, 1.0, 10 ** 4).value


def test_sup_error_scale_gates():
    # At small n neither gate holds; both open once n is large enough.
    small = sup_error_scale(1, 0.0, 1.0, 10 ** 3)
    assert not small.small_enough and not small.unwrap_feasible
    # gamma ~ 135, so delta(n) <= 2 needs (log n / n)^(1/3) <= 0.0148
    big = sup_error_scale(1, 0.0, 1.0, 10 ** 9)
    assert big.small_enough and big.unwrap_feasible
    assert big.value + 2.0 / (10 ** 9 - 1) < 1.0


# ---------------------------------------------------------------------------
# Distributional facts (Monte Carlo oracles)


def test_embedded_noise_mean_shrinkage():
    # Mean of exp(i*2*pi*(f + eta)) over draws approaches exp(-2*pi^2*sigma^2) * h.
    rng = np.random.default_rng(26)
    sigma, f_val = 0.1, 0.37
    trials = 10_000
    z = np.exp(1j * TWO_PI * (f_val + sigma * rng.standard_normal(trials)))
    target = math.exp(-2 * np.pi ** 2 * sigma ** 2) * np.exp(1j * TWO_PI * f_val)
    for part in (np.real, np.imag):
        se = part(z).std(ddof=1) / math.sqrt(trials)
        assert abs(part(z).mean() - part(target)) < 5 * se


def test_pointwise_risk_below_bound_small_mc():
    # Light version of the bias-variance contract (the acceptance suite runs
    # the full 200-trial check): MC risk of the circle estimate stays under
    # the expected-risk bound.
    rng = np.random.default_rng(28)
    grid = UniformGrid(1, 64)
    sigma, M = 0.1, 1.0
    k = choose_k_expected_risk(1, sigma, M, grid.n)
    xs = grid.axis_coords()
    f = np.sin(TWO_PI * xs) / TWO_PI  # 1-Lipschitz
    h = np.exp(1j * TWO_PI * f)
    point = 31
    errs = []
    for _ in range(60):
        y = np.asarray(mod1(f + sigma * rng.standard_normal(grid.n)))
        fld = GridField(grid, y, kind="mod1")
        hk = circle_estimate(fld, k, xs[point : point + 1])
        errs.append(abs(hk - h[point]) ** 2)
    bound = expected_risk_bound(RiskBoundInputs(d=1, sigma=sigma, M=M, n=grid.n, k=k))
    assert np.mean(errs) <= bound.value
