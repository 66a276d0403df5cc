"""Synthetic data, the end-to-end pipeline, alignment, metrics, and sweeps.

Noise is generated from a counter-based splitmix64 stream keyed by
(seed, lexicographic index) and turned Gaussian by the Box-Muller transform,
so a sample depends only on its key: regenerating any subset of a field, in
any order or in parallel, reproduces identical values.  Bit-exact agreement
across platforms is not promised (libm transcendentals differ), but within
one installation every run is reproducible from its seed.

Baseline methods plug into the same unwrap/align/metric path as the kNN
denoiser, so method comparisons differ only in the denoising stage.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import baselines
from .circle import circle_arg, mod1, wrap_distance
from .graphs import grid_graph, path_graph
from .grid import GridField, UniformGrid, floor_root, mesh_points
from .knn import DenoiseResult, choose_k_practical, denoise
from .unwrap import ItohReport, UnwrapResult, itoh_check, unwrap_multid

# ---------------------------------------------------------------------------
# Keyed random stream


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    z = (x + _GOLDEN).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def keyed_uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """Uniform [0,1) doubles, one per counter, as a pure function of (seed, counter)."""
    base = _mix64(np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64))[0]
    words = _mix64(base + counters.astype(np.uint64) * _GOLDEN)
    return (words >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def keyed_normals(seed: int, n: int) -> np.ndarray:
    """Standard normals keyed by (seed, draw index) via Box-Muller."""
    idx = np.arange(n, dtype=np.uint64)
    u1 = keyed_uniforms(seed, 2 * idx)
    u2 = keyed_uniforms(seed, 2 * idx + np.uint64(1))
    return np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2)


# ---------------------------------------------------------------------------
# Test functions

# sup of |4 cos^2(2 pi x) - (8 pi x + 4 pi) sin(4 pi x)| over [0,1]
LIPSCHITZ_EXAMPLE2 = 36.787238184208784


def example1(x):
    return np.sin(4.0 * np.pi * np.asarray(x))


def example2(x):
    x = np.asarray(x)
    return 4.0 * x * np.cos(2.0 * np.pi * x) ** 2 - 2.0 * np.sin(2.0 * np.pi * x) ** 2 + 4.7


@dataclass(frozen=True)
class PlantedFunction:
    """Separable trigonometric test function on [0,1]^d.

    f(x) = offset + sum_j amp_j * sin(2*pi*freq_j*x_j + phase_j); the l-inf
    Lipschitz constant is sum_j 2*pi*freq_j*|amp_j|.
    """

    amplitudes: tuple
    frequencies: tuple
    phases: tuple
    offset: float = 0.0

    @property
    def d(self) -> int:
        return len(self.amplitudes)

    @property
    def lipschitz(self) -> float:
        return float(
            sum(2.0 * np.pi * f * abs(a) for a, f in zip(self.amplitudes, self.frequencies))
        )

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.full(pts.shape[:-1], self.offset)
        for j, (a, f, p) in enumerate(zip(self.amplitudes, self.frequencies, self.phases)):
            out = out + a * np.sin(2.0 * np.pi * f * pts[..., j] + p)
        return out


@dataclass(frozen=True)
class SyntheticSpec:
    """What to generate: a named function or a planted one, grid, noise, seed.
    A spec that generate could not use is rejected when built."""

    function: object  # "example1" | "example2" | PlantedFunction | callable
    d: int
    m: int
    sigma: float
    seed: int

    def __post_init__(self):
        if not 0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be a finite number >= 0, got {self.sigma!r}")
        UniformGrid(self.d, self.m)
        _resolve_function(self.function, self.d)


def _resolve_function(function, d: int):
    """The callable on (..., d) arrays that a function spec names; raises
    ValueError for an unknown spec or one whose dimension is not d."""
    if function == "example1":
        if d != 1:
            raise ValueError("example1 is univariate")
        return lambda p: example1(p[..., 0])
    if function == "example2":
        if d != 1:
            raise ValueError("example2 is univariate")
        return lambda p: example2(p[..., 0])
    if isinstance(function, PlantedFunction):
        if function.d != d:
            raise ValueError("planted function dimension mismatch")
        return function
    if callable(function):
        return function
    raise ValueError(f"unknown function spec {function!r}")


@dataclass(frozen=True)
class SyntheticData:
    truth: GridField
    noisy_mod: GridField
    spec: SyntheticSpec


def generate(spec: SyntheticSpec) -> SyntheticData:
    """Sample truth = f on the grid and noisy_mod = (truth + noise) mod 1."""
    grid = UniformGrid(d=spec.d, m=spec.m)
    func = _resolve_function(spec.function, spec.d)
    truth = np.asarray(func(mesh_points(grid)), dtype=float)
    if truth.shape != grid.shape:
        raise ValueError("function did not evaluate to one value per grid point")
    noise = spec.sigma * keyed_normals(spec.seed, grid.n).reshape(grid.shape)
    noisy = np.asarray(mod1(truth + noise))
    return SyntheticData(
        truth=GridField(grid, truth, kind="real"),
        noisy_mod=GridField(grid, noisy, kind="mod1"),
        spec=spec,
    )


# ---------------------------------------------------------------------------
# Pipeline, alignment, metrics


@dataclass(frozen=True)
class PipelineResult:
    ghat: GridField
    ftilde: GridField
    denoise: DenoiseResult
    unwrap: UnwrapResult


def run_pipeline(noisy_mod: GridField, k: int) -> PipelineResult:
    """Denoise then unwrap: the full two-stage recovery."""
    den = denoise(noisy_mod, k)
    unw = unwrap_multid(den.ghat)
    return PipelineResult(ghat=den.ghat, ftilde=unw.field, denoise=den, unwrap=unw)


def align(ftilde: GridField, truth: GridField) -> int:
    """Modal integer shift of the unwrapped field relative to the truth.

    Returns the most frequent value of round(ftilde - truth) over the grid;
    ties go to the candidate with smaller post-alignment mean squared error
    (then to the smaller value).  The recovery offset that must be added to
    ftilde is the negation of this shift.
    """
    if ftilde.grid != truth.grid:
        raise ValueError("fields live on different grids")
    diff = ftilde.flat - truth.flat
    shifts = np.round(diff).astype(np.int64)
    values, counts = np.unique(shifts, return_counts=True)
    top = values[counts == counts.max()]
    if top.size == 1:
        return int(top[0])
    best = None
    for cand in sorted(int(v) for v in top):
        mse = float(np.mean((diff - cand) ** 2))
        if best is None or mse < best[0] - 1e-15:
            best = (mse, cand)
    return best[1]


@dataclass(frozen=True)
class TrialResult:
    wrap_mse_noisy: float
    wrap_mse_denoised: float
    wrap_sup_denoised: float
    aligned_mse: float
    q_star: int
    method: str = ""
    seed: int = 0

    def metric(self, name: str) -> float:
        return float(getattr(self, name))


def metrics(
    ftilde: GridField,
    ghat: GridField,
    noisy_mod: GridField,
    truth: GridField,
    method: str = "",
    seed: int = 0,
) -> TrialResult:
    """Wrap-around errors of the mod-1 stages and aligned error of the recovery.

    q_star is the integer with ftilde + q_star closest to truth (the negated
    output of align); aligned_mse averages (ftilde + q_star - truth)^2.
    """
    g_true = np.asarray(mod1(truth.flat))
    dw_noisy = np.asarray(wrap_distance(noisy_mod.flat, g_true))
    dw_den = np.asarray(wrap_distance(ghat.flat, g_true))
    q_star = -align(ftilde, truth)
    aligned = ftilde.flat + q_star - truth.flat
    return TrialResult(
        wrap_mse_noisy=float(np.mean(dw_noisy ** 2)),
        wrap_mse_denoised=float(np.mean(dw_den ** 2)),
        wrap_sup_denoised=float(np.max(dw_den)),
        aligned_mse=float(np.mean(aligned ** 2)),
        q_star=int(q_star),
        method=method,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Monte Carlo sweeps

METRIC_NAMES = ("wrap_mse_noisy", "wrap_mse_denoised", "wrap_sup_denoised", "aligned_mse")


@dataclass(frozen=True)
class McConfig:
    function: object = "example1"
    d: int = 1
    sigma: float = 0.12
    n_sweep: tuple = (250, 1000, 4000)
    methods: tuple = ("knn",)
    trials: int = 50
    base_seed: int = 0
    C: float = 0.09
    kappa: float = 0.04
    graph_radius: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        for method in self.methods:
            if method not in ("knn", "ucqp", "trs"):
                raise ValueError(f"unknown method {method!r}")
        for n in self.n_sweep:
            m = _axis_points(n, self.d)
            if m < 2:
                raise ValueError(f"sweep size {n} gives fewer than 2 points per axis")
            # What a trial at size n builds, so it rejects what the trial would.
            SyntheticSpec(self.function, self.d, m, self.sigma, self.base_seed)
            if "knn" in self.methods:
                choose_k_practical(n, d=self.d, C=self.C)
            if {"ucqp", "trs"} & set(self.methods):
                baselines.lambda_schedule(self.kappa, n)


def _axis_points(n: int, d: int) -> int:
    m = floor_root(n, d)
    if m ** d != n:
        raise ValueError(f"n = {n} is not a perfect {d}-th power")
    return m


def _method_ghat(method: str, data: SyntheticData, config: McConfig) -> GridField:
    """Denoised mod-1 field for one method."""
    grid = data.noisy_mod.grid
    if method == "knn":
        k = choose_k_practical(grid.n, d=grid.d, C=config.C)
        return denoise(data.noisy_mod, k).ghat
    lam = baselines.lambda_schedule(config.kappa, grid.n)
    graph = path_graph(grid.n) if grid.d == 1 else grid_graph(grid.d, grid.m, config.graph_radius)
    z = np.exp(2j * np.pi * data.noisy_mod.flat)
    if method == "ucqp":
        result = baselines.solve_ucqp(z, graph, lam)
    else:
        result = baselines.solve_trs(z, graph, lam)
    return GridField.from_flat(grid, np.asarray(circle_arg(result.signal)), kind="mod1")


def run_trial(method: str, data: SyntheticData, config: McConfig) -> TrialResult:
    ghat = _method_ghat(method, data, config)
    unw = unwrap_multid(ghat)
    return metrics(
        unw.field, ghat, data.noisy_mod, data.truth, method=method, seed=data.spec.seed
    )


@dataclass(frozen=True)
class McCell:
    n: int
    method: str
    trials: int
    failures: int
    means: dict
    stds: dict


@dataclass(frozen=True)
class McSummary:
    config: McConfig
    cells: tuple

    def cell(self, n: int, method: str) -> McCell:
        for c in self.cells:
            if c.n == n and c.method == method:
                return c
        raise KeyError(f"no cell for n={n}, method={method}")

    def to_report(self) -> dict:
        cfg = {f.name: getattr(self.config, f.name) for f in fields(self.config)}
        cfg = {name: list(v) if isinstance(v, tuple) else v for name, v in cfg.items()}
        cfg["function"] = str(self.config.function)
        return {"config": cfg, "cells": [asdict(c) for c in self.cells]}

    def to_csv(self) -> str:
        lines = ["n,method,metric,mean,std"]
        for c in self.cells:
            for name in METRIC_NAMES:
                lines.append(
                    f"{c.n},{c.method},{name},{_fmt(c.means[name])},{_fmt(c.stds[name])}"
                )
        return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def monte_carlo(config: McConfig, collect_trials: bool = False):
    """Seeded sweep over n and methods; trial t uses seed base_seed + t.

    Individual trial failures (e.g. a sphere-relaxation hard case) are counted
    per cell, not fatal.  Results are keyed by trial index, so any execution
    order yields the identical summary.
    """
    cells = []
    all_trials = []
    for n in config.n_sweep:
        m = _axis_points(n, config.d)
        per_method = {method: [] for method in config.methods}
        failures = {method: 0 for method in config.methods}
        for t in range(config.trials):
            spec = SyntheticSpec(
                function=config.function,
                d=config.d,
                m=m,
                sigma=config.sigma,
                seed=config.base_seed + t,
            )
            data = generate(spec)
            for method in config.methods:
                try:
                    res = run_trial(method, data, config)
                except (baselines.HardCaseError, baselines.NumericError):
                    failures[method] += 1
                    continue
                per_method[method].append(res)
                if collect_trials:
                    all_trials.append((n, res))
        for method in config.methods:
            results = per_method[method]
            means = {}
            stds = {}
            for name in METRIC_NAMES:
                vals = np.array([r.metric(name) for r in results])
                means[name] = float(vals.mean()) if vals.size else float("nan")
                stds[name] = float(vals.std(ddof=0)) if vals.size else float("nan")
            cells.append(
                McCell(
                    n=n,
                    method=method,
                    trials=len(results),
                    failures=failures[method],
                    means=means,
                    stds=stds,
                )
            )
    summary = McSummary(config=config, cells=tuple(cells))
    return (summary, all_trials) if collect_trials else summary


def rate_fit(ns, errors):
    """Least-squares slopes of log(error) in the sample-size variables.

    Primary slope regresses log(error) on log(log(n)/n); an error decaying
    like (log(n)/n)^r has slope exactly r there.  The companion slope against
    log(n) is also reported (negative for decaying errors).
    """
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ns.size != errors.size or ns.size < 3:
        raise ValueError("need at least 3 (n, error) pairs")
    if np.any(ns <= 1) or np.any(errors <= 0):
        raise ValueError("sample sizes must exceed 1 and errors must be positive")
    y = np.log(errors)
    x1 = np.log(np.log(ns) / ns)
    x2 = np.log(ns)

    def slope(x):
        A = np.stack([x, np.ones_like(x)], axis=1)
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        return float(coef[0])

    return RateFit(slope=slope(x1), slope_vs_log_n=slope(x2))


@dataclass(frozen=True)
class RateFit:
    slope: float
    slope_vs_log_n: float


# ---------------------------------------------------------------------------
# Elevation demo


@dataclass(frozen=True)
class ElevationDemo:
    truth: GridField
    noisy_mod: GridField
    ghat: GridField
    ftilde: GridField
    ftilde_raw: GridField  # unwrapped straight from the noisy samples
    metrics_denoised: TrialResult
    metrics_raw: TrialResult
    lipschitz_estimate: float
    itoh: ItohReport
    scale: float
    k: int
    sigma: float
    seed: int


def elevation_demo(
    elevation: np.ndarray,
    scale: float = 500.0,
    sigma: float = 0.1,
    k: int = 40,
    seed: int = 0,
) -> ElevationDemo:
    """Terrain recovery from synthetic noisy mod-1 observations.

    The elevation matrix (meters) is divided by ``scale`` so the data is
    smooth enough for unwrapping, corrupted with Gaussian noise, folded mod 1,
    then denoised and unwrapped.  The unwrap of the raw (un-denoised) samples
    is included for the spurious-jump comparison, as is a grid-resolution
    check based on the finite differences of the scaled clean data.
    """
    mat = np.asarray(elevation, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("elevation must be a square matrix; crop it first")
    if mat.shape[0] < 2:
        raise ValueError("elevation must be at least 2 x 2")
    if not 0.0 < scale < np.inf:
        raise ValueError(f"scale must be a finite number above 0, got {scale!r}")
    m = mat.shape[0]
    truth_values = mat / scale
    data = generate(SyntheticSpec(lambda p: truth_values, d=2, m=m, sigma=sigma, seed=seed))
    truth, noisy = data.truth, data.noisy_mod

    steps = max(
        float(np.max(np.abs(np.diff(truth_values, axis=0)))),
        float(np.max(np.abs(np.diff(truth_values, axis=1)))),
    )
    lipschitz_est = steps * (m - 1)
    if lipschitz_est > 0.0:
        itoh = itoh_check(delta=0.0, M=lipschitz_est, m=m)
    else:
        itoh = ItohReport(satisfied=True, margin=0.5)  # flat terrain

    pipe = run_pipeline(noisy, k)
    raw_unwrap = unwrap_multid(noisy)
    met_den = metrics(pipe.ftilde, pipe.ghat, noisy, truth, method="knn", seed=seed)
    met_raw = metrics(raw_unwrap.field, noisy, noisy, truth, method="raw", seed=seed)
    return ElevationDemo(
        truth=truth,
        noisy_mod=noisy,
        ghat=pipe.ghat,
        ftilde=pipe.ftilde,
        ftilde_raw=raw_unwrap.field,
        metrics_denoised=met_den,
        metrics_raw=met_raw,
        lipschitz_estimate=lipschitz_est,
        itoh=itoh,
        scale=scale,
        k=k,
        sigma=sigma,
        seed=seed,
    )
