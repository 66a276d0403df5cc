"""Synthetic data, the end-to-end pipeline, alignment, metrics, and sweeps.

Noise is generated from a counter-based splitmix64 stream keyed by
(seed, lexicographic index) and turned Gaussian by the Box-Muller transform,
so a sample depends only on its key: regenerating any subset of a field, in
any order or in parallel, reproduces identical values.  Bit-exact agreement
across platforms is not promised (libm transcendentals differ), but within
one installation every run is reproducible from its seed.  The draws, the
mod-1 fold and the elementwise errors of metrics run in fixed blocks on the
CPUs in the process's affinity mask (modrec.blocks); the outputs are
bitwise independent of the worker count and the block size, and there is no
option.

Baseline methods plug into the same unwrap/align/metric path as the kNN
denoiser, so method comparisons differ only in the denoising stage.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import baselines
from .blocks import run_blocks
from .circle import circle_arg, circle_embed, mod1, wrap_distance
from .graphs import grid_graph
from .grid import GridField, UniformGrid, floor_root
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


def _normals(seed: int, start: int, stop: int) -> np.ndarray:
    """Draws start to stop - 1 of keyed_normals(seed, n), for any n >= stop."""
    idx = np.arange(start, stop, dtype=np.uint64)
    u1 = keyed_uniforms(seed, 2 * idx)
    u2 = keyed_uniforms(seed, 2 * idx + np.uint64(1))
    return np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2)


def keyed_normals(seed: int, n: int) -> np.ndarray:
    """Standard normals keyed by (seed, draw index) via Box-Muller."""
    out = np.empty(n)

    def fill(start, stop):
        out[start:stop] = _normals(seed, start, stop)

    run_blocks(fill, n)
    return out


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
    Lipschitz constant is sum_j 2*pi*freq_j*|amp_j|.  The three tuples hold
    one finite entry per axis and the offset is finite; anything else is
    rejected when built.  on_axes evaluates each term once per axis
    coordinate, bitwise equal to calling f on every grid point.
    """

    amplitudes: tuple
    frequencies: tuple
    phases: tuple
    offset: float = 0.0

    def __post_init__(self):
        lengths = {len(self.amplitudes), len(self.frequencies), len(self.phases)}
        if len(lengths) != 1 or 0 in lengths:
            raise ValueError(
                "amplitudes, frequencies and phases need one entry per axis, got lengths "
                f"{len(self.amplitudes)}, {len(self.frequencies)} and {len(self.phases)}"
            )
        values = (*self.amplitudes, *self.frequencies, *self.phases, self.offset)
        if not np.all(np.isfinite(np.array(values, dtype=float))):
            raise ValueError(f"planted function parameters must be finite, got {self!r}")

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

    def on_axes(self, x: np.ndarray) -> np.ndarray:
        """f on the grid whose axes all have the coordinates x, shape (x.size,) * d.

        Term j is computed on the axis coordinates and broadcast along axis
        j; the terms are added in __call__'s order, so every value sees the
        same floating-point operations as __call__(mesh_points(grid)).
        """
        out = np.full((x.size,) * self.d, self.offset)
        for j, (a, f, p) in enumerate(zip(self.amplitudes, self.frequencies, self.phases)):
            term = a * np.sin(2.0 * np.pi * f * x + p)
            out = out + term.reshape((-1,) + (1,) * (self.d - 1 - j))
        return out


@dataclass(frozen=True)
class SyntheticSpec:
    """What to generate: a named function or a planted one, grid, noise, seed.
    A spec that generate could not use is rejected when built."""

    function: object  # "example1" | "example2" | PlantedFunction
    d: int
    m: int
    sigma: float
    seed: int

    def __post_init__(self):
        _check_sigma(self.sigma)
        UniformGrid(self.d, self.m)
        _resolve_function(self.function, self.d)


def _check_sigma(sigma):
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be a finite number >= 0, got {sigma!r}")


def _resolve_function(function, d: int):
    """The truth that a function spec names, as a map from the axis
    coordinates of a grid to its values there; raises ValueError for an
    unknown spec or one whose dimension is not d."""
    if isinstance(function, PlantedFunction):
        if function.d != d:
            raise ValueError("planted function dimension mismatch")
        return function.on_axes
    if not (isinstance(function, str) and function in ("example1", "example2")):
        raise ValueError(f"unknown function spec {function!r}")
    if d != 1:
        raise ValueError(f"{function} is univariate")
    return example1 if function == "example1" else example2


@dataclass(frozen=True)
class SyntheticData:
    truth: GridField
    noisy_mod: GridField


def generate(spec: SyntheticSpec) -> SyntheticData:
    """Sample truth = f on the grid, evaluated on its axis coordinates, and
    noisy_mod = (truth + noise) mod 1."""
    grid = UniformGrid(d=spec.d, m=spec.m)
    truth = _resolve_function(spec.function, spec.d)(grid.axis_coords())
    return _observe(grid, truth, spec.sigma, spec.seed)


def _observe(grid: UniformGrid, truth: np.ndarray, sigma: float, seed: int) -> SyntheticData:
    """truth, of grid.shape, and (truth + sigma * keyed_normals(seed)) mod 1."""
    flat = truth.reshape(-1)
    noisy = np.empty(grid.n)

    def fold(start, stop):
        noisy[start:stop] = mod1(flat[start:stop] + sigma * _normals(seed, start, stop))

    run_blocks(fold, grid.n)
    return SyntheticData(
        truth=GridField(grid, truth, kind="real"),
        noisy_mod=GridField.from_flat(grid, noisy, kind="mod1"),
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

    Returns the most frequent value of round(ftilde - truth) over the grid,
    as a Python int, exact past the int64 range; ties go to the candidate
    with smaller post-alignment mean squared error, inf past the float range
    (then to the smaller value).  The recovery offset that must be added to
    ftilde is the negation of this shift.  Raises ValueError when a
    difference ftilde - truth leaves the float range.
    """
    if ftilde.grid != truth.grid:
        raise ValueError("fields live on different grids")
    shifts = np.empty(truth.grid.n)

    def round_diffs(start, stop):
        with np.errstate(over="ignore"):  # an overflow is an infinite shift, refused below
            shifts[start:stop] = np.round(ftilde.flat[start:stop] - truth.flat[start:stop])

    run_blocks(round_diffs, truth.grid.n)
    values, counts = np.unique(shifts, return_counts=True)
    if not (np.isfinite(values[0]) and np.isfinite(values[-1])):  # sorted: an inf is at an end
        raise ValueError("ftilde - truth leaves the float range")
    top = values[counts == counts.max()]
    if top.size == 1:
        return int(top[0])
    diff = ftilde.flat - truth.flat
    best = None
    for cand in sorted(int(v) for v in top):
        with np.errstate(over="ignore"):  # an mse past the float range is inf
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
    if any(f.grid != truth.grid for f in (ftilde, ghat, noisy_mod)):
        raise ValueError("fields live on different grids")
    n = truth.grid.n
    sq_noisy, dw_den, sq_den, sq_aligned = (np.empty(n) for _ in range(4))

    def wrap_errors(start, stop):
        g_true = mod1(truth.flat[start:stop])
        sq_noisy[start:stop] = wrap_distance(noisy_mod.flat[start:stop], g_true) ** 2
        dw_den[start:stop] = wrap_distance(ghat.flat[start:stop], g_true)
        sq_den[start:stop] = dw_den[start:stop] ** 2

    run_blocks(wrap_errors, n)
    q_star = -align(ftilde, truth)

    def aligned_errors(start, stop):
        with np.errstate(over="ignore"):  # per thread; a square past the float range is inf
            sq_aligned[start:stop] = (ftilde.flat[start:stop] + q_star - truth.flat[start:stop]) ** 2

    run_blocks(aligned_errors, n)
    return TrialResult(
        wrap_mse_noisy=float(np.mean(sq_noisy)),
        wrap_mse_denoised=float(np.mean(sq_den)),
        wrap_sup_denoised=float(np.max(dw_den)),
        aligned_mse=float(np.mean(sq_aligned)),
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

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        for name in ("n_sweep", "methods"):
            values = getattr(self, name)
            if not values or len(set(values)) != len(values):
                raise ValueError(f"{name} must be non-empty and without repeats, got {values!r}")
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


def _method_ghat(method: str, noisy_mod: GridField, k, lam, graph) -> GridField:
    """Denoised mod-1 field for one method: k serves knn, lam and graph the
    relaxations."""
    if method == "knn":
        return denoise(noisy_mod, k).ghat
    solve = baselines.solve_ucqp if method == "ucqp" else baselines.solve_trs
    result = solve(circle_embed(noisy_mod.flat), graph, lam)
    return GridField.from_flat(noisy_mod.grid, np.asarray(circle_arg(result.signal)), kind="mod1")


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
    relax = bool({"ucqp", "trs"} & set(config.methods))
    for n in config.n_sweep:
        m = _axis_points(n, config.d)
        # Every trial at this size shares these; each is built once.
        k = choose_k_practical(n, d=config.d, C=config.C) if "knn" in config.methods else None
        lam = baselines.lambda_schedule(config.kappa, n) if relax else None
        graph = grid_graph(config.d, m) if relax else None  # the path graph at d = 1
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
                    ghat = _method_ghat(method, data.noisy_mod, k, lam, graph)
                except (baselines.HardCaseError, baselines.NumericError):
                    failures[method] += 1
                    continue
                unw = unwrap_multid(ghat)
                res = metrics(
                    unw.field, ghat, data.noisy_mod, data.truth, method=method, seed=spec.seed
                )
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
    log(n) is also reported (negative for decaying errors).  Non-finite
    sample sizes or errors (the NaN means of an mc cell whose trials all
    failed) raise ValueError, as do sample sizes that leave the primary
    regressor constant.
    """
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ns.size != errors.size or ns.size < 3:
        raise ValueError("need at least 3 (n, error) pairs")
    for name, vals in (("sample sizes", ns), ("errors", errors)):
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{name} must be finite, got {vals.tolist()}")
    if np.any(ns <= 1) or np.any(errors <= 0):
        raise ValueError("sample sizes must exceed 1 and errors must be positive")
    y = np.log(errors)
    x1 = np.log(np.log(ns) / ns)
    x2 = np.log(ns)
    if np.unique(x1).size < 2:  # n = 2 and n = 4 share log(log(n)/n)
        raise ValueError(f"need 2 sample sizes with distinct log(log(n)/n), got {ns.tolist()}")

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
    if not np.isfinite(mat).all():
        raise ValueError("elevation must be finite")
    # In Python floats, which overflow to inf without a numpy warning: the
    # scaled elevation and its steps between neighbours stay finite.
    peak = float(np.max(np.abs(mat)))
    if not 2.0 * (peak / float(scale)) < np.inf:
        raise ValueError(
            f"elevation / scale must be finite with finite steps: max |elevation| {peak!r} "
            f"at scale {scale!r}"
        )
    m = mat.shape[0]
    truth_values = mat / scale
    _check_sigma(sigma)
    data = _observe(UniformGrid(2, m), truth_values, sigma, seed)
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
