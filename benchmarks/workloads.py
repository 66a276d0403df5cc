"""The four benchmark workloads: inputs, ops and output checks.

A workload builds its inputs in its constructor (the set-up), then hands out
passes: each pass is a list of ops that covers the workload's inputs once.
An op runs through public modrec calls only, each wrapped by the tracer so a
traced run records one span per call.  After the op, outside the timed
region, its accuracy is measured against the planted truth and then its
outputs are checked against the computations in ``oracles``.  Accuracy is
taken before the checks, so it covers every op that returned an output,
whether its checks pass or not.  In a traced run an op may also replay
itself through the finer public calls that the op makes internally, so its
layers show in the trace.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import oracles as orc
from modrec import baselines, certificate, cli, fileio, graphs, harness, interpolate, knn, linalg, qcqp, unwrap
from modrec.circle import circle_arg
from modrec.grid import GridField, UniformGrid
from oracles import require

SIGMA = 0.12  # noise level of every kNN and relaxation field, in turns


@dataclass(frozen=True)
class Quality:
    """Accuracy of one circle-valued estimate against its planted truth."""

    sq_sum: float  # sum over points of the squared aligned error, turns^2
    points: int
    chord_inf: float  # max_i |exp(2 pi i ghat_i) - exp(2 pi i truth_i)|


@dataclass
class Op:
    kind: str
    run: Callable  # run(tracer) -> output; the timed part
    quality: Callable  # quality(output) -> list of Quality
    check: Callable  # check(output); raises CheckFailure
    replay: Optional[Callable] = None  # replay(tracer, output), traced runs only
    # Message of the check this op fails by a known program fault; such a
    # failure counts in `failed` but does not make the run incorrect.
    known_fault: Optional[str] = None


def _op_seed(seed: int, counter: int) -> int:
    return seed * 1_000_003 + counter


# ---------------------------------------------------------------------------
# knn_recover


# d -> (points per axis, tiny points per axis, planted function
# (amplitudes, frequencies, phases, offset)).  Each function's Lipschitz
# constant M keeps 2*delta + M/(m-1) < 1/2 at both sizes.
KNN_FIELDS = {
    1: (250_000, 2_000, ((1.5,), (2,), (0.3,), 0.4)),
    2: (500, 200, ((0.5, 0.4), (1, 1), (0.3, 0.9), 0.2)),
    3: (63, 36, ((0.3, 0.2, 0.15), (1, 1, 1), (0.2, 1.1, 2.0), -0.3)),
}
KNN_EVAL_POINTS = 256
KNN_BRUTE_POINTS = 16


class KnnRecover:
    """One op is one in-memory recovery of a planted field at each of d = 1, 2, 3.

    A pass is one op.  In a traced run each recovery is a part of the op
    labelled d1, d2 or d3, so the per-layer metrics split by d.
    """

    name = "knn_recover"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.counter = 0
        self.fields = {}
        for d, (m_full, m_tiny, params) in KNN_FIELDS.items():
            m = m_tiny if tiny else m_full
            func = harness.PlantedFunction(*params)
            points = np.random.default_rng(1000 + d).uniform(0.0, 1.0, size=(KNN_EVAL_POINTS, d))
            self.fields[d] = {
                "m": m,
                "params": params,
                "func": func,
                "lipschitz": orc.planted_lipschitz(params),
                "truth": orc.planted_values(params, orc.grid_points(d, m)),
                "points": points,
                "points_truth": orc.planted_values(params, points),
            }

    def next_pass(self):
        return [self._op()]

    def _op(self) -> Op:
        op_seed = _op_seed(self.seed, self.counter)
        self.counter += 1
        rng = np.random.default_rng([self.seed, op_seed])
        samples = {}
        for d, f in self.fields.items():
            corners = [(0,) * d, (f["m"] - 1,) * d]
            samples[d] = corners + [tuple(r) for r in rng.integers(0, f["m"], size=(KNN_BRUTE_POINTS - 2, d))]

        def run(tr):
            outs = {}
            for d, f in self.fields.items():
                spec = harness.SyntheticSpec(function=f["func"], d=d, m=f["m"], sigma=SIGMA, seed=op_seed)
                with tr.part(f"d{d}"):
                    outs[d] = _recover(tr, spec, f["points"])
            return outs

        def quality(outs):
            return [knn_quality(outs[d], f) for d, f in self.fields.items()]

        def check(outs):
            for d, f in self.fields.items():
                check_knn(outs[d], f, d, samples[d])

        return Op(kind="recover", run=run, quality=quality, check=check)


def _recover(tr, spec, points) -> dict:
    d = spec.d
    data = tr.call("harness.generate", harness.generate, spec)
    n = data.noisy_mod.grid.n
    k = tr.call("knn.choose_k_practical", knn.choose_k_practical, n, d=d)
    den = tr.call("knn.denoise", knn.denoise, data.noisy_mod, k)
    unw = tr.call("unwrap.unwrap_multid", unwrap.unwrap_multid, den.ghat)
    field = unw.field
    met = tr.call("harness.metrics", harness.metrics, field, den.ghat, data.noisy_mod, data.truth)
    model = tr.call("interpolate.fit", interpolate.fit, field)
    values = tr.call("interpolate.evaluate", interpolate.evaluate, model, points)
    tr.count(f"knn.k.d{d}", k)
    tr.count("knn.zero_resultants", den.zero_resultants)
    return {"data": data, "k": k, "den": den, "unw": unw, "met": met, "values": values}


def _aligned_quality(ftilde, truth, chord: float) -> Quality:
    """Squared error of ftilde + q against the truth, q the benchmark's own offset."""
    ftilde = np.asarray(ftilde, dtype=float)
    q = orc.integer_offset(ftilde, truth)
    return Quality(float(np.sum((ftilde + q - truth) ** 2)), int(truth.size), chord)


def knn_quality(out, f) -> Quality:
    return _aligned_quality(out["unw"].ftilde, f["truth"], orc.chord_inf(out["den"].ghat.values, f["truth"]))


def check_knn(out, f, d: int, sample) -> None:
    m, truth, lip = f["m"], f["truth"], f["lipschitz"]
    n = m ** d
    what = f"knn d={d}"
    require(
        float(np.max(np.abs(out["data"].truth.values - truth))) <= 1e-12,
        f"{what}: generated truth differs from the planted formula",
    )
    require(out["k"] == orc.practical_k(n, d), f"{what}: k={out['k']} is not the practical rule")
    y = out["data"].noisy_mod.values
    ghat = out["den"].ghat.values
    for idx in sample:
        want = orc.box_average(y, idx, out["k"])
        require(
            float(orc.wrap_dist(ghat[idx], want)) <= 1e-9,
            f"{what}: ghat at {idx} differs from the brute-force box average",
        )
    ftilde = out["unw"].ftilde
    q, delta = orc.check_exact_recovery(ftilde, ghat, truth, lip, m, what)
    met = out["met"]
    require(met.q_star == q, f"{what}: metrics q*={met.q_star}, expected {q}")
    sq = float(np.sum((ftilde + q - truth) ** 2))
    require(
        abs(met.aligned_mse - sq / n) <= 1e-9 * max(sq / n, 1e-12),
        f"{what}: aligned_mse {met.aligned_mse!r} != {sq / n!r}",
    )
    err = float(np.max(np.abs(np.asarray(out["values"]) + q - f["points_truth"])))
    require(
        err <= delta + lip / (m - 1) + 1e-9,
        f"{what}: interpolant error {err:.3e} exceeds delta + M/(m-1)",
    )


# ---------------------------------------------------------------------------
# torus_certify

PATH_LAMBDA = 0.02  # lam * Delta = 0.04 on paths
PATH_SIGMA = 0.001  # noise in turns, small enough for the closed-form conditions
# Twelve planted paths of one size: their costs vary with the noise, and a
# class of like instances keeps the median and tail steady from seed to seed.
PATH_SIZES = (28,) * 12
PATH_SIZES_TINY = (12, 16)
# Fixed 5x5 grid instances (lam, noise stream); independent of --seed.  The
# lam = 5 ones hit the absolute 1e-8 complementary-slackness threshold of
# certificate.kkt_check and are reported not tight although A is positive
# definite: they are the workload's failed ops.
GRID_INSTANCES = ((1.0, 4), (1.0, 9), (5.0, 0), (5.0, 2))
KKT_FAULT_LAMBDA = 5.0
KKT_FAULT = "verdict tight=False but Schur test gives True"
GRID_SIGMA = 0.15
GRID_AMPLITUDE = 0.05


def _grid_instance(lam: float, stream: int):
    ii, jj = np.indices((5, 5)) / 4.0
    f = GRID_AMPLITUDE * np.sin(2.0 * np.pi * (ii + 0.5 * jj) + 0.3 * stream)
    eta = np.random.default_rng([7, stream]).standard_normal(25)
    return f.reshape(-1), np.exp(2j * np.pi * (f.reshape(-1) + GRID_SIGMA * eta))


def _path_instance(n: int, j: int, seed: int):
    x = orc.axis_coords(n)
    f = (0.15 + 0.01 * j) * np.sin(2.0 * np.pi * x + 0.5 * j)
    eta = np.random.default_rng([seed, n, j]).standard_normal(n)
    return f, np.exp(2j * np.pi * (f + PATH_SIGMA * eta))


class TorusCertify:
    """One op certifies one instance: solve_qcqp then tightness_verdict.

    A pass is the fixed instance list: planted paths first, then 5x5 grids.
    """

    name = "torus_certify"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.instances = []
        for j, n in enumerate(PATH_SIZES_TINY if tiny else PATH_SIZES):
            f, z = _path_instance(n, j, seed)
            h = np.exp(2j * np.pi * f)
            L = orc.path_laplacian(n)
            delta = float(np.max(np.abs(z - h)))
            smooth = float(np.max(np.abs(np.diff(h))))
            lam_delta = 2.0 * PATH_LAMBDA
            cond = delta + np.sqrt(8.0 / 7.0 * (3.0 * delta + lam_delta * (smooth ** 2 + np.sqrt(2.0))))
            require(cond <= np.sqrt(2.0) / 3.0 and lam_delta <= 0.125,
                    "path instance outside the closed-form conditions")
            self._add("path", graphs.path_graph(n), L, PATH_LAMBDA, f, z, lam_delta, delta, smooth)
        for lam, stream in GRID_INSTANCES:
            f, z = _grid_instance(lam, stream)
            fault = KKT_FAULT if lam == KKT_FAULT_LAMBDA else None
            self._add("grid", graphs.grid_graph(2, 5), orc.grid_laplacian(2, 5), lam, f, z, 8.0 * lam, None, None,
                      fault)

    def _add(self, kind, graph, L, lam, f, z, lam_delta, delta, smooth, known_fault=None):
        problem = qcqp.QcqpProblem(z=z, graph=graph, lam=lam)
        self.instances.append(
            {"kind": kind, "problem": problem, "L": L, "lam": lam, "truth": f, "z": z,
             "lam_delta": lam_delta, "delta": delta, "smooth": smooth, "known_fault": known_fault}
        )

    def next_pass(self):
        return [self._op(inst) for inst in self.instances]

    def _op(self, inst) -> Op:
        kind = inst["kind"]

        def run(tr):
            rep = tr.call("qcqp.solve_qcqp", qcqp.solve_qcqp, inst["problem"])
            verdict = tr.call("certificate.tightness_verdict", certificate.tightness_verdict, inst["problem"], rep.ghat)
            tr.count(f"qcqp.iterations.{kind}", rep.iterations)
            return {"report": rep, "verdict": verdict}

        def replay(tr, out):
            # The certificate's eigendecomposition on its own, outside the op's timing.
            S = tr.call("certificate.dual_certificate", certificate.dual_certificate,
                        out["report"].ghat, inst["lam"], inst["L"], inst["z"])
            tr.call("linalg.hermitian_eig", linalg.hermitian_eig, S)

        return Op(kind=kind, run=run, quality=lambda out: [torus_quality(out, inst)],
                  check=lambda out: check_torus(out, inst), replay=replay, known_fault=inst["known_fault"])


def torus_quality(out, inst) -> Quality:
    g = np.asarray(out["report"].ghat)
    err = float(np.max(np.abs(g - np.exp(2j * np.pi * inst["truth"]))))
    wrap = orc.wrap_dist(orc.turns(g), inst["truth"])
    return Quality(float(np.sum(wrap ** 2)), g.size, err)


def check_torus(out, inst) -> None:
    rep, verdict = out["report"], out["verdict"]
    what = f"torus {inst['kind']} n={inst['z'].size} lam={inst['lam']}"
    g = np.asarray(rep.ghat)
    require(rep.converged, f"{what}: solver did not converge")
    require(float(np.max(np.abs(np.abs(g) - 1.0))) <= 1e-12, f"{what}: ghat leaves the torus")
    grad = orc.riemannian_grad_inf(inst["L"], inst["lam"], inst["z"], g)
    require(grad <= 1e-7, f"{what}: Riemannian gradient {grad:.2e} above 1e-7")
    lmin, alignment = orc.schur_margin(inst["L"], inst["lam"], inst["z"], g)
    require(abs(lmin) > 1e-6, f"{what}: Schur test undecided, lambda_min(A)={lmin:.2e}")
    tight = lmin > 0.0 and alignment > 0.0
    require(
        bool(verdict.tight) == tight,
        f"{what}: verdict tight={bool(verdict.tight)} but Schur test gives {tight} "
        f"(lambda_min(A)={lmin:.3f}, Re(z*g)={alignment:.3f})",
    )
    if inst["kind"] == "path":
        err = float(np.max(np.abs(g - np.exp(2j * np.pi * inst["truth"]))))
        bound = orc.linf_bound_sq(inst["delta"], inst["lam_delta"], inst["smooth"])
        require(err ** 2 <= bound, f"{what}: ||g-h||^2 = {err ** 2:.3e} above the l-inf bound {bound:.3e}")


# ---------------------------------------------------------------------------
# relax_sweep

RELAX_KAPPA = 0.04
# kind -> (d, points, tiny points, function)
RELAX_FIELDS = {
    "path": (1, 4096, 256, "example1"),
    "grid": (2, 256, 64, ((0.3, 0.25), (1, 1), (0.4, 1.3), 0.1)),
}
RELAX_PASS = ("path", "grid", "grid")


class RelaxSweep:
    """One op is one monte_carlo call: one trial of ucqp and trs on one field.

    A pass holds one path field and two grid fields, so the two op classes
    come in unequal numbers.
    """

    name = "relax_sweep"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.counter = 0
        self.fields = {}
        for kind, (d, n_full, n_tiny, fn) in RELAX_FIELDS.items():
            n = n_tiny if tiny else n_full
            m = round(n ** (1.0 / d))
            if fn == "example1":
                func, truth = fn, np.sin(4.0 * np.pi * orc.axis_coords(m))
            else:
                func, truth = harness.PlantedFunction(*fn), orc.planted_values(fn, orc.grid_points(d, m))
            spectrum = orc.PathSpectrum(n) if d == 1 else orc.DenseSpectrum(orc.grid_laplacian(d, m))
            self.fields[kind] = {"d": d, "m": m, "n": n, "func": func, "truth": truth, "spectrum": spectrum}

    def next_pass(self):
        return [self._op(kind) for kind in RELAX_PASS]

    def _op(self, kind: str) -> Op:
        f = self.fields[kind]
        op_seed = _op_seed(self.seed, self.counter)
        self.counter += 1
        config = harness.McConfig(
            function=f["func"], d=f["d"], sigma=SIGMA, n_sweep=(f["n"],),
            methods=("ucqp", "trs"), trials=1, base_seed=op_seed, kappa=RELAX_KAPPA,
        )
        spec = harness.SyntheticSpec(function=f["func"], d=f["d"], m=f["m"], sigma=SIGMA, seed=op_seed)

        def run(tr):
            return tr.call("harness.monte_carlo", harness.monte_carlo, config, collect_trials=True)

        def check(out):
            check_relax(out, f, spec)

        def replay(tr, out):
            replay_relax(tr, out, f, kind, spec)

        return Op(kind=kind, run=run, quality=relax_quality, check=check, replay=replay)


def relax_quality(out) -> list:
    """The program's own aligned MSE and sup wrap error of each trial; the
    checks compare both with the benchmark's direct solves."""
    return [Quality(res.aligned_mse * n, n, 2.0 * np.sin(np.pi * res.wrap_sup_denoised)) for n, res in out[1]]


def check_relax(out, f, spec) -> None:
    summary, trials = out
    what = f"relax d={f['d']} n={f['n']}"
    for cell in summary.cells:
        require(cell.failures == 0, f"{what}: {cell.method} failed {cell.failures} trial(s)")
    require(sorted(r.method for _, r in trials) == ["trs", "ucqp"], f"{what}: expected one ucqp and one trs trial")
    data = harness.generate(spec)
    truth = f["truth"]
    require(
        float(np.max(np.abs(data.truth.values - truth))) <= 1e-12,
        f"{what}: generated truth differs from the benchmark's formula",
    )
    noisy = data.noisy_mod.values
    z = np.exp(2j * np.pi * noisy.reshape(-1))
    lam = RELAX_KAPPA * f["n"] ** (10.0 / 12.0)
    for _, res in trials:
        solve = orc.ucqp_direct if res.method == "ucqp" else orc.trs_direct
        ghat = orc.turns(solve(f["spectrum"], z, lam)).reshape(truth.shape)
        wrap = orc.wrap_dist(ghat, truth)
        ftilde = orc.unwrap(ghat)
        q = orc.integer_offset(ftilde, truth)
        want = {
            "wrap_mse_noisy": float(np.mean(orc.wrap_dist(noisy, truth) ** 2)),
            "wrap_mse_denoised": float(np.mean(wrap ** 2)),
            "wrap_sup_denoised": float(np.max(wrap)),
            "aligned_mse": float(np.mean((ftilde + q - truth) ** 2)),
        }
        require(res.q_star == q, f"{what} {res.method}: q*={res.q_star}, direct solve gives {q}")
        for name, value in want.items():
            got = res.metric(name)
            require(
                abs(got - value) <= 1e-6 * abs(value) + 1e-12,
                f"{what} {res.method}: {name}={got!r}, direct solve gives {value!r}",
            )


def replay_relax(tr, out, f, kind, spec) -> None:
    """The calls monte_carlo makes for one trial, one span each; the
    resulting metrics must equal the op's trial results exactly."""
    _, trials = out
    config_lam = tr.call("baselines.lambda_schedule", baselines.lambda_schedule, RELAX_KAPPA, f["n"])
    data = tr.call("harness.generate", harness.generate, spec)
    grid = UniformGrid(d=f["d"], m=f["m"])
    for _, trial in trials:
        if f["d"] == 1:
            graph = tr.call("graphs.path_graph", graphs.path_graph, f["n"])
        else:
            graph = tr.call("graphs.grid_graph", graphs.grid_graph, f["d"], f["m"], 1)
        z = np.exp(2j * np.pi * data.noisy_mod.flat)
        if trial.method == "ucqp":
            res = tr.call("baselines.solve_ucqp", baselines.solve_ucqp, z, graph, config_lam)
            tr.count("baselines.ucqp_cg_iterations", res.iterations)
        else:
            res = tr.call("baselines.solve_trs", baselines.solve_trs, z, graph, config_lam)
            tr.count("baselines.trs_bisections", res.bisect_iterations)
        ghat = GridField.from_flat(grid, tr.call("circle.circle_arg", circle_arg, res.signal), kind="mod1")
        unw = tr.call("unwrap.unwrap_multid", unwrap.unwrap_multid, ghat)
        met = tr.call("harness.metrics", harness.metrics, unw.field, ghat, data.noisy_mod, data.truth,
                      method=trial.method, seed=spec.seed)
        require(met == trial, f"relax replay {kind} {trial.method}: metrics differ from monte_carlo")


# ---------------------------------------------------------------------------
# cli_roundtrip

CLI_M1 = (65_536, 2_000)  # example1 points, full and tiny
CLI_M2 = (256, 200)  # d = 2 points per axis, full and tiny
CLI_FIELD2 = KNN_FIELDS[2][2]
# The d = 2 field is the same file in every run: one noise realization per
# run would make the accuracy metrics swing with the seed.
CLI_FIELD2_SEED = 20_201
CLI_PASS = ("gen", "d1", "d2")


def run_cli(tr, name: str, argv) -> tuple:
    """modrec.cli.main in process, stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = tr.call(name, cli.main, argv)
    return rc, buf.getvalue()


class CliRoundtrip:
    """One op is one CLI command: gen of example1, recover on that file, or
    recover on a d = 2 field written in set-up.  A pass runs the three."""

    name = "cli_roundtrip"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.counter = 0
        self.dir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.m1 = CLI_M1[tiny]
        self.m2 = CLI_M2[tiny]
        self.paths = {key: os.path.join(workdir, key + ".gf") for key in
                      ("y1", "t1", "f1", "y2", "f2", "ry1", "rt1", "rf1", "rf2")}
        spec2 = harness.SyntheticSpec(harness.PlantedFunction(*CLI_FIELD2), 2, self.m2, SIGMA, CLI_FIELD2_SEED)
        fileio.write_field(self.paths["y2"], harness.generate(spec2).noisy_mod, seed=CLI_FIELD2_SEED)
        self.truth = {
            "d1": np.sin(4.0 * np.pi * orc.axis_coords(self.m1)),
            "d2": orc.planted_values(CLI_FIELD2, orc.grid_points(2, self.m2)),
        }
        self.lipschitz = {"d1": 4.0 * np.pi, "d2": orc.planted_lipschitz(CLI_FIELD2)}

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def next_pass(self):
        return [self._op(kind) for kind in CLI_PASS]

    def _op(self, kind: str) -> Op:
        p = self.paths
        if kind == "gen":
            seed = _op_seed(self.seed, self.counter)
            self.counter += 1
            argv = ["gen", "--func", "example1", "--d", "1", "--m", str(self.m1), "--sigma", str(SIGMA),
                    "--seed", str(seed), "--out", p["y1"], "--truth-out", p["t1"]]
            return Op(kind, lambda tr: run_cli(tr, "cli.gen", argv), lambda out: [],
                      lambda out: self._check_gen(out, seed), lambda tr, out: self._replay_gen(tr, seed))
        d = 1 if kind == "d1" else 2
        m = self.m1 if d == 1 else self.m2
        src, dst = (p["y1"], p["f1"]) if d == 1 else (p["y2"], p["f2"])
        argv = ["recover", "--in", src, "--k-rule", "practical", "--out", dst]
        return Op(kind, lambda tr: run_cli(tr, "cli.recover", argv),
                  lambda out: [self._recover_quality(kind, d, m, dst)],
                  lambda out: self._check_recover(out, kind, d, m, dst),
                  lambda tr, out: self._replay_recover(tr, kind, src, dst))

    def _check_gen(self, out, seed) -> None:
        rc, _ = out
        require(rc == 0, f"cli gen exited with {rc}")
        y = orc.check_gridfield(self.paths["y1"], 1, self.m1, "mod1", seed=seed)
        t = orc.check_gridfield(self.paths["t1"], 1, self.m1, "real", seed=seed)
        require(float(np.max(np.abs(t - self.truth["d1"]))) <= 1e-12, "cli gen: truth is not sin(4 pi x)")
        require(float(np.max(orc.wrap_dist(y, t))) <= 8.0 * SIGMA, "cli gen: noise beyond 8 sigma")

    def _recover_quality(self, kind, d, m, dst) -> Quality:
        ftilde = orc.read_gridfield(dst)[3].reshape((m,) * d)
        return _aligned_quality(ftilde, self.truth[kind], orc.chord_inf(ftilde, self.truth[kind]))

    def _check_recover(self, out, kind, d, m, dst) -> None:
        rc, stdout = out
        require(rc == 0, f"cli recover {kind} exited with {rc}")
        k = json.loads(stdout)["k"]
        require(k == orc.practical_k(m ** d, d), f"cli recover {kind}: k={k} is not the practical rule")
        ftilde = orc.check_gridfield(dst, d, m, "real")
        truth = self.truth[kind]
        orc.check_exact_recovery(ftilde, np.mod(ftilde, 1.0), truth, self.lipschitz[kind], m, f"cli recover {kind}")

    def _replay_gen(self, tr, seed) -> None:
        p = self.paths
        spec = harness.SyntheticSpec(function="example1", d=1, m=self.m1, sigma=SIGMA, seed=seed)
        data = tr.call("harness.generate", harness.generate, spec)
        tr.call("fileio.write_field", fileio.write_field, p["ry1"], data.noisy_mod, seed=seed)
        tr.call("fileio.write_field", fileio.write_field, p["rt1"], data.truth, seed=seed)
        for mine, theirs in (("ry1", "y1"), ("rt1", "t1")):
            _same_bytes(p[mine], p[theirs])
            tr.count("fileio.bytes_written", os.path.getsize(p[mine]))

    def _replay_recover(self, tr, kind, src, dst) -> None:
        mine = self.paths["r" + os.path.basename(dst)[:-3]]
        field = tr.call("fileio.read_field", fileio.read_field, src)
        k = tr.call("knn.choose_k_practical", knn.choose_k_practical, field.grid.n, d=field.grid.d, C=0.09)
        den = tr.call("knn.denoise", knn.denoise, field, k)
        unw = tr.call("unwrap.unwrap_multid", unwrap.unwrap_multid, den.ghat)
        tr.call("fileio.write_field", fileio.write_field, mine, unw.field)
        _same_bytes(mine, dst)
        tr.count("fileio.bytes_read", os.path.getsize(src))
        tr.count("fileio.bytes_written", os.path.getsize(mine))


def _same_bytes(a: str, b: str) -> None:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        require(fa.read() == fb.read(), f"replayed file {a} differs from {b}")


WORKLOADS = {w.name: w for w in (KnnRecover, TorusCertify, RelaxSweep, CliRoundtrip)}
