"""The benchmark's own tests: oracles, a tiny-size smoke run of every workload,
and negative tests showing each check rejects a corrupted output.

    python3 -m pytest -q benchmarks/test_bench.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import oracles as orc  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from modrec import baselines, graphs, harness, unwrap  # noqa: E402
from modrec.circle import circle_arg  # noqa: E402
from modrec.grid import GridField, UniformGrid  # noqa: E402


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


@pytest.fixture
def make(tmp_path):
    made = []

    def build(name):
        wl = workloads.WORKLOADS[name](seed=3, tiny=True, workdir=str(tmp_path / name))
        made.append(wl)
        return wl

    yield build
    for wl in made:
        if hasattr(wl, "close"):
            wl.close()


def _run_pass(wl, tracer):
    """Run one pass; returns [(op, output, error message or None)]."""
    results = []
    for op in wl.next_pass():
        with tracer.op(op.kind) as op_id:
            out = op.run(tracer)
        try:
            quality = op.quality(out)
            assert all(q.points > 0 and q.chord_inf >= 0.0 for q in quality)
            if op.replay is not None:
                with tracer.op(op.kind, replay_of=op_id):
                    op.replay(tracer, out)
            op.check(out)
            results.append((op, out, None))
        except orc.CheckFailure as exc:
            results.append((op, out, str(exc)))
    return results


# ---------------------------------------------------------------------------
# Oracles


def test_path_spectrum_diagonalizes_the_path_laplacian():
    n = 9
    spec = orc.PathSpectrum(n)
    L = orc.path_laplacian(n)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.allclose(spec.inverse(spec.forward(z)), z, atol=1e-13)
    assert np.isclose(np.linalg.norm(spec.forward(z)), np.linalg.norm(z))
    assert np.allclose(np.sort(spec.eigenvalues), np.linalg.eigvalsh(L), atol=1e-12)
    assert np.allclose(spec.inverse(spec.eigenvalues * spec.forward(z)), L @ z, atol=1e-12)


@pytest.mark.parametrize("spectrum", ["path", "grid"])
def test_direct_relaxation_solves(spectrum):
    if spectrum == "path":
        L, spec = orc.path_laplacian(16), orc.PathSpectrum(16)
    else:
        L = orc.grid_laplacian(2, 4)
        spec = orc.DenseSpectrum(L)
    n = L.shape[0]
    z = np.exp(2j * np.pi * np.random.default_rng(1).uniform(size=n))
    lam = 0.7
    g = orc.ucqp_direct(spec, z, lam)
    assert np.allclose(g + lam * L @ g, z, atol=1e-12)
    g = orc.trs_direct(spec, z, lam)
    assert abs(np.vdot(g, g).real - n) <= 1e-10 * n
    mu = np.vdot(g, z - lam * L @ g).real / np.vdot(g, g).real
    assert mu > 0 and np.allclose(lam * L @ g + mu * g, z, atol=1e-9)


def test_grid_laplacian_matches_grid_graph():
    assert np.array_equal(orc.grid_laplacian(2, 4), graphs.grid_graph(2, 4).laplacian())
    assert np.array_equal(orc.path_laplacian(6), graphs.path_graph(6).laplacian())


@pytest.mark.parametrize("d", [1, 2, 3])
def test_unwrap_oracle_matches_program(d):
    m = 9
    x = orc.grid_points(d, m)
    f = 2.3 * x.sum(axis=-1) + 0.6 * np.sin(5.0 * x[..., 0])
    g = np.mod(f + 0.02 * np.random.default_rng(d).standard_normal(f.shape), 1.0)
    field = GridField(UniformGrid(d=d, m=m), g, kind="mod1")
    assert np.allclose(orc.unwrap(g), unwrap.unwrap_multid(field).ftilde, atol=1e-12)


def test_tracer_self_time_subtracts_children():
    tr = tracing.Tracer()
    with tr.op("d1"):
        tr.call("knn.denoise", lambda: tr.call("unwrap.unwrap_multid", lambda: None))
    tr.spans[1].update(start=0.0, end=3.0)
    tr.spans[2].update(start=1.0, end=2.0)
    layers = tr.layer_metrics()
    assert layers["knn.denoise_s.d1"]["value"] == pytest.approx(2.0)
    assert layers["unwrap.unwrap_multid_s"]["value"] == pytest.approx(1.0)
    assert layers["knn.denoise_s.d2"]["value"] == 0.0
    assert set(layers) == {m["name"] for m in _benchmark_spec()["per_layer"]}


# ---------------------------------------------------------------------------
# Smoke: every workload at tiny size, traced, with its checks


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_tiny_pass(make, name):
    tracer = tracing.Tracer()
    results = _run_pass(make(name), tracer)
    failed = [(op, err) for op, _, err in results if err is not None]
    if name == "torus_certify":
        # The lam = 5 grid instances: positive definite A, verdict not tight.
        assert [op.kind for op, _ in failed] == ["grid", "grid"]
        assert all(op.known_fault and op.known_fault in err for op, err in failed)
        assert sum(op.known_fault is not None for op, _, _ in results) == 2
    else:
        assert failed == []
    layers = tracer.layer_metrics()
    touched = {
        "knn_recover": ["knn.denoise_s.d3", "harness.generate_s", "interpolate.evaluate_s"],
        "torus_certify": ["qcqp.solve_qcqp_s.path", "certificate.tightness_verdict_s.grid", "linalg.hermitian_eig_s"],
        "relax_sweep": ["graphs.grid_graph_s", "baselines.solve_trs_s.path", "baselines.solve_ucqp_s.grid"],
        "cli_roundtrip": ["cli.gen_s", "cli.recover_s", "fileio.read_field_s", "fileio.write_field_s"],
    }[name]
    assert all(layers[key]["value"] > 0.0 for key in touched)


# ---------------------------------------------------------------------------
# Negative tests: each check rejects a corrupted output


def test_knn_check_rejects_integer_jump(make):
    wl = make("knn_recover")
    (op,) = wl.next_pass()
    outs = op.run(tracing.NullTracer())
    op.check(outs)
    out = outs[2]
    ft = out["unw"].ftilde.copy()
    ft[ft.shape[0] // 2:] += 1.0
    out["unw"] = dataclasses.replace(out["unw"], ftilde=ft)
    with pytest.raises(orc.CheckFailure, match="knn d=2: recovery has 2 distinct integer offsets"):
        op.check(outs)


def test_knn_check_rejects_wrong_denoised_value(make):
    wl = make("knn_recover")
    (op,) = wl.next_pass()
    outs = op.run(tracing.NullTracer())
    out = outs[1]
    g = out["den"].ghat.values.copy()
    g[0] = np.mod(g[0] + 0.01, 1.0)
    out["den"] = dataclasses.replace(out["den"], ghat=GridField(out["den"].ghat.grid, g, kind="mod1"))
    with pytest.raises(orc.CheckFailure, match="brute-force box average"):
        op.check(outs)


def test_torus_accuracy_does_not_depend_on_the_checks(make):
    """The known-fault grids fail their checks but still count in the accuracy."""
    wl = make("torus_certify")
    op = next(op for op in wl.next_pass() if op.known_fault)
    out = op.run(tracing.NullTracer())
    (quality,) = op.quality(out)
    assert quality.points == 25 and 0.0 < quality.chord_inf < 2.0
    with pytest.raises(orc.CheckFailure, match=op.known_fault):
        op.check(out)


def test_torus_check_rejects_flipped_verdict(make):
    wl = make("torus_certify")
    op = wl.next_pass()[0]
    out = op.run(tracing.NullTracer())
    op.check(out)
    out["verdict"] = dataclasses.replace(out["verdict"], tight=not out["verdict"].tight)
    with pytest.raises(orc.CheckFailure, match="verdict tight=False"):
        op.check(out)


def test_relax_check_rejects_perturbed_solution(make):
    wl = make("relax_sweep")
    op = wl.next_pass()[0]
    summary, trials = op.run(tracing.NullTracer())
    op.check((summary, trials))
    n, trial = next((n, t) for n, t in trials if t.method == "ucqp")
    f = wl.fields["path"]
    data = harness.generate(harness.SyntheticSpec(f["func"], 1, f["m"], workloads.SIGMA, trial.seed))
    z = np.exp(2j * np.pi * data.noisy_mod.flat)
    res = baselines.solve_ucqp(z, graphs.path_graph(n), baselines.lambda_schedule(workloads.RELAX_KAPPA, n))
    signal = res.signal * np.exp(2j * np.pi * 1e-3 * np.random.default_rng(4).standard_normal(n))
    ghat = GridField.from_flat(data.noisy_mod.grid, circle_arg(signal), kind="mod1")
    bad = harness.metrics(unwrap.unwrap_multid(ghat).field, ghat, data.noisy_mod, data.truth,
                          method="ucqp", seed=trial.seed)
    trials = [(n, bad if t is trial else t) for n, t in trials]
    with pytest.raises(orc.CheckFailure, match="direct solve gives"):
        op.check((summary, trials))


def test_cli_check_rejects_swapped_rows(make):
    wl = make("cli_roundtrip")
    gen, rec, _ = wl.next_pass()
    gen.check(gen.run(tracing.NullTracer()))
    out = rec.run(tracing.NullTracer())
    rec.check(out)
    path = wl.paths["f1"]
    with open(path, encoding="ascii") as fh:
        lines = fh.readlines()
    lines[5], lines[6] = lines[6], lines[5]
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)
    with pytest.raises(orc.CheckFailure, match="lexicographic order"):
        rec.check(out)


def test_cli_check_rejects_short_value():
    values = [0.1, 1.0 / 3.0]
    path = os.path.join(HERE, "out", f"short-{os.getpid()}.gf")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("#GRIDFIELD v1 d=1 m=2 kind=real\n")
            fh.write(f"1,{values[0]!r}\n2,{values[1]:.12g}\n")
        with pytest.raises(orc.CheckFailure, match="round-trip"):
            orc.check_gridfield(path, 1, 2, "real")
    finally:
        os.remove(path)


# ---------------------------------------------------------------------------
# The command line


def _run(args, cwd):
    cmd = [sys.executable, os.path.join(cwd, "benchmarks", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    spec = _benchmark_spec()
    proc = _run(["--workload", "relax_sweep", "--seed", "2", "--seconds", "1", "--trace", trace, "--tiny"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 40
    want = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == "0" else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_command_reports_incorrect_on_an_unexpected_failure(tmp_path):
    """A check that fails on every op, outside the known fault, makes the run incorrect."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    with open(tmp_path / "benchmarks" / "workloads.py", "a", encoding="ascii") as fh:
        fh.write("\ndef check_relax(out, f, spec):\n    require(False, 'corrupted')\n")
    proc = _run(["--workload", "relax_sweep", "--seed", "2", "--seconds", "1", "--trace", "0", "--tiny"],
                str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "knn_recover", "--seed", "1", "--seconds", "1", "--trace", "0"], str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
