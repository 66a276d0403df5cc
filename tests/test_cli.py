import json

import numpy as np
import pytest

from modrec.baselines import solve_trs, solve_ucqp
from modrec.certificate import tightness_verdict
from modrec.circle import circle_arg, circle_embed
from modrec.cli import main
from modrec.fileio import read_elevation, read_field, read_report, report_to_json, write_field
from modrec.graphs import path_graph
from modrec.grid import GridField
from modrec.harness import McConfig, SyntheticSpec, elevation_demo, generate, monte_carlo, run_pipeline
from modrec.knn import choose_k_practical
from modrec.qcqp import QcqpProblem, solve_qcqp


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_denoise_unwrap_recover_round_trip(tmp_path, capsys):
    y = tmp_path / "y.gf"
    code, _, _ = run(
        capsys, "gen", "--func", "example1", "--d", "1", "--m", "500",
        "--sigma", "0.12", "--seed", "7", "--out", str(y),
    )
    assert code == 0 and y.exists()

    ghat = tmp_path / "ghat.gf"
    code, out, _ = run(
        capsys, "denoise", "--in", str(y), "--k-rule", "practical", "--C", "0.09",
        "--out", str(ghat),
    )
    assert code == 0
    assert json.loads(out)["k"] == choose_k_practical(500, 1, 0.09)

    ft = tmp_path / "ft.gf"
    code, _, _ = run(capsys, "unwrap", "--in", str(ghat), "--out", str(ft))
    assert code == 0

    f2 = tmp_path / "f2.gf"
    code, _, _ = run(
        capsys, "recover", "--in", str(y), "--k-rule", "practical", "--C", "0.09",
        "--out", str(f2),
    )
    assert code == 0
    # CLI is a thin adapter: identical to the library composition
    spec = SyntheticSpec(function="example1", d=1, m=500, sigma=0.12, seed=7)
    data = generate(spec)
    pipe = run_pipeline(data.noisy_mod, choose_k_practical(500, 1, 0.09))
    assert np.array_equal(read_field(f2).values, pipe.ftilde.values)
    assert np.array_equal(read_field(ft).values, pipe.ftilde.values)


def test_gen_seed_determines_output_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.gf", tmp_path / "b.gf"
    for path in (a, b):
        code, _, _ = run(
            capsys, "gen", "--func", "example2", "--d", "1", "--m", "200",
            "--sigma", "0.1", "--seed", "42", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_errors_exit_1(capsys):
    code, _, err = run(capsys, "gen", "--func", "example1")  # missing required flags
    assert code == 1 and err
    code, _, err = run(capsys, "denoise", "--in", "x.gf", "--out", "y.gf")  # needs --k
    assert code == 1
    code, _, _ = run(capsys, "nonsense")
    assert code == 1


@pytest.mark.parametrize("command", ["qcqp", "ucqp", "trs", "certify"])
@pytest.mark.parametrize(
    "flags",
    [
        ("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"), ("--tol", "x"),
        ("--lambda", "-1"), ("--lambda", "nan"), ("--lambda", "inf"),
        ("--graph", "ring"), ("--graph", "knn-grid:x"),
    ],
)
def test_bad_solver_flag_values_exit_1_before_reading(tmp_path, capsys, command, flags):
    # The input file does not exist: a data error (exit 2) would mean it was read first.
    code, out, err = run(capsys, command, "--in", str(tmp_path / "absent.gf"), *flags)
    assert code == 1 and err.startswith("usage error") and not out


@pytest.mark.parametrize(
    "flags", [("--methods", "knn,bogus"), ("--d", "2", "--n-sweep", "10"), ("--n-sweep", "1")]
)
def test_mc_config_rejections_exit_1(capsys, flags):
    code, out, err = run(capsys, "mc", *flags)
    assert code == 1 and err.startswith("usage error") and not out


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _field_bytes(path, fld, seed=None) -> bytes:
    write_field(path, fld, seed=seed)
    return path.read_bytes()


def test_omitted_flags_take_the_library_defaults(tmp_path, capsys):
    lib = tmp_path / "lib"
    lib.mkdir()
    y = tmp_path / "y.gf"
    code, _, _ = run(
        capsys, "gen", "--func", "example1", "--d", "1", "--m", "300",
        "--sigma", "0.12", "--seed", "7", "--out", str(y),
    )
    data = generate(SyntheticSpec(function="example1", d=1, m=300, sigma=0.12, seed=7))
    assert code == 0 and y.read_bytes() == _field_bytes(lib / "y.gf", data.noisy_mod, seed=7)

    f = tmp_path / "f.gf"
    code, out, _ = run(capsys, "recover", "--in", str(y), "--k-rule", "practical", "--out", str(f))
    k = choose_k_practical(300, d=1)
    pipe = run_pipeline(data.noisy_mod, k)
    assert code == 0 and f.read_bytes() == _field_bytes(lib / "f.gf", pipe.ftilde)
    assert out == _json({"k": k, "itoh_margin": pipe.unwrap.itoh_margin})

    # Solver commands without --tol.
    z, graph, lam = circle_embed(data.noisy_mod.flat), path_graph(300), 0.05
    problem = QcqpProblem(z=z, graph=graph, lam=lam)
    rep = solve_qcqp(problem)
    torus = {
        "objective": rep.objective, "grad_inf_norm": rep.grad_inf_norm,
        "iterations": rep.iterations, "converged": rep.converged,
    }
    uc, tr = solve_ucqp(z, graph, lam), solve_trs(z, graph, lam)
    cert = tightness_verdict(problem, rep.ghat)
    expected = {
        "qcqp": (rep.ghat, torus),
        "ucqp": (uc.signal, {"residual_inf": uc.residual_inf}),
        "trs": (tr.signal, {"mu": tr.mu, "norm_sq": tr.norm_sq}),
        "certify": (None, {
            **torus, "tight": cert.tight, "indeterminate": cert.indeterminate,
            "schur_min_eig": cert.schur_min_eig, "threshold": cert.threshold,
        }),
    }
    for command, (signal, info) in expected.items():
        dst = tmp_path / f"{command}.out"
        code, out, _ = run(capsys, command, "--in", str(y), "--lambda", "0.05", "--out", str(dst))
        assert code == 0 and out == _json(info), command
        if signal is None:
            assert dst.read_text() == report_to_json(info)
        else:
            ghat = GridField.from_flat(data.noisy_mod.grid, circle_arg(signal), kind="mod1")
            assert dst.read_bytes() == _field_bytes(lib / f"{command}.gf", ghat), command

    report, csv = tmp_path / "mc.json", tmp_path / "mc.csv"
    code, out, _ = run(
        capsys, "mc", "--n-sweep", "64,256", "--trials", "2", "--methods", "knn,ucqp,trs",
        "--out", str(report), "--csv", str(csv),
    )
    summary = monte_carlo(McConfig(n_sweep=(64, 256), trials=2, methods=("knn", "ucqp", "trs")))
    assert code == 0 and out == _json(summary.to_report())
    assert report.read_text() == report_to_json(summary.to_report())
    assert csv.read_text() == summary.to_csv()

    terrain = tmp_path / "terrain.txt"
    ax = np.linspace(-1, 1, 24)
    cone = 700.0 * (1.0 - np.maximum(np.abs(ax[:, None]), np.abs(ax[None, :])))
    terrain.write_text("\n".join(" ".join(f"{v:.6f}" for v in row) for row in cone) + "\n")
    out_dir = tmp_path / "demo"
    code, out, _ = run(capsys, "demo-elevation", "--in", str(terrain), "--out-dir", str(out_dir))
    demo = elevation_demo(read_elevation(terrain))
    doc = json.loads(out)
    assert code == 0 and (doc["scale"], doc["sigma"], doc["k"]) == (demo.scale, demo.sigma, demo.k)
    assert doc["denoised"]["aligned_mse"] == demo.metrics_denoised.aligned_mse
    assert doc["raw"]["wrap_mse"] == demo.metrics_raw.wrap_mse_denoised
    for name, fld in (("truth", demo.truth), ("noisy_mod", demo.noisy_mod), ("denoised_mod", demo.ghat),
                      ("unwrapped", demo.ftilde), ("unwrapped_raw", demo.ftilde_raw)):
        expect = _field_bytes(lib / f"{name}.gf", fld, seed=demo.seed)
        assert (out_dir / f"{name}.gf").read_bytes() == expect, name


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "denoise", "--in", str(tmp_path / "absent.gf"), "--k", "3",
        "--out", str(tmp_path / "o.gf"),
    )
    assert code == 2 and err


def test_malformed_field_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.gf"
    bad.write_text("#GRIDFIELD v1 d=1 m=3 kind=mod1\n1,0.1\n2,0.2\n")
    code, _, err = run(
        capsys, "unwrap", "--in", str(bad), "--out", str(tmp_path / "o.gf")
    )
    assert code == 2 and "data error" in err


def test_bad_header_value_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.gf"
    bad.write_text("#GRIDFIELD v1 d=1 m=1 kind=mod1\n1,0.1\n")
    code, _, err = run(
        capsys, "unwrap", "--in", str(bad), "--out", str(tmp_path / "o.gf")
    )
    assert code == 2 and "data error: line 1:" in err


def test_trs_hard_case_exits_3(tmp_path, capsys):
    z = tmp_path / "z.gf"
    z.write_text("#GRIDFIELD v1 d=1 m=2 kind=mod1\n1,0\n2,0.5\n")
    code, _, err = run(
        capsys, "trs", "--in", str(z), "--graph", "path", "--lambda", "1.0",
        "--out", str(tmp_path / "g.gf"),
    )
    assert code == 3 and "numeric error" in err


def test_certify_tight_instance(tmp_path, capsys):
    from modrec.circle import mod1

    z = tmp_path / "z.gf"
    n = 12
    x = np.arange(n) / (n - 1)
    vals = np.asarray(mod1(0.05 * np.sin(2 * np.pi * x)))
    lines = ["#GRIDFIELD v1 d=1 m=12 kind=mod1"]
    lines += [f"{i + 1},{format(v, '.17g')}" for i, v in enumerate(vals)]
    z.write_text("\n".join(lines) + "\n")
    report_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys, "certify", "--in", str(z), "--graph", "path", "--lambda", "0.02",
        "--out", str(report_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tight"] is True and doc["converged"] is True
    assert doc["schur_min_eig"] > doc["threshold"] > 0.0 and doc["indeterminate"] is False
    assert not {"eigenvalues", "min_eig", "psd", "rank_n", "null_multiplicity"} & doc.keys()
    assert read_report(report_path)["tight"] is True


def test_qcqp_and_ucqp_commands(tmp_path, capsys):
    z = tmp_path / "z.gf"
    code, _, _ = run(
        capsys, "gen", "--func", "example1", "--d", "1", "--m", "40",
        "--sigma", "0.05", "--seed", "3", "--out", str(z),
    )
    assert code == 0
    out_g = tmp_path / "g.gf"
    code, out, _ = run(
        capsys, "qcqp", "--in", str(z), "--graph", "path", "--lambda", "0.05",
        "--out", str(out_g),
    )
    assert code == 0 and json.loads(out)["converged"] is True
    assert read_field(out_g).kind == "mod1"
    code, out, _ = run(
        capsys, "ucqp", "--in", str(z), "--graph", "knn-grid:1", "--lambda", "0.5",
        "--out", str(out_g),
    )
    assert code == 0 and json.loads(out)["residual_inf"] < 1e-10


def test_mc_and_rate_commands(tmp_path, capsys):
    report = tmp_path / "mc.json"
    csv = tmp_path / "mc.csv"
    code, _, _ = run(
        capsys, "mc", "--func", "example1", "--n-sweep", "64,128,256", "--trials", "2",
        "--sigma", "0.1", "--seed", "5", "--methods", "knn", "--out", str(report),
        "--csv", str(csv),
    )
    assert code == 0 and report.exists()
    assert csv.read_text().startswith("n,method,metric,mean,std")
    code, out, _ = run(
        capsys, "rate", "--report", str(report), "--method", "knn",
        "--metric", "wrap_sup_denoised",
    )
    assert code == 0
    assert "slope" in json.loads(out)
    code, out, _ = run(capsys, "rate", "--ns", "10,100,1000", "--errors", "0.3,0.1,0.03")
    assert code == 0


def test_interp_command(tmp_path, capsys):
    f = tmp_path / "f.gf"
    lines = ["#GRIDFIELD v1 d=1 m=3 kind=real", "1,0", "2,1", "3,2"]
    f.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "interp", "--in", str(f), "--at", "0.25")
    assert code == 0
    assert json.loads(out)["values"]["0.25"] == pytest.approx(0.5)
    fine = tmp_path / "fine.gf"
    code, _, _ = run(
        capsys, "interp", "--in", str(f), "--resample", "5", "--out", str(fine)
    )
    assert code == 0
    assert np.allclose(read_field(fine).values, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_demo_elevation_command(tmp_path, capsys):
    terrain = tmp_path / "terrain.txt"
    m = 24
    ax = np.linspace(-1, 1, m)
    cone = 700.0 * (1.0 - np.maximum(np.abs(ax[:, None]), np.abs(ax[None, :])))
    terrain.write_text("\n".join(" ".join(f"{v:.6f}" for v in row) for row in cone) + "\n")
    out_dir = tmp_path / "demo"
    code, out, _ = run(
        capsys, "demo-elevation", "--in", str(terrain), "--scale", "500",
        "--sigma", "0.05", "--k", "9", "--seed", "2", "--out-dir", str(out_dir),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["itoh_satisfied"] is True
    for name in ("truth", "noisy_mod", "denoised_mod", "unwrapped", "unwrapped_raw"):
        assert (out_dir / f"{name}.gf").exists()
    assert (out_dir / "report.json").exists()
