import json

import numpy as np
import pytest

from modrec import baselines
from modrec.baselines import HardCaseError, solve_trs, solve_ucqp
from modrec.certificate import tightness_verdict
from modrec.circle import circle_arg, circle_embed
from modrec.cli import main
from modrec.fileio import read_elevation, read_field, read_report, report_to_json, write_field
from modrec.graphs import path_graph
from modrec.grid import GridField, UniformGrid
from modrec.harness import McConfig, PlantedFunction, SyntheticSpec, elevation_demo, generate, monte_carlo, run_pipeline
from modrec.knn import choose_k_expected_risk, choose_k_practical, choose_k_sup_norm, denoise
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


@pytest.mark.parametrize(
    "flags, k",
    [
        (("--k", "7"), 7),
        (("--k-rule", "expected", "--sigma", "0.1", "--M", "2"), choose_k_expected_risk(1, 0.1, 2.0, 300)),
        (("--k-rule", "supnorm"), choose_k_sup_norm(1, 0.12, 1.0, 300).k),
        (("--k-rule", "practical", "--C", "1e308"), 300),
    ],
)
def test_denoise_and_recover_ghat_match_the_library(tmp_path, capsys, flags, k):
    data = generate(SyntheticSpec(function="example1", d=1, m=300, sigma=0.12, seed=7))
    y, ghat, ft, ghat_out = (tmp_path / f"{name}.gf" for name in ("y", "ghat", "ft", "ghat_out"))
    write_field(y, data.noisy_mod)
    code, out, _ = run(capsys, "denoise", "--in", str(y), *flags, "--out", str(ghat))
    den = denoise(data.noisy_mod, k)
    assert code == 0 and out == _json({"k": k, "zero_resultants": den.zero_resultants})
    assert ghat.read_bytes() == _field_bytes(tmp_path / "lib.gf", den.ghat)
    code, out, _ = run(
        capsys, "recover", "--in", str(y), *flags, "--out", str(ft), "--ghat-out", str(ghat_out)
    )
    pipe = run_pipeline(data.noisy_mod, k)
    assert code == 0 and out == _json({"k": k, "itoh_margin": pipe.unwrap.itoh_margin})
    assert ghat_out.read_bytes() == ghat.read_bytes()
    assert ft.read_bytes() == _field_bytes(tmp_path / "lib.gf", pipe.ftilde)


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
        ("--lambda", "x"), ("--lambda", "1e400"),
        ("--graph",), ("--graph", "knn-grid:1.5"), ("--graph", "path:1"),
        ("--lambda", "-1"), ("--lambda", "nan"), ("--lambda", "inf"),
        ("--graph", "ring"), ("--graph", "knn-grid:x"), ("--graph", "knn-grid:0"),
        ("--graph", "knn-grid:-1"),
    ],
)
def test_bad_solver_flag_values_exit_1_before_reading(tmp_path, capsys, command, flags):
    # The input file does not exist: a data error (exit 2) would mean it was read first.
    code, out, err = run(capsys, command, "--in", str(tmp_path / "absent.gf"), *flags)
    assert code == 1 and err.startswith("usage error") and not out
    # Without --in, the flag value is still the error reported.
    code, out, err = run(capsys, command, *flags)
    assert code == 1 and err.startswith(f"usage error: argument {flags[0]}: ") and not out


@pytest.mark.parametrize(
    "flags",
    [
        ("--methods", "knn,bogus"), ("--d", "2", "--n-sweep", "10"), ("--n-sweep", "1"),
        ("--trials", "-1", "--n-sweep", "16"), ("--trials", "0", "--n-sweep", "16"),
        ("--d", "2", "--func", "example1", "--n-sweep", "16"),
        ("--sigma=-1", "--n-sweep", "16"), ("--sigma", "nan", "--n-sweep", "16"),
        ("--C=-1", "--n-sweep", "16"), ("--C", "nan", "--n-sweep", "16"),
        ("--kappa=-1", "--methods", "ucqp", "--n-sweep", "16"),
        ("--n-sweep", ""), ("--n-sweep", "16,16"),
        ("--methods", "", "--n-sweep", "16"), ("--methods", "knn,knn", "--n-sweep", "16"),
        ("--methods", "ucqp", "--kappa", "1e308", "--n-sweep", "16,64,256", "--trials", "1"),
    ],
)
def test_mc_config_rejections_exit_1(capsys, flags):
    code, out, err = run(capsys, "mc", *flags)
    assert code == 1 and err.startswith("usage error") and not out


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--sigma", "nan"), "sigma must be a finite number >= 0, got nan"),
        (("--sigma=-1",), "sigma must be a finite number >= 0, got -1.0"),
        (("--m", "1"), "points-per-axis m must be >= 2"),
        (("--d", "0"), "dimension d must be >= 1"),
        (("--d", "2"), "example1 is univariate"),
    ],
)
def test_gen_spec_rejections_exit_1(tmp_path, capsys, flags, message):
    out_path = tmp_path / "y.gf"
    # A repeated flag takes its last value, so flags may override --m 5.
    code, out, err = run(capsys, "gen", "--func", "example1", "--m", "5", *flags, "--out", str(out_path))
    assert code == 1 and not out and not out_path.exists()
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("denoise", "--k", "0", "--out", "o.gf"),
        ("denoise", "--k-rule", "expected", "--sigma", "nan", "--out", "o.gf"),
        ("recover", "--k-rule", "practical", "--C=-1", "--out", "o.gf"),
        ("recover", "--k-rule", "practical", "--C", "nan", "--out", "o.gf"),
        ("recover", "--k-rule", "supnorm", "--M", "0", "--out", "o.gf"),
        ("recover", "--k-rule", "expected", "--M", "inf", "--out", "o.gf"),
        ("demo-elevation", "--scale=inf", "--out-dir", "d"),
        ("demo-elevation", "--sigma=-1", "--out-dir", "d"),
        ("demo-elevation", "--k", "0", "--out-dir", "d"),
        ("interp", "--resample", "1", "--out", "o.gf"),
        ("interp", "--resample", "0", "--out", "o.gf"),
    ],
)
def test_bad_flag_values_exit_1_before_reading(tmp_path, capsys, argv):
    # The input file does not exist: a data error (exit 2) would mean it was read first.
    code, out, err = run(capsys, *argv, "--in", str(tmp_path / "absent"))
    assert code == 1 and err.startswith("usage error: argument --") and not out


@pytest.mark.parametrize("command", ["denoise", "recover"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (("--k", "5", "--k-rule", "practical"), "argument --k-rule: not allowed with argument --k"),
        ((), "one of the arguments --k --k-rule is required"),
        (("--k-rule", "explicit"), "argument --k-rule: invalid choice: 'explicit'"),
    ],
)
def test_k_is_given_one_way_before_reading(tmp_path, capsys, command, flags, message):
    # Exactly one of --k and --k-rule; the absent input shows nothing was read.
    code, out, err = run(capsys, command, "--in", str(tmp_path / "absent"), *flags, "--out", "o.gf")
    assert code == 1 and err.startswith(f"usage error: {message}") and not out


@pytest.mark.parametrize(
    "argv, message",
    [
        (("recover", "--k", "5", "--C", "0.5"), "--C not read with --k"),
        (("recover", "--k", "5", "--sigma", "3", "--M", "9"), "--sigma, --M not read with --k"),
        (("denoise", "--k-rule", "practical", "--sigma", "3"), "--sigma not read with --k-rule practical"),
        (("recover", "--k-rule", "expected", "--C", "7"), "--C not read with --k-rule expected"),
        (("denoise", "--k-rule", "supnorm", "--C", "7"), "--C not read with --k-rule supnorm"),
        (("interp", "--at", "0.5", "--out", "f.gf"), "--out not read without --resample"),
        (("rate", "--ns", "10,100,1000", "--errors", "1,2,3", "--method", "trs", "--metric", "aligned_mse"),
         "--method, --metric not read without --report"),
        (("rate", "--report", "{absent}", "--ns", "1,2,3", "--errors", "5,6,7"), "--ns, --errors not read with --report"),
    ],
    ids=["recover-k-C", "recover-k-sigma-M", "denoise-practical-sigma", "recover-expected-C", "denoise-supnorm-C",
         "interp-out", "rate-method-metric", "rate-report-ns-errors"],
)
def test_a_flag_the_command_does_not_read_exits_1_before_reading(tmp_path, capsys, argv, message):
    # The input does not exist: a data error (exit 2) would mean it was read first.
    absent = str(tmp_path / "absent")
    extra = ("--in", absent, "--out", str(tmp_path / "o.gf")) if argv[0] in ("denoise", "recover") else ()
    extra += ("--in", absent) if argv[0] == "interp" else ()
    code, out, err = run(capsys, *(arg.format(absent=absent) for arg in argv), *extra)
    assert (code, out, err) == (1, "", f"usage error: {message}\n")
    assert not (tmp_path / "o.gf").exists() and not (tmp_path / "f.gf").exists()


def test_trs_solves_the_path_without_cg_and_preconditions_the_grid(tmp_path, capsys):
    # The CLI builds its graphs with path_graph and grid_graph, which declare
    # their lattice; a 16 x 16 field, each secular evaluation at most 30 CG
    # iterations on the radius-1 grid.
    y = tmp_path / "y.gf"
    function = PlantedFunction((0.3, 0.25), (1, 1), (0.4, 1.3), 0.1)
    write_field(y, generate(SyntheticSpec(function=function, d=2, m=16, sigma=0.12, seed=0)).noisy_mod)
    reports = {}
    for graph in ("path", "knn-grid:1"):
        code, out, _ = run(capsys, "trs", "--in", str(y), "--graph", graph, "--lambda", "4")
        assert code == 0
        reports[graph] = json.loads(out)
    assert reports["path"]["cg_iterations"] == 0
    grid = reports["knn-grid:1"]
    assert 0 < grid["cg_iterations"] <= 30 * grid["secular_evaluations"]


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

    # The solver commands.
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
        "trs": (tr.signal, {
            "mu": tr.mu, "norm_sq": tr.norm_sq,
            "secular_evaluations": tr.bisect_iterations + 1, "cg_iterations": tr.cg_iterations,
        }),
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


def test_failed_trials_are_counted_and_their_nan_means_are_a_data_error(tmp_path, capsys, monkeypatch):
    def hard_case(*args, **kwargs):
        raise HardCaseError("every trial is a hard case")

    monkeypatch.setattr(baselines, "solve_trs", hard_case)
    summary = monte_carlo(McConfig(n_sweep=(16, 25, 36), trials=2, methods=("knn", "trs")))
    for n in (16, 25, 36):
        knn, trs = summary.cell(n, "knn"), summary.cell(n, "trs")
        assert (knn.trials, knn.failures, trs.trials, trs.failures) == (2, 0, 0, 2)
        assert not np.isnan(list(knn.means.values())).any()
        assert np.isnan([*trs.means.values(), *trs.stds.values()]).all()
    report = tmp_path / "mc.json"
    code, out, _ = run(
        capsys, "mc", "--n-sweep", "16,25,36", "--trials", "2", "--methods", "knn,trs",
        "--out", str(report),
    )
    assert code == 0 and report.read_text() == report_to_json(summary.to_report())

    def no_constants(token):  # NaN and Infinity are not JSON
        raise ValueError(f"{token} in a report")

    for text in (report.read_text(), out):
        cells = json.loads(text, parse_constant=no_constants)["cells"]
        trs_cells = [cell for cell in cells if cell["method"] == "trs"]
        assert len(trs_cells) == 3
        assert all(value is None for cell in trs_cells for value in (*cell["means"].values(), *cell["stds"].values()))
    code, out, err = run(capsys, "rate", "--report", str(report), "--method", "trs")
    assert code == 2 and not out and err.startswith("data error: errors must be finite")
    code, _, _ = run(capsys, "rate", "--report", str(report), "--method", "knn")
    assert code == 0


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


def test_non_ascii_byte_exits_2_naming_its_line(tmp_path, capsys):
    bad = tmp_path / "bad.gf"
    bad.write_bytes("#GRIDFIELD v1 d=1 m=2 kind=real\n1,0.5\n2,\u00e9\n".encode("utf-8"))
    code, _, err = run(
        capsys, "unwrap", "--in", str(bad), "--out", str(tmp_path / "o.gf")
    )
    assert code == 2 and "data error: line 3: non-ASCII byte 0xc3" in err


def test_header_promising_a_huge_grid_exits_2(tmp_path, capsys):
    bad = tmp_path / "huge.gf"
    bad.write_text("#GRIDFIELD v1 d=40 m=2 kind=real\n" + "1," * 40 + "0.5\n")
    code, _, err = run(
        capsys, "unwrap", "--in", str(bad), "--out", str(tmp_path / "o.gf")
    )
    assert code == 2 and "data error: found 1 data rows" in err


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


_REPORTS = {
    "empty": "{}\n",
    "list": "[1]\n",
    "no_means": '{"cells": [{"n": 16, "method": "knn"}]}\n',
    "all_failed": json.dumps(
        {"cells": [{"n": n, "method": "knn", "means": {"wrap_sup_denoised": float("nan")}}
                   for n in (16, 64, 256)]}
    ),
    "two_cells": json.dumps(
        {"cells": [{"n": n, "method": "knn", "means": {"wrap_sup_denoised": 0.1}} for n in (16, 64)]}
    ),
}


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        (("interp", "--in", "{y}", "--at", "nan"), 2, "data error: evaluation points must lie in"),
        (("rate", "--report", "{mc}", "--metric", "bogus"), 1, "usage error: argument --metric"),
        (("rate", "--report", "{empty}"), 2, "data error: not an mc report"),
        (("rate", "--report", "{list}"), 2, "data error: not an mc report"),
        (("rate", "--report", "{no_means}"), 2, "data error: not an mc report"),
        (("rate", "--report", "{all_failed}"), 2, "data error: errors must be finite"),
        (("mc", "--d", "0"), 1, "usage error: d must be >= 1"),
        (("mc", "--d=-1"), 1, "usage error: d must be >= 1"),
        (("rate", "--ns", "10,100,1000", "--errors", "nan,1,2"), 2,
         "data error: errors must be finite"),
        (("rate", "--ns", "10,10,10", "--errors", "1,2,3"), 2,
         "data error: need 2 sample sizes with distinct log(log(n)/n)"),
        (("interp", "--in", "{mod1}", "--at", "0.5"), 2, "data error: fit expects a real field"),
        # The input does not exist: a data error (exit 2) would mean it was read first.
        (("interp", "--in", "{absent}", "--resample", "5"), 1, "usage error: --resample requires --out"),
        (("rate", "--report", "{two_cells}"), 1, "usage error: report has fewer than 3 cells for that method"),
        (("rate", "--ns", "10,100,1000"), 1, "usage error: provide --ns and --errors, or --report"),
        (("rate", "--ns", "1,x", "--errors", "1,2"), 1, "usage error: expected comma-separated ints, got '1,x'"),
        # The solvers stop at module constants: no flag sets a tolerance.
        (("trs", "--in", "{absent}", "--tol", "1e-9"), 1, "usage error: unrecognized arguments: --tol 1e-9"),
    ],
)
def test_bad_inputs_exit_with_a_message_not_a_traceback(tmp_path, capsys, argv, code, prefix):
    paths = {"y": tmp_path / "y.gf", "mod1": tmp_path / "mod1.gf", "mc": tmp_path / "absent.json",
             "absent": tmp_path / "absent.gf"}
    write_field(paths["y"], GridField(UniformGrid(1, 5), np.linspace(0.0, 1.0, 5)))
    write_field(paths["mod1"], GridField(UniformGrid(1, 5), np.linspace(0.0, 0.8, 5), kind="mod1"))
    for name, text in _REPORTS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    got, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (got, out) == (code, "")
    assert err.startswith(prefix) and "Traceback" not in err


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


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "0"])
def test_demo_elevation_bad_scale_is_named(tmp_path, capsys, scale):
    terrain = tmp_path / "terrain.txt"
    terrain.write_text("1 2\n3 4\n")
    code, out, err = run(
        capsys, "demo-elevation", "--in", str(terrain), f"--scale={scale}",
        "--out-dir", str(tmp_path / "demo"),
    )
    assert code == 1 and not out
    assert err.startswith("usage error: argument --scale: must be a finite number above 0")


def test_demo_elevation_non_finite_entry_names_its_line(tmp_path, capsys):
    terrain = tmp_path / "terrain.txt"
    terrain.write_text("1 nan\n3 4\n")
    code, out, err = run(
        capsys, "demo-elevation", "--in", str(terrain), "--out-dir", str(tmp_path / "demo"),
    )
    assert code == 2 and not out
    assert err.startswith("data error: line 1:") and "not finite" in err


def test_demo_elevation_scaled_past_the_float_range_is_a_data_error(tmp_path, capsys):
    terrain = tmp_path / "terrain.txt"
    terrain.write_text("1 2\n1e308 -1e308\n")
    code, out, err = run(
        capsys, "demo-elevation", "--in", str(terrain), "--scale", "1e-300",
        "--out-dir", str(tmp_path / "demo"),
    )
    assert code == 2 and not out
    assert err == "data error: elevation / scale must be finite with finite steps: " \
        "max |elevation| 1e+308 at scale 1e-300\n"
