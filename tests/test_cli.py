import json

import numpy as np
import pytest

from modrec.cli import main
from modrec.fileio import read_field, read_report
from modrec.harness import SyntheticSpec, generate, run_pipeline
from modrec.knn import choose_k_practical


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
