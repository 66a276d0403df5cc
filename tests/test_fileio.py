import numpy as np
import pytest

from modrec.fileio import (
    FormatError,
    read_elevation,
    read_field,
    read_header,
    read_report,
    report_to_json,
    write_field,
    write_report,
)
from modrec.grid import GridField, UniformGrid


def test_field_round_trip(tmp_path):
    rng = np.random.default_rng(101)
    for kind in ("real", "mod1"):
        grid = UniformGrid(2, 5)
        vals = rng.uniform(size=grid.shape)
        if kind == "real":
            vals = rng.standard_normal(grid.shape) * 1e6
        f = GridField(grid, vals, kind=kind)
        path = tmp_path / f"field_{kind}.gf"
        write_field(path, f, seed=7)
        back = read_field(path)
        assert back.kind == kind and back.grid == grid
        assert np.array_equal(back.values, f.values)  # bitwise round trip
        header = read_header(path)
        assert header.seed == 7 and header.meta == {}


def test_field_deterministic_bytes(tmp_path):
    grid = UniformGrid(1, 4)
    f = GridField(grid, [0.1, 0.2, 0.3, 0.4], kind="mod1")
    p1, p2 = tmp_path / "a.gf", tmp_path / "b.gf"
    write_field(p1, f)
    write_field(p2, f, seed=3)
    rows = "1,0.10000000000000001\n2,0.20000000000000001\n3,0.29999999999999999\n4,0.40000000000000002\n"
    assert p1.read_bytes() == ("#GRIDFIELD v1 d=1 m=4 kind=mod1\n" + rows).encode("ascii")
    assert p2.read_bytes() == ("#GRIDFIELD v1 d=1 m=4 kind=mod1 seed=3\n" + rows).encode("ascii")


def test_reader_accepts_meta_lines(tmp_path):
    p = tmp_path / "meta.gf"
    p.write_text("#GRIDFIELD v1 d=1 m=2 kind=real seed=3\n#meta note=a=b\n#meta k=2\n1,0.5\n2,-1\n")
    assert read_header(p).meta == {"note": "a=b", "k": "2"}
    assert np.array_equal(read_field(p).values, [0.5, -1.0])


def test_field_header_errors(tmp_path):
    p = tmp_path / "bad.gf"
    p.write_text("#WRONG v1 d=1 m=2 kind=real\n1,0.0\n2,1.0\n")
    with pytest.raises(FormatError) as err:
        read_field(p)
    assert err.value.line == 1

    p.write_text("#GRIDFIELD v1 d=1 m=5 kind=real\n" + "".join(f"{i},0.0\n" for i in range(1, 5)))
    with pytest.raises(FormatError):
        read_field(p)  # row count mismatch

    p.write_text("#GRIDFIELD v1 d=1 m=2 kind=mod1\n1,0.5\n2,1.2\n")
    with pytest.raises(FormatError) as err:
        read_field(p)
    assert "1.2" in str(err.value) and err.value.line == 3

    p.write_text("#GRIDFIELD v1 d=1 m=2 kind=real\n2,0.0\n1,1.0\n")
    with pytest.raises(FormatError):
        read_field(p)  # out of lexicographic order


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_real_value_names_its_line(tmp_path, value):
    p = tmp_path / "bad.gf"
    p.write_text(f"#GRIDFIELD v1 d=1 m=3 kind=real\n#meta a=1\n1,0.5\n2,{value}\n3,0.0\n")
    with pytest.raises(FormatError) as err:
        read_field(p)
    assert err.value.line == 4 and "not finite" in str(err.value)


@pytest.mark.parametrize("header", ["d=1 m=3 kind=real seed=x", "d=1 m=1 kind=real", "d=0 m=3 kind=real"])
def test_bad_header_values_name_line_1(tmp_path, header):
    p = tmp_path / "bad.gf"
    p.write_text(f"#GRIDFIELD v1 {header}\n1,0.5\n")
    with pytest.raises(FormatError) as err:
        read_field(p)
    assert err.value.line == 1


def test_elevation_reader(tmp_path):
    p = tmp_path / "elev.txt"
    p.write_text("1 2\n3 4\n")
    mat = read_elevation(p)
    assert mat.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    p.write_text("")
    with pytest.raises(FormatError):
        read_elevation(p)

    p.write_text("1 2 3\n4 5\n")
    with pytest.raises(FormatError) as err:
        read_elevation(p)
    assert err.value.line == 2

    p.write_text("1 2 3 4\n5 6 7 8\n9 10 11 12\n")
    mat = read_elevation(p, crop_square=True)
    assert mat.shape == (3, 3)
    assert mat[0].tolist() == [1.0, 2.0, 3.0]


def test_report_round_trip(tmp_path):
    report = {
        "config": {"sigma": 0.12, "methods": ["knn"]},
        "cells": [],
        "certificate": {"eigenvalues": list(np.linspace(0, 1, 6)), "tight": True},
    }
    p = tmp_path / "report.json"
    write_report(p, report)
    back = read_report(p)
    assert back["schema_version"] == 1
    assert back["config"] == {"sigma": 0.12, "methods": ["knn"]}
    assert back["cells"] == []
    assert len(back["certificate"]["eigenvalues"]) == 6
    # identical inputs give identical bytes
    assert report_to_json(report) == report_to_json(
        {"certificate": report["certificate"], "cells": [], "config": report["config"]}
    )


def test_report_handles_numpy_scalars():
    doc = report_to_json({"a": np.float64(0.5), "b": np.int64(3), "c": np.bool_(True)})
    assert '"a": 0.5' in doc and '"b": 3' in doc and '"c": true' in doc
