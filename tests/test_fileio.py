import numpy as np
import pytest

from conftest import read_field_rowwise, write_field_rowwise
from modrec.fileio import (
    READ_BLOCK_BYTES,
    WRITE_BLOCK_ROWS,
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


def _special_values(kind: str) -> list:
    if kind == "mod1":
        return [-0.0, 0.0, 5e-324, 1e-300, float(np.nextafter(1.0, 0.0)), 0.1]
    return [-0.0, 5e-324, -5e-324, 1e-300, 1e300, -1.7976931348623157e308, 0.1]


@pytest.mark.parametrize("seed", [None, 5])
@pytest.mark.parametrize("kind", ["real", "mod1"])
@pytest.mark.parametrize("d, m", [(1, 2), (1, WRITE_BLOCK_ROWS), (1, 9000), (2, 70), (3, 17)])
def test_writer_bytes_match_the_row_oracle(tmp_path, d, m, kind, seed):
    rng = np.random.default_rng(1000 * d + m)
    grid = UniformGrid(d, m)
    if kind == "mod1":
        vals = rng.uniform(size=grid.n)
    else:
        vals = rng.standard_normal(grid.n) * 10.0 ** rng.integers(-300, 300, size=grid.n)
    special = _special_values(kind)[: grid.n]
    vals[: len(special)] = special
    fld = GridField.from_flat(grid, vals, kind=kind)
    fast, slow = tmp_path / "fast.gf", tmp_path / "slow.gf"
    write_field(fast, fld, seed=seed)
    write_field_rowwise(slow, fld, seed=seed)
    assert fast.read_bytes() == slow.read_bytes()
    back = read_field(fast)
    assert back.values.tobytes() == fld.values.tobytes()


def _same_outcome_as_oracle(path):
    """read_field and the row-by-row oracle agree: bitwise-equal values, or a
    FormatError with the same message and line.  Returns the error or None."""
    try:
        want = read_field_rowwise(path)
    except FormatError as exc:
        with pytest.raises(FormatError) as err:
            read_field(path)
        assert str(err.value) == str(exc) and err.value.line == exc.line
        return exc
    got = read_field(path)
    assert got.kind == want.kind and got.grid == want.grid
    assert got.values.tobytes() == want.values.tobytes()
    return None


_GOOD_FILES = {
    "blank and comment lines between rows": (
        "#GRIDFIELD v1 d=2 m=2 kind=real\n#meta a=1\n1,1,0.5\n\n# note\n   \n1,2,-1\n"
        "\t\n#2,1,7\n2,1,2.5\n2,2,3\n\n"
    ),
    "CRLF line endings": "#GRIDFIELD v1 d=1 m=3 kind=mod1 seed=2\r\n1,0.25\r\n\r\n2,0.5\r\n3,-0.0\r\n",
    "CR line endings": "#GRIDFIELD v1 d=1 m=2 kind=real\r1,0.25\r2,1e300\r",
    "no final newline": "#GRIDFIELD v1 d=1 m=2 kind=real\n1,0.25\n2,0.5",
    "int and float syntax": (
        "#GRIDFIELD v1 d=1 m=12 kind=real\n+1,1_0.5\n02, -0.0\n 3 ,1E3\n4,.5\n5,5.\n6,1e-320\n"
        "7,+7\n8,4.9406564584124654e-324\n9,1e-300\n1_0,17976931348623157e292\n0011,-2\n12,0\n"
    ),
}

# name: (file text, line of the error or None, start of the message)
_BAD_FILES = {
    "wrong column count": (
        "#GRIDFIELD v1 d=2 m=2 kind=real\n1,1,0.5\n1,2\n2,1,0\n2,2,0\n", 3,
        "expected 2 index components and a value",
    ),
    "misaligned columns": ("#GRIDFIELD v1 d=1 m=2 kind=real\n1,0.5,2\n0.7\n", 2, "expected 1 index"),
    "extra column": ("#GRIDFIELD v1 d=1 m=2 kind=real\n1,0.5,7\n2,0\n", 2, "expected 1 index"),
    "more than n data rows": (
        "#GRIDFIELD v1 d=1 m=2 kind=real\n1,0.1\n2,0.2\n3,0.3\n", 4, "more than 2 data rows",
    ),
    "unparsable value": ("#GRIDFIELD v1 d=1 m=2 kind=real\n1,0.1\n2,abc\n", 3, "cannot parse row '2,abc'"),
    "unparsable index": ("#GRIDFIELD v1 d=1 m=2 kind=real\n1.0,0.1\n2,0.2\n", 2, "cannot parse row"),
    "empty token": ("#GRIDFIELD v1 d=2 m=2 kind=real\n1,,0.1\n", 2, "cannot parse row '1,,0.1'"),
    "trailing comment on a row": ("#GRIDFIELD v1 d=1 m=2 kind=real\n1,0.1 # x\n2,0\n", 2, "cannot parse"),
    "int64-overflowing index": (
        "#GRIDFIELD v1 d=1 m=2 kind=real\n99999999999999999999,0.5\n2,0.1\n", 2,
        "index (99999999999999999999,) out of lexicographic order, expected (1,)",
    ),
    "index out of order": ("#GRIDFIELD v1 d=2 m=2 kind=real\n1,1,0\n2,1,0\n1,2,0\n2,2,0\n", 3, "index (2, 1)"),
    "zero index": ("#GRIDFIELD v1 d=1 m=2 kind=real\n0,0.5\n1,0.1\n", 2, "index (0,)"),
    "mod1 value of 1": ("#GRIDFIELD v1 d=1 m=2 kind=mod1\n1,0.5\n2,1.0\n", 3, "mod1 value 1.0 outside"),
    "negative mod1 value": ("#GRIDFIELD v1 d=1 m=2 kind=mod1\n1,-5e-324\n2,0\n", 2, "mod1 value -5e-324"),
    "non-finite real value": ("#GRIDFIELD v1 d=1 m=2 kind=real\n1,0.5\n2,-inf\n", 3, "real value -inf is not"),
    "fault after blank and comment lines": (
        "#GRIDFIELD v1 d=1 m=3 kind=real\n1,0\n\n#c\n  \n2,nan\n3,0\n", 6, "real value nan",
    ),
    "CRLF line endings": ("#GRIDFIELD v1 d=1 m=3 kind=real\r\n1,0\r\n\r\n3,0\r\n2,0\r\n", 4, "index (3,)"),
    "file cut short": ("#GRIDFIELD v1 d=1 m=3 kind=real\n1,0.1\n2,0.2\n", None, "found 2 data rows"),
    "file cut mid-row": ("#GRIDFIELD v1 d=1 m=3 kind=real\n1,0.1\n2,", 3, "cannot parse row '2,'"),
    "no data rows": ("#GRIDFIELD v1 d=2 m=2 kind=mod1\n#meta a=1\n", None, "found 0 data rows"),
    "index and range: index wins": ("#GRIDFIELD v1 d=1 m=2 kind=mod1\n2,1.5\n1,0\n", 2, "index (2,)"),
    "range and finiteness: range wins": ("#GRIDFIELD v1 d=1 m=2 kind=mod1\n1,nan\n2,0\n", 2, "mod1 value nan"),
    "columns and row count: columns win": (
        "#GRIDFIELD v1 d=1 m=2 kind=real\n1,0\n2,0\n3\n", 4, "expected 1 index",
    ),
    "row count and parse: row count wins": (
        "#GRIDFIELD v1 d=1 m=2 kind=real\n1,0\n2,0\nx,y\n", 4, "more than 2 data rows",
    ),
    "parse and index: parse wins": ("#GRIDFIELD v1 d=2 m=2 kind=real\n2,x,0\n", 2, "cannot parse row"),
    "two faulty rows: the first wins": (
        "#GRIDFIELD v1 d=1 m=3 kind=real\n1,0\n2,inf\n9,0\n", 3, "real value inf",
    ),
}


@pytest.mark.parametrize("name", sorted(_GOOD_FILES))
def test_reader_matches_the_row_oracle_on_good_files(tmp_path, name):
    p = tmp_path / "good.gf"
    p.write_bytes(_GOOD_FILES[name].encode("ascii"))
    assert _same_outcome_as_oracle(p) is None


@pytest.mark.parametrize("name", sorted(_BAD_FILES))
def test_reader_matches_the_row_oracle_on_bad_files(tmp_path, name):
    text, line, message = _BAD_FILES[name]
    p = tmp_path / "bad.gf"
    p.write_bytes(text.encode("ascii"))
    err = _same_outcome_as_oracle(p)
    assert err is not None and err.line == line
    assert str(err).startswith(message if line is None else f"line {line}: {message}")


def _large_rows(n: int) -> list:
    values = np.random.default_rng(77).uniform(size=n)
    return [f"{i},{format(float(v), '.17g')}\n" for i, v in enumerate(values, start=1)]


@pytest.mark.parametrize(
    "fault",
    ["value", "columns", "index", "cut short", "extra rows", "early and late"],
)
def test_reader_fault_beyond_the_first_block(tmp_path, fault):
    n = 12000  # about 26 bytes a row: the file spans several read blocks
    rows = _large_rows(n)
    header = f"#GRIDFIELD v1 d=1 m={n} kind=mod1\n"
    late = 3 * READ_BLOCK_BYTES // 26
    if fault == "value":
        rows[late] = f"{late + 1},1.25\n"
    elif fault == "columns":
        rows[late] = f"{late + 1}\n"
    elif fault == "index":
        rows[late], rows[late + 1] = rows[late + 1], rows[late]
    elif fault == "cut short":
        rows = rows[: late]
    elif fault == "extra rows":
        rows.append(f"{n + 1},0.5\n")
    else:
        rows[late] = f"{late + 1},nan\n"
        rows[7] = "8,0.5,0.5\n"
    assert len(header + "".join(rows[:late])) > 2 * READ_BLOCK_BYTES
    p = tmp_path / "large.gf"
    p.write_text(header + "".join(rows))
    err = _same_outcome_as_oracle(p)
    expected_line = {"cut short": None, "extra rows": n + 2, "early and late": 9}.get(fault, late + 2)
    assert err is not None and err.line == expected_line


def test_reader_matches_the_row_oracle_on_a_large_good_file(tmp_path):
    n = 12000
    p = tmp_path / "large.gf"
    p.write_text(f"#GRIDFIELD v1 d=1 m={n} kind=mod1\n" + "".join(_large_rows(n)))
    assert _same_outcome_as_oracle(p) is None


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


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_elevation_non_finite_entry_names_its_line(tmp_path, entry):
    p = tmp_path / "elev.txt"
    p.write_text(f"# terrain\n1 2\n3 {entry}\n")
    with pytest.raises(FormatError) as err:
        read_elevation(p)
    assert err.value.line == 3 and "not finite" in str(err.value)


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
