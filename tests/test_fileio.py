import decimal
import itertools
import json
import math
import os
import stat
import warnings

import numpy as np
import pytest

from conftest import read_field_rowwise, write_field_rowwise
from modrec import fileio
from modrec.cli import main
from modrec.fileio import (
    WRITE_BLOCK_ROWS,
    FormatError,
    GridFileHeader,
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
        assert header.seed == 7


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
    # A #meta line is an ordinary comment: the header ends on the first line.
    p = tmp_path / "meta.gf"
    p.write_text("#GRIDFIELD v1 d=1 m=2 kind=real seed=3\n#meta note=a=b\n#meta k=2\n1,0.5\n2,-1\n")
    assert read_header(p) == GridFileHeader(d=1, m=2, kind="real", seed=3)
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

    p.write_text("#GRIDFIELD v1 d=1 m=2 kind=real m=3\n1,0\n2,0\n3,0\n")
    with pytest.raises(FormatError, match="^line 1: header repeats m=$"):
        read_field(p)  # neither value is taken


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_real_value_names_its_line(tmp_path, value):
    p = tmp_path / "bad.gf"
    p.write_text(f"#GRIDFIELD v1 d=1 m=3 kind=real\n#meta a=1\n1,0.5\n2,{value}\n3,0.0\n")
    with pytest.raises(FormatError) as err:
        read_field(p)
    assert err.value.line == 4 and "not finite" in str(err.value)


@pytest.mark.parametrize(
    "header",
    [
        "d=1 m=3 kind=real seed=x", "d=1 m=1 kind=real", "d=0 m=3 kind=real",
        "d=1 m=3 kind=real seed", "d=1 kind=real", "d=1 m=3 kind=int", "d=1 m=2 kind=real m=3",
    ],
)
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
@pytest.mark.parametrize(
    "d, m", [(1, 2), (1, WRITE_BLOCK_ROWS), (1, WRITE_BLOCK_ROWS + 1), (1, 9000), (2, 70), (3, 17)],
)
def test_writer_bytes_match_the_row_oracle(tmp_path, d, m, kind, seed):
    rng = np.random.default_rng(1000 * d + m)
    grid = UniformGrid(d, m)
    if kind == "mod1":
        vals = rng.uniform(size=grid.n)
    else:
        vals = rng.standard_normal(grid.n) * 10.0 ** rng.integers(-300, 300, size=grid.n)
    special = _special_values(kind)[: grid.n]
    vals[: len(special)] = special
    # A second field: every |v| outside [1e-4, 1e17), printed by Python's own formatting.
    python_text = rng.uniform(0, 1e-4, size=grid.n)
    if kind == "real":
        exponents = np.where(rng.random(grid.n) < 0.5, rng.uniform(-300, -5, grid.n), rng.uniform(17, 300, grid.n))
        python_text = rng.choice([-1.0, 1.0], grid.n) * 10.0**exponents
    special = [v for v in _special_values(kind) if not 1e-4 <= abs(v) < 1e17][: grid.n]
    python_text[: len(special)] = special
    assert not np.any((np.abs(python_text) >= 1e-4) & (np.abs(python_text) < 1e17))
    for values in (vals, python_text):
        fld = GridField.from_flat(grid, values, kind=kind)
        fast, slow = tmp_path / "fast.gf", tmp_path / "slow.gf"
        write_field(fast, fld, seed=seed)
        write_field_rowwise(slow, fld, seed=seed)
        assert fast.read_bytes() == slow.read_bytes()
        back = read_field(fast)
        assert back.values.tobytes() == fld.values.tobytes()


def _halfway_values(rng, per_exponent: int) -> np.ndarray:
    """Values v exactly halfway between two 17-digit decimals: v 10^s =
    N 5^s / 2 with N odd for v = N / 2^(s + 1), whose 17 digits are those of
    v 10^s once 10^16 <= v 10^s < 10^17."""
    values = []
    for s in range(1, 21):
        lo, hi = 10 ** (16 - s) * 2 ** (s + 1), min(10 ** (17 - s) * 2 ** (s + 1), 2**53)
        odd = rng.integers(lo // 2, hi // 2, size=per_exponent) * 2 + 1
        values.append(odd.astype(float) / 2.0 ** (s + 1))
    return np.concatenate(values)


def _formatter_corpus() -> np.ndarray:
    rng = np.random.default_rng(31)
    patterns = np.frombuffer(rng.bytes(8 * 40000), np.uint64)
    powers = np.array([float(f"1e{k}") for k in range(-10, 21)] + [1e-4, 1e17])
    values = np.concatenate([
        patterns.view(np.float64),  # random 64-bit patterns, a few of them subnormal
        (patterns[:10000] >> np.uint64(12)).view(np.float64),  # all subnormal
        rng.uniform(size=20000),
        np.concatenate([rng.standard_normal(500) * 10.0**k for k in range(-30, 31)]),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        [0.0, 1.0, 2.0**53, 2.0**53 - 1, 5e-324, 1.7976931348623157e308],
        rng.integers(0, 2**53, size=5000, endpoint=True).astype(float),
        rng.uniform(1e16, 1e17, size=5000),
        [1000000000000000.25, 1000000000000000.75, 15070.408813476562],
        _halfway_values(rng, 200),
    ])
    values = values[np.isfinite(values)]
    return np.concatenate([values, -values])


def test_writer_formats_values_as_python_does(tmp_path):
    values = _formatter_corpus()
    assert values.size > 10**5
    halfway = _halfway_values(np.random.default_rng(0), 5)
    assert all(decimal.Decimal(v).scaleb(16 - math.floor(math.log10(v))) % 1 == decimal.Decimal("0.5")
               for v in halfway.tolist())
    p = tmp_path / "corpus.gf"
    write_field(p, GridField(UniformGrid(1, values.size), values))
    got = [line.partition(",")[2] for line in p.read_text().splitlines()[1:]]
    want = [format(v, ".17g") for v in values.tolist()]
    assert len(got) == len(want)
    assert [(w, g) for w, g in zip(want, got) if g != w] == []


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


# name: (file bytes, line of the error, start of the message)
_NON_ASCII_FILES = {
    "value": (b"#GRIDFIELD v1 d=1 m=2 kind=real\n1,0.5\n2,\xc3\xa9\n", 3, "non-ASCII byte 0xc3"),
    "header": (b"#GRIDFIELD v1 d=1 m=2 kind=r\xe9al\n1,0.5\n2,0\n", 1, "non-ASCII byte 0xe9"),
    "0xff in a value": (b"#GRIDFIELD v1 d=1 m=2 kind=real\n1,0.5\n2,0\xff\n", 3, "non-ASCII byte 0xff"),
    "comment line": (b"#GRIDFIELD v1 d=1 m=2 kind=real\n#meta caf\xc3\xa9\n1,0.5\n2,0\n", 2, "non-ASCII"),
    "comment after the last row": (b"#GRIDFIELD v1 d=1 m=2 kind=real\n1,0.5\n2,0\n#\x80\n", 4, "non-ASCII byte 0x80"),
    "next to another fault": (b"#GRIDFIELD v1 d=1 m=2 kind=real\n1,0.5\n9,\xa0\n", 3, "non-ASCII byte 0xa0"),
    "after another fault": (b"#GRIDFIELD v1 d=1 m=2 kind=real\n1,nan\n2,\xc3\xa9\n", 2, "real value nan"),
}


@pytest.mark.parametrize("name", sorted(_NON_ASCII_FILES))
def test_a_byte_outside_ascii_names_its_line(tmp_path, name):
    data, line, message = _NON_ASCII_FILES[name]
    p = tmp_path / "bad.gf"
    p.write_bytes(data)
    if line == 1:
        with pytest.raises(FormatError) as raised:
            read_field(p)
        err = raised.value
    else:
        assert read_header(p) == GridFileHeader(d=1, m=2, kind="real")
        err = _same_outcome_as_oracle(p)
    assert str(err).startswith(f"line {line}: {message}")


def test_header_promising_more_rows_than_the_file_can_hold(tmp_path):
    # 2^40 rows of at least 81 bytes cannot fit in this file: the reader must
    # say so before it allocates anything the header implies.
    p = tmp_path / "huge.gf"
    p.write_text("#GRIDFIELD v1 d=40 m=2 kind=real\n" + "1," * 40 + "0.5\n")
    with pytest.raises(FormatError, match="^found 1 data rows, header promises 1099511627776$"):
        read_field(p)


def _large_rows(n: int) -> list:
    values = np.random.default_rng(77).uniform(size=n)
    return [f"{i},{format(float(v), '.17g')}\n" for i, v in enumerate(values, start=1)]


@pytest.mark.parametrize(
    "fault",
    ["value", "columns", "index", "cut short", "extra rows", "early and late", "non-ASCII"],
)
def test_reader_fault_beyond_the_first_block(tmp_path, fault):
    n = 12000  # about 26 bytes a row: the late fault lies past the first 128 kB
    rows = _large_rows(n)
    header = f"#GRIDFIELD v1 d=1 m={n} kind=mod1\n"
    late = 3 * 65536 // 26
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
    elif fault == "non-ASCII":
        rows[late] = f"{late + 1},0.5\xa0\n"
    else:
        rows[late] = f"{late + 1},nan\n"
        rows[7] = "8,0.5,0.5\n"
    assert len(header + "".join(rows[:late])) > 2 * 65536
    p = tmp_path / "large.gf"
    p.write_text(header + "".join(rows), encoding="latin-1")
    err = _same_outcome_as_oracle(p)
    expected_line = {"cut short": None, "extra rows": n + 2, "early and late": 9}.get(fault, late + 2)
    assert err is not None and err.line == expected_line


def test_reader_matches_the_row_oracle_on_a_large_good_file(tmp_path):
    n = 12000
    p = tmp_path / "large.gf"
    p.write_text(f"#GRIDFIELD v1 d=1 m={n} kind=mod1\n" + "".join(_large_rows(n)))
    assert _same_outcome_as_oracle(p) is None


# Token spellings for the seeded files: each row's tokens are drawn from
# these, so a file may hold rows that numpy parses, rows that only Python's
# int or float parses, and rows that neither does.
_WHITESPACE = [" ", "\t", "\x0b", "\x0c", "  "]
_SPECIAL_VALUES = [
    "nan", "-nan", "+NaN", "inf", "-inf", "+Inf", "Infinity", "-infinity", "iNfInItY", "infinit",
    "nan(1)", "0x1p-1", "-0X.8P0", "1d-1", "5D-1", "1_0.5", "0_0.5", ".5_0", "1__0.5", "_0.5",
    "5._0", "1e1_0", "4.9406564584124654e-324", "2.4703282292062328e-324", "2.4703282292062329e-324",
    "2.2250738585072011e-308", "1.7976931348623157e308", "1.7976931348623159e308", "-0", "0.", ".",
]


def _decorate(rng, token: str) -> str:
    """Now and then a sign, leading zeros or whitespace around the token."""
    if rng.random() < 0.1:
        token = rng.choice(["+", "-"]) + token
    if rng.random() < 0.1:
        token = "0" * int(rng.integers(1, 4)) + token
    if rng.random() < 0.15:
        token = rng.choice(_WHITESPACE) + token
    if rng.random() < 0.15:
        token += rng.choice(_WHITESPACE)
    return token


def _index_token(rng, j: int) -> str:
    """Index j as written, or in another spelling that may or may not parse."""
    r = rng.random()
    if r < 0.04:
        return f"0_{j}"
    if r < 0.06:
        return rng.choice([f"{j}.0", f"{j}e0", f"0x{j}", f"{j}_", f"_{j}", f"{j + 1}", ""])
    return _decorate(rng, str(j)) if r < 0.3 else str(j)


def _value_token(rng, kind: str) -> str:
    """A value in one of the spellings the seeded files draw from."""
    r = rng.random()
    if r < 0.05:
        return _decorate(rng, str(rng.choice(_SPECIAL_VALUES)))
    if r < 0.3:
        digits = "".join(map(str, rng.integers(0, 10, size=int(rng.integers(17, 61)))))
        if kind == "mod1":
            token = "0." + digits
        else:
            point = int(rng.integers(0, len(digits) + 1))
            token = f"{digits[:point]}.{digits[point:]}e{int(rng.integers(-340, 300))}"
    elif r < 0.4:
        token = f"{float(rng.uniform(1, 10)):.17g}e-{int(rng.integers(308, 330))}"  # subnormal or 0
    elif kind == "mod1":
        token = format(float(rng.uniform()), ".17g")
    else:
        token = format(float(rng.standard_normal()) * 10.0 ** int(rng.integers(-300, 300)), ".17g")
    if rng.random() < 0.05 and token[:2].isdigit():
        token = token[0] + "_" + token[1:]
    return _decorate(rng, token) if rng.random() < 0.3 else token


def test_reader_matches_the_row_oracle_on_seeded_token_files(tmp_path, monkeypatch):
    rng = np.random.default_rng(2009)
    read_by_python = []
    row_reader = fileio._read_rows

    def counting(*args):
        values = row_reader(*args)
        read_by_python.append(values.size)
        return values

    monkeypatch.setattr(fileio, "_read_rows", counting)
    p = tmp_path / "seeded.gf"
    outcomes = {"good": 0, "bad": 0}
    for _ in range(400):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(2, 5 if d < 3 else 4))
        kind = str(rng.choice(["real", "mod1"]))
        lines = [f"#GRIDFIELD v1 d={d} m={m} kind={kind}"]
        for idx in itertools.product(range(1, m + 1), repeat=d):
            if rng.random() < 0.05:
                lines.append(str(rng.choice(["", "   ", "#meta a=1", "# 1,2"])))
            lines.append(",".join([*(_index_token(rng, j) for j in idx), _value_token(rng, kind)]))
        p.write_text("\n".join(lines) + "\n")
        outcomes["good" if _same_outcome_as_oracle(p) is None else "bad"] += 1
    # Every kind of outcome is drawn: files numpy reads, files only the
    # row reader reads, and faulty files.
    assert outcomes["good"] > 50 and outcomes["bad"] > 50, outcomes
    assert len(read_by_python) > 10


class _RowReaderReached(Exception):
    pass


def test_files_numpy_parses_never_reach_the_row_reader(tmp_path, monkeypatch):
    def refuse(*args):
        raise _RowReaderReached

    monkeypatch.setattr(fileio, "_read_rows", refuse)
    p = tmp_path / "f.gf"
    for d, m in [(1, 300), (2, 17), (3, 6)]:
        grid = UniformGrid(d, m)
        vals = np.random.default_rng(d).standard_normal(grid.n) * 1e5
        vals[:3] = [-0.0, 5e-324, -1.7976931348623157e308]
        fld = GridField.from_flat(grid, vals)
        write_field(p, fld, seed=d)
        assert read_field(p).values.tobytes() == fld.values.tobytes()
    p.write_text("#GRIDFIELD v1 d=1 m=3 kind=real seed=1\n#meta a=1\n\n1,0.5\n   \n2,-1\n\t\n3,2\n")
    assert read_field(p).values.tolist() == [0.5, -1.0, 2.0]
    p.write_bytes(_GOOD_FILES["int and float syntax"].encode("ascii"))
    with pytest.raises(_RowReaderReached):
        read_field(p)  # the 1_0.5 of its first row: Python's float parses it, numpy does not


@pytest.mark.parametrize("name", ["good", "bad value", "bad index"])
def test_a_numpy_warning_hands_the_file_to_the_row_reader(tmp_path, monkeypatch, name):
    # numpy before 2 may warn, and still return a table, where 2.x declines
    # (a float string in an integer column): such a table is never used.
    loadtxt = np.loadtxt

    def warns(*args, **kwargs):
        warnings.warn("loadtxt: a deprecated conversion", DeprecationWarning)
        table = loadtxt(*args, **kwargs)
        table["v"] += 1.0
        return table

    p = tmp_path / "f.gf"
    write_field(p, _field(50, 3))
    text = p.read_text()
    if name == "bad value":
        text = text.replace("\n7,", "\n7,1.5\n#", 1)
    elif name == "bad index":
        text = text.replace("\n7,", "\n8,", 1)
    p.write_text(text)
    monkeypatch.setattr(fileio.np, "loadtxt", warns)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = _same_outcome_as_oracle(p)
    assert caught == []
    assert (err is None) == (name == "good")


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

    p.write_text("1 2\n# terrain\n3 x\n")
    with pytest.raises(FormatError) as err:
        read_elevation(p)
    assert err.value.line == 3 and "cannot parse row '3 x'" in str(err.value)

    p.write_bytes(b"1 2\n# caf\xc3\xa9\n3 4\n")
    with pytest.raises(FormatError) as err:
        read_elevation(p)
    assert err.value.line == 2 and "non-ASCII byte 0xc3" in str(err.value)

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


# ---------------------------------------------------------------------------
# Outputs are replaced, not truncated, where no one can tell


def _field(m: int, seed: int) -> GridField:
    return GridField(UniformGrid(1, m), np.random.default_rng(seed).uniform(size=m), kind="mod1")


def _oracle_bytes(tmp_path, fld: GridField) -> bytes:
    path = tmp_path / "oracle.gf"
    write_field_rowwise(path, fld)
    return path.read_bytes()


def _same_inode_after(write, path) -> bool:
    """Whether ``write()`` leaves ``path`` on the inode it had.  An open handle
    keeps the old inode alive, so its number cannot be reused."""
    with open(path, "rb") as old:
        write()
        return os.stat(path).st_ino == os.fstat(old.fileno()).st_ino


@pytest.mark.parametrize("m_before", [50, 5000])
def test_overwrite_replaces_the_file(tmp_path, m_before):
    p = tmp_path / "f.gf"
    write_field(p, _field(m_before, 1))
    new = _field(300, 2)
    assert not _same_inode_after(lambda: write_field(p, new), p)
    assert p.read_bytes() == _oracle_bytes(tmp_path, new)


def test_overwrite_through_a_symlink_writes_the_target(tmp_path):
    target, link = tmp_path / "target.gf", tmp_path / "link.gf"
    write_field(target, _field(40, 1))
    link.symlink_to(target.name)
    new = _field(30, 2)
    write_field(link, new)
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == _oracle_bytes(tmp_path, new)


def test_overwrite_of_a_hard_linked_file_shows_under_both_names(tmp_path):
    a, b = tmp_path / "a.gf", tmp_path / "b.gf"
    write_field(a, _field(40, 1))
    os.link(a, b)
    new = _field(30, 2)
    write_field(a, new)
    assert os.path.samefile(a, b)
    assert a.read_bytes() == b.read_bytes() == _oracle_bytes(tmp_path, new)


@pytest.mark.parametrize("mode", [0o640, 0o666, 0o755])
def test_overwrite_keeps_the_permission_bits(tmp_path, mode):
    p = tmp_path / "r.json"
    write_report(p, {"a": 1})
    os.chmod(p, mode)
    old_umask = os.umask(0o077)  # would trim every one of these modes
    try:
        write_report(p, {"a": 2})
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(os.stat(p).st_mode) == mode
    assert read_report(p)["a"] == 2


def test_a_file_the_caller_may_not_write_is_opened_in_place(tmp_path, monkeypatch):
    p = tmp_path / "locked.gf"
    write_field(p, _field(40, 1))
    os.chmod(p, 0o444)
    if os.geteuid() != 0:
        with pytest.raises(PermissionError):
            write_field(p, _field(30, 2))
        assert p.read_bytes() == _oracle_bytes(tmp_path, _field(40, 1))
        return
    # root may write any file, so only a patched access check reaches this case
    monkeypatch.setattr(fileio.os, "access", lambda path, mode: False)
    new = _field(30, 2)
    assert _same_inode_after(lambda: write_field(p, new), p)  # truncated, as open(path, "w") does
    assert stat.S_IMODE(os.stat(p).st_mode) == 0o444
    assert p.read_bytes() == _oracle_bytes(tmp_path, new)


def test_a_file_that_cannot_be_unlinked_is_opened_in_place(tmp_path, monkeypatch):
    def refuse(path):
        raise PermissionError(13, "Permission denied", str(path))

    p = tmp_path / "r.json"
    write_report(p, {"a": 1})
    monkeypatch.setattr(fileio.os, "unlink", refuse)  # as in a directory the caller may not write
    assert _same_inode_after(lambda: write_report(p, {"a": 2}), p)
    assert read_report(p)["a"] == 2


def test_only_a_plain_file_of_the_caller_is_replaceable(tmp_path):
    plain = tmp_path / "plain"
    plain.write_text("x")
    assert fileio._replaceable_mode(plain) == stat.S_IMODE(os.stat(plain).st_mode)
    assert fileio._replaceable_mode(tmp_path / "missing") is None
    assert fileio._replaceable_mode(tmp_path) is None
    link = tmp_path / "link"
    link.symlink_to(plain.name)
    assert fileio._replaceable_mode(link) is None
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    assert fileio._replaceable_mode(fifo) is None
    os.link(plain, tmp_path / "second")
    assert fileio._replaceable_mode(plain) is None


def test_another_users_file_is_opened_in_place(tmp_path):
    if os.geteuid() != 0:
        pytest.skip("only root can give a file to another user")
    p = tmp_path / "theirs.json"
    write_report(p, {"a": 1})
    os.chown(p, 4321, 4321)
    assert _same_inode_after(lambda: write_report(p, {"a": 2}), p)
    assert (os.stat(p).st_uid, os.stat(p).st_gid) == (4321, 4321)
    assert read_report(p)["a"] == 2


def test_a_file_with_an_extended_attribute_is_opened_in_place(tmp_path):
    p = tmp_path / "tagged.json"
    write_report(p, {"a": 1})
    try:
        os.setxattr(p, "user.note", b"keep")
    except (AttributeError, OSError):
        pytest.skip("no user extended attributes here")
    assert _same_inode_after(lambda: write_report(p, {"a": 2}), p)
    assert os.getxattr(p, "user.note") == b"keep"
    assert read_report(p)["a"] == 2


@pytest.mark.parametrize("existing", [False, True])
def test_an_interrupted_write_leaves_a_file_the_reader_rejects(tmp_path, monkeypatch, existing):
    m = 3 * WRITE_BLOCK_ROWS
    p = tmp_path / "cut.gf"
    if existing:
        write_field(p, _field(m, 1))  # a complete field of the same grid
    new = _field(m, 2)
    original = fileio._format_rows

    def killed_after_first_block(grid, values, start):
        if start > 0:
            raise KeyboardInterrupt("killed mid-write")
        return original(grid, values, start)

    monkeypatch.setattr(fileio, "_format_rows", killed_after_first_block)
    with pytest.raises(KeyboardInterrupt):
        write_field(p, new)
    want = _oracle_bytes(tmp_path, new).splitlines(keepends=True)[: WRITE_BLOCK_ROWS + 1]
    assert p.read_bytes() == b"".join(want)
    with pytest.raises(FormatError, match=f"found {WRITE_BLOCK_ROWS} data rows"):
        read_field(p)


def test_cli_outputs_written_twice_are_byte_identical(tmp_path, capsys):
    terrain = tmp_path / "terrain.txt"
    ax = np.linspace(-1, 1, 16)
    cone = 700.0 * (1.0 - np.maximum(np.abs(ax[:, None]), np.abs(ax[None, :])))
    terrain.write_text("\n".join(" ".join(f"{v:.6f}" for v in row) for row in cone) + "\n")
    y, t, f = tmp_path / "y.gf", tmp_path / "t.gf", tmp_path / "f.gf"
    mc, csv, demo = tmp_path / "mc.json", tmp_path / "mc.csv", tmp_path / "demo"
    commands = [
        ["gen", "--func", "example1", "--d", "1", "--m", "300", "--sigma", "0.1",
         "--seed", "3", "--out", str(y), "--truth-out", str(t)],
        ["recover", "--in", str(y), "--k-rule", "practical", "--out", str(f)],
        ["mc", "--func", "example1", "--n-sweep", "64,128", "--trials", "2", "--seed", "5",
         "--methods", "knn", "--out", str(mc), "--csv", str(csv)],
        ["demo-elevation", "--in", str(terrain), "--scale", "500", "--sigma", "0.05",
         "--k", "9", "--seed", "2", "--out-dir", str(demo)],
    ]
    outputs = [y, t, f, mc, csv, *(demo / f"{name}.gf" for name in
               ("truth", "noisy_mod", "denoised_mod", "unwrapped", "unwrapped_raw")),
               demo / "report.json"]
    runs = []
    for _ in range(2):
        printed = []
        for argv in commands:
            assert main(argv) == 0
            printed.append(capsys.readouterr())
        runs.append((printed, [path.read_bytes() for path in outputs]))
    assert runs[0] == runs[1]
    assert json.loads(mc.read_bytes())["schema_version"] == 1
