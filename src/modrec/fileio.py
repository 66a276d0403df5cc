"""Text file formats: grid fields, elevation matrices, and JSON reports.

Grid fields are plain text with a one-line header

    #GRIDFIELD v1 d=<d> m=<m> kind=<kind> [seed=<int>]

then one line per grid point in lexicographic index order: the
comma-separated 1-based index components, then the value printed with 17
significant digits (which round-trips binary64 exactly).  The reader also
accepts ``#meta <key>=<value>`` lines after the header, which the writer
never emits, and skips blank lines and any other line that starts with
``#``.  All writers emit deterministic byte streams for identical inputs:
keys are sorted and float formatting is fixed.

Fields are written and parsed in blocks of rows.  A file the block parse
rejects is walked again one row at a time, and the reader raises the
``FormatError`` of the first offending line, with its line number: the
first line that has the wrong number of columns, lies beyond the n rows the
header promises, does not parse as Python ``int`` indices and a ``float``
value, carries an index out of lexicographic order, or holds a value
outside [0, 1) (mod1) or not finite (real), checked in that order.  A file
with too few rows raises without a line number.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from .grid import GridField, UniformGrid, iter_lex


class FormatError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class GridFileHeader:
    d: int
    m: int
    kind: str
    seed: int | None = None
    meta: dict = field(default_factory=dict)


WRITE_BLOCK_ROWS = 4096  # rows formatted per write
READ_BLOCK_BYTES = 65536  # size hint of each readlines block

_ROW_TEMPLATE = "%s,%.17g\n"  # same bytes as format(value, ".17g")


def _index_strings(grid: UniformGrid):
    """The index part of every row, "i1,...,id", in lexicographic order."""
    axis = [str(i) for i in range(1, grid.m + 1)]
    if grid.d == 1:
        return iter(axis)
    return map(",".join, itertools.product(axis, repeat=grid.d))


def write_field(path, fld: GridField, seed: int | None = None) -> None:
    header = f"#GRIDFIELD v1 d={fld.grid.d} m={fld.grid.m} kind={fld.kind}"
    if seed is not None:
        header += f" seed={int(seed)}"
    indices = _index_strings(fld.grid)
    flat = fld.flat
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for start in range(0, flat.size, WRITE_BLOCK_ROWS):
            block = flat[start:start + WRITE_BLOCK_ROWS].tolist()
            pairs = zip(itertools.islice(indices, len(block)), block)
            fh.write(_ROW_TEMPLATE * len(block) % tuple(itertools.chain.from_iterable(pairs)))


def read_header(path) -> GridFileHeader:
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline().rstrip("\n")
        tokens = first.split()
        if len(tokens) < 2 or tokens[0] != "#GRIDFIELD" or tokens[1] != "v1":
            raise FormatError("expected '#GRIDFIELD v1' header", line=1)
        fields = {}
        for tok in tokens[2:]:
            if "=" not in tok:
                raise FormatError(f"malformed header token {tok!r}", line=1)
            key, _, val = tok.partition("=")
            fields[key] = val
        for required in ("d", "m", "kind"):
            if required not in fields:
                raise FormatError(f"header missing {required}=", line=1)
        try:
            d = int(fields["d"])
            m = int(fields["m"])
            seed = int(fields["seed"]) if "seed" in fields else None
        except ValueError:
            raise FormatError("d, m and seed must be integers", line=1) from None
        if d < 1 or m < 2:
            raise FormatError(f"need d >= 1 and m >= 2, got d={d} m={m}", line=1)
        kind = fields["kind"]
        if kind not in ("mod1", "real"):
            raise FormatError(f"unknown kind {kind!r}", line=1)
        meta = {}
        lineno = 1
        for line in fh:
            lineno += 1
            if not line.startswith("#meta "):
                break
            body = line[len("#meta "):].rstrip("\n")
            key, _, val = body.partition("=")
            meta[key] = val
        return GridFileHeader(d=d, m=m, kind=kind, seed=seed, meta=meta)


def read_field(path) -> GridField:
    header = read_header(path)
    grid = UniformGrid(d=header.d, m=header.m)
    values = _parse_rows(path, grid, header.kind)
    if values is None:
        _raise_first_fault(path, grid, header.kind)
    return GridField.from_flat(grid, values, kind=header.kind)


def _parse_rows(path, grid: UniformGrid, kind: str) -> np.ndarray | None:
    """The values of a well-formed file, parsed a block of lines at a time;
    None if any data row fails a check of ``_check_row`` or the row count is
    wrong.  Blank and ``#`` lines are skipped, as in the row walk."""
    d, n = grid.d, grid.n
    want = np.indices(grid.shape).reshape(d, n) + 1
    values = np.empty(n)
    row = 0
    with open(path, "r", encoding="ascii") as fh:
        while lines := fh.readlines(READ_BLOCK_BYTES):
            rows = [s for s in map(str.strip, lines) if s and s[0] != "#"]
            if not rows:
                continue
            r = len(rows)
            if set(map(str.count, rows, itertools.repeat(","))) != {d}:
                return None
            tokens = ",".join(rows).split(",")
            try:
                block = np.fromiter(map(float, tokens[d::d + 1]), dtype=float, count=r)
                del tokens[d::d + 1]
                idx = np.fromiter(map(int, tokens), dtype=np.int64, count=r * d)
            except (ValueError, OverflowError):  # OverflowError: an index beyond int64
                return None
            # Rows past the n-th make the slice of want too short to compare equal.
            if not np.array_equal(idx.reshape(r, d).T, want[:, row:row + r]):
                return None
            values[row:row + r] = block
            row += r
    if row != n:
        return None
    if kind == "mod1":
        ok = np.all((values >= 0.0) & (values < 1.0))
    else:
        ok = np.all(np.isfinite(values))
    return values if ok else None


def _raise_first_fault(path, grid: UniformGrid, kind: str) -> NoReturn:
    """Walk the data rows one at a time and raise the FormatError of the first
    offending line; called only once the block parse has found a fault."""
    rows = 0
    expected = iter_lex(grid)
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            _check_row(line, lineno, rows, expected, grid, kind)
            rows += 1
    raise FormatError(f"found {rows} data rows, header promises {grid.n}")


def _check_row(line: str, lineno: int, rows: int, expected, grid: UniformGrid, kind: str) -> None:
    """The checks of one data row, in order; ``rows`` data rows precede it and
    ``expected`` yields the index it must carry."""
    parts = line.split(",")
    if len(parts) != grid.d + 1:
        raise FormatError(f"expected {grid.d} index components and a value", line=lineno)
    if rows >= grid.n:
        raise FormatError(f"more than {grid.n} data rows", line=lineno)
    try:
        idx = tuple(int(p) for p in parts[:-1])
        value = float(parts[-1])
    except ValueError:
        raise FormatError(f"cannot parse row {line!r}", line=lineno) from None
    want = next(expected)
    if idx != want:
        raise FormatError(f"index {idx} out of lexicographic order, expected {want}", line=lineno)
    if kind == "mod1" and not 0.0 <= value < 1.0:
        raise FormatError(f"mod1 value {value!r} outside [0, 1)", line=lineno)
    if not math.isfinite(value):
        raise FormatError(f"real value {value!r} is not finite", line=lineno)


def read_elevation(path, crop_square: bool = False) -> np.ndarray:
    """Whitespace-separated rectangular matrix of reals; optionally crop the
    leading square block."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                row = [float(tok) for tok in stripped.split()]
            except ValueError:
                raise FormatError(f"cannot parse row {stripped!r}", line=lineno) from None
            if not all(map(math.isfinite, row)):
                raise FormatError(f"row {stripped!r} has a value that is not finite", line=lineno)
            if rows and len(row) != len(rows[0]):
                raise FormatError(
                    f"ragged row of length {len(row)}, expected {len(rows[0])}",
                    line=lineno,
                )
            rows.append(row)
    if not rows:
        raise FormatError("empty elevation file")
    mat = np.array(rows, dtype=float)
    if crop_square:
        side = min(mat.shape)
        mat = mat[:side, :side]
    return mat


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def report_to_json(report: dict) -> str:
    """Canonical JSON used by write_report; sorted keys, two-space indent."""
    payload = {"schema_version": 1}
    payload.update(_jsonable(report))
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_report(path, report: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(report_to_json(report))


def read_report(path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)
