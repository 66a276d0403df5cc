"""Text file formats: grid fields, elevation matrices, and JSON reports.

Grid fields are plain text with a one-line header

    #GRIDFIELD v1 d=<d> m=<m> kind=<kind> [seed=<int>]

then one line per grid point in lexicographic index order: the
comma-separated 1-based index components, then the value printed with 17
significant digits (which round-trips binary64 exactly).  The reader also
accepts ``#meta <key>=<value>`` lines after the header, which the writer
never emits.  All writers emit deterministic byte streams for identical
inputs: keys are sorted and float formatting is fixed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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


def _format_value(v: float) -> str:
    return format(float(v), ".17g")


def write_field(path, fld: GridField, seed: int | None = None) -> None:
    header = f"#GRIDFIELD v1 d={fld.grid.d} m={fld.grid.m} kind={fld.kind}"
    if seed is not None:
        header += f" seed={int(seed)}"
    lines = [header]
    for idx, value in zip(iter_lex(fld.grid), fld.flat):
        lines.append(",".join(str(i) for i in idx) + "," + _format_value(value))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


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
    values = np.empty(grid.n)
    with open(path, "r", encoding="ascii") as fh:
        rows = 0
        expected = iter(iter_lex(grid))
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != grid.d + 1:
                raise FormatError(
                    f"expected {grid.d} index components and a value", line=lineno
                )
            if rows >= grid.n:
                raise FormatError(f"more than {grid.n} data rows", line=lineno)
            try:
                idx = tuple(int(p) for p in parts[:-1])
                value = float(parts[-1])
            except ValueError:
                raise FormatError(f"cannot parse row {line!r}", line=lineno) from None
            want = next(expected)
            if idx != want:
                raise FormatError(
                    f"index {idx} out of lexicographic order, expected {want}",
                    line=lineno,
                )
            if header.kind == "mod1" and not 0.0 <= value < 1.0:
                raise FormatError(
                    f"mod1 value {value!r} outside [0, 1)", line=lineno
                )
            if not math.isfinite(value):
                raise FormatError(f"real value {value!r} is not finite", line=lineno)
            values[rows] = value
            rows += 1
    if rows != grid.n:
        raise FormatError(f"found {rows} data rows, header promises {grid.n}")
    return GridField.from_flat(grid, values, kind=header.kind)


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
