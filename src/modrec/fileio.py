"""Text file formats: grid fields, elevation matrices, and JSON reports.

Grid fields are plain text with a one-line header

    #GRIDFIELD v1 d=<d> m=<m> kind=<kind> [seed=<int>]

then one line per grid point in lexicographic index order: the
comma-separated 1-based index components, then the value printed with 17
significant digits (which round-trips binary64 exactly).  The reader skips
blank lines and every line after the header that starts with ``#``.  All
writers emit deterministic byte streams for identical inputs: keys are
sorted and float formatting is fixed.

Fields are written in blocks of ``WRITE_BLOCK_ROWS`` rows, each assembled
by numpy and written at once, byte for byte the text of ``"%s,%.17g"`` row
by row.  A value with 1e-4 <= |v| < 1e17, which ``'%.17g'`` prints in fixed
notation, gets its 17 digits in numpy from one error-free product
|v| 10^s = p + e (Dekker's TwoProduct), rounded half to even as Python
rounds; Python's own formatting prints every other value (zeros, smaller and
larger magnitudes).

Fields are read by ``np.loadtxt`` over the data lines; ``GridField`` checks
the values.  A file that either rejects, that is not ASCII, or on which
numpy warns, is walked again one row at a time with Python's ``int`` and
``float``: the walk returns the values of a file whose rows only Python
parses (such as ``1_0.5``), or raises the ``FormatError`` of the first
offending line, with its line number: the first line that holds a byte
outside ASCII (line 1 for the header), has the wrong number of columns, lies
beyond the n rows the header promises, does not parse as Python ``int``
indices and a ``float`` value, carries an index out of lexicographic order,
or holds a value outside [0, 1) (mod1) or not finite (real), checked in that
order.  A file with too few rows raises without a line number, and a header
that repeats a key raises on line 1.  ``read_elevation`` reports a byte
outside ASCII the same way.

Every writer opens its output through ``open_output``, which replaces an
existing file rather than truncating it wherever nothing but the inode
number and ctime can show the difference: a regular file (not a symlink)
with one link, owned by the caller's effective user and group, with no
extended attribute (so no ACL), that the caller may write, in a directory
the caller may write.  It is unlinked and created afresh with the same
permission bits.  Every other path -- no file, a symlink, a hard-linked
file, a FIFO or device, another user's or group's file, a file the caller
may not write, any path on a platform without ``os.listxattr`` -- is opened
with ``open(path, "w")`` and truncated, with the same errors as that call.
The bytes written are the same either way.  Why: truncating a file to zero
arms ext4's ``auto_da_alloc`` flush, so closing it allocates the new blocks
at once, and the next rewrite of the path then waits tens of milliseconds
for ext4 to free them; a file created afresh stays in delayed allocation
until writeback, and a rewrite before then frees nothing.

Durability: the library never calls ``fsync``.  A written output, new or
replacing an old one, reaches the disk through the kernel's ordinary
writeback; a crash before then can lose it.  (When the writers truncated,
ext4 pushed an overwritten output out at close.)  An interrupted write
leaves a file with too few rows, which ``read_field`` rejects.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import GridField, UniformGrid, iter_lex


class FormatError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def _open_lines(path):
    """``path`` opened for reading as ASCII text, a byte outside ASCII read
    as a lone surrogate for ``_check_ascii`` to report."""
    return open(path, "r", encoding="ascii", errors="surrogateescape")


def _check_ascii(line: str, lineno: int) -> None:
    """Raise the FormatError of a line of ``_open_lines`` that holds a byte
    outside ASCII."""
    if not line.isascii():
        byte = next(b for b in line.encode("ascii", "surrogateescape") if b > 0x7F)
        raise FormatError(f"non-ASCII byte 0x{byte:02x}", line=lineno)


@dataclass(frozen=True)
class GridFileHeader:
    d: int
    m: int
    kind: str
    seed: int | None = None


WRITE_BLOCK_ROWS = 4096  # rows formatted per write

# Column k holds the two ASCII digits of k.
_DIGIT_PAIRS = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), np.uint8).reshape(100, 2).T.copy()
_POW10 = np.array([float(10**s) for s in range(21)])  # exact in binary64


def _split(a):
    """Veltkamp's split of binary64 ``a`` into hi + lo, each of at most 26
    significant bits, so that a product of two halves is exact."""
    c = 134217729.0 * a  # (2^27 + 1) a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _digits(q: np.ndarray, width: int) -> np.ndarray:
    """The ASCII digits of the nonnegative integers ``q``, zero padded to
    ``width``: row j holds digit j of each."""
    digits = np.empty((width + width % 2, q.size), np.uint8)
    for row in range(digits.shape[0] - 2, -1, -2):
        rest = q // 100
        _DIGIT_PAIRS.take(q - rest * 100, axis=1, out=digits[row:row + 2])
        q = rest
    return digits[width % 2:]


def _format_fixed(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the ``'%.17g'`` text of each value with 1e-4 <= |v| < 1e17, which
    it prints in fixed notation, into its column of ``out``, 24 rows of zeros
    on entry; return the indices of the other values, whose columns hold junk."""
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e17)
    if not fast.any():
        return np.arange(values.size)
    a[~fast] = 1.0  # a stand-in in the fast range
    # The 17 digits are D = round(|v| 10^s), s = 16 - X, X = floor(log10 |v|),
    # so that 10^16 <= D < 10^17; 10^s is exact for s in [0, 20].
    x = np.floor(np.log10(a)).astype(np.intp).clip(-4, 16)
    ah, al = _split(a)
    while True:  # log10 may be one off next to a power of ten
        s = 16 - x
        b, bh, bl = _POW10.take(s), _POW10_HI.take(s), _POW10_LO.take(s)
        p = a * b  # p + e == |v| 10^s exactly (Dekker's TwoProduct)
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        low = (p < 1e16) | ((p == 1e16) & (e < 0))
        high = (p > 1e17) | ((p == 1e17) & (e >= 0))
        if not (low.any() or high.any()):
            break
        x += high
        x -= low
    # p >= 10^16 > 2^53 is an even integer, so rounding e half to even rounds
    # p + e half to even, as Python does.  It never rounds up to 10^17: a
    # double below 10^(17 - s), times 10^s, is at most 10^17 - 5.
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)
    # The text of |v| is 0000d0...d16 with a point after its column 4 + X,
    # shown from the "0." of X < 0, else from d0, up to the last nonzero
    # digit past the point, or up to d_X without the point.
    padded = np.zeros((23, values.size), np.uint8)  # NUL, 0000d0...d16, NUL
    padded[1:5] = ord("0")
    padded[5:22] = _digits(digits, 17)
    col = np.arange(22, dtype=np.int8)[:, None]
    last = ((padded[5:22] != ord("0")) * col[:17]).max(axis=0)
    x = x.astype(np.int8)
    point = x + 5
    body = padded[1:] * (col < point)
    body += padded[:-1] * (col > point)
    body += np.uint8(ord(".")) * (col == point)
    start = 4 + np.minimum(x, 0)
    stop = np.where(last > x, last + 6, point)
    out[0] = np.signbit(values) * np.uint8(ord("-"))
    out[1:23] = body * ((col >= start) & (col < stop))
    return np.flatnonzero(~fast)


def _format_rows(grid: UniformGrid, values: np.ndarray, start: int) -> bytes:
    """The text of the data rows start, start + 1, ... that hold ``values``:
    each row is assembled NUL padded in a column of one matrix, whose NULs
    are then dropped."""
    d, m = grid.d, grid.m
    width = len(str(m))
    text = np.zeros((d * (width + 1) + 25, values.size), np.uint8)
    lex = np.arange(start, start + values.size)
    shown = 10 ** np.arange(width - 1, -1, -1)[:, None]  # index digit j shows from shown[j]
    for axis in range(d):
        index = lex // m ** (d - 1 - axis) % m + 1
        row = axis * (width + 1)
        text[row:row + width] = _digits(index, width) * (index >= shown)
        text[row + width] = ord(",")
    slow = _format_fixed(values, text[-25:-1])
    text[-1] = ord("\n")
    rows = np.ascontiguousarray(text.T)
    if slow.size:
        # Python's text, space padded to 24 bytes, the length of -1.7976931348623157e+308
        python_text = "%-24.17g" * slow.size % tuple(values[slow].tolist())
        rows[slow, -25:-1] = np.frombuffer(python_text.replace(" ", "\0").encode(), np.uint8).reshape(-1, 24)
    return rows.tobytes().translate(None, b"\0")


def _replaceable_mode(path) -> int | None:
    """The permission bits of the file at ``path`` if unlinking and creating
    it afresh shows no difference but the inode number and ctime, else None."""
    if not hasattr(os, "listxattr"):  # Linux only; elsewhere xattrs go unseen
        return None
    try:
        st = os.lstat(path)
    except OSError:  # no file, or a path lstat cannot reach: open as before
        return None
    if (
        stat.S_ISREG(st.st_mode)
        and st.st_nlink == 1
        and (st.st_uid, st.st_gid) == (os.geteuid(), os.getegid())
        and os.access(path, os.W_OK)
        and not os.listxattr(path)
    ):
        return stat.S_IMODE(st.st_mode)
    return None


@contextlib.contextmanager
def open_output(path):
    """``open(path, "w", encoding="ascii")``, replacing rather than truncating
    an existing file where the module docstring says it may."""
    bits = _replaceable_mode(path)
    if bits is not None:
        try:
            os.unlink(path)
        except OSError:  # e.g. a directory the caller may not write
            bits = None
    # "x" after the unlink: a name planted in between is never followed.
    with open(path, "w" if bits is None else "x", encoding="ascii") as fh:
        if bits is not None:
            os.fchmod(fh.fileno(), bits)  # the umask trimmed the new file's bits
        yield fh


def write_field(path, fld: GridField, seed: int | None = None) -> None:
    header = f"#GRIDFIELD v1 d={fld.grid.d} m={fld.grid.m} kind={fld.kind}"
    if seed is not None:
        header += f" seed={int(seed)}"
    flat = fld.flat
    with open_output(path) as fh:
        fh.write(header + "\n")
        for start in range(0, flat.size, WRITE_BLOCK_ROWS):
            text = _format_rows(fld.grid, flat[start:start + WRITE_BLOCK_ROWS], start)
            fh.write(text.decode("ascii"))


def read_header(path) -> GridFileHeader:
    with _open_lines(path) as fh:
        first = fh.readline()
        _check_ascii(first, 1)
        tokens = first.split()
        if len(tokens) < 2 or tokens[0] != "#GRIDFIELD" or tokens[1] != "v1":
            raise FormatError("expected '#GRIDFIELD v1' header", line=1)
        fields = {}
        for tok in tokens[2:]:
            if "=" not in tok:
                raise FormatError(f"malformed header token {tok!r}", line=1)
            key, _, val = tok.partition("=")
            if key in fields:
                raise FormatError(f"header repeats {key}=", line=1)
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
        return GridFileHeader(d=d, m=m, kind=kind, seed=seed)


def read_field(path) -> GridField:
    header = read_header(path)
    grid = UniformGrid(d=header.d, m=header.m)
    values = _load_rows(path, grid)
    if values is not None:
        try:
            return GridField.from_flat(grid, values, kind=header.kind)
        except ValueError:  # a value outside the kind's range: find its line
            pass
    return GridField.from_flat(grid, _read_rows(path, grid, header.kind), kind=header.kind)


def _load_rows(path, grid: UniformGrid) -> np.ndarray | None:
    """The values of the data rows as ``np.loadtxt`` parses them; None if it
    declines or warns, if the rows are not the grid's n indices in order, or
    if n rows of at least 2d + 1 bytes and a line break cannot fit in the file,
    which is checked before anything is allocated from n."""
    d, n = grid.d, grid.n
    if n * (2 * d + 2) > os.path.getsize(path):
        return None
    dtype = [("i", np.int64, (d,)), ("v", float)]
    with open(path, "r", encoding="ascii") as fh, warnings.catch_warnings():
        warnings.simplefilter("error")  # older numpy may warn where it should decline
        rows = (s for s in map(str.strip, fh) if s and s[0] != "#")
        try:
            table = np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, max_rows=n + 1)
        except (ValueError, Warning):
            return None
    # n + 1 rows, or one row loaded as a 0-d table, differ in shape: not equal.
    if not np.array_equal(table["i"].T, np.indices(grid.shape).reshape(d, n) + 1):
        return None
    return table["v"]


def _read_rows(path, grid: UniformGrid, kind: str) -> np.ndarray:
    """The values of the data rows, checked one row at a time: either the
    FormatError of the first offending line, or the values of a file that
    numpy declined but Python's ``int`` and ``float`` accept."""
    values = []
    expected = iter_lex(grid)
    with _open_lines(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            _check_ascii(line, lineno)
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            values.append(_check_row(line, lineno, len(values), expected, grid, kind))
    if len(values) != grid.n:
        raise FormatError(f"found {len(values)} data rows, header promises {grid.n}")
    return np.array(values)


def _check_row(line: str, lineno: int, rows: int, expected, grid: UniformGrid, kind: str) -> float:
    """The checks of one data row, in order, and its value; ``rows`` data rows
    precede it and ``expected`` yields the index it must carry."""
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
    return value


def read_elevation(path, crop_square: bool = False) -> np.ndarray:
    """Whitespace-separated rectangular matrix of reals; optionally crop the
    leading square block."""
    rows = []
    with _open_lines(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            _check_ascii(line, lineno)
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
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None  # JSON has no NaN or infinity
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj) -> str:
    """The JSON text of reports and CLI stdout: sorted keys, two-space indent.
    A non-finite float, such as the NaN mean of an mc cell whose trials all
    failed, is written as null."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False)


def report_to_json(report: dict) -> str:
    """What write_report writes: canonical JSON with ``schema_version``."""
    return canonical_json({"schema_version": 1, **report}) + "\n"


def write_report(path, report: dict) -> None:
    with open_output(path) as fh:
        fh.write(report_to_json(report))


def read_report(path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)
