"""Every output the library writes is opened by ``fileio.open_output``.

The files in src/modrec are parsed with ast, never imported or run.  A call
that opens a file in a write mode, or that writes a whole file in one call,
anywhere but inside ``open_output`` would truncate outputs that the helper
replaces, so it fails here first.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "modrec"
WRITE_MODE_CHARS = set("wax+")
MODULES = ("io", "os", "codecs", "gzip", "bz2", "lzma")  # their open takes the path first


def _opened_for_writing(call: ast.Call) -> bool:
    """A call of <x>.write_text or <x>.write_bytes, or of open(path, mode),
    <module>.open(path, mode) or <path>.open(mode) whose mode may write.  A
    mode that is not a string literal (such as os.open's flags) counts as
    writing; no mode reads."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        position = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        position = 1 if isinstance(func.value, ast.Name) and func.value.id in MODULES else 0
    else:
        return False
    mode = call.args[position] if len(call.args) > position else None
    for kw in call.keywords:
        if kw.arg in ("mode", "flags"):
            mode = kw.value
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(WRITE_MODE_CHARS & set(mode.value))
    return True


def _write_calls(tree: ast.Module, where: str) -> list:
    """(file, enclosing function, line) of every write call in the module."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _opened_for_writing(node):
            found.append((where, function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_every_write_goes_through_open_output():
    calls = []
    for path in sorted(SOURCE.glob("*.py")):
        calls += _write_calls(ast.parse(path.read_text(), str(path)), path.name)
    # A parse that silently found nothing would pass a check for strays alone.
    assert [(where, function) for where, function, _ in calls] == [("fileio.py", "open_output")], calls


def test_the_write_call_finder_sees_every_form():
    source = """
def reads(p):
    open(p)
    open(p, "r")
    open(p, mode="rb")
    p.open()
    p.open("rb")
    io.open(p, "r")

def writes(p, m):
    open(p, "w")
    open(p, mode="a")
    open(p, "r+")
    open(p, m)
    p.open("x")
    io.open(p, "wb")
    os.open(p, os.O_WRONLY)
    p.write_text("")
    p.write_bytes(b"")
"""
    calls = _write_calls(ast.parse(source), "probe")
    assert {function for _, function, _ in calls} == {"writes"}
    assert len(calls) == 9
