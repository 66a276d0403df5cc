"""The benchmark's use of the library resolves.

The files in benchmarks/ are parsed with ast, never imported or run, and
nothing there is changed.  Every modrec import and every attribute read off
a name that a modrec import binds (a module, or a class or function taken
from one) must name something that exists, so a deleted or renamed library
name that the benchmark still uses fails here first.
"""

import ast
import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _resolve(path: str):
    """The object a dotted modrec path names, importing submodules on the way."""
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part) and hasattr(obj, "__path__"):  # a package's submodule
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def _chain(node: ast.Attribute):
    """(base name, [attr, ...]) of a chain name.a.b..., or None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id, attrs[::-1]) if isinstance(node, ast.Name) else None


def _modrec_uses(tree: ast.Module) -> set:
    """Dotted paths of every modrec name the module imports or reads."""
    bound = {}  # local name -> the dotted modrec path it stands for
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "modrec":
                    uses.add(alias.name)
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else "modrec"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "modrec":
            for alias in node.names:
                uses.add(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            chain = _chain(node)
            if chain and chain[0] in bound:
                uses.add(".".join([bound[chain[0]], *chain[1]]))
    return uses


def _bench_uses() -> set:
    uses = set()
    for path in sorted(BENCHMARKS.glob("*.py")):
        uses |= {(path.name, use) for use in _modrec_uses(ast.parse(path.read_text(), str(path)))}
    return uses


def test_every_benchmark_use_of_the_library_resolves():
    uses = _bench_uses()
    # A parse that silently found nothing would pass the check below.
    assert {"modrec.cli.main", "modrec.qcqp.solve_qcqp", "modrec.grid.GridField.from_flat"} <= {
        use for _, use in uses
    }
    unresolved = []
    for where, path in sorted(uses):
        try:
            _resolve(path)
        except (AttributeError, ImportError) as exc:
            unresolved.append(f"{where}: {path} ({exc})")
    assert not unresolved, "\n".join(unresolved)
