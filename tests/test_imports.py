"""Imports in ``src/hochord``: all at module level, and all used; and every
public top-level definition has a reader somewhere in the repository.

No function body imports anything, so a module's dependencies are the list
at its top.  Every module-level import is used in its module; the only
exemptions are the names ``hochbench/tracer.py`` wraps by attribute
(its ``SPANNED`` table): the tracer times a layer by replacing the name a
calling module imported, so such a name must stay bound even when the module
no longer calls it (``hochschild.nullspace`` and ``hochschild.solve``).
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hochord"


def _spanned_pairs() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location(
        "_hochbench_tracer", ROOT / "hochbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {site for sites in tracer.SPANNED.values() for site in sites}


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in bound if name not in used)


def test_no_unused_module_level_imports():
    exempt = _spanned_pairs()
    unused = [f"{path.stem}.{name}"
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
              for name in _unused_imports(path) if (path.stem, name) not in exempt]
    assert unused == []



def _function_local_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.stem}.{fn.name}:{node.lineno}"
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_no_function_local_imports():
    found = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in _function_local_imports(path)]
    assert found == []


def _public_definitions(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _referenced_names(path: Path) -> set[str]:
    """Names a file reads, as a bare name, an attribute or an imported
    alias; strings (docstrings included) do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def test_no_unreferenced_public_definitions():
    """Every public top-level function or class of the package is used:
    referenced in its own module or by some file of the package, the tests,
    the demos or the benchmark harness."""
    files = [path for top in ("src", "tests", "demos", "hochbench")
             for path in sorted((ROOT / top).rglob("*.py"))]
    referenced = {path: _referenced_names(path) for path in files}
    unreferenced = [f"{path.stem}.{name}"
                    for path in sorted(PACKAGE.glob("*.py"))
                    for name in _public_definitions(path)
                    if not any(name in names for names in referenced.values())]
    assert unreferenced == []
