"""Source hygiene: every name a module imports is used in that module.

No linter ships with the toolchain, so this parses ``src/cohomkit`` with
``ast``.  Package ``__init__.py`` files are skipped (their imports are
re-exports), as are import lines marked ``# noqa`` (import-time probes).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cohomkit"


def _imported(tree, lines):
    """(bound name, line) for each import outside ``# noqa`` lines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a.asname or a.name.split(".")[0], a) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            names = [(a.asname or a.name, a) for a in node.names]
        else:
            continue
        for name, alias in names:
            lineno = getattr(alias, "lineno", node.lineno)
            if "# noqa" not in lines[lineno - 1]:
                yield name, lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations such as -> "FGModule"
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            expr = ast.parse(ann.value, mode="eval")
            used.update(n.id for n in ast.walk(expr)
                        if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path):
    text = path.read_text()
    tree = ast.parse(text)
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree, text.splitlines())
            if name not in used]


def test_no_unused_imports():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        bad = unused_imports(path)
        if bad:
            found[str(path.relative_to(SRC))] = bad
    assert not found, f"unused imports: {found}"


def test_detects_an_unused_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("import os\nfrom math import gcd, inf\n"
                   "import numba  # noqa: F401\n\n"
                   "def f(x: \"Path\") -> float:\n    return inf\n")
    assert unused_imports(mod) == [("os", 1), ("gcd", 2)]
