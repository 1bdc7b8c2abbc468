"""Static hygiene of the package's imports.

Every module imports what it needs once, at the top: a name that is imported
but never read is dead weight, and a relative import inside a function hides a
dependency that no import cycle requires (each module already imports from
the same sibling at the top).
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polydyn"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unread_imports(tree: ast.Module) -> list:
    """Names bound by an import statement and never read in the module."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


def local_relative_imports(tree: ast.Module) -> list:
    """Relative imports that are not statements of the module body."""
    top = {id(node) for node in tree.body}
    return sorted(
        (node.lineno, "." * node.level + (node.module or ""))
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and id(node) not in top
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unread_imports(_parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_relative_imports(path):
    assert local_relative_imports(_parse(path)) == []


def test_the_scan_sees_both_faults():
    tree = ast.parse(
        "from .a import used, spare\n"
        "import os\n"
        "def f():\n"
        "    from .b import late\n"
        "    return used(late)\n"
    )
    assert unread_imports(tree) == [(1, "spare"), (2, "os")]
    assert local_relative_imports(tree) == [(4, ".b")]


def test_benchmark_tracer_names_resolve():
    """The benchmark's traced run wraps each ``<module>.<attr>`` in its
    ``TRACED`` list and reads two search caps by keyword; a rename breaks it."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name in tracer.TRACED:
        module, attr = name.split(".")
        if not callable(getattr(importlib.import_module(f"polydyn.{module}"), attr, None)):
            missing.append(name)
    assert missing == []
    hier = importlib.import_module("polydyn.hier")
    assert "cap" in inspect.signature(hier._candidates).parameters
    assert "max_sections" in inspect.signature(hier.quasi_bisim).parameters
