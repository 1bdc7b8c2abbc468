"""Static hygiene of the package's imports and exports.

Every module imports what it needs once, at the top: a name that is imported
but never read is dead weight, and a relative import inside a function hides a
dependency that no import cycle requires (each module already imports from
the same sibling at the top).

Every name the package exports is used by the library, its scripts or its
benchmark, or is named in README; and every polydyn name that the scripts
and the benchmark load exists, so a deletion that breaks them fails here.
"""

import ast
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polydyn"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CLIENTS = sorted([*(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


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


def polydyn_refs(tree: ast.Module) -> set:
    """``(module, name)`` for every polydyn name a client module loads: each
    ``from polydyn... import X``, and each ``m.X`` where ``m`` is bound to a
    polydyn module (``import polydyn``, ``import polydyn.hier as h``,
    ``from polydyn import hier``, or ``h = hier`` after one of these)."""
    modules, refs, nodes = {}, set(), list(ast.walk(tree))
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "polydyn":
                    modules[alias.asname or "polydyn"] = alias.name if alias.asname else "polydyn"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "polydyn":
            for alias in node.names:
                refs.add((node.module, alias.name))
                if _is_submodule(node.module, alias.name):
                    modules[alias.asname or alias.name] = f"polydyn.{alias.name}"
    for node in nodes:
        if isinstance(node, ast.Assign) and getattr(node.value, "id", None) in modules:
            modules.update((t.id, modules[node.value.id]) for t in node.targets if isinstance(t, ast.Name))
    return refs | {
        (modules[node.value.id], node.attr)
        for node in nodes
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules
    }


def _is_submodule(module: str, name: str) -> bool:
    return module == "polydyn" and (PACKAGE / f"{name}.py").is_file()


def unresolved(refs) -> list:
    return sorted(
        (module, name)
        for module, name in refs
        if not (_is_submodule(module, name) or hasattr(importlib.import_module(module), name))
    )


def unused_exports(init: ast.Module, sources, clients, readme: str) -> list:
    """Names ``__init__.py`` imports that no library module reads, no client
    loads from polydyn, and no inline code span of README (outside fenced
    blocks) names."""
    used = {
        node.id
        for tree in sources
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    used |= {name for tree in clients for _, name in polydyn_refs(tree)}
    prose = re.sub(r"^```.*?^```", "", readme, flags=re.S | re.M)
    used |= {word for span in re.findall(r"`([^`\n]+)`", prose) for word in re.findall(r"\w+", span)}
    return [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if (alias.asname or alias.name) not in used
    ]


@pytest.mark.parametrize("path", CLIENTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_polydyn_name_a_client_loads_resolves(path):
    assert unresolved(polydyn_refs(_parse(path))) == []


def test_every_export_is_used_or_documented():
    sources = [_parse(p) for p in MODULES]
    clients = [_parse(p) for p in CLIENTS]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unused_exports(_parse(PACKAGE / "__init__.py"), sources, clients, readme) == []


def test_the_export_scans_see_their_faults():
    client = ast.parse(
        "import polydyn\n"
        "from polydyn import laplace as lp, no_such_name\n"
        "from polydyn.dist import gaussian, no_such_law\n"
        "def f():\n"
        "    from polydyn import hier\n"
        "    h = hier\n"
        "    return polydyn.mk_state, polydyn.no_such_state, lp.rho_update, lp.nope, h.trace, h.gone\n"
    )
    assert unresolved(polydyn_refs(client)) == [
        ("polydyn", "no_such_name"),
        ("polydyn", "no_such_state"),
        ("polydyn.dist", "no_such_law"),
        ("polydyn.hier", "gone"),
        ("polydyn.laplace", "nope"),
    ]
    init = ast.parse("from .a import used, spare, loaded, named, coded\n")
    sources = [ast.parse("used(1)\nspare = 2\n")]
    clients = [ast.parse("from polydyn import hier\nhier.loaded()\n")]
    readme = "Use `named(x)`.\n```python\ncoded()\n```\n"
    assert unused_exports(init, sources, clients, readme) == ["spare", "coded"]


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
