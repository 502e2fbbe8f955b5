"""Hygiene of the library's sources and of its public surface.

Every name a library module imports is used in that module;
``__init__.py`` re-exports its imports, so it is exempt.  Every name the
package exports has a use outside the tests: in another library module,
in a demo, or in the benchmark harness, whose trace targets count too.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rfim1d"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """Map each name bound by an import statement to its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    """Names read anywhere in the module, including quoted annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def test_modules_found():
    assert {p.name for p in MODULES} >= {"mc.py", "model.py", "enumeration.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports unused names: {unused}"


def exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def referenced_names(tree):
    """Names a module reads as a Name or an Attribute, except in the
    statement that defines them."""
    refs = set()
    for stmt in tree.body:
        names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        refs |= names
    return refs


def trace_target_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {part for target in module.TARGETS for part in target[2].split(".")}


def test_exports_found():
    assert {"Contour", "spins_to_triangles", "certify_C0"} <= set(exported_names())


def test_every_export_has_a_use_outside_tests():
    users = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))
    used = trace_target_names()
    for path in users:
        used |= referenced_names(ast.parse(path.read_text(), filename=str(path)))
    unused = [name for name in exported_names() if name not in used]
    assert not unused, f"rfim1d exports names only tests use: {unused}"


def test_contours_submodule_not_shadowed():
    import rfim1d.contours as m
    assert hasattr(m, "_merge")
