"""Hygiene of the library's sources and of its public surface.

Every name a library module imports is used in that module;
``__init__.py`` re-exports its imports, so it is exempt.  Every name the
package exports, and every public function, class and method a library
module defines, has a use outside the tests and outside its own
definition: in a library module, in a demo, or in the benchmark harness,
whose trace targets count too.  A method that overrides one of a base
class is used by the base class's callers, so it is exempt.  Every
defaulted parameter of a function or method, public or private, is set
off its default by some call, in a library module, a demo or the
benchmark harness: a default that only tests turn, or none, is a
constant.
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
    """Names a module reads as a Name or an Attribute, except inside a
    function or class of that name."""
    refs = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            refs.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return refs


def trace_target_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {part for target in module.TARGETS for part in target[2].split(".")}


def callers():
    """The sources whose uses count: library modules, demos and the
    benchmark harness, not tests."""
    return MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))


def names_used_outside_tests():
    used = trace_target_names()
    for path in callers():
        used |= referenced_names(ast.parse(path.read_text(), filename=str(path)))
    return used


def definitions():
    """(module, qualified name) of every module-level function and class and
    of every method of a module-level class, overrides excepted."""
    found = []
    for path in MODULES:
        module = importlib.import_module(f"rfim1d.{path.stem}")
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            found.append((path.stem, stmt.name))
            if isinstance(stmt, ast.ClassDef):
                bases = getattr(module, stmt.name).__mro__[1:]
                found += [(path.stem, f"{stmt.name}.{node.name}") for node in stmt.body
                          if isinstance(node, ast.FunctionDef)
                          and not any(node.name in vars(base) for base in bases)]
    return found


def public_definitions():
    """The ``definitions`` whose own name is public: a public method of a
    private class counts."""
    return [(module, name) for module, name in definitions()
            if name.rsplit(".", 1)[-1][0] != "_"]


def test_exports_found():
    assert {"Contour", "spins_to_triangles", "certify_C0"} <= set(exported_names())


def test_every_export_has_a_use_outside_tests():
    used = names_used_outside_tests()
    unused = [name for name in exported_names() if name not in used]
    assert not unused, f"rfim1d exports names only tests use: {unused}"


def test_definitions_found():
    found = public_definitions()
    assert {("model", "CouplingSpec.boundary_vector"), ("cli", "main")} <= set(found)
    # _Parser's methods override argparse's
    assert not [name for module, name in found if name.startswith("_Parser.")]


def test_every_definition_has_a_use_outside_tests():
    used = names_used_outside_tests()
    unused = [f"{module}.{name}" for module, name in public_definitions()
              if name.rsplit(".", 1)[-1] not in used]
    assert not unused, f"rfim1d defines names only tests use: {unused}"


def defaulted_parameters():
    """(qualified name, parameter, default, position) of every defaulted
    parameter of a function or method of ``definitions``.  A method's
    positions skip its ``self`` or ``cls``; a keyword-only parameter has
    position None."""
    defined = set(definitions())
    found = []
    for path in MODULES:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            defs = [(stmt.name, stmt, 0)] if isinstance(stmt, ast.FunctionDef) else []
            if isinstance(stmt, ast.ClassDef):
                defs = [(f"{stmt.name}.{node.name}", node, 1) for node in stmt.body
                        if isinstance(node, ast.FunctionDef)]
            for name, node, skip in defs:
                if (path.stem, name) not in defined:
                    continue
                args, qual = node.args, f"{path.stem}.{name}"
                positional = (args.posonlyargs + args.args)[skip:]
                first = len(positional) - len(args.defaults)
                found += [(qual, a.arg, d, i) for i, (a, d) in
                          enumerate(zip(positional[first:], args.defaults), first)]
                found += [(qual, a.arg, d, None)
                          for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def _is_default(value, default):
    if ast.dump(value) == ast.dump(default):
        return True
    try:
        return ast.literal_eval(value) == ast.literal_eval(default)
    except ValueError:
        return False


def turned_defaults():
    """(callee name, parameter name or position) of every argument that a
    call in ``callers()`` sets off its default; a call with ``*args`` or ``**kwargs`` may
    set any parameter, so it gives (callee name, "*")."""
    defaults = {(qual.rsplit(".", 1)[-1], key): default
                for qual, arg, default, pos in defaulted_parameters() for key in (arg, pos)}
    turned = set()
    for path in callers():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                turned.add((name, "*"))
            settings = list(enumerate(node.args))
            settings += [(k.arg, k.value) for k in node.keywords if k.arg is not None]
            for key, value in settings:
                default = defaults.get((name, key))
                if default is not None and not _is_default(value, default):
                    turned.add((name, key))
    return turned


def test_defaulted_parameters_found():
    found = {(qual, arg) for qual, arg, _, _ in defaulted_parameters()}
    assert {("bounds.exhaustive_reports", "c"), ("model.energy", "theta")} <= found
    assert ("cli.main", "argv") in found
    # private functions count too
    assert ("contours._merge", "clusters") in found
    # a demo is a caller: energy_bounds_demo.py calls minimal_j1(alpha, n=6)
    assert ("minimal_j1", "n") in turned_defaults()


def test_every_default_is_turned_by_a_caller():
    turned = turned_defaults()
    unturned = [f"{qual}.{arg}" for qual, arg, _, pos in defaulted_parameters()
                if not {(qual.rsplit(".", 1)[-1], key) for key in (arg, pos, "*")} & turned]
    assert not unturned, f"defaults that no caller sets to another value: {unturned}"


def test_cli_imports_no_private_name():
    # a check the CLI needs belongs to a public library call
    tree = ast.parse((SRC / "cli.py").read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.level or node.module == "rfim1d")
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"rfim1d.cli imports private names: {private}"


def test_contours_submodule_not_shadowed():
    import rfim1d.contours as m
    assert hasattr(m, "_merge")
