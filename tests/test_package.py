"""Static guards over the package: exported names exist and are reached,
error types are used."""

import ast
import importlib
import pathlib
import re

import pytest

import bottlenecklab
from bottlenecklab import errors, model, numerics

PACKAGE_DIR = pathlib.Path(bottlenecklab.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")
ACCEPTANCE = pathlib.Path(__file__).with_name("test_acceptance.py")
REPO = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"bottlenecklab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _raised_names():
    """Names of the exception classes in every raise statement of the package."""
    names = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Attribute):
                names.add(target.attr)
    return names


def test_every_error_type_is_raised():
    declared = set(errors.__all__) - {"BottleneckLabError"}
    assert sorted(declared - _raised_names()) == []


def _definition_names(node):
    """Names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _free_reads(node, bound=frozenset()):
    """Names read in node that no enclosing function binds locally."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        stores = [n for n in ast.walk(node) if isinstance(n, ast.Name)]
        stores = {n.id for n in stores if isinstance(n.ctx, ast.Store)}
        bound = bound | {p.arg for p in params} | stores
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
        return {node.id}
    return set().union(*(_free_reads(child, bound) for child in ast.iter_child_nodes(node)))


def _own_reads(path):
    """(names defined, names read) per module-level statement of a module."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    return [(_definition_names(stmt), _free_reads(stmt)) for stmt in body]


def _package_module(node):
    """Module stem a `from ... import` names inside the package: '' for the
    package itself, None for anything outside it."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module == "bottlenecklab":
        return ""
    if node.level == 0 and node.module.startswith("bottlenecklab."):
        return node.module.split(".", 1)[1]
    return None


def _imported_uses(path):
    """(module, name) pairs a file takes from the package: imported by name,
    or read as an attribute of a name bound to a package module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, uses = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (mod := _package_module(node)) is not None:
            for alias in node.names:
                if mod:
                    uses.add((mod, alias.name))
                else:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("bottlenecklab.") and alias.asname:
                    modules[alias.asname] = alias.name.split(".", 1)[1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                uses.add((modules[node.value.id], node.attr))
    return uses


def test_every_exported_name_is_reached():
    # a public name stays in the package only if other package code or an
    # acceptance criterion uses it; test-only code lives in tests/
    uses = set().union(*(_imported_uses(p) for p in [*PACKAGE_DIR.glob("*.py"), ACCEPTANCE]))
    unreached = []
    for name in MODULES:
        own = _own_reads(PACKAGE_DIR / f"{name}.py")
        module = importlib.import_module(f"bottlenecklab.{name}")
        for attr in sorted(getattr(module, "__all__", ())):
            reads = set().union(*(read for defined, read in own if attr not in defined))
            if (name, attr) not in uses and attr not in reads:
                unreached.append(f"{name}.{attr}")
    assert unreached == []


def _table_nodes(tree):
    """ids of every node inside a module-level assignment: the tolerance
    table and the other constants of numerics."""
    return {id(n) for stmt in tree.body if isinstance(stmt, ast.Assign) for n in ast.walk(stmt)}


def test_small_float_literals_live_in_the_numerics_table():
    # every tolerance and slack is one constant of the numerics table; a
    # float literal of size up to 1e-6 anywhere else is a threshold that
    # was defined in place (docstrings are strings, not float literals)
    stray = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = _table_nodes(tree) if path.stem == "numerics" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) is float:
                if 0 < abs(node.value) <= 1e-6 and id(node) not in allowed:
                    stray.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert stray == []


def test_every_package_name_the_benchmark_reads_resolves():
    # Tier-1 does not run the benchmark, so a rename that would break its
    # workloads is caught here
    uses = _imported_uses(REPO / "perfbench" / "workloads.py")
    expected = {
        ("bottleneck", "THEOREM_SLACK"),
        ("cli", "main"),
        ("model", "gibbs_state"),
        ("sampler", "css_metropolis_channel"),
    }
    assert expected <= uses
    missing = []
    for module, attr in sorted(uses):
        if not hasattr(importlib.import_module(f"bottlenecklab.{module}"), attr):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_readme_tolerances_name_their_table_entry():
    # a value the README quotes as "1e-10 (`STATIONARY_TOL`)" is the entry
    # of that name in the numerics table
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    quoted = re.findall(r"([0-9.]+e-[0-9]+) \(`([A-Z_]+)`\)", readme)
    assert len(quoted) >= 3
    assert [(v, n) for v, n in quoted if float(v) != getattr(numerics, n, None)] == []


def test_every_size_bearing_model_key_is_bounded():
    # a new model or model key cannot skip the size bounds; a seed is not a size
    assert list(model.MODEL_KEYS) == list(model.REGISTRY)
    for name, keys in model.MODEL_KEYS.items():
        for key, (_, most, _) in keys.items():
            assert key == "model_seed" or most is not None, (name, key)
