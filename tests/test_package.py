"""Static guards over the package: exported names exist, error types are used."""

import ast
import importlib
import pathlib

import pytest

import bottlenecklab
from bottlenecklab import errors

PACKAGE_DIR = pathlib.Path(bottlenecklab.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


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
