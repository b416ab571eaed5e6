"""The core stays stdlib-only: every module in src/ectarget imports only the
standard library and ectarget itself. The package resolves its public names
and submodules on first access."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ectarget

SOURCE = Path(__file__).resolve().parent.parent / "src" / "ectarget"


def imported_roots(tree):
    """Top-level names of the absolute imports in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_imported_roots_sees_every_absolute_import():
    text = "import os.path, numpy as np\nfrom hypothesis import given\nfrom . import graphs\n"
    text += "def f():\n    from scipy.sparse import csr_matrix\n"
    assert list(imported_roots(ast.parse(text))) == ["os", "numpy", "hypothesis", "scipy"]


def test_the_core_imports_only_the_standard_library():
    modules = sorted(SOURCE.rglob("*.py"))
    assert len(modules) >= 8
    foreign = [
        (path.name, root)
        for path in modules
        for root in imported_roots(ast.parse(path.read_text(encoding="utf-8")))
        if root not in sys.stdlib_module_names and root != "ectarget"
    ]
    assert foreign == []


def test_each_public_name_is_the_object_in_its_home_module():
    assert len(ectarget.__all__) == 50
    for name in ectarget.__all__:
        value = getattr(ectarget, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_a_star_import_binds_every_public_name():
    namespace = {}
    exec("from ectarget import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == ectarget.__all__


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'densest'"):
        ectarget.densest
    assert not hasattr(ectarget, "smallest_last_order")  # a graphs name that is not public


def test_a_submodule_resolves_before_anything_imports_it():
    # the benchmark's tracer reads the stage modules off the package after
    # importing ectarget.cli alone
    probe = (
        "import sys, ectarget.cli\n"
        "assert 'ectarget.density' not in sys.modules\n"
        "print(ectarget.density.__name__, ectarget.out_coloring.verify_out_coloring.__module__)"
    )
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ectarget.density ectarget.universal\n"
