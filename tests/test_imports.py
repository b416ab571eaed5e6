"""The core stays stdlib-only: every module in src/ectarget imports only the
standard library and ectarget itself."""

import ast
import sys
from pathlib import Path

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
