"""The library imports nothing outside the standard library.

Core claim:
    - every import in src/linkhom/*.py names a standard-library module,
      linkhom itself, or a relative module
"""

import ast
import sys
from pathlib import Path

import linkhom

SOURCES = sorted(Path(linkhom.__file__).parent.glob("*.py"))


def _imported_top_levels(tree):
    """Top-level module names of the absolute imports in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_only_the_standard_library():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "diagrams.py"}
    allowed = set(sys.stdlib_module_names) | {"linkhom"}
    outside = {
        f"{path.name}: {name}"
        for path in SOURCES
        for name in _imported_top_levels(ast.parse(path.read_text(), str(path)))
        if name not in allowed
    }
    assert not outside, f"non-stdlib imports: {sorted(outside)}"
