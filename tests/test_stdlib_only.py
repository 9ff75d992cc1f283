"""The library imports nothing outside the standard library, and nothing it
does not use.

Core claims:
    - every import in src/linkhom/*.py names a standard-library module,
      linkhom itself, or a relative module
    - no module but __init__.py, whose imports are re-exports, imports a name
      it never uses
    - every name in linkhom.__all__ resolves
    - every private module-level function or class, and every private
      method, is referenced by name or attribute somewhere in the library,
      so no helper stays behind for the tests alone
    - every public module-level function or class outside __init__.py is
      referenced in the library, by name, attribute or from-import, or is
      exported in linkhom.__all__
    - bases.py, bounded.py, hopf.py and relators.py build no Diagram and
      key no whole forest: none imports the diagrams module or its Diagram
      constructors and forest keyers, and relators.py takes from it only
      the tree-body functions, so every term is a tree body keyed by
      key_tree
    - diagrams.py makes every Diagram through the validating constructor:
      it calls no object.__new__
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


def _imported_names(tree):
    """The names a module's imports bind, __future__ features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_module_imports_a_name_it_never_uses():
    unused = set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.update(f"{path.name}: {name}" for name in _imported_names(tree)
                      if name not in used)
    assert not unused, f"imported and never used: {sorted(unused)}"


def test_every_exported_name_resolves():
    missing = [name for name in linkhom.__all__ if not hasattr(linkhom, name)]
    assert not missing, f"__all__ names nothing for {missing}"


def _private(name) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(tree):
    """The private module-level functions and classes of a module, and the
    private methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _private(node.name):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, ast.FunctionDef) and _private(item.name))


def test_every_private_definition_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    defined = [(name, private) for name, tree in trees.items()
               for private in _private_definitions(tree)]
    assert len(defined) > 50
    unused = [f"{name}: {private}" for name, private in defined if private not in used]
    assert not unused, f"defined and never referenced in the library: {unused}"


def test_every_public_definition_is_used_or_exported():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    used = set(linkhom.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    defined = [(name, node.name) for name, tree in trees.items() if name != "__init__.py"
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _private(node.name)]
    assert len(defined) > 70
    unused = [f"{name}: {public}" for name, public in defined if public not in used]
    assert not unused, f"defined, never referenced in the library and not exported: {unused}"


def _relative_imports(name):
    """module.name for each name a library module imports relatively."""
    path = Path(linkhom.__file__).parent / name
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    return names


def test_key_modules_build_no_diagram():
    makers = {f"diagrams.{name}" for name in ("Diagram", "build", "canonical_diagram",
                                              "canonicalize")}
    found = []
    for name in ("bases.py", "bounded.py", "hopf.py", "relators.py"):
        names = _relative_imports(name)
        found += [f"{name}: {n}" for n in sorted(names & (makers | {".diagrams"}))]
    assert not found, found


def test_relators_key_terms_by_key_tree_alone():
    assert {n for n in _relative_imports("relators.py") if n.startswith("diagrams.")} == {
        "diagrams.join_trees", "diagrams.key_tree", "diagrams.recolored", "diagrams.split_trees"}


def test_diagrams_are_made_by_the_validating_constructor_alone():
    path = Path(linkhom.__file__).parent / "diagrams.py"
    unchecked = [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__new__"]
    assert not unchecked, f"object.__new__ called at diagrams.py lines {unchecked}"
