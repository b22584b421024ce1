"""Every module-level import is read in its module.

Covers src/capsym (its __init__.py re-exports what it imports), tests/,
tools/ and demos/; bench/ is left out.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = ("src/capsym", "tests", "tools", "demos")
REEXPORTS = {"src/capsym/__init__.py"}


def module_imports(tree):
    """The names that the module-level imports of a parsed module bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(module_imports(tree) - read)


def test_no_module_imports_a_name_it_never_reads():
    unused = {}
    for folder in DIRS:
        for name in sorted(os.listdir(os.path.join(ROOT, folder))):
            rel = f"{folder}/{name}"
            if name.endswith(".py") and rel not in REEXPORTS:
                found = unused_imports(os.path.join(ROOT, rel))
                if found:
                    unused[rel] = found
    assert unused == {}
