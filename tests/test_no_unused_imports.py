"""Every module of ``src/gluekit`` reads each name it imports.

An import counts as used when the bound name is read as a name anywhere in
the module (an attribute chain ``mod.attr`` reads ``mod``).  Package
``__init__.py`` files re-export their imports, and ``from __future__``
imports switch on language features, so both are exempt.
"""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "gluekit")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_every_import_is_read():
    unused = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{name}:{line} {bound}" for line, bound in imported_names(tree) if bound not in read]
    assert not unused, unused
