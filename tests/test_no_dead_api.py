"""Every function, class and method defined in ``src/gluekit`` is used.

A definition counts as used when its name is read somewhere else in
``src/``, ``tests/`` or ``perfbench/``: as a name, an attribute, an
imported name, or a word of a string literal (``perfbench/tracing.py``
names the functions it wraps in strings).  Docstrings and comments do not
count, and dunder methods are called by the language, so they are exempt.
"""

import ast
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "gluekit")
SCANNED = [os.path.join(ROOT, d) for d in ("src", "tests", "perfbench")]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def python_files(top):
    for dirpath, _, names in os.walk(top):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *DEFINITIONS)) and ast.get_docstring(node) is not None:
            yield node.body[0].value


def references(tree):
    skip = {id(node) for node in docstrings(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            yield from re.findall(r"\w+", node.value)


def test_every_definition_is_referenced():
    defined = []
    for path in python_files(PACKAGE):
        for node in ast.walk(parse(path)):
            if isinstance(node, DEFINITIONS) and not re.fullmatch(r"__\w+__", node.name):
                defined.append((os.path.relpath(path, ROOT), node.lineno, node.name))
    used = set()
    for top in SCANNED:
        for path in python_files(top):
            used.update(references(parse(path)))
    dead = [f"{path}:{line} {name}" for path, line, name in defined if name not in used]
    assert defined and not dead, dead
