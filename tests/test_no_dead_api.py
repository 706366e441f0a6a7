"""Every function, class, method and dataclass field defined in
``src/gluekit`` is used.

A definition counts as used when its name is read in ``src/`` or
``perfbench/``, the program and its benchmark: as a name, an attribute,
an imported name (a re-export in ``__init__.py`` among them), or a word of
a string literal (``perfbench/tracing.py`` names the functions it wraps in
strings).  So ``src/`` holds only what the program runs; a helper that
only tests read lives in the tests.  The generators and the JSON
serializers exist for the tests and the corpora, so for ``generators``
and ``jsonio`` a read in ``tests/`` counts too.  Docstrings and comments
do not count, and dunder methods are called by the language, so they are
exempt.  A dataclass field counts as used only when some file reads it as
an attribute: a field that is only ever stored is state nobody looks at.
"""

import ast
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "gluekit")
SCANNED = [os.path.join(ROOT, d) for d in ("src", "tests", "perfbench")]
PROGRAM = [os.path.join(ROOT, d) for d in ("src", "perfbench")]
# modules whose definitions the tests may be the only readers of
TEST_FACING = ("generators.py", "jsonio.py")
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


def referenced(tops):
    used = set()
    for top in tops:
        for path in python_files(top):
            used.update(references(parse(path)))
    return used


def test_every_definition_is_referenced():
    defined = []
    for path in python_files(PACKAGE):
        for node in ast.walk(parse(path)):
            if isinstance(node, DEFINITIONS) and not re.fullmatch(r"__\w+__", node.name):
                defined.append((os.path.relpath(path, ROOT), node.lineno, node.name))
    by_program, anywhere = referenced(PROGRAM), referenced(SCANNED)
    dead = [
        f"{path}:{line} {name}" for path, line, name in defined
        if name not in (anywhere if os.path.basename(path) in TEST_FACING else by_program)
    ]
    assert defined and not dead, dead


def dataclass_fields(tree):
    """(line, class, field) for each annotated field of a @dataclass class."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield item.lineno, node.name, item.target.id


def test_every_dataclass_field_is_read():
    fields = [
        (os.path.relpath(path, ROOT), line, cls, name)
        for path in python_files(PACKAGE)
        for line, cls, name in dataclass_fields(parse(path))
    ]
    read = set()
    for top in SCANNED:
        for path in python_files(top):
            read.update(
                node.attr for node in ast.walk(parse(path))
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            )
    unread = [f"{path}:{line} {cls}.{name}" for path, line, cls, name in fields if name not in read]
    assert fields and not unread, unread
