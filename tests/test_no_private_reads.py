"""No module of ``src/gluekit`` reads a private ``_name`` of another gluekit
module, as an attribute (``ps._offsets``) or an imported name (``from
.fintop import _x``).  What one module needs of another is public, so a
private name can change together with its own module alone.  Dunder names
belong to the language and are exempt.
"""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "gluekit")


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(tree, own):
    """(line, module, name) for each private name of another gluekit module
    that ``tree``, the source of module ``own``, reads."""
    modules = {}  # local name -> gluekit module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("gluekit")):
            source = (node.module or "").removeprefix("gluekit").lstrip(".")
            for alias in node.names:
                if not source:
                    modules[alias.asname or alias.name] = alias.name
                elif source != own and is_private(alias.name):
                    yield node.lineno, source, alias.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and modules.get(node.value.id, own) != own
            and is_private(node.attr)
        ):
            yield node.lineno, modules[node.value.id], node.attr


def test_no_module_reads_another_modules_private_names():
    reads = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            own = name[: -len(".py")]
            reads += [f"{name}:{line} {module}.{attr}" for line, module, attr in private_reads(tree, own)]
    assert not reads, reads


def test_private_reads_are_found():
    source = (
        "from . import presheaves as ps\n"
        "from .fintop import _final_topology, minimal_open\n"
        "from . import abgroups as ab\n"
        "x = ps._offsets(ab.product_group([]), ab.__name__)\n"
    )
    found = sorted(private_reads(ast.parse(source), "sheafglue"))
    assert found == [(2, "fintop", "_final_topology"), (4, "presheaves", "_offsets")]
