"""No module of ``src/gluekit`` but ``rings`` constructs a ``FinCommRing``,
by name (``FinCommRing(...)``) or as an attribute (``rg.FinCommRing(...)``).
Every other module gets its rings from ``rings``: products and compatible
families from ``compatible_subring``, so a change of how ring tables are
represented stays in one module.
"""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "gluekit")


def ring_constructions(tree):
    """The line of each call of a callee named ``FinCommRing`` in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name == "FinCommRing":
                yield node.lineno


def test_only_rings_constructs_a_ring():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "rings.py":
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{line}" for line in ring_constructions(tree)]
    assert not found, found


def test_ring_constructions_are_found():
    source = (
        "from . import rings as rg\n"
        "from .rings import FinCommRing\n"
        "a = rg.FinCommRing(add, mul, 0, 1)\n"
        "b = FinCommRing(add, mul, 0, 1)\n"
        "c = rg.compatible_subring(parts, ())\n"
        "d: rg.FinCommRing = c[0]\n"
    )
    assert sorted(ring_constructions(ast.parse(source))) == [3, 4]
    with open(os.path.join(PACKAGE, "rings.py"), encoding="utf-8") as fh:
        assert list(ring_constructions(ast.parse(fh.read())))
