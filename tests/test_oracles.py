"""The reference implementations in ``tests/oracles.py`` stay independent
of the kernels they certify."""

import ast
from pathlib import Path

# The seeded-sign oracle hashes each pair itself: it names neither the sign
# classes nor their row primitive.
KERNELS = {
    "normalize", "reduce_word", "normal_form_order", "apply_b",
    "SignFunction", "SeededSigns", "_row", "matrix",
}


def _names(node):
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name.rsplit(".", 1)[-1]
        yield node.asname
    elif isinstance(node, ast.Constant):
        yield node.value


def test_oracles_are_independent():
    path = Path(__file__).with_name("oracles.py")
    found = [
        f"{path.name}:{node.lineno} {name}"
        for node in ast.walk(ast.parse(path.read_text()))
        for name in _names(node)
        if name in KERNELS
    ]
    assert not found, f"oracles refer to the kernels they certify: {', '.join(found)}"
