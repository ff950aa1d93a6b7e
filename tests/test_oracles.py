"""The reference implementations in ``tests/oracles.py`` stay independent
of the kernels they certify, and ``src/`` holds no code that only the tests
run."""

import ast
from pathlib import Path

# The seeded-sign oracle encodes and hashes each pair itself: it names
# neither the sign classes nor their label key or row primitive.  The
# creation and annihilation oracles find the front-movable block
# themselves: they name neither the fused field operator nor its front scan.
KERNELS = {
    "normalize", "normal_form_order", "apply_b", "apply_field",
    "_front", "SignFunction", "SeededSigns", "_key", "_row", "_matrix",
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


# Definitions that nothing in src/ names but that stay, each for its reason.
UNNAMED_IN_SRC = {
    # the benchmark's tracer wraps it by name to count crossing queries
    "gamma_crossing_pairs",
    # argparse calls this hook of its parser on every usage error
    "_Parser.error",
    # Python calls a module's __getattr__ for names it has not yet bound
    "__getattr__",
}


def _definitions(tree):
    """Top-level functions and classes, and the non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def test_src_holds_no_code_that_only_the_tests_run():
    src = Path(__file__).resolve().parents[1] / "src" / "graphmoments"
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    uses = [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    unnamed = []
    for tree in trees:
        for qualified, definition in _definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            name = definition.name
            if not any(
                id(node) not in inside
                and name in (getattr(node, "id", None), getattr(node, "attr", None))
                for node in uses
            ):
                unnamed.append(qualified)
    assert sorted(unnamed) == sorted(UNNAMED_IN_SRC), (
        "definitions in src/ that nothing in src/ names: move test-only code"
        " to tests/, or list the definition here with its reason"
    )
