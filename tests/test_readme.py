"""README's Python examples run as written and show their true values."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
NOT_SHOWN = object()


def test_readme_python_blocks_run_in_order_and_show_their_values():
    """Every block runs in one namespace, in order.  An expression whose
    comment is a Python literal, such as ``algebra.universe   # [...]``,
    must evaluate to that literal."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace: dict = {}
    checked = {}
    for block in blocks:
        lines = block.splitlines()
        for node in ast.parse(block).body:
            comment = lines[node.end_lineno - 1].partition("#")[2].strip()
            try:
                shown = ast.literal_eval(comment)
            except (ValueError, SyntaxError):
                shown = NOT_SHOWN
            if isinstance(node, ast.Expr) and shown is not NOT_SHOWN:
                code = compile(ast.Expression(node.value), "README.md", "eval")
                checked[ast.get_source_segment(block, node)] = (eval(code, namespace), shown)
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert {"algebra.universe", "algebra.labels"} <= checked.keys()
    for source, (value, shown) in checked.items():
        assert value == shown, source
