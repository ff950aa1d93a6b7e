"""numpy is imported by the clt kernels only: every other command, and every
rejected input, runs without it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphmoments

PACKAGE = Path(graphmoments.__file__).resolve().parent

# Runs cli.main on its arguments in a fresh interpreter and reports the exit
# code, stdout and whether numpy was imported.
RUN_MAIN = """
import contextlib, io, json, sys
from graphmoments import cli
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "out": out.getvalue(), "numpy": "numpy" in sys.modules}))
"""

A4 = "a:1 a:1 a:1 a:1"
T_ESTIMATE = ["clt", "t-estimate", "--word", "a a a a", "--pairing", "1-3,2-4"]
VARIANCE = ["clt", "variance", "--word", "a a a a", "--pairing", "1-3,2-4"]

WITHOUT_NUMPY = {
    "normalize": (["normalize", "--word", "a b a"], 0),
    "reduced": (["reduced", "--word", "a b a"], 0),
    "equivalent": (["equivalent", "--word", "a b", "--word", "b a"], 0),
    "partitions-count": (["partitions", "count", "--word", A4], 0),
    "partitions-list": (["partitions", "list", "--word", A4], 0),
    "moment-partitions": (["moment", "--method", "partitions", "--word", A4], 0),
    "moment-fock": (["moment", "--method", "fock", "--word", A4], 0),
    "moment-matrix": (["moment", "--method", "matrix", "--word", A4, "--N", "4"], 0),
    "limit": (["limit", "--word", A4, "--theta", "-1e-05"], 0),
    "compare": (["compare", "--word", A4, "--N-list", "2,4", "--seeds", "0,1"], 0),
    "sign-dump": (["sign-dump", "--N", "2"], 0),
    "invalid-input": (["normalize", "--word", "a z"], 2),
    "over-budget": (
        ["moment", "--method", "matrix", "--word", "a:1 a:1", "--N", "64",
         "--max-iterations", "1000"],
        3,
    ),
    "t-estimate-invalid-input": (T_ESTIMATE + ["--N", "0"], 2),
    "variance-over-budget": (VARIANCE + ["--M-list", "4", "--samples", str(10**8)], 3),
}


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "noedge2.json"
    path.write_text(json.dumps({"vertices": ["a", "b"], "edges": []}))
    return str(path)


def run_fresh(argv):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_MAIN, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv, code", WITHOUT_NUMPY.values(), ids=WITHOUT_NUMPY.keys())
def test_command_runs_without_numpy(graph_path, argv, code):
    result = run_fresh(argv + ["--graph", graph_path])
    assert result["code"] == code
    assert not result["numpy"]


@pytest.mark.parametrize(
    "argv, out",
    [
        (T_ESTIMATE + ["--N", "10", "--signs", "constant"], "0.9\n"),
        (VARIANCE + ["--M-list", "4,8", "--samples", "8", "--p", "1.0"],
         "M,samples,variance\n4,8,0.0\n8,8,0.0\n# slope=0\n"),
    ],
    ids=["t-estimate", "variance"],
)
def test_clt_kernels_load_numpy(graph_path, argv, out):
    result = run_fresh(argv + ["--graph", graph_path])
    assert (result["code"], result["out"]) == (0, out)
    assert result["numpy"]


def _module_level(body):
    """Statements run at import: the module body and the class bodies and
    branches in it, but not function bodies."""
    for node in body:
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _module_level(getattr(node, field, []))


def test_no_module_level_numpy_import():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _module_level(ast.parse(path.read_text()).body):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == "numpy" or name.startswith("numpy.") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"numpy imported at module level: {', '.join(found)}"
