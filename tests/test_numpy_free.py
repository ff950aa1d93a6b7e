"""What a process imports.  ``import graphmoments`` loads no submodule, and
each command loads only the modules of its own route: numpy only where a
clt estimate's crossing graph has a cycle, so every other command, every
forest-shaped pairing and every rejected input runs without it, and
dataclasses in no command."""

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
# code, stdout, whether numpy and dataclasses were imported, and the
# package's submodules that were.
RUN_MAIN = """
import contextlib, io, json, sys
from graphmoments import cli
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "out": out.getvalue(),
    "numpy": "numpy" in sys.modules,
    "dataclasses": "dataclasses" in sys.modules,
    "modules": sorted(m for m in sys.modules if m.startswith("graphmoments.")),
}))
"""

# Imports the package in a fresh interpreter and reports what it loaded, the
# exported names that differ from their home module's or that a star import
# leaves unbound, and the error an unknown name raises.
LAZY_EXPORTS = """
import json, sys
import graphmoments
loaded = sorted(m for m in sys.modules if m.startswith("graphmoments."))
mismatched = []
for name in graphmoments.__all__:
    value = getattr(graphmoments, name)
    home = sys.modules[value.__module__]
    if not home.__name__.startswith("graphmoments.") or vars(home)[name] is not value:
        mismatched.append(name)
star = {}
exec("from graphmoments import *", star)
unbound = [n for n in graphmoments.__all__ if star.get(n) is not getattr(graphmoments, n)]
try:
    graphmoments.no_such_name
    error = None
except AttributeError as exc:
    error = str(exc)
print(json.dumps({"loaded": loaded, "mismatched": mismatched, "unbound": unbound,
                  "error": error}))
"""

# Runs its arguments as a Python process and reports that process's exit
# status, stdout and ru_maxrss, read with os.wait4.  On Linux a child's
# ru_maxrss includes the RSS of the process that started it, up to its exec,
# so a small interpreter starts it rather than the test process.
PEAK_RSS = """
import json, os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-c", *sys.argv[1:]], stdout=subprocess.PIPE, text=True)
with proc.stdout:
    out = proc.stdout.read()
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps({"status": proc.returncode, "out": out, "maxrss": usage.ru_maxrss}))
"""

A4 = "a:1 a:1 a:1 a:1"
T_ESTIMATE = ["clt", "t-estimate", "--word", "a a a a", "--pairing", "1-3,2-4"]
VARIANCE = ["clt", "variance", "--word", "a a a a", "--pairing", "1-3,2-4"]

# What every command loads: the parser, its defaults and the graph loader.
CLI = {"cli", "defaults", "errors", "graph"}
WORDS = CLI | {"words"}
PAIRINGS = CLI | {"partitions"}
MATRIX = PAIRINGS | {"spinmodel"}
CLT = MATRIX | {"words", "cltlab"}

WITHOUT_NUMPY = {
    "normalize": (["normalize", "--word", "a b a"], 0, WORDS),
    "reduced": (["reduced", "--word", "a b a"], 0, WORDS),
    "equivalent": (["equivalent", "--word", "a b", "--word", "b a"], 0, WORDS),
    "partitions-count": (["partitions", "count", "--word", A4], 0, PAIRINGS),
    "partitions-list": (["partitions", "list", "--word", A4], 0, PAIRINGS),
    "moment-partitions": (["moment", "--method", "partitions", "--word", A4], 0, PAIRINGS),
    "moment-fock": (
        ["moment", "--method", "fock", "--word", A4], 0, PAIRINGS | {"fock", "words"}
    ),
    "moment-matrix": (
        ["moment", "--method", "matrix", "--word", A4, "--N", "4"], 0, MATRIX
    ),
    "limit": (["limit", "--word", A4, "--theta", "-1e-05"], 0, PAIRINGS),
    "compare": (
        ["compare", "--word", A4, "--N-list", "2,4", "--seeds", "0,1"],
        0,
        MATRIX | {"cltlab"},
    ),
    "sign-dump": (["sign-dump", "--N", "2"], 0, MATRIX),
    "invalid-input": (["normalize", "--word", "a z"], 2, WORDS),
    "over-budget": (
        ["moment", "--method", "matrix", "--word", "a:1 a:1", "--N", "64",
         "--max-iterations", "1000"],
        3,
        MATRIX,
    ),
    "t-estimate": (T_ESTIMATE + ["--N", "10", "--signs", "constant"], 0, CLT),
    "variance": (VARIANCE + ["--M-list", "4,8", "--samples", "8", "--p", "1.0"], 0, CLT),
    "t-estimate-invalid-input": (T_ESTIMATE + ["--N", "0"], 2, CLT),
    "variance-over-budget": (
        VARIANCE + ["--M-list", "4", "--samples", str(10**8)], 3, CLT
    ),
}

# The stdout of the clt rows above.
STDOUT = {
    "t-estimate": "0.9\n",
    "variance": "M,samples,variance\n4,8,0.0\n8,8,0.0\n# slope=0\n",
}


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "noedge2.json"
    path.write_text(json.dumps({"vertices": ["a", "b"], "edges": []}))
    return str(path)


def run_fresh(script, *argv):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def bare_has_dataclasses():
    """Whether the interpreter imports dataclasses before any of our code."""
    script = 'import json, sys; print(json.dumps("dataclasses" in sys.modules))'
    return run_fresh(script)


def assert_loaded(result, modules, bare_has_dataclasses):
    assert result["modules"] == sorted(f"graphmoments.{m}" for m in modules)
    assert not result["dataclasses"] or bare_has_dataclasses


@pytest.mark.parametrize("name", WITHOUT_NUMPY)
def test_command_runs_without_numpy(graph_path, bare_has_dataclasses, name):
    argv, code, modules = WITHOUT_NUMPY[name]
    result = run_fresh(RUN_MAIN, *argv, "--graph", graph_path)
    assert result["code"] == code
    if name in STDOUT:
        assert result["out"] == STDOUT[name]
    assert not result["numpy"]
    assert_loaded(result, modules, bare_has_dataclasses)


def test_clt_kernels_load_numpy(graph_path, bare_has_dataclasses):
    # the three blocks of a^6 under 1-4,2-5,3-6 cross pairwise: a triangle
    argv = ["clt", "t-estimate", "--word", "a a a a a a", "--pairing", "1-4,2-5,3-6",
            "--N", "10", "--signs", "constant"]
    result = run_fresh(RUN_MAIN, *argv, "--graph", graph_path)
    assert (result["code"], result["out"]) == (0, "0.72\n")
    assert result["numpy"]
    assert_loaded(result, CLT, bare_has_dataclasses)


def test_forest_estimate_holds_no_sign_matrix(graph_path):
    # the one a-b crossing at N = 1000: its sign block would take 1 MB as
    # int8 and 8 MB as lists, besides numpy itself (about 40 MB in all when
    # the whole block was drawn); summed row by row the process stays near
    # the interpreter's own size
    argv = ["clt", "t-estimate", "--word", "a b a b", "--pairing", "1-3,2-4",
            "--N", "1000", "--graph", graph_path]
    measured = run_fresh(PEAK_RSS, RUN_MAIN, *argv)
    result = json.loads(measured["out"])
    assert (measured["status"], result["code"], result["numpy"]) == (0, 0, False)
    peak_mb = measured["maxrss"] / (2**20 if sys.platform == "darwin" else 2**10)
    assert peak_mb < 24


def test_package_import_loads_no_submodule_and_exports_lazily():
    result = run_fresh(LAZY_EXPORTS)
    assert result["loaded"] == []
    assert result["mismatched"] == []
    assert result["unbound"] == []
    assert "no_such_name" in result["error"]


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
