"""Send benchmark requests to graphmoments and return their outcomes.

Outcomes are plain JSON-able values so that they can be stored in
``expected.json`` and compared there.  Library functions are looked up
through their modules at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import gen
from graphmoments import cltlab, fock, partitions, spinmodel, words
from graphmoments import graph as gm_graph

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Context:
    """What a worker builds during set-up: graphs, files and parsed arguments."""

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self.graphs = {}
        self.args = {}
        self.child_maxrss_kb = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))


def prepare(workload: str, requests: list[dict], workdir) -> Context:
    """Import the program, build every graph and write every graph file."""
    ctx = Context(workdir)
    if workload == "cli":
        import graphmoments.cli  # noqa: F401  (the import is part of set-up)

        ctx.workdir.mkdir(parents=True, exist_ok=True)
        docs = {name: json.dumps(doc) for name, doc in gen.GRAPHS.items()}
        docs.update(gen.BAD_GRAPH_FILES)
        for name, text in docs.items():
            (ctx.workdir / f"{name}.json").write_text(text)
        for request in requests:
            ctx.args[request["id"]] = [
                str(ctx.workdir / f"{a[1:]}.json") if a.startswith("@") else a
                for a in request["argv"]
            ]
    else:
        for name in {r["graph"] for r in requests}:
            ctx.graphs[name] = gm_graph.graph_from_json(gen.GRAPHS[name])
        for request in requests:
            if request["op"] in ("t", "variance"):
                word = tuple(request["word"])
                pairing = partitions.PairPartition.from_pairs(request["pairing"], len(word))
                ctx.args[request["id"]] = (word, pairing)
            else:
                ctx.args[request["id"]] = tuple((v, s) for v, s in request["word"])
    return ctx


def _signs(spec, graph):
    if spec["signs"] == "constant":
        return spinmodel.ConstantSigns(graph)
    return spinmodel.SeededSigns(graph, spec["p"], spec["seed"])


def _exact(ctx, r):
    graph, word = ctx.graphs[r["graph"]], ctx.args[r["id"]]
    normal = words.normalize(graph, tuple(v for v, _ in word))
    return {
        "count": partitions.count_gamma_admissible(graph, word),
        "fock": fock.vacuum_moment(graph, word),
        "limit": partitions.limit_moment(graph, word, r["theta"]),
        "normal": list(normal),
        "reduced": words.is_reduced(graph, normal),
    }


def _moment(ctx, r):
    graph = ctx.graphs[r["graph"]]
    value = spinmodel.moment_s_word(_signs(r, graph), ctx.args[r["id"]], r["N"])
    return [value.numerator, value.denominator]


def _sweep(ctx, r):
    rows = cltlab.convergence_sweep(
        ctx.graphs[r["graph"]], ctx.args[r["id"]], r["N_list"], r["seeds"], r["p"]
    )
    return [[row.n, row.seed, row.estimate, row.exact] for row in rows]


def _t(ctx, r):
    graph = ctx.graphs[r["graph"]]
    word, pairing = ctx.args[r["id"]]
    return cltlab.t_estimate(_signs(r, graph), graph, word, pairing, r["M"])


def _variance(ctx, r):
    word, pairing = ctx.args[r["id"]]
    result = cltlab.variance_sweep(
        ctx.graphs[r["graph"]], word, pairing, r["M_list"], r["samples"], r["p"], r["seed_base"]
    )
    return {
        "rows": [[row.m, row.samples, row.variance] for row in result.rows],
        "slope": result.slope,
        "degenerate": result.degenerate,
    }


def _cli_process(ctx, r):
    """One ``graphmoments`` process; its peak RSS is read with wait4."""
    out_path, err_path = ctx.workdir / "stdout", ctx.workdir / "stderr"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "graphmoments.cli", *ctx.args[r["id"]]],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            env=ctx.env,
            cwd=ROOT,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    ctx.child_maxrss_kb = max(ctx.child_maxrss_kb, usage.ru_maxrss)
    return {
        "code": proc.returncode,
        "stdout": out_path.read_text(),
        "stderr": err_path.read_text(),
    }


def cli_in_process(ctx, r):
    """``cli.main(argv)`` in this process, stdout and stderr captured."""
    from graphmoments import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(ctx.args[r["id"]]))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


_OPS = {
    "exact": _exact,
    "moment": _moment,
    "sweep": _sweep,
    "t": _t,
    "variance": _variance,
    "cli": _cli_process,
}


def execute(ctx: Context, request: dict, in_process_cli: bool = False):
    """Run one request; exceptions propagate to the caller."""
    if in_process_cli and request["op"] == "cli":
        return cli_in_process(ctx, request)
    return _OPS[request["op"]](ctx, request)
