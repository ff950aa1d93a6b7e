"""Fuzz the command line: every argv ends in an exit code, never a traceback.

Hypothesis builds argv for every subcommand from small valid values mixed
with malformed tokens and numbers.  ``main`` must return 0, 1, 2 or 3 and
never raise; on exit 1 stderr names the usage error, and on exit 2 or 3
stdout is empty and stderr is one ``graphmoments:`` line.  Sizes stay small (N and M at most 6, words of at
most 8 letters), so every command that answers answers quickly.  A fixed
table holds every subcommand to the same contract on one 2,200-letter word
with raised caps, and one process normalizes a 60,000-letter word whose
normal form is built by insertions into the middle of the list.
"""

import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import graphmoments
from graphmoments.cli import main
from tests.conftest import replay

REPLAY = replay(400)

GRAPH_DOCS = {
    "edge2": {"vertices": ["a", "b"], "edges": [["a", "b"]]},
    "path3": {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]},
    "single": {"vertices": ["a"], "edges": []},
    "self-loop": {"vertices": ["a"], "edges": [["a", "a"]]},
    "edge-of-three": {"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]},
    "not-json": "{",
    "not-an-object": [1, 2],
}


@pytest.fixture(scope="module")
def graph_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("graphs")
    paths = {"directory": str(root), "missing": str(root / "missing.json")}
    for name, doc in GRAPH_DOCS.items():
        path = root / f"{name}.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        paths[name] = str(path)
    return paths


def mostly(valid, malformed):
    """Nineteen draws in twenty from ``valid``, the rest from ``malformed``."""
    return st.integers(0, 19).flatmap(lambda k: valid if k else malformed)


def tokens(valid, malformed):
    return mostly(st.sampled_from(valid), st.sampled_from(malformed))


def joined(letters, sep, max_size):
    return st.lists(letters, max_size=max_size).map(sep.join)


INT = tokens(
    [str(k) for k in range(-2, 7)], ["", "x", "1.5", "0x10", "1e2", "-", " 3", "٣"]
)
FLOAT = mostly(
    st.floats(-0.5, 1.5).map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "x", ""]),
)
INT_LIST = mostly(joined(INT, ",", 3), st.sampled_from([",", ",,4", "a,b", "4;8"]))
# Words are malformed one time in twenty; a malformed word mixes good and
# bad letters.
VERTEX_WORD = mostly(
    joined(st.sampled_from("abc"), " ", 8),
    joined(st.sampled_from(["a", "b", "z", "a:1", "1", "é", "-a"]), " ", 8),
)
LABELED_WORD = mostly(
    joined(st.sampled_from(["a:1", "a:2", "b:1", "b:2", "c:1"]), " ", 8),
    joined(
        st.sampled_from(["a:1", "b:1", "a", "z:1", "a:3", "a:0", "a:x", ":1", "a:1:1", "a:-1", "a:01"]),
        " ",
        8,
    ),
)
# clt words have four letters, to fit the pairings, nineteen times in twenty
CLT_WORD = mostly(
    st.lists(st.sampled_from("abc"), min_size=4, max_size=4).map(" ".join), VERTEX_WORD
)
PAIRING = tokens(
    ["1-3,2-4", "1-2,3-4", "1-4,2-3"],
    ["", "1-1", "x", "1-5,2-3", "0-1", "1--2", "3-1,4-2", "1-2,1-3", "1-2-3", "1-3,2-4,5-6"],
)


def choice(*values):
    return tokens(list(values), ["bogus", ""])


MAX_WORD_LEN = ("--max-word-len", INT)
MAX_ITERATIONS = ("--max-iterations", st.one_of(INT, st.sampled_from(["100000000", "1000"])))
MATCH = ("--match", choice("label", "vertex"))
SIGNS = ("--signs", choice("seeded", "constant"))
OUTPUT = ("--output", choice("human", "json"))

# Subcommand words, then (flag, value strategy) pairs; --graph is added to
# every one.
COMMANDS = {
    "normalize": (["normalize"], [("--word", VERTEX_WORD), OUTPUT]),
    "reduced": (["reduced"], [("--word", VERTEX_WORD), OUTPUT]),
    "equivalent": (
        ["equivalent"],
        [("--word", VERTEX_WORD), ("--word", VERTEX_WORD), OUTPUT],
    ),
    "partitions": (
        ["partitions", "count|list"],
        [("--word", LABELED_WORD), MATCH, MAX_WORD_LEN, OUTPUT],
    ),
    "moment": (
        ["moment"],
        [
            ("--method", choice("partitions", "fock", "matrix")),
            ("--word", LABELED_WORD),
            MATCH,
            ("--N", INT),
            ("--seed", INT),
            ("--p", FLOAT),
            SIGNS,
            MAX_WORD_LEN,
            MAX_ITERATIONS,
            OUTPUT,
        ],
    ),
    "limit": (
        ["limit"],
        [("--word", LABELED_WORD), ("--theta", FLOAT), MATCH, MAX_WORD_LEN, OUTPUT],
    ),
    "compare": (
        ["compare"],
        [
            ("--word", LABELED_WORD),
            ("--N-list", INT_LIST),
            ("--seeds", INT_LIST),
            ("--p", FLOAT),
            MAX_WORD_LEN,
            MAX_ITERATIONS,
        ],
    ),
    "t-estimate": (
        ["clt", "t-estimate"],
        [
            ("--word", CLT_WORD),
            ("--pairing", PAIRING),
            ("--N", INT),
            ("--seed", INT),
            ("--p", FLOAT),
            SIGNS,
            MAX_ITERATIONS,
            OUTPUT,
        ],
    ),
    "variance": (
        ["clt", "variance"],
        [
            ("--word", CLT_WORD),
            ("--pairing", PAIRING),
            ("--M-list", INT_LIST),
            ("--samples", INT),
            ("--p", FLOAT),
            ("--seed-base", INT),
            MAX_ITERATIONS,
        ],
    ),
    "sign-dump": (["sign-dump"], [("--N", INT), ("--seed", INT), ("--p", FLOAT)]),
}


@st.composite
def argvs(draw, graph_paths):
    head, flags = COMMANDS[draw(st.sampled_from(sorted(COMMANDS)))]
    argv = [draw(st.sampled_from(word.split("|"))) for word in head]
    flags = flags + [
        ("--graph", mostly(
            st.sampled_from([graph_paths[name] for name in ("edge2", "path3", "single")]),
            st.sampled_from(sorted(graph_paths.values())),
        )),
    ]
    # each flag is present nineteen times in twenty
    for flag, value in flags:
        if draw(st.integers(0, 19)):
            argv += [flag, draw(value)]
    if not draw(st.integers(0, 19)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "x"])))
    return argv


def run(argv) -> int:
    """``main``'s exit code on argv, checked against the contract above."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert ": error: " in err.getvalue()
    if code in (2, 3):
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("graphmoments: ")
    return code


@REPLAY
@given(st.data())
def test_every_argv_ends_in_an_exit_code(graph_paths, data):
    run(data.draw(argvs(graph_paths)))


# One pair of each of 1,100 edgeless vertices, side by side: one pairing,
# 1,100 deep.
LONG_VERTICES = [f"v{k}" for k in range(1100)]
LONG_WORD = " ".join(f"{v} {v}" for v in LONG_VERTICES)
LONG_LABELED = " ".join(f"{v}:1 {v}:1" for v in LONG_VERTICES)
LONG_PAIRING = ",".join(f"{e}-{e + 1}" for e in range(1, 2200, 2))
LONG_LEN = ["--max-word-len", "3000"]
LONG_ITERATIONS = ["--max-iterations", str(10**12)]
LONG_CAPS = LONG_LEN + LONG_ITERATIONS

# argv after the subcommand words and --graph, and the exit code
LONG_TABLE = {
    "normalize": (["normalize"], ["--word", LONG_WORD], 0),
    "reduced": (["reduced"], ["--word", LONG_WORD], 0),
    "equivalent": (["equivalent"], ["--word", LONG_WORD, "--word", LONG_WORD], 0),
    "partitions-count": (["partitions", "count"], ["--word", LONG_LABELED, *LONG_LEN], 0),
    "partitions-list": (["partitions", "list"], ["--word", LONG_LABELED, *LONG_LEN], 0),
    "moment-partitions": (
        ["moment"], ["--method", "partitions", "--word", LONG_LABELED, *LONG_CAPS], 0
    ),
    "moment-fock": (["moment"], ["--method", "fock", "--word", LONG_LABELED, *LONG_CAPS], 0),
    "moment-matrix": (
        ["moment"], ["--method", "matrix", "--word", LONG_LABELED, "--N", "1", *LONG_CAPS], 0
    ),
    # N^n = 2^2200 is over any budget
    "moment-matrix-N2": (
        ["moment"], ["--method", "matrix", "--word", LONG_LABELED, "--N", "2", *LONG_CAPS], 3
    ),
    "limit": (["limit"], ["--word", LONG_LABELED, "--theta", "0.5", *LONG_LEN], 0),
    "compare": (
        ["compare"], ["--word", LONG_LABELED, "--N-list", "1", "--seeds", "0", *LONG_CAPS], 0
    ),
    "t-estimate": (
        ["clt", "t-estimate"],
        ["--word", LONG_WORD, "--pairing", LONG_PAIRING, "--N", "1", *LONG_ITERATIONS],
        0,
    ),
    "variance": (
        ["clt", "variance"],
        [
            "--word", LONG_WORD, "--pairing", LONG_PAIRING,
            "--M-list", "1", "--samples", "2", *LONG_ITERATIONS,
        ],
        0,
    ),
    # C(2,200, 2) sign entries are over the listing cap
    "sign-dump": (["sign-dump"], ["--N", "1"], 3),
}


@pytest.fixture(scope="module")
def long_graph(tmp_path_factory):
    path = tmp_path_factory.mktemp("long") / "edgeless.json"
    path.write_text(json.dumps({"vertices": LONG_VERTICES, "edges": []}))
    return str(path)


@pytest.mark.parametrize("name", sorted(LONG_TABLE))
def test_every_subcommand_takes_a_long_word(long_graph, name):
    head, flags, expected = LONG_TABLE[name]
    start = time.process_time()
    assert run([*head, "--graph", long_graph, *flags]) == expected
    assert time.process_time() - start < 5.0


# Two commuting chains, b c and x y, interleaved: the normal form is
# (b c)^15000 (x y)^15000, so every b and c is inserted in the middle of the
# list and the list moves grow with the square of the length.  At 2 bytes a
# letter, one argument holds at most about 65,000 letters.
WIDE_GRAPH = {
    "vertices": ["b", "c", "x", "y"],
    "edges": [["b", "x"], ["b", "y"], ["c", "x"], ["c", "y"]],
}
WIDE_WORD = " ".join(["b c x y"] * 15000)
WIDE_MD5 = "b78a48f59c9fff761ff335bce7935849"


def test_normalize_process_takes_a_word_of_middle_insertions(tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(WIDE_GRAPH))
    src = str(Path(graphmoments.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["normalize", "--graph", str(path), "--word", WIDE_WORD]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "graphmoments.cli", *argv],
        capture_output=True, env=env, check=True,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    spent = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    assert hashlib.md5(proc.stdout).hexdigest() == WIDE_MD5
    assert spent < 2.0
