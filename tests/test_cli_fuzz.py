"""Fuzz the command line: every argv ends in an exit code, never a traceback.

Hypothesis builds argv for every subcommand from small valid values mixed
with malformed tokens and numbers.  ``main`` must return 0, 1, 2 or 3 and
never raise; on exit 1 stderr names the usage error, and on exit 2 or 3
stdout is empty and stderr is one ``graphmoments:`` line.  Sizes stay small (N and M at most 6, words of at
most 8 letters), so every command that answers answers quickly.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmoments.cli import main

REPLAY = settings(derandomize=True, database=None, deadline=None, max_examples=400)

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

# Subcommand words, then (flag, value strategy) pairs; --graph and
# --output are added to every one.
COMMANDS = {
    "normalize": (["normalize"], [("--word", VERTEX_WORD)]),
    "reduced": (["reduced"], [("--word", VERTEX_WORD)]),
    "equivalent": (["equivalent"], [("--word", VERTEX_WORD), ("--word", VERTEX_WORD)]),
    "partitions": (
        ["partitions", "count|list"],
        [("--word", LABELED_WORD), MATCH, MAX_WORD_LEN],
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
        ],
    ),
    "limit": (
        ["limit"],
        [("--word", LABELED_WORD), ("--theta", FLOAT), MATCH, MAX_WORD_LEN],
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
        ("--output", choice("human", "json")),
    ]
    # each flag is present nineteen times in twenty
    for flag, value in flags:
        if draw(st.integers(0, 19)):
            argv += [flag, draw(value)]
    if not draw(st.integers(0, 19)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "x"])))
    return argv


@REPLAY
@given(st.data())
def test_every_argv_ends_in_an_exit_code(graph_paths, data):
    argv = data.draw(argvs(graph_paths))
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
