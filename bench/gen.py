"""Seeded input generator for the graphmoments benchmark.

Each workload has a fixed request pool, built here from ``POOL_SEED``.
Its expected answers were recorded once into ``expected.json`` by
``record.py``, so every request of every run is checked against a stored
value as well as against the cross-route oracles in ``check.py``.  The
workload seed given to ``run.py`` decides the order in which the pool is
sent: each pass over the pool is a fresh seeded permutation.  A run
therefore sends the same mix of work whatever its seed, which keeps runs
of different seeds comparable.

This module is pure Python and does not import graphmoments: requests are
plain JSON-able dicts, and graphs are JSON documents.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("exact", "matrix", "clt", "cli")

POOL_SEED = 20150606

# A run sends at least this many requests, so that ten latency samples lie
# beyond the 90th percentile.
MIN_REQUESTS = 100


def _graph(vertices, edges=()):
    return {"vertices": list(vertices), "edges": [list(e) for e in edges]}


def _random5() -> dict:
    rng = random.Random(POOL_SEED)
    vertices = ["p", "q", "r", "s", "t"]
    return _graph(
        vertices, [e for e in itertools.combinations(vertices, 2) if rng.random() < 0.5]
    )


GRAPHS = {
    "edgeless3": _graph("abc"),
    "complete3": _graph("abc", [("a", "b"), ("a", "c"), ("b", "c")]),
    "path3": _graph("abc", [("a", "b"), ("b", "c")]),
    "cycle4": _graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
    "cycle5": _graph(
        "abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")]
    ),
    "random5": _random5(),
    "single": _graph("a"),
    "edge2": _graph("ab", [("a", "b")]),
    "noedge2": _graph("ab"),
}

ACCEPTANCE_GRAPHS = ("edgeless3", "complete3", "path3", "cycle4", "cycle5", "random5")

# Invalid graph documents for the cli workload.  "bad_edge3" is one of the
# known crash paths: the seed code unpacks the edge and raises ValueError.
BAD_GRAPH_FILES = {
    "bad_loop": '{"vertices": ["a", "b"], "edges": [["a", "a"]]}',
    "bad_dup": '{"vertices": ["a", "a"], "edges": []}',
    "bad_json": '{"vertices": ["a", ',
    "bad_edge3": '{"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]}',
}


def _labels(graph: str) -> list[tuple[str, int]]:
    return [(v, s) for v in GRAPHS[graph]["vertices"] for s in (1, 2)]


# ---------------------------------------------------------------- exact

# Label multiplicities of the few-label family.  The pairing count of a
# word is the product of (m - 1)!! over its labels, so a shape fixes the
# enumeration work: between 15 and 315 pairings per call.  The heavy
# shapes (6, 6) and (8, 4) make 22 of the 120 requests, so that the 90th
# percentile lies inside that group of like requests rather than at its
# edge; the single-label shapes feed the Catalan check.
FEW_LABEL_SHAPES = ((6, 6), (8,), (6, 6), (6,), (6, 6), (8, 4), (6, 6), (6, 6))
THETAS = (0.0, 0.5, -0.5, 1.0)
# One few-label request per this many requests; the rest are many-label.
# Sized so that pairing enumeration and Fock simulation each take at least
# a quarter of the workload's traced time.
EXACT_FEW_EVERY = 4
EXACT_POOL = 120


def _few_label_word(rng, graph, shape):
    labels = rng.sample(_labels(graph), len(shape))
    letters = [label for label, m in zip(labels, shape) for _ in range(m)]
    rng.shuffle(letters)
    return letters


def _paired_word(rng, graph, length):
    """Each label an even number of times, otherwise uniformly random."""
    labels = _labels(graph)
    letters = [rng.choice(labels) for _ in range(length // 2)] * 2
    rng.shuffle(letters)
    return letters


def _many_label_word(rng, graph, length):
    """Labels as distinct as the graph allows, so pairings stay few."""
    labels = _labels(graph)
    rng.shuffle(labels)
    letters = [labels[k % len(labels)] for k in range(length // 2)] * 2
    rng.shuffle(letters)
    return letters


def _exact_pool(rng):
    pool = []
    for k in range(EXACT_POOL):
        graph = ACCEPTANCE_GRAPHS[k % len(ACCEPTANCE_GRAPHS)]
        if k % EXACT_FEW_EVERY == 0:
            # Cycle shapes and graphs together: every pair occurs once.
            j = k // EXACT_FEW_EVERY
            graph = ACCEPTANCE_GRAPHS[j % len(ACCEPTANCE_GRAPHS)]
            shape = FEW_LABEL_SHAPES[j % len(FEW_LABEL_SHAPES)]
            word = _few_label_word(rng, graph, shape)
            family = "few"
        else:
            word = _many_label_word(rng, graph, rng.choice((14, 16)))
            family = "many"
        pool.append(
            {
                "op": "exact",
                "family": family,
                "graph": graph,
                "word": [list(letter) for letter in word],
                "theta": rng.choice(THETAS),
            }
        )
    return pool


# ---------------------------------------------------------------- matrix

MATRIX_GRAPHS = ("noedge2", "edge2", "edgeless3", "path3")
# Word length -> summand counts N.  The seed budget caps N^length at 1e8;
# the largest product used here, 8^8, stays six times below it.
MATRIX_N = {4: (8, 16, 32), 6: (8, 12), 8: (8,)}
MATRIX_POOL = 120


def _matrix_pool(rng):
    pool = []
    for k in range(MATRIX_POOL):
        if k % 8 == 7:
            pool.append(
                {
                    "op": "moment",
                    "graph": rng.choice(("single", "noedge2", "edge2")),
                    "word": [["a", 1]] * 4,
                    "N": rng.choice((8, 12, 16, 24, 32)),
                    "signs": "constant",
                    "p": 0.5,
                    "seed": 0,
                }
            )
        elif k % 8 == 3:
            graph = rng.choice(MATRIX_GRAPHS[:2])
            pool.append(
                {
                    "op": "sweep",
                    "graph": graph,
                    "word": [list(x) for x in _paired_word(rng, graph, 4)],
                    "N_list": [8, 16],
                    "seeds": [rng.randrange(1000), rng.randrange(1000)],
                    "p": rng.choice((0.5, 0.75)),
                }
            )
        else:
            graph = MATRIX_GRAPHS[k % len(MATRIX_GRAPHS)]
            length = (4, 6, 8)[k % 3]
            pool.append(
                {
                    "op": "moment",
                    "graph": graph,
                    "word": [list(x) for x in _paired_word(rng, graph, length)],
                    "N": rng.choice(MATRIX_N[length]),
                    "signs": "seeded",
                    "p": rng.choice((0.5, 0.75)),
                    "seed": rng.randrange(1000),
                }
            )
    return pool


# ---------------------------------------------------------------- clt

# (graph, word, pairing): two- and three-block pairings whose blocks cross
# pairwise between non-adjacent vertices, so every tuple queries signs.
CLT_CASES = (
    ("single", "a a a a", ((1, 3), (2, 4))),
    ("noedge2", "a b a b", ((1, 3), (2, 4))),
    ("single", "a a a a a a", ((1, 4), (2, 5), (3, 6))),
    ("noedge2", "a b a a b a", ((1, 4), (2, 5), (3, 6))),
)
# Three-block M is 16 or 32, each half the time, so that the median and
# the 90th percentile each lie well inside a group of like requests rather
# than at the edge of one.
CLT_M = {2: (16, 32, 64, 128), 3: (16, 32)}
CLT_POOL = 128


def _clt_pool(rng):
    pool = []
    for k in range(CLT_POOL):
        graph, word, pairing = CLT_CASES[k % len(CLT_CASES)]
        base = {"graph": graph, "word": word.split(), "pairing": [list(b) for b in pairing]}
        if k % 16 == 5:
            pool.append(
                dict(
                    base,
                    op="variance",
                    M_list=[16, 32],
                    samples=4,
                    p=rng.choice((0.5, 0.75)),
                    seed_base=rng.randrange(1000),
                )
            )
            continue
        pool.append(
            dict(
                base,
                op="t",
                M=rng.choice(CLT_M[len(pairing)]),
                signs="constant" if k % 8 == 6 else "seeded",
                p=rng.choice((0.5, 0.75)),
                seed=rng.randrange(1000),
            )
        )
    return pool


# ---------------------------------------------------------------- cli

# Graph files are named "@<graph>" in argv and replaced by real paths when
# the request is sent; "@missing" names a file that is never written.
CLI_VALID = (
    ["normalize", "--graph", "@path3", "--word", "a b a c b"],
    ["normalize", "--graph", "@cycle4", "--word", "d c b a a b", "--output", "json"],
    ["reduced", "--graph", "@path3", "--word", "a c a"],
    ["reduced", "--graph", "@edge2", "--word", "a b a", "--output", "json"],
    ["equivalent", "--graph", "@edge2", "--word", "a b", "--word", "b a"],
    ["equivalent", "--graph", "@cycle5", "--word", "a c e", "--word", "c a e"],
    ["partitions", "count", "--graph", "@single", "--word", "a:1 a:1 a:1 a:1 a:1 a:1"],
    ["partitions", "list", "--graph", "@edge2", "--word", "a:1 b:1 a:1 b:1"],
    ["partitions", "count", "--graph", "@noedge2", "--word", "a b a b", "--match", "vertex"],
    ["moment", "--method", "partitions", "--graph", "@cycle4", "--word", "a:1 b:1 a:1 b:1 c:2 c:2"],
    ["moment", "--method", "fock", "--graph", "@cycle4", "--word", "a:1 b:1 a:1 b:1 c:2 c:2"],
    ["moment", "--method", "fock", "--graph", "@random5", "--word", "p:1 q:2 p:1 q:2", "--output", "json"],
    ["moment", "--method", "matrix", "--graph", "@noedge2", "--word", "a:1 b:1 a:1 b:1", "--N", "8", "--seed", "3"],
    ["moment", "--method", "matrix", "--graph", "@single", "--word", "a:1 a:1 a:1 a:1", "--N", "16", "--signs", "constant"],
    ["limit", "--theta", "0.5", "--graph", "@single", "--word", "a:1 a:1 a:1 a:1 a:1 a:1"],
    ["limit", "--theta", "-0.25", "--graph", "@path3", "--word", "a:1 c:1 a:1 c:1", "--output", "json"],
    ["compare", "--graph", "@noedge2", "--word", "a:1 b:1 a:1 b:1", "--N-list", "4,8", "--seeds", "0,1"],
    ["clt", "t-estimate", "--graph", "@single", "--word", "a a a a", "--pairing", "1-3,2-4", "--N", "16", "--seed", "2"],
    ["clt", "t-estimate", "--graph", "@noedge2", "--word", "a b a b", "--pairing", "1-3,2-4", "--N", "12", "--signs", "constant"],
    ["clt", "variance", "--graph", "@single", "--word", "a a a a", "--pairing", "1-3,2-4", "--M-list", "4,8,16", "--samples", "4"],
    ["sign-dump", "--graph", "@noedge2", "--N", "2", "--seed", "5"],
    ["sign-dump", "--graph", "@path3", "--N", "1", "--seed", "1", "--p", "0.75"],
)

# Inputs the seed rejects correctly: exit 2 with a one-line message.
CLI_INVALID = (
    ["normalize", "--graph", "@edge2", "--word", "a z"],
    ["normalize", "--graph", "@bad_loop", "--word", "a"],
    ["normalize", "--graph", "@bad_dup", "--word", "a"],
    ["normalize", "--graph", "@bad_json", "--word", "a"],
    ["normalize", "--graph", "@missing", "--word", "a"],
    ["moment", "--method", "fock", "--graph", "@edge2", "--word", "a:3 a:3"],
    ["limit", "--theta", "2.0", "--graph", "@edge2", "--word", "a:1"],
    ["moment", "--method", "matrix", "--graph", "@edge2", "--word", "a:1 a:1", "--N", "3"],
    ["moment", "--method", "matrix", "--graph", "@edge2", "--word", "a:1 a:1", "--p", "1.5"],
    ["clt", "t-estimate", "--graph", "@single", "--word", "a a a a", "--pairing", "1-3,2", "--N", "4"],
)

# Known crash paths at the seed: each should exit 2 with a one-line
# message but exits 1 with a traceback.  They count as failures until the
# program is fixed; they are kept so that the fix shows in failed_ratio.
CLI_CRASH = (
    ["normalize", "--graph", "@bad_edge3", "--word", "a"],
    ["clt", "variance", "--graph", "@single", "--word", "a a a a", "--pairing", "1-3,2-4", "--M-list", "4,8,16", "--samples", "1"],
    ["clt", "t-estimate", "--graph", "@single", "--word", "a a a a", "--pairing", "1-3,2-4", "--N", "0"],
)


def _cli_pool(rng):
    pool = [{"op": "cli", "argv": argv, "expect_code": 0} for argv in CLI_VALID]
    pool += [{"op": "cli", "argv": argv, "expect_code": 2} for argv in CLI_INVALID]
    pool += [
        {"op": "cli", "argv": argv, "expect_code": 2, "known_crash": True}
        for argv in CLI_CRASH
    ]
    return pool


_BUILDERS = {"exact": _exact_pool, "matrix": _matrix_pool, "clt": _clt_pool, "cli": _cli_pool}


def pool(workload: str) -> list[dict]:
    """The workload's request pool; each request carries a stable ``id``."""
    requests = _BUILDERS[workload](random.Random(f"{POOL_SEED}:{workload}"))
    for k, request in enumerate(requests):
        request["id"] = f"{workload}-{k:03d}"
    return requests


def stream(requests: list[dict], seed: int):
    """Endless request sequence: seeded permutations of the pool, pass by pass."""
    rng = random.Random(seed)
    while True:
        order = list(requests)
        rng.shuffle(order)
        yield from order
