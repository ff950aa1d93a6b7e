import itertools
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from graphmoments import SimplicialGraph, build_graph, vacuum
from graphmoments.errors import DomainError
from graphmoments.spinmodel import SignFunction
from tests.oracles import apply_create, create_plus_annihilate

# Acceptance fixture set: edgeless-3, complete-3, path-3, 4-cycle, 5-cycle,
# and one seeded random 5-vertex graph (frozen below, edges drawn at p=1/2).
RANDOM5_SEED = 20240801


def _random5():
    rng = random.Random(RANDOM5_SEED)
    vertices = ["p", "q", "r", "s", "t"]
    edges = [pair for pair in itertools.combinations(vertices, 2) if rng.random() < 0.5]
    return build_graph(vertices, edges)


def fixture_graphs():
    return {
        "edgeless3": build_graph(["a", "b", "c"]),
        "complete3": build_graph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")]),
        "path3": build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")]),
        "cycle4": build_graph(
            ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
        ),
        "cycle5": build_graph(
            ["a", "b", "c", "d", "e"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
        ),
        "random5": _random5(),
    }


def replay(max_examples):
    """Hypothesis settings that replay the same examples on every run:
    derandomized, with no example database and no deadline."""
    return settings(
        derandomize=True, database=None, deadline=None, max_examples=max_examples
    )


@st.composite
def small_graphs(draw, min_vertices=1, max_vertices=4, dense=False):
    """Graphs on the first k of the vertices a..f, each edge drawn alike:
    with probability 1/2, or 3/4 when ``dense``."""
    vertices = "abcdef"[: draw(st.integers(min_vertices, max_vertices))]
    edge = st.integers(0, 3).map(bool) if dense else st.booleans()
    edges = [e for e in itertools.combinations(vertices, 2) if draw(edge)]
    return build_graph(list(vertices), edges)


@st.composite
def fock_states(draw, graph):
    """Sums of basis words, reached by random field and creation operators
    (the uncapped reference ones)."""
    state = vacuum()
    for _ in range(draw(st.integers(0, 6))):
        letter = (draw(st.sampled_from(graph.vertices)), draw(st.sampled_from([1, 2])))
        op = draw(st.sampled_from([create_plus_annihilate, apply_create]))
        state = op(graph, state, letter)
    return state


def random_labeled_word(rng, graph, length):
    return tuple(
        (rng.choice(graph.vertices), rng.choice((1, 2))) for _ in range(length)
    )


class ExplicitSigns(SignFunction):
    """Signs given by an explicit table; unlisted free pairs default to +1.
    The tests use it to set single signs where a seeded draw cannot.

    Table keys are pairs of (index, vertex) labels in either order.
    Entries that contradict the fixed rules (diagonal -1, edges +1) are
    rejected.
    """

    def __init__(self, graph: SimplicialGraph, table: dict, default: int = 1):
        super().__init__(graph)
        if default not in (1, -1):
            raise DomainError(f"default sign must be ±1, got {default}")
        self.default = default
        self._table: dict[tuple[int, str, int, str], int] = {}
        for ((i, v), (j, w)), sign in table.items():
            if sign not in (1, -1):
                raise DomainError(f"sign must be ±1, got {sign}")
            if graph.is_edge(v, w):  # validates both vertices
                if sign != 1:
                    raise DomainError("entries on graph edges are fixed at +1")
                continue
            if i == j and v == w:
                if sign != -1:
                    raise DomainError("diagonal entries are fixed at -1")
                continue
            if (w, j) < (v, i):
                i, v, j, w = j, w, i, v
            self._table[(i, v, j, w)] = sign

    def _row(self, head, later):  # keys are the base class's (i, v) labels
        i, v = head
        return [self._table.get((i, v, j, w), self.default) for j, w in later]


@pytest.fixture
def graphs():
    return fixture_graphs()


@pytest.fixture
def edge2():
    return build_graph(["a", "b"], [("a", "b")])


@pytest.fixture
def noedge2():
    return build_graph(["a", "b"])


@pytest.fixture
def single():
    return build_graph(["a"])
