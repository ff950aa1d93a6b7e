"""Differential and closed-form tests of the crossing-polynomial DP and of
the Fock operators: pruning, and the canonical words they return.

The DP is checked against the histogram of graph crossings over the
enumerated pairings, against the Fock simulation, and on one vertex against
the Touchard-Riordan crossing distribution.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from graphmoments import (
    build_graph,
    count_gamma_admissible,
    crossing_polynomial,
    enumerate_pairings,
    limit_moment,
    vacuum,
    vacuum_moment,
)
from graphmoments.fock import (
    apply_annihilate,
    apply_create,
    apply_field,
    canonical_basis_word,
)
from graphmoments.partitions import crossings

# Derandomized, so every run replays the same examples bit for bit.
REPLAY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def small_graphs(draw):
    vertices = "abcd"[: draw(st.integers(1, 4))]
    edges = [e for e in itertools.combinations(vertices, 2) if draw(st.booleans())]
    return build_graph(list(vertices), edges)


@st.composite
def labeled_words(draw, graph, max_len=10):
    """Words over a few labels, so that they have many pairings."""
    labels = draw(
        st.lists(
            st.tuples(st.sampled_from(graph.vertices), st.sampled_from([1, 2])),
            min_size=1,
            max_size=4,
        )
    )
    return tuple(draw(st.lists(st.sampled_from(labels), max_size=max_len)))


def crossing_histogram(graph, word, match):
    """Reference: count the enumerated pairings by graph crossings."""
    vertices = [v for v, _ in word]
    counts = Counter(
        len(crossings(graph, vertices, p.pairs)[1])
        for p in enumerate_pairings(graph, word, match)
    )
    return [counts[k] for k in range(max(counts, default=0) + 1)]


@REPLAY
@given(st.data())
def test_polynomial_is_the_crossing_histogram(data):
    graph = data.draw(small_graphs())
    word = data.draw(labeled_words(graph))
    match = data.draw(st.sampled_from(["label", "vertex"]))
    assert crossing_polynomial(graph, word, match) == crossing_histogram(
        graph, word, match
    )


@REPLAY
@given(st.data())
def test_count_equals_fock(data):
    graph = data.draw(small_graphs())
    word = data.draw(labeled_words(graph))
    assert count_gamma_admissible(graph, word) == vacuum_moment(graph, word)


def touchard_riordan(n, q):
    """Sum over pairings of 2n points of q to the number of crossings."""

    def ballot(k):  # C(2n, n-k) - C(2n, n-k-1), with C(2n, -1) = 0
        return math.comb(2 * n, n - k) - (math.comb(2 * n, n - k - 1) if k < n else 0)

    series = sum((-1) ** k * q ** (k * (k + 1) // 2) * ballot(k) for k in range(n + 1))
    return series / (1 - q) ** n


def test_single_vertex_is_touchard_riordan():
    single = build_graph(["a"])
    for n in range(9):
        coeffs = crossing_polynomial(single, (("a", 1),) * (2 * n))
        for q in (Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4)):
            value = sum(c * q**k for k, c in enumerate(coeffs))
            assert value == touchard_riordan(n, q), (n, q)


def test_no_pairing_is_the_zero_polynomial():
    noedge2 = build_graph(["a", "b"])
    assert crossing_polynomial(noedge2, (("a", 1),) * 3) == [0]
    assert crossing_polynomial(noedge2, (("a", 1), ("b", 1))) == [0]
    assert crossing_polynomial(noedge2, ()) == [1]


@REPLAY
@given(st.data())
def test_limit_moment_is_the_polynomial_rounded_once(data):
    graph = data.draw(small_graphs())
    word = data.draw(labeled_words(graph))
    theta = data.draw(st.floats(-1.0, 1.0))
    coeffs = crossing_polynomial(graph, word)
    exact = sum(c * Fraction(theta) ** k for k, c in enumerate(coeffs))
    assert limit_moment(graph, word, theta) == float(exact)
    assert limit_moment(graph, word, 0.0) == coeffs[0]
    assert limit_moment(graph, word, 1.0) == sum(coeffs)
    assert limit_moment(graph, word, 1.0) == len(enumerate_pairings(graph, word))


@st.composite
def fock_states(draw, graph):
    """Sums of basis words, reached by random field and creation operators."""
    state = vacuum()
    for _ in range(draw(st.integers(0, 6))):
        letter = (draw(st.sampled_from(graph.vertices)), draw(st.sampled_from([1, 2])))
        op = draw(st.sampled_from([apply_field, apply_create]))
        state = op(graph, state, letter)
    return state


@REPLAY
@given(st.data())
def test_pruned_field_drops_exactly_the_over_cap_words(data):
    graph = data.draw(small_graphs())
    state = data.draw(fock_states(graph))
    letter = (data.draw(st.sampled_from(graph.vertices)), data.draw(st.sampled_from([1, 2])))
    cap = data.draw(st.integers(0, 4))
    for op in (apply_field, apply_create):
        full = op(graph, state, letter)
        kept = {w: c for w, c in full.items() if w.count(letter) <= cap}
        assert op(graph, state, letter, max_letters=cap) == kept


@REPLAY
@given(st.data())
def test_operators_return_canonical_words(data):
    graph = data.draw(small_graphs())
    state = data.draw(fock_states(graph))
    cap = data.draw(st.integers(0, 4))
    for letter in itertools.product(graph.vertices, (1, 2)):
        results = [apply_annihilate(graph, state, letter)]
        for op in (apply_create, apply_field):
            results += [op(graph, state, letter), op(graph, state, letter, max_letters=cap)]
        for out in results:
            for word in out:
                assert word == canonical_basis_word(graph, word)
