"""Differential and closed-form tests of the crossing-polynomial DP and of
the Fock operators: pruning, and the canonical words they return.

The DP is checked against the histogram of graph crossings over the
enumerated pairings, against the Fock simulation, and on one vertex against
the Touchard-Riordan crossing distribution.  Its degree-cut form and the
closed-form pairing count are checked against the full polynomial.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from graphmoments import (
    build_graph,
    count_gamma_admissible,
    crossing_polynomial,
    enumerate_pairings,
    limit_moment,
    vacuum_moment,
)
from graphmoments.fock import apply_field
from graphmoments.partitions import count_pairings, crossings
from tests.conftest import fock_states, replay, small_graphs
from tests.oracles import (
    apply_annihilate,
    apply_create,
    canonical_basis_word,
    create_plus_annihilate,
)

REPLAY = replay(150)


def label_pools(graph):
    """One to four labels, so that words over them have many pairings."""
    return st.lists(
        st.tuples(st.sampled_from(graph.vertices), st.sampled_from([1, 2])),
        min_size=1,
        max_size=4,
    )


@st.composite
def labeled_words(draw, graph, max_len=10):
    labels = draw(label_pools(graph))
    return tuple(draw(st.lists(st.sampled_from(labels), max_size=max_len)))


@st.composite
def long_labeled_words(draw, graph, max_len):
    """Words of up to ``max_len`` letters; the length is drawn first, or
    hypothesis keeps nearly every word short."""
    labels = draw(label_pools(graph))
    n = draw(st.integers(0, max_len))
    return tuple(draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n)))


@st.composite
def paired_words(draw, graph, max_len):
    """Words with every label an even number of times, so that they pair."""
    labels = draw(label_pools(graph))
    n = draw(st.integers(0, max_len // 2))
    half = draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
    return tuple(draw(st.permutations(half + half)))


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


@replay(300)
@given(st.data())
def test_degree_cut_and_closed_form_match_the_full_polynomial(data):
    graph = data.draw(small_graphs(max_vertices=6))
    word = data.draw(long_labeled_words(graph, 14))
    match = data.draw(st.sampled_from(["label", "vertex"]))
    full = crossing_polynomial(graph, word, match)
    for d in (0, 1, 2):
        # exactly d + 1 coefficients, zero-padded where the polynomial is shorter
        assert crossing_polynomial(graph, word, match, degree=d) == (full + [0] * d)[: d + 1]
    assert count_pairings(graph, word, match) == sum(full)
    if len(word) <= 10:
        assert count_pairings(graph, word, match) == len(
            enumerate_pairings(graph, word, match)
        )
        assert full[0] == crossing_histogram(graph, word, match)[0]


@REPLAY
@given(st.data())
def test_count_equals_fock(data):
    graph = data.draw(small_graphs())
    word = data.draw(paired_words(graph, 24))
    assert count_gamma_admissible(graph, word, max_len=24) == vacuum_moment(
        graph, word, max_len=24
    )


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
    assert limit_moment(graph, word, -0.0) == coeffs[0]
    assert limit_moment(graph, word, 1.0) == sum(coeffs)
    assert limit_moment(graph, word, 1.0) == len(enumerate_pairings(graph, word))


@REPLAY
@given(st.data())
def test_pruned_field_drops_exactly_the_over_cap_words(data):
    graph = data.draw(small_graphs())
    state = data.draw(fock_states(graph))
    letter = (data.draw(st.sampled_from(graph.vertices)), data.draw(st.sampled_from([1, 2])))
    cap = data.draw(st.integers(0, 4))
    # no word of the state holds more letters than it is long, so this cap
    # drops nothing
    uncapped = 1 + max(map(len, state), default=0)
    full = apply_field(graph, state, letter, max_letters=uncapped)
    assert full == create_plus_annihilate(graph, state, letter)
    kept = {w: c for w, c in full.items() if w.count(letter) <= cap}
    assert apply_field(graph, state, letter, max_letters=cap) == kept


@REPLAY
@given(st.data())
def test_operators_return_canonical_words(data):
    graph = data.draw(small_graphs())
    state = data.draw(fock_states(graph))
    cap = data.draw(st.integers(0, 4))
    uncapped = 1 + max(map(len, state), default=0)
    for letter in itertools.product(graph.vertices, (1, 2)):
        results = [apply_annihilate(graph, state, letter), apply_create(graph, state, letter)]
        for limit in (uncapped, cap):
            results.append(apply_field(graph, state, letter, max_letters=limit))
        for out in results:
            for word in out:
                assert word == canonical_basis_word(graph, word)
