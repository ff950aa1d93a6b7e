import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphmoments import (
    are_equivalent,
    build_graph,
    format_word,
    is_reduced,
    normalize,
    parse_word,
)
from graphmoments.errors import BudgetExceeded, UnknownVertex
from graphmoments.words import normal_form_order
from tests.conftest import replay, small_graphs
from tests.oracles import (
    CANCEL,
    SWAP,
    IndexOutOfRange,
    Move,
    MoveNotApplicable,
    applicable_moves,
    apply_move,
    equivalence_class_oracle,
    slow_normal_form,
    slow_reduce,
)


def random_walk(rng, graph, word, steps, max_len=10):
    """Random equivalence-preserving moves: cancels, swaps, duplications."""
    for _ in range(steps):
        options = [("move", m) for m in applicable_moves(graph, word)]
        if len(word) < max_len:
            options += [("dup", i) for i in range(len(word))]
        if not options:
            break
        kind, payload = rng.choice(options)
        if kind == "move":
            word = apply_move(graph, word, payload)
        else:
            i = payload
            word = word[: i + 1] + (word[i],) + word[i + 1 :]
    return word


def test_parse_and_format():
    assert parse_word("a b b a") == ("a", "b", "b", "a")
    assert parse_word("") == ()
    assert format_word(("a", "b")) == "a b"


def test_is_reduced_examples(edge2, noedge2):
    assert not is_reduced(edge2, ("a", "a"))
    assert not is_reduced(noedge2, ("a", "a"))
    assert not is_reduced(edge2, ("a", "b", "a"))
    assert is_reduced(noedge2, ("a", "b", "a"))
    assert is_reduced(edge2, ())


def test_apply_move_examples(edge2, noedge2):
    assert apply_move(edge2, ("a", "a", "b"), Move(CANCEL, 1)) == ("a", "b")
    assert apply_move(edge2, ("a", "b"), Move(SWAP, 1)) == ("b", "a")
    with pytest.raises(MoveNotApplicable):
        apply_move(noedge2, ("a", "b"), Move(SWAP, 1))
    with pytest.raises(MoveNotApplicable):
        apply_move(edge2, ("a", "b"), Move(CANCEL, 1))
    with pytest.raises(IndexOutOfRange):
        apply_move(edge2, ("a", "b"), Move(SWAP, 2))
    with pytest.raises(IndexOutOfRange):
        apply_move(edge2, (), Move(CANCEL, 1))


def test_normalize_examples(edge2, noedge2):
    assert normalize(edge2, parse_word("a b b a")) == ("a", "b")
    assert normalize(edge2, ()) == ()
    assert normalize(noedge2, ("b", "a")) == ("b", "a")
    assert normalize(edge2, ("b", "a")) == ("a", "b")


def test_unknown_vertex(edge2):
    with pytest.raises(UnknownVertex):
        normalize(edge2, ("z",))
    with pytest.raises(UnknownVertex):
        is_reduced(edge2, ("a", "z"))


def test_are_equivalent_examples(edge2, noedge2):
    assert are_equivalent(edge2, ("a", "b"), ("b", "a"))
    assert not are_equivalent(noedge2, ("a", "b"), ("b", "a"))
    assert are_equivalent(noedge2, ("a",), ("a",))


def test_oracle_examples(edge2, noedge2):
    assert equivalence_class_oracle(edge2, ("a", "b"), 2) == {("a", "b"), ("b", "a")}
    assert equivalence_class_oracle(noedge2, ("a", "b"), 2) == {("a", "b")}
    assert equivalence_class_oracle(edge2, ("a",), 1) == {("a",)}


def test_oracle_budget(edge2):
    with pytest.raises(BudgetExceeded):
        equivalence_class_oracle(edge2, ("a", "b", "a", "b"), 8, max_states=3)


def test_normalize_idempotent_and_reduced(graphs):
    rng = random.Random(7)
    for g in graphs.values():
        for _ in range(100):
            word = tuple(rng.choice(g.vertices) for _ in range(rng.randrange(0, 9)))
            canon = normalize(g, word)
            assert normalize(g, canon) == canon
            assert is_reduced(g, canon)
            assert len(canon) <= len(word)


def test_normalize_invariant_under_random_moves(graphs):
    rng = random.Random(11)
    for g in graphs.values():
        for _ in range(20):
            word = tuple(rng.choice(g.vertices) for _ in range(rng.randrange(1, 7)))
            target = normalize(g, word)
            walked = random_walk(rng, g, word, steps=200)
            assert normalize(g, walked) == target


def test_edgeless_collapses_runs():
    g = build_graph(["a", "b", "c"])
    assert normalize(g, parse_word("a a a b b c c c c a")) == ("a", "b", "c", "a")
    # no swaps available: order of distinct neighbors is preserved
    assert normalize(g, parse_word("c a b")) == ("c", "a", "b")


def test_exhaustive_oracle_agreement_small(graphs):
    g = graphs["path3"]
    vertices = g.vertices
    all_words = [()]
    frontier = [()]
    for _ in range(4):
        frontier = [w + (v,) for w in frontier for v in vertices]
        all_words.extend(frontier)
    class_of = {}
    for w in all_words:
        if w not in class_of:
            members = equivalence_class_oracle(g, w, 4)
            for x in members:
                class_of[x] = members
    canon = {w: normalize(g, w) for w in all_words}
    for w1 in all_words:
        for w2 in all_words:
            assert (canon[w1] == canon[w2]) == (w2 in class_of[w1]), (w1, w2)


def test_exhaustive_oracle_agreement_four_vertices(graphs):
    # same check on a 4-vertex graph up to length 6, via partition equality:
    # grouping words by normal form must reproduce the closure classes
    g = graphs["cycle4"]
    all_words = [()]
    frontier = [()]
    for _ in range(6):
        frontier = [w + (v,) for w in frontier for v in g.vertices]
        all_words.extend(frontier)
    class_of = {}
    for w in all_words:
        if w not in class_of:
            members = equivalence_class_oracle(g, w, 6)
            for x in members:
                class_of[x] = members
    by_canon = {}
    for w in all_words:
        by_canon.setdefault(normalize(g, w), set()).add(w)
    for w, group in by_canon.items():
        assert group == set(class_of[w]), w


def test_reduced_iff_shortest_in_class(graphs):
    # every word of length <= 5: reduced words are exactly the shortest ones
    # of their class, and the normal form has that shortest length
    for name in ("path3", "cycle4"):
        g = graphs[name]
        shortest = {}
        for n in range(6):
            for w in itertools.product(g.vertices, repeat=n):
                if w not in shortest:
                    members = equivalence_class_oracle(g, w, n)
                    least = min(map(len, members))
                    shortest.update((x, least) for x in members if len(x) == n)
                assert is_reduced(g, w) == (len(w) == shortest[w]), (name, w)
                assert len(normalize(g, w)) == shortest[w], (name, w)


@st.composite
def graphs_and_words(draw):
    graph = draw(small_graphs(max_vertices=6))
    # the length is drawn first, or hypothesis keeps nearly every word short
    n = draw(st.integers(0, 40))
    word = draw(st.lists(st.sampled_from(graph.vertices), min_size=n, max_size=n))
    return graph, tuple(word)


@st.composite
def graphs_and_periodic_words(draw):
    """40 to 120 letters repeating a pattern of at most six: long runs of the
    same insertions, merges and passes."""
    graph = draw(small_graphs(max_vertices=6))
    pattern = draw(st.lists(st.sampled_from(graph.vertices), min_size=1, max_size=6))
    n = draw(st.integers(40, 120))
    return graph, tuple(pattern[k % len(pattern)] for k in range(n))


def assert_kernel_equals_slow_reference(g, word):
    reduced = slow_reduce(g, word)
    order = slow_normal_form(g, reduced)
    assert normalize(g, word) == tuple(reduced[k] for k in order)
    assert is_reduced(g, word) == (reduced == word)
    assert normal_form_order(g, reduced) == order


@replay(300)
@given(graphs_and_words())
def test_kernel_equals_slow_reference(case):
    assert_kernel_equals_slow_reference(*case)


@replay(100)
@given(graphs_and_periodic_words())
def test_kernel_equals_slow_reference_on_periodic_words(case):
    assert_kernel_equals_slow_reference(*case)
