import random

import pytest

from graphmoments import (
    are_equivalent,
    build_graph,
    equivalence_class_oracle,
    format_word,
    is_reduced,
    normalize,
    parse_word,
)
from graphmoments.errors import (
    BudgetExceeded,
    IndexOutOfRange,
    MoveNotApplicable,
    UnknownVertex,
)
from graphmoments.words import (
    CANCEL,
    SWAP,
    Move,
    applicable_moves,
    apply_move,
    reduce_word,
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


def test_is_reduced_iff_reduce_word_is_identity(graphs):
    rng = random.Random(37)
    for g in graphs.values():
        for _ in range(200):
            word = tuple(rng.choice(g.vertices) for _ in range(rng.randrange(0, 9)))
            assert is_reduced(g, word) == (reduce_word(g, word) == word), word
