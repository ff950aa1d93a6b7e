import itertools
import random
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphmoments import build_graph, count_gamma_admissible, fock, vacuum, vacuum_moment
from graphmoments.errors import InvalidToken, SizeLimit, UnknownVertex
from graphmoments.fock import apply_field
from tests.conftest import (
    fixture_graphs,
    fock_states,
    random_labeled_word,
    replay,
    small_graphs,
)
from tests.oracles import (
    apply_annihilate,
    apply_create,
    canonical_basis_word,
    create_plus_annihilate,
    inner,
    state_from_letters,
)


def random_basis_state(rng, graph, depth):
    """A valid basis word, built by applying random creations to the vacuum."""
    state = vacuum()
    for _ in range(depth):
        letter = (rng.choice(graph.vertices), rng.choice((1, 2)))
        state = apply_create(graph, state, letter)
    assert len(state) == 1
    return state


def test_create_on_vacuum(single):
    assert apply_create(single, vacuum(), ("a", 1)) == {(("a", 1),): 1}


def test_create_orders_commuting_letters(edge2, noedge2):
    start = state_from_letters(edge2, [("b", 1)])
    assert apply_create(edge2, start, ("a", 1)) == {(("a", 1), ("b", 1)): 1}
    start = state_from_letters(noedge2, [("b", 1)])
    assert apply_create(noedge2, start, ("a", 1)) == {(("a", 1), ("b", 1)): 1}


def test_create_joins_block_head(edge2):
    # a is visible through the commuting b letter and joins its own block
    start = state_from_letters(edge2, [("b", 1), ("a", 2)])
    out = apply_create(edge2, start, ("a", 1))
    assert out == {(("a", 1), ("a", 2), ("b", 1)): 1}


def test_annihilate_examples(single, edge2, noedge2):
    assert apply_annihilate(single, vacuum(), ("a", 1)) == {}
    one = state_from_letters(single, [("a", 2)])
    assert apply_annihilate(single, one, ("a", 1)) == {}
    assert apply_annihilate(single, one, ("a", 2)) == vacuum()
    # same letters, opposite graphs: the trapped block dies, the free one moves
    state = state_from_letters(noedge2, [("b", 1), ("a", 1)])
    assert apply_annihilate(noedge2, state, ("a", 1)) == {}
    state = state_from_letters(edge2, [("b", 1), ("a", 1)])
    assert apply_annihilate(edge2, state, ("a", 1)) == {(("b", 1),): 1}


def test_canonical_basis_word_rejects_non_reduced(edge2):
    with pytest.raises(InvalidToken):  # a ValueError too
        canonical_basis_word(edge2, [("a", 1), ("b", 1), ("a", 1)])
    word = canonical_basis_word(edge2, [("b", 1), ("a", 1)])
    assert word == (("a", 1), ("b", 1))


def test_annihilate_after_create_is_identity(graphs):
    rng = random.Random(13)
    for g in graphs.values():
        for _ in range(30):
            state = random_basis_state(rng, g, rng.randrange(0, 5))
            letter = (rng.choice(g.vertices), rng.choice((1, 2)))
            assert apply_annihilate(g, apply_create(g, state, letter), letter) == state


def test_adjointness_pairing(graphs):
    rng = random.Random(17)
    for g in graphs.values():
        for _ in range(50):
            x = random_basis_state(rng, g, rng.randrange(0, 4))
            y = random_basis_state(rng, g, rng.randrange(0, 5))
            letter = (rng.choice(g.vertices), rng.choice((1, 2)))
            assert inner(apply_create(g, x, letter), y) == inner(
                x, apply_annihilate(g, y, letter)
            )


def test_field_example(edge2):
    state = state_from_letters(edge2, [("a", 1)])
    out = apply_field(edge2, state, ("a", 1), max_letters=2)
    assert out == {(("a", 1), ("a", 1)): 1, (): 1}
    assert apply_field(edge2, state, ("a", 1), max_letters=1) == {(): 1}


@replay(150)
@given(st.data())
def test_field_is_create_plus_annihilate(data):
    graph = data.draw(small_graphs(max_vertices=6))
    state = data.draw(fock_states(graph))
    for letter in itertools.product(graph.vertices, (1, 2)):
        both = create_plus_annihilate(graph, state, letter)
        for cap in range(5):
            kept = {w: c for w, c in both.items() if w.count(letter) <= cap}
            assert apply_field(graph, state, letter, max_letters=cap) == kept


def field_reorders(graph, word, letter, max_letters):
    """apply_field on one basis word, and how many times it re-derived a
    block order."""
    with mock.patch.object(fock, "_canonical", wraps=fock._canonical) as canonical:
        out = apply_field(graph, {word: 1}, letter, max_letters=max_letters)
    return out, canonical.call_count


def letters(text):
    return tuple((v, 1) for v in text.split())


def test_field_reorders_only_when_the_order_can_change(graphs):
    path3 = graphs["path3"]  # edges a-b and b-c
    # a new front block below the first block is already in order
    assert field_reorders(path3, letters("b c"), ("a", 1), 1) == ({letters("a b c"): 1}, 0)
    # c cannot pass a, but b passes c
    assert field_reorders(path3, letters("a b"), ("c", 1), 1) == ({letters("b c a"): 1}, 1)
    # without the middle block c, b passes a
    assert field_reorders(path3, letters("b c a"), ("c", 1), 0) == ({letters("a b"): 1}, 1)
    # the dying block is the first or the last one: the rest is a suffix or
    # a prefix of a canonical word
    assert field_reorders(path3, letters("b c a"), ("b", 1), 0) == ({letters("c a"): 1}, 0)
    assert field_reorders(path3, letters("a b"), ("b", 1), 0) == ({letters("a"): 1}, 0)


@st.composite
def graphs_and_paired_words(draw):
    """Words in which each letter occurs an even number of times, so that
    the caps of ``vacuum_moment`` keep terms alive to the end."""
    graph = draw(small_graphs())
    n = draw(st.integers(0, 6))
    letter = st.tuples(st.sampled_from(graph.vertices), st.sampled_from([1, 2]))
    half = draw(st.lists(letter, min_size=n, max_size=n))
    return graph, tuple(draw(st.permutations(half + half)))


@replay(500)
@given(graphs_and_paired_words())
def test_every_state_of_a_moment_is_canonical(case):
    graph, word = case
    states = []

    def recorded(*args, **kwargs):
        states.append(apply_field(*args, **kwargs))
        return states[-1]

    with mock.patch.object(fock, "apply_field", recorded):
        fock.vacuum_moment(graph, word)
    assert len(states) == len(word)
    for state in states:
        for key in state:
            assert key == canonical_basis_word(graph, key)


def test_vacuum_moment_examples(edge2, noedge2):
    abab = tuple((v, 1) for v in "abab")
    assert vacuum_moment(noedge2, abab) == 0
    assert vacuum_moment(edge2, abab) == 1
    assert vacuum_moment(edge2, (("a", 1), ("a", 1))) == 1
    assert vacuum_moment(edge2, (("a", 1),) * 3) == 0
    assert vacuum_moment(edge2, (("a", 1), ("a", 2))) == 0


def test_vacuum_moment_size_limit(single):
    with pytest.raises(SizeLimit):
        vacuum_moment(single, (("a", 1),) * 17)


def test_unknown_vertex(single):
    with pytest.raises(UnknownVertex):
        vacuum_moment(single, (("z", 1),))


def test_moment_equals_pairing_count(graphs):
    rng = random.Random(19)
    for g in graphs.values():
        for _ in range(40):
            word = random_labeled_word(rng, g, rng.randrange(0, 9))
            assert vacuum_moment(g, word) == count_gamma_admissible(g, word), word


def test_moment_invariant_under_relabeling():
    # replacing the vertex order by any other total order must not change
    # moments; a token bijection induces exactly such a reordering
    rng = random.Random(29)
    for g in fixture_graphs().values():
        names = list(g.vertices)
        for _ in range(10):
            fresh = [f"v{k}" for k in range(len(names))]
            rng.shuffle(fresh)
            mapping = dict(zip(names, fresh))
            relabeled = build_graph(
                [mapping[v] for v in names],
                [(mapping[v], mapping[w]) for v, w in g.edges],
            )
            word = random_labeled_word(rng, g, rng.choice((4, 6)))
            moved = tuple((mapping[v], s) for v, s in word)
            assert vacuum_moment(g, word) == vacuum_moment(relabeled, moved)
