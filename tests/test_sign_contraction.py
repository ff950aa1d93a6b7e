"""Differential tests of the sign layer's consumers: the sign matrices
against direct sign queries, the t-estimate contraction against a
brute-force sum over index tuples and, on random factor graphs, against
one numpy contraction of dense factors, and the split matrix-model moment, on
every rotation of its word and on words whose commuting pairs cancel,
against one sweep over every index of every vertex; with the sweep
kernel's occupancy cap against the plain kernel, the algebra's restricted
draws against its full ones, and its per-label slot ranks against the
universe."""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphmoments import (
    ConstantSigns,
    PairPartition,
    SeededSigns,
    SpinAlgebra,
    build_graph,
    moment_s_word,
    parse_labeled_word,
    t_estimate,
)
from graphmoments.cltlab import _sum_of_products
from graphmoments.errors import DomainError, UnknownVertex
from graphmoments.spinmodel import _cancel_commuting_pairs, _cheapest_cut, sign_table
from tests.conftest import ExplicitSigns, replay, small_graphs
from tests.oracles import (
    einsum_sum_of_products,
    every_index_algebra,
    left_multiply,
    rank,
    seeded_sign,
)

REPLAY = replay(150)


@st.composite
def sign_functions(draw, graph, n):
    # Seeded signs, the only kind the CLI draws, are listed twice so that at
    # least half of each test's examples use them, mostly at 0 < p < 1.
    kind = draw(st.sampled_from(["seeded", "seeded", "constant", "explicit"]))
    if kind == "constant":
        return ConstantSigns(graph)
    if kind == "seeded":
        p = draw(st.sampled_from([0.5, 0.3, 0.0, 1.0]))
        return SeededSigns(graph, p, draw(st.integers(0, 1000)))
    labels = st.tuples(st.integers(0, n + 1), st.sampled_from(graph.vertices))
    table = {}
    for x, y in draw(st.lists(st.tuples(labels, labels), max_size=8)):
        if not graph.is_edge(x[1], y[1]) and x != y:
            table[x, y] = draw(st.sampled_from([1, -1]))
    return ExplicitSigns(graph, table, draw(st.sampled_from([1, -1])))


class CountingSigns(SeededSigns):
    """Seeded signs that record every label keyed through ``_key`` and
    every pair drawn through ``_row``."""

    def __init__(self, graph):
        super().__init__(graph, 0.5, 7)
        self.keyed = []
        self.queries = []

    def _key(self, i, v):
        self.keyed.append((i, v))
        return super()._key(i, v)

    def _row(self, head, later):
        i, v = _label(head)
        for j, w in map(_label, later):  # the row contract: later labels, no edge of v
            assert (v, i) < (w, j) and not self.graph.is_edge(v, w), (i, v, j, w)
            self.queries.append((i, v, j, w))
        return super()._row(head, later)


def _label(key):
    """The label (i, v) of a seeded key ``b"{v}:{i}"``."""
    v, _, i = key.decode().rpartition(":")
    return int(i), v


@REPLAY
@given(st.data())
def test_sign_matrix_equals_calls(data):
    graph = data.draw(small_graphs())
    signs = data.draw(sign_functions(graph, 5))
    v, w = sorted(data.draw(st.lists(st.sampled_from(graph.vertices), min_size=2, max_size=2)))
    n = data.draw(st.integers(0, 6))
    matrix = signs._matrix(v, w, n)
    assert matrix.shape == (n, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert matrix[i - 1, j - 1] == signs(i, v, j, w), (i, v, j, w)


# Seeded blocks in both orientations, on and off an edge: the examples
# above seldom draw a seeded block of two or more indices.  A w < v block
# is the transpose of the v < w matrix, as t_estimate reads it.
@pytest.mark.parametrize("indices", [range(1, n + 1) for n in (0, 1, 4, 2, 6)])
@pytest.mark.parametrize("v, w", [("a", "b"), ("b", "a"), ("a", "a"), ("a", "c"), ("c", "a")])
def test_sign_rows_equal_calls(v, w, indices):
    graph = build_graph(["a", "b", "c"], [("a", "c")])
    signs = SeededSigns(graph, 0.5, 11)
    matrix = signs._matrix(min(v, w), max(v, w), len(indices))
    if w < v:
        matrix = matrix.T
    assert matrix.shape == (len(indices), len(indices))
    assert matrix.tolist() == [[signs(i, v, j, w) for j in indices] for i in indices]
    expected = [[seeded_sign(graph, 0.5, 11, i, v, j, w) for j in indices] for i in indices]
    assert matrix.tolist() == expected


@REPLAY
@given(st.data())
def test_seeded_rows_equal_whole_string_hash(data):
    graph = data.draw(small_graphs(min_vertices=2))
    p = data.draw(st.sampled_from([0.5, 0.3, 0.75, 0.0, 1.0]))
    seed = data.draw(
        st.one_of(
            st.integers(-(2**511), -1),
            st.integers(2**64, 2**511 - 1),
            st.integers(0, 2**64 - 1),
            st.integers(0, 99),
        )
    )
    signs = SeededSigns(graph, p, seed)

    def oracle(i, v, j, w):
        return seeded_sign(graph, p, seed, i, v, j, w)

    # index lists with gaps, repeats and any order; SpinAlgebra sorts them
    indices = {
        v: data.draw(st.lists(st.integers(0, 9), max_size=4))
        for v in data.draw(st.sets(st.sampled_from(graph.vertices), min_size=1))
    }
    algebra = SpinAlgebra(signs, indices)
    below = [0] * len(algebra.universe)
    for b, (j, w) in enumerate(algebra.universe):
        for a, (i, v) in enumerate(algebra.universe[:b]):
            if oracle(i, v, j, w) < 0:
                below[b] |= 1 << a
    assert algebra._below == below

    v, w = sorted(data.draw(st.lists(st.sampled_from(graph.vertices), min_size=2, max_size=2)))
    n = data.draw(st.integers(0, 6))
    expected = [[oracle(i, v, j, w) for j in range(1, n + 1)] for i in range(1, n + 1)]
    assert signs._matrix(v, w, n).tolist() == expected

    for entry in sign_table(signs, data.draw(st.integers(0, 4))):
        assert entry["sign"] == oracle(entry["i"], entry["v"], entry["j"], entry["w"]), entry


def test_seed_range_is_that_of_a_64_byte_key():
    graph = build_graph(["a"])
    for seed in (-(2**511), 2**511 - 1):
        SeededSigns(graph, 0.5, seed)
    for seed in (-(2**511) - 1, 2**511):
        with pytest.raises(DomainError, match=r"seed must lie in \[-2\^511, 2\^511\)"):
            SeededSigns(graph, 0.5, seed)


def test_validation_stays_at_the_boundary():
    signs = SeededSigns(build_graph(["a", "b"]), 0.5, 3)
    with pytest.raises(UnknownVertex):
        SpinAlgebra(signs, {"z": [0]})
    with pytest.raises(UnknownVertex):
        SpinAlgebra(signs, {"a": [0, 1], "z": []})
    with pytest.raises(UnknownVertex):
        signs._matrix("a", "z", 2)
    with pytest.raises(UnknownVertex):
        signs._matrix("z", "z", 2)


def test_sign_matrix_draws_each_pair_once():
    # a-c is an edge: its entries are fixed at +1 and none is drawn
    graph = build_graph(["a", "b", "c"], [("a", "c")])
    for v, w, expected in (("a", "b", 16), ("b", "b", 6), ("a", "c", 0)):
        signs = CountingSigns(graph)
        signs._matrix(v, w, 4)
        canonical = {(i, x, j, y) if (x, i) <= (y, j) else (j, y, i, x)
                     for i, x, j, y in signs.queries}
        assert len(signs.queries) == len(canonical) == expected, (v, w)


def test_each_label_is_keyed_once_per_block():
    # a-c is an edge: its block is fixed at +1 and no label is keyed
    graph = build_graph(["a", "b", "c"], [("a", "c")])
    for v, w, n in (("a", "b", 5), ("b", "b", 5), ("a", "c", 5)):
        signs = CountingSigns(graph)
        signs._matrix(v, w, n)
        assert len(signs.keyed) == len(set(signs.keyed)), (v, w)
        if v == w:
            assert len(signs.keyed) == n
        else:
            assert len(signs.keyed) <= 2 * n, (v, w)
    signs = CountingSigns(graph)
    algebra = SpinAlgebra(signs, {"a": [0, 2], "b": [1], "c": [0, 1, 3]})
    assert signs.keyed == algebra.universe


def test_spin_algebra_draws_no_adjacent_pair():
    # a-b is an edge, so only the pairs within a and within b are drawn
    graph = build_graph(["a", "b"], [("a", "b")])
    signs = CountingSigns(graph)
    every_index_algebra(signs, 32)
    assert not any(graph.is_edge(v, w) for _, v, _, w in signs.queries)
    assert len(signs.queries) == len(set(signs.queries)) == 2 * 32 * 31 // 2


def test_spin_algebra_draws_each_free_pair_once_canonically():
    # path3 has the edges a-b and b-c, so only a-c and the pairs within one
    # vertex are drawn: 2 * 3 + 1 + 0 + 3 pairs
    graph = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    signs = CountingSigns(graph)
    algebra = SpinAlgebra(signs, {"a": [0, 2], "b": [1], "c": [0, 1, 3]})
    universe = [(0, "a"), (2, "a"), (1, "b"), (0, "c"), (1, "c"), (3, "c")]
    assert algebra.universe == universe
    free = [
        (i, v, j, w)
        for a, (i, v) in enumerate(universe)
        for j, w in universe[a + 1 :]
        if {v, w} != {"a", "b"} and {v, w} != {"b", "c"}
    ]
    assert len(free) == 10
    assert sorted(signs.queries) == sorted(free)
    for b, (j, w) in enumerate(universe):
        for a, (i, v) in enumerate(universe[:b]):
            expected = (signs(i, v, j, w), 1 << a | 1 << b)
            assert left_multiply(algebra, 1 << a, b) == expected, (i, v, j, w)


def test_t_estimate_draws_each_pair_once():
    for vertices, word, pairing, draws in (
        # the a-b crossing of blocks 1, 2 and the b-a crossing of blocks 3,
        # 4 share one sign block; the a-a and b-b masks close them into a
        # cycle, as they do for any two factors of one vertex pair
        ("ab", "abab" "baba", "1-3,2-4,5-7,6-8", 25),
        # the same cycle, with the c block hanging off it, a leaf
        ("abc", "acbabc" "baba", "1-4,2-6,3-5,7-9,8-10", 50),
        # a forest: the a-b and b-c crossings of one path
        ("abc", "abacbc", "1-3,2-5,4-6", 50),
    ):
        graph = build_graph(list(vertices))
        partition = PairPartition.parse(pairing, len(word))
        signs = CountingSigns(graph)
        value = t_estimate(signs, graph, tuple(word), partition, 5)
        assert len(signs.queries) == len(set(signs.queries)) == draws, word
        oracle = SeededSigns(graph, 0.5, 7)  # CountingSigns' own signs
        assert value == brute_force_t(oracle, graph, tuple(word), partition.pairs, 5), word


@st.composite
def factor_graphs(draw, graph):
    """Factor graphs over the labels 0, 1, ...: a cycle of 3 to 5 labels or
    none, trees hanging off it or standing alone, and at most one chord.
    Each factor, in a random orientation, is the mask or the signs of a
    random vertex pair, so that several factors may read one pair."""
    size = draw(st.sampled_from([0, 0, 3, 4, 5]))
    edges = [(a, (a + 1) % size) for a in range(size)]
    for label in range(size, size + draw(st.integers(0 if size else 1, 5))):
        parent = draw(st.none() | st.integers(0, label - 1)) if label else None
        edge = (label, label + 1) if parent is None else (parent, label)
        if edge not in edges:
            edges.append(edge)
    labels = sorted({x for edge in edges for x in edge})
    if draw(st.booleans()):
        k, l = draw(st.permutations(labels))[:2]
        if (k, l) not in edges and (l, k) not in edges:
            edges.append((k, l))
    pairs = [
        (v, w)
        for v, w in itertools.combinations_with_replacement(graph.vertices, 2)
        if not graph.is_edge(v, w)
    ]
    factors = {}
    for k, l in edges:
        if draw(st.booleans()):
            k, l = l, k
        factors[k, l] = draw(st.sampled_from([None, *pairs]))
    return factors


def dense_factors(signs, n, factors):
    """Each factor as its numpy matrix: the mask is 1 - I, and the signs of
    one vertex are masked."""
    import numpy as np

    distinct = 1 - np.eye(n, dtype=np.int8)
    dense = []
    for axes, key in factors.items():
        if key is None:
            matrix = distinct
        else:
            matrix = signs._matrix(*key, n) * (distinct if key[0] == key[1] else 1)
        dense.append((matrix, list(axes)))
    return dense


@REPLAY
@given(st.data())
def test_leaf_elimination_equals_the_numpy_contraction(data):
    graph = data.draw(small_graphs())
    factors = data.draw(factor_graphs(graph))
    n = data.draw(st.integers(1, 5))
    signs = data.draw(sign_functions(graph, n))
    expected = einsum_sum_of_products(dense_factors(signs, n, factors))
    assert _sum_of_products(signs, n, factors) == expected
    # each vertex pair is drawn once, however many factors read it
    counting = CountingSigns(graph)
    expected = einsum_sum_of_products(dense_factors(SeededSigns(graph, 0.5, 7), n, factors))
    assert _sum_of_products(counting, n, factors) == expected
    drawn = {key for key in factors.values() if key}
    assert len(counting.queries) == len(set(counting.queries)) == sum(
        n * n if v != w else n * (n - 1) // 2 for v, w in drawn
    )


def brute_force_t(signs, graph, word, pairs, n):
    """The defining sum over index tuples, with its own crossing scan."""
    r = len(pairs)
    vertices = [word[e - 1] for e, _ in pairs]
    if any(word[e - 1] != word[z - 1] for e, z in pairs):
        return 0.0
    graph_crossings = [
        (k, l)
        for k, l in itertools.combinations(range(r), 2)
        if pairs[k][0] < pairs[l][0] < pairs[k][1] < pairs[l][1]
        and not graph.is_edge(vertices[k], vertices[l])
    ]
    total = 0
    for idx in itertools.product(range(1, n + 1), repeat=r):
        if any(
            idx[a] == idx[b] and vertices[a] == vertices[b]
            for a, b in itertools.combinations(range(r), 2)
        ):
            continue
        product = 1
        for k, l in graph_crossings:
            product *= signs(idx[k], vertices[k], idx[l], vertices[l])
        total += product
    return total / n**r


@REPLAY
@given(st.data())
def test_t_estimate_equals_brute_force(data):
    graph = data.draw(small_graphs())
    r = data.draw(st.integers(0, 4))
    n = data.draw(st.integers(1, 5))
    positions = data.draw(st.permutations(range(1, 2 * r + 1)))
    pairs = [tuple(positions[2 * b : 2 * b + 2]) for b in range(r)]
    word = [None] * (2 * r)
    for e, z in pairs:
        word[e - 1] = data.draw(st.sampled_from(graph.vertices))
        word[z - 1] = data.draw(st.sampled_from([word[e - 1], *graph.vertices]))
    partition = PairPartition.from_pairs(pairs, 2 * r)
    signs = data.draw(sign_functions(graph, n))
    expected = brute_force_t(signs, graph, tuple(word), partition.pairs, n)
    assert t_estimate(signs, graph, tuple(word), partition, n) == expected


def full_sweep_moment(signs, word, n):
    """The matrix-model moment by one right-to-left sweep over the universe
    of every index below 2N on every vertex."""
    if len(word) % 2:
        return Fraction(0)
    algebra = every_index_algebra(signs, 2 * n)
    state = {0: 1}
    for v, spin in reversed(word):
        state = algebra.apply_b(state, *(rank(algebra, 2 * i + spin - 1, v) for i in range(n)))
    return Fraction(state.get(0, 0), n ** (len(word) // 2))


@REPLAY
@given(st.data())
def test_moment_s_word_equals_full_sweep(data):
    graph = data.draw(small_graphs(max_vertices=3))
    n = data.draw(st.sampled_from([1, 2, 4, 6]))
    spins = [1] if n == 1 else [1, 2]
    if data.draw(st.booleans()):  # one spin per vertex
        spins = {v: [data.draw(st.sampled_from(spins))] for v in graph.vertices}
    else:
        spins = dict.fromkeys(graph.vertices, spins)
    labels = [(v, spin) for v in graph.vertices for spin in spins[v]]
    word = tuple(data.draw(st.lists(st.sampled_from(labels), max_size=8)))
    signs = data.draw(sign_functions(graph, 2 * n))
    assert moment_s_word(signs, word, n) == full_sweep_moment(signs, word, n)


def dense_signs(graph, n, seed):
    """A seeded random explicit sign on every free pair of the labels
    (i, v) with i < n."""
    rng = random.Random(seed)
    labels = [(i, v) for v in graph.vertices for i in range(n)]
    table = {
        (x, y): rng.choice((1, -1))
        for a, x in enumerate(labels)
        for y in labels[a + 1 :]
        if not graph.is_edge(x[1], y[1])
    }
    return ExplicitSigns(graph, table)


@REPLAY
@given(st.data())
def test_moment_s_word_is_the_same_on_every_rotation(data):
    # the vacuum entry is a trace; every rotation is cut where it is cheapest
    graph = data.draw(small_graphs(max_vertices=3))
    n = data.draw(st.sampled_from([1, 2, 4]))
    labels = [(v, spin) for v in graph.vertices for spin in ([1] if n == 1 else [1, 2])]
    word = tuple(data.draw(st.lists(st.sampled_from(labels), max_size=8)))
    signs = dense_signs(graph, 2 * n, data.draw(st.integers(0, 2**32)))
    expected = full_sweep_moment(signs, word, n)
    for k in range(len(word)):
        assert moment_s_word(signs, word[k:] + word[:k], n) == expected, k


@pytest.mark.parametrize(
    "word",
    [
        # the third a leaves a term holding one a slot where the first
        # b is applied: the a-b pairs are read there and nowhere before
        "a:1 a:1 a:1 b:1 a:1 b:1 b:1 b:1",
        # the same with the two labels on one vertex
        "a:1 a:1 a:1 a:2 a:1 a:2 a:2 a:2",
    ],
)
def test_moment_s_word_draws_what_a_held_slot_reads(word):
    graph = build_graph(["a", "b"])
    letters = parse_labeled_word(word)
    for n, seed in itertools.product((2, 4), range(4)):
        signs = dense_signs(graph, 2 * n, seed)
        assert moment_s_word(signs, letters, n) == full_sweep_moment(signs, letters, n), (n, seed)


@REPLAY
@given(st.lists(st.sampled_from([("a", 1), ("a", 2), ("b", 1)]), max_size=12))
def test_cheapest_cut_is_the_first_cheapest_rotation(letters):
    word = letters[: len(letters) // 2 * 2]
    half = len(word) // 2

    def shared(k):
        rotated = word[k:] + word[:k]
        return sum(min(rotated[:half].count(x), rotated[half:].count(x)) for x in set(word))

    assert _cheapest_cut(word) == min(range(half), key=shared, default=0)


@st.composite
def words_with_commuting_pairs(draw, graph, spins):
    """A random word into which pairs x ... x are put, each around a run of
    letters on the link of x's vertex, so that pairs nest and sit side by
    side; at most 8 letters."""
    labels = [(v, spin) for v in graph.vertices for spin in spins]
    word = draw(st.lists(st.sampled_from(labels), max_size=4))
    if draw(st.booleans()):  # every label met an even number of times
        word = list(draw(st.permutations(word[:2] * 2)))
    for _ in range(draw(st.integers(0, (8 - len(word)) // 2))):
        x = draw(st.sampled_from(labels))
        start = draw(st.integers(0, len(word)))
        end = start
        while end < len(word) and graph.is_edge(x[0], word[end][0]):
            end += 1
        end = draw(st.integers(start, end))
        word[start:end] = [x, *word[start:end], x]
    return tuple(word)


@REPLAY
@given(st.data())
def test_commuting_pairs_cancel_exactly(data):
    graph = data.draw(small_graphs(max_vertices=4, dense=True))
    n = data.draw(st.sampled_from([1, 2, 4]))
    word = data.draw(words_with_commuting_pairs(graph, [1] if n == 1 else [1, 2]))
    signs = dense_signs(graph, 2 * n, data.draw(st.integers(0, 2**32)))
    assert moment_s_word(signs, word, n) == full_sweep_moment(signs, word, n)
    # one pass cancels every pair it can: a second finds none
    met = Counter(word)
    if not any(count % 2 for count in met.values()):
        once = _cancel_commuting_pairs(graph, word, met)
        assert _cancel_commuting_pairs(graph, once, Counter(once)) == once


def test_a_commuting_pair_keys_none_of_its_slots():
    # a-c is an edge, so the a:1 pair around c:1 cancels, and only the
    # 4 + 4 slots of c and b are keyed, not the 4 of a as well
    graph = build_graph(["a", "b", "c"], [("a", "c")])
    word = parse_labeled_word("a:1 c:1 a:1 b:1 c:1 b:1")
    signs = CountingSigns(graph)
    assert moment_s_word(signs, word, 4) == full_sweep_moment(SeededSigns(graph, 0.5, 7), word, 4)
    assert len(signs.keyed) == 8 and all(v != "a" for _, v in signs.keyed)


def test_nested_commuting_pairs_empty_a_long_word():
    vertices = [f"v{k}" for k in range(1100)]
    signs = CountingSigns(build_graph(vertices))
    word = tuple((v, 1) for v in vertices + vertices[::-1])
    start = time.process_time()
    assert moment_s_word(signs, word, 1) == 1
    assert time.process_time() - start < 1.0
    assert signs.keyed == []


@pytest.mark.parametrize("word", ["a:1 b:1", "a:1 a:1 a:1 b:2"])
def test_a_label_met_an_odd_number_of_times_gives_0_at_once(word):
    graph = build_graph(["a", "b"])
    letters = parse_labeled_word(word)
    signs = CountingSigns(graph)
    assert moment_s_word(signs, letters, 2) == 0
    assert signs.keyed == signs.queries == []
    assert full_sweep_moment(signs, letters, 2) == 0


def test_moment_of_the_empty_word_is_one():
    graph = build_graph(["a", "b"])
    for signs in (ConstantSigns(graph), SeededSigns(graph, 0.5, 3), CountingSigns(graph)):
        for n in (1, 2, 8):
            assert moment_s_word(signs, (), n) == 1
    assert signs.queries == []


@st.composite
def held_states(draw, size, ranks, most):
    """Sparse states whose masks each hold at most ``most`` of ``ranks``."""
    slots = sum(1 << r for r in ranks)
    state = {}
    for _ in range(draw(st.integers(0, 6))):
        held = draw(st.lists(st.sampled_from(ranks), unique=True, max_size=most))
        rest = draw(st.integers(0, (1 << size) - 1)) & ~slots
        state[rest | sum(1 << r for r in held)] = draw(st.sampled_from([-2, -1, 1, 3]))
    return state


@REPLAY
@given(st.data())
def test_apply_b_cap_only_drops_masks_over_the_cap(data):
    graph = data.draw(small_graphs(max_vertices=2))
    algebra = every_index_algebra(data.draw(sign_functions(graph, 4)), 4)
    size = len(algebra.universe)
    ranks = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4, unique=True))
    cap = data.draw(st.integers(0, len(ranks)))
    state = data.draw(held_states(size, ranks, cap + 1))

    def held(mask):
        return sum(mask >> r & 1 for r in ranks)

    assert algebra.apply_b(state, *ranks, cap=cap) == {
        m: c for m, c in algebra.apply_b(state, *ranks).items() if held(m) <= cap
    }


@REPLAY
@given(st.data())
def test_spin_algebra_labels_hold_the_ranks_of_their_slots(data):
    graph = data.draw(small_graphs())
    indices = {
        v: data.draw(st.lists(st.integers(0, 7), max_size=4))
        for v in data.draw(st.sets(st.sampled_from(graph.vertices)))
    }
    algebra = SpinAlgebra(ConstantSigns(graph), indices)
    # indices ascending within a vertex, so ranks in universe order
    expected = {
        (v, spin): [rank(algebra, i, v) for i in sorted(set(listed)) if i % 2 == spin - 1]
        for v, listed in indices.items()
        for spin in (1, 2)
    }
    assert algebra.labels == {label: ranks for label, ranks in expected.items() if ranks}


@REPLAY
@given(st.data())
def test_spin_algebra_draws_only_the_read_label_pairs(data):
    graph = data.draw(small_graphs())
    indices = {
        v: data.draw(st.lists(st.integers(0, 7), max_size=4))
        for v in sorted(data.draw(st.sets(st.sampled_from(graph.vertices), min_size=1)))
    }
    labels = st.tuples(st.sampled_from(sorted(indices)), st.sampled_from([1, 2]))
    reads = data.draw(st.sets(st.tuples(labels, labels)))
    signs = CountingSigns(graph)
    algebra = SpinAlgebra(signs, indices, reads)
    full = SpinAlgebra(SeededSigns(graph, 0.5, 7), indices)  # CountingSigns' own signs
    assert algebra.universe == full.universe
    expected = []
    for b, (j, w) in enumerate(algebra.universe):
        for a, (i, v) in enumerate(algebra.universe[:b]):
            read = ((v, 1 + i % 2), (w, 1 + j % 2)) in reads
            assert algebra._below[b] >> a & 1 == (read and full._below[b] >> a & 1)
            if read and not graph.is_edge(v, w):
                expected.append((i, v, j, w))
    assert sorted(signs.queries) == sorted(expected)


@pytest.mark.parametrize(
    "vertices, word, n, slots, pairs, value",
    [
        # the even slots 0, 2, 4, 6 of a: C(4, 2) pairs, not C(8, 2) = 28
        ("a", "a:1 a:1 a:1 a:1", 4, {(0, "a")}, 6, Fraction(7, 4)),
        # the even slots of a and the odd ones of b, but each half applies
        # the sum of a once and that of b once, so only the a-b pairs are
        # read: N^2, not N^2 + 2 C(N, 2) = 28 nor C(16, 2)
        ("ab", "a:1 b:2 a:1 b:2", 4, {(0, "a"), (1, "b")}, 16, Fraction(3, 8)),
        # both pairs cancel before any algebra is built: no pair is read
        ("ab", "a:1 b:2 b:2 a:1", 4, {(0, "a"), (1, "b")}, 0, 1),
        ("a", "a:1 a:1", 2000, {(0, "a")}, 0, 1),
        # nothing cancels, as c lies between the two a and the two b; cut
        # as a c a | b c b, a term holding a slot of a at the second a may
        # only empty it, so no a-a pair is read, nor b-b: only the N^2 a-c
        # and N^2 b-c pairs
        ("abc", "a:1 c:1 a:1 b:1 c:1 b:1", 4, {(0, "a"), (0, "b"), (0, "c")}, 32, Fraction(1, 8)),
    ],
)
def test_moment_s_word_draws_only_the_word_slots(vertices, word, n, slots, pairs, value):
    signs = CountingSigns(build_graph(list(vertices)))
    start = time.process_time()
    assert moment_s_word(signs, parse_labeled_word(word), n) == value
    assert time.process_time() - start < 1.0
    canonical = {(i, x, j, y) if (x, i) <= (y, j) else (j, y, i, x)
                 for i, x, j, y in signs.queries}
    assert len(signs.queries) == len(canonical) == pairs
    assert all({(i % 2, v), (j % 2, w)} <= slots for i, v, j, w in signs.queries)
