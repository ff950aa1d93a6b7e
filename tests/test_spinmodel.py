import random
from fractions import Fraction

import pytest

from graphmoments import (
    ConstantSigns,
    SeededSigns,
    SpinAlgebra,
    build_graph,
    moment_s_word,
    parse_labeled_word,
)
from graphmoments.errors import BudgetExceeded, DomainError, OddN, UnknownVertex
from graphmoments.spinmodel import sign_table
from tests.conftest import ExplicitSigns
from tests.oracles import (
    every_index_algebra,
    left_multiply,
    rank,
    vacuum_trace,
    vacuum_trace_labels,
)


def test_sign_fixed_rules(edge2, noedge2):
    for signs in (ConstantSigns(edge2), SeededSigns(edge2, 0.5, 1)):
        assert signs(3, "a", 3, "a") == -1
        assert signs(0, "a", 5, "b") == 1  # edge pairs commute
    signs = SeededSigns(noedge2, 0.5, 1)
    assert signs(2, "a", 2, "a") == -1
    for i in range(6):
        for j in range(6):
            assert signs(i, "a", j, "b") == signs(j, "b", i, "a")
            assert signs(i, "a", j, "a") == signs(j, "a", i, "a")


def test_seeded_reproducible_across_instances_and_order(noedge2):
    pairs = [(i, "a", j, "b") for i in range(8) for j in range(8)]
    first = [SeededSigns(noedge2, 0.5, 99)(*p) for p in pairs]
    fresh = SeededSigns(noedge2, 0.5, 99)
    second = [fresh(*p) for p in reversed(pairs)]
    assert first == list(reversed(second))
    assert set(first) == {1, -1}
    assert [SeededSigns(noedge2, 0.5, 100)(*p) for p in pairs] != first


def test_seeded_extremes_and_domain(noedge2):
    assert all(
        SeededSigns(noedge2, 1.0, 3)(i, "a", j, "b") == 1
        for i in range(5)
        for j in range(5)
    )
    assert all(
        SeededSigns(noedge2, 0.0, 3)(i, "a", j, "b") == -1
        for i in range(5)
        for j in range(5)
    )
    with pytest.raises(DomainError):
        SeededSigns(noedge2, 1.5, 0)
    with pytest.raises(UnknownVertex):
        SeededSigns(noedge2, 0.5, 0)(0, "z", 0, "a")


def test_explicit_signs(noedge2):
    signs = ExplicitSigns(noedge2, {((0, "a"), (1, "b")): -1})
    assert signs(0, "a", 1, "b") == -1
    assert signs(1, "b", 0, "a") == -1
    assert signs(0, "a", 2, "b") == 1  # default
    with pytest.raises(DomainError):
        ExplicitSigns(noedge2, {((0, "a"), (0, "a")): 1})
    edge = build_graph(["a", "b"], [("a", "b")])
    with pytest.raises(DomainError):
        ExplicitSigns(edge, {((0, "a"), (1, "b")): -1})


def test_left_multiply_basics(single):
    algebra = every_index_algebra(SeededSigns(single, 0.5, 7), 6)
    r = rank(algebra, 3, "a")
    assert left_multiply(algebra, 0, r) == (1, 1 << r)
    sign, back = left_multiply(algebra, 1 << r, r)
    assert (sign, back) == (1, 0)
    # one smaller occupied slot: the sign is the pair sign
    m = rank(algebra, 1, "a")
    expected = algebra.signs(3, "a", 1, "a")
    assert left_multiply(algebra, (1 << m) | (1 << r), r) == (expected, 1 << m)


def test_apply_b_and_involution(graphs):
    rng = random.Random(43)
    for g in graphs.values():
        algebra = every_index_algebra(SeededSigns(g, 0.5, 3), 4)
        size = len(algebra.universe)
        assert algebra.apply_b({0: 1}, 5 % size) == {1 << (5 % size): 1}
        for _ in range(50):
            mask = rng.randrange(1 << size)
            r = rng.randrange(size)
            state = {mask: 1}
            assert algebra.apply_b(algebra.apply_b(state, r), r) == state


def test_commutation_relation(graphs):
    rng = random.Random(47)
    for g in graphs.values():
        algebra = every_index_algebra(SeededSigns(g, 0.5, 11), 4)
        size = len(algebra.universe)
        for _ in range(50):
            mask = rng.randrange(1 << size)
            r1, r2 = rng.sample(range(size), 2)
            i, v = algebra.universe[r1]
            j, w = algebra.universe[r2]
            lhs = algebra.apply_b(algebra.apply_b({mask: 1}, r2), r1)
            rhs = algebra.apply_b(algebra.apply_b({mask: 1}, r1), r2)
            sign = algebra.signs(i, v, j, w)
            assert lhs == {m: sign * c for m, c in rhs.items()}


def test_apply_b_several_ranks_is_sum(graphs):
    rng = random.Random(53)
    for g in graphs.values():
        algebra = every_index_algebra(SeededSigns(g, 0.5, 13), 4)
        size = len(algebra.universe)
        for _ in range(40):
            state = {
                rng.randrange(1 << size): rng.choice((-2, -1, 1, 3))
                for _ in range(rng.randrange(1, 6))
            }
            ranks = [rng.randrange(size) for _ in range(rng.randrange(1, 5))]
            expected = {}
            for r in ranks:
                for mask, coeff in state.items():
                    sign, flipped = left_multiply(algebra, mask, r)
                    expected[flipped] = expected.get(flipped, 0) + sign * coeff
            expected = {m: c for m, c in expected.items() if c}
            assert algebra.apply_b(state, *ranks) == expected


def test_vacuum_trace_examples(noedge2):
    algebra = every_index_algebra(SeededSigns(noedge2, 0.5, 17), 4)
    r1 = rank(algebra, 0, "a")
    r2 = rank(algebra, 1, "b")
    assert vacuum_trace(algebra, [r1]) == 0
    assert vacuum_trace(algebra, [r1, r1]) == 1
    expected = algebra.signs(0, "a", 1, "b")
    assert vacuum_trace(algebra, [r1, r2, r1, r2]) == expected
    assert vacuum_trace_labels(algebra, [(0, "a"), (0, "a")]) == 1


def test_traciality(graphs):
    rng = random.Random(59)
    for g in graphs.values():
        algebra = every_index_algebra(SeededSigns(g, 0.5, 19), 3)
        size = len(algebra.universe)
        for _ in range(100):
            word = [rng.randrange(size) for _ in range(rng.randrange(2, 9))]
            cut = rng.randrange(len(word))
            rotated = word[cut:] + word[:cut]
            assert vacuum_trace(algebra, word) == vacuum_trace(algebra, rotated)


def test_factorization_over_distinct_generators(noedge2):
    algebra = every_index_algebra(SeededSigns(noedge2, 0.5, 23), 3)
    size = len(algebra.universe)
    import itertools

    for k in (1, 2, 3):
        for gens in itertools.permutations(range(size), k):
            for powers in itertools.product(range(1, 5), repeat=k):
                word = [r for r, l in zip(gens, powers) for _ in range(l)]
                expected = 1
                for l in powers:
                    expected *= 1 if l % 2 == 0 else 0
                assert vacuum_trace(algebra, word) == expected, (gens, powers)


def test_moment_examples(single, edge2):
    w2 = parse_labeled_word("a:1 a:1")
    assert moment_s_word(SeededSigns(single, 0.5, 0), w2, 2) == 1
    abab = parse_labeled_word("a:1 b:1 a:1 b:1")
    for n in (2, 8, 32):
        for seed in (0, 1, 2):
            assert moment_s_word(SeededSigns(edge2, 0.5, seed), abab, n) == 1
    w4 = parse_labeled_word("a:1 a:1 a:1 a:1")
    for n in (2, 4, 8, 64):
        assert moment_s_word(ConstantSigns(single), w4, n) == Fraction(3) - Fraction(2, n)
    for sigma in (1, -1):
        signs = ExplicitSigns(single, {((0, "a"), (2, "a")): sigma})
        assert moment_s_word(signs, w4, 2) == Fraction(6 + 2 * sigma, 4)


def test_moment_mixed_spins_use_disjoint_indices(single):
    # spins 1 and 2 average disjoint generator families, so a mixed pair
    # has no matching and the moment vanishes for every seed
    word = parse_labeled_word("a:1 a:2")
    for seed in range(3):
        assert moment_s_word(SeededSigns(single, 0.5, seed), word, 4) == 0


def test_moment_odd_word_is_zero(single):
    word = parse_labeled_word("a:1 a:1 a:1")
    assert moment_s_word(ConstantSigns(single), word, 4) == 0


def test_moment_denominator_divides_scale(single, noedge2):
    rng = random.Random(71)
    for _ in range(20):
        g = single if rng.random() < 0.5 else noedge2
        length = rng.choice((2, 4, 6))
        word = tuple((rng.choice(g.vertices), 1) for _ in range(length))
        n = rng.choice((2, 4, 6))
        value = moment_s_word(SeededSigns(g, 0.5, rng.randrange(100)), word, n)
        assert n ** (length // 2) % value.denominator == 0


def test_seeded_signs_are_balanced(noedge2):
    signs = SeededSigns(noedge2, 0.5, 2024)
    draws = [signs(i, "a", j, "b") for i in range(20) for j in range(20)]
    share = draws.count(1) / len(draws)
    assert 0.4 < share < 0.6


def test_moment_n_validation(single):
    w = parse_labeled_word("a:1 a:1")
    with pytest.raises(OddN):
        moment_s_word(ConstantSigns(single), w, 3)
    with pytest.raises(DomainError):
        moment_s_word(ConstantSigns(single), w, 0)
    assert moment_s_word(ConstantSigns(single), w, 1) == 1
    with pytest.raises(OddN):
        moment_s_word(ConstantSigns(single), parse_labeled_word("a:2 a:2"), 1)


def test_moment_budget(single):
    w = parse_labeled_word("a:1 a:1 a:1 a:1")
    with pytest.raises(BudgetExceeded):
        moment_s_word(ConstantSigns(single), w, 100, budget=10**6)


def test_sign_table(noedge2):
    entries = sign_table(ConstantSigns(noedge2), 2)
    # 4 generators: C(4, 2) unordered pairs
    assert len(entries) == 6
    assert all(e["sign"] in (1, -1) for e in entries)
    universe = [(0, "a"), (1, "a"), (0, "b"), (1, "b")]
    listed = {((e["i"], e["v"]), (e["j"], e["w"])) for e in entries}
    assert len(listed) == 6
    for pair in listed:
        assert pair[0] in universe and pair[1] in universe


def test_sign_table_matches_direct_calls(graphs):
    for g in graphs.values():
        for seed in (0, 7, 31):
            signs = SeededSigns(g, 0.5, seed)
            reference = SeededSigns(g, 0.5, seed)
            for entry in sign_table(signs, 3):
                direct = reference(entry["i"], entry["v"], entry["j"], entry["w"])
                assert entry["sign"] == direct, entry


def test_universe_restricted_to_word_vertices_matches_full(graphs):
    g = graphs["random5"]
    pair = ("p", "s")  # not adjacent, with q and r between them
    rng = random.Random(79)
    for seed in (0, 5, 17):
        signs = SeededSigns(g, 0.5, seed)
        full = every_index_algebra(signs, 4)
        small = SpinAlgebra(signs, dict.fromkeys(pair, range(4)))
        assert len(small.universe) == 8
        for _ in range(100):
            length = rng.randrange(2, 9)
            labels = [(rng.randrange(4), rng.choice(pair)) for _ in range(length)]
            assert vacuum_trace_labels(small, labels) == vacuum_trace_labels(full, labels)
        for n, length in ((2, 6), (4, 4)):
            rest = [(rng.choice(pair), rng.choice((1, 2))) for _ in range(length - 2)]
            word = (("p", 1), ("s", 1), *rest)
            algebra = every_index_algebra(signs, 2 * n)
            state = {0: 1}
            for v, spin in reversed(word):
                ranks = [rank(algebra, 2 * i + spin - 1, v) for i in range(n)]
                state = algebra.apply_b(state, *ranks)
            expected = Fraction(state.get(0, 0), n ** (length // 2))
            assert moment_s_word(signs, word, n) == expected, word
