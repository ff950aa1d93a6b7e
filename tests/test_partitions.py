import itertools
import random

import pytest

from graphmoments import (
    PairPartition,
    build_graph,
    count_gamma_admissible,
    crossing_polynomial,
    enumerate_pairings,
    gamma_crossing_pairs,
    limit_moment,
    parse_labeled_word,
)
from graphmoments.errors import (
    DomainError,
    InvalidToken,
    MalformedPartition,
    SizeLimit,
)
from graphmoments.partitions import count_pairings
from tests.conftest import random_labeled_word


def catalan(r):
    """Independent oracle: the standard recurrence."""
    values = [1]
    for n in range(r):
        values.append(sum(values[i] * values[n - i] for i in range(n + 1)))
    return values[r]


def test_parse_labeled_word():
    assert parse_labeled_word("a:1 b:2 a") == (("a", 1), ("b", 2), ("a", 1))
    assert parse_labeled_word("") == ()
    with pytest.raises(InvalidToken):
        parse_labeled_word("a:3")
    with pytest.raises(InvalidToken):
        parse_labeled_word("a:x")
    with pytest.raises(InvalidToken):
        parse_labeled_word("-:1")


def test_pair_partition_validation():
    p = PairPartition.from_pairs([(2, 4), (1, 3)], 4)
    assert p.pairs == ((1, 3), (2, 4))
    assert str(p) == "1-3,2-4"
    assert PairPartition.parse("1-3,2-4", 4) == p
    with pytest.raises(MalformedPartition):
        PairPartition.from_pairs([(1, 2), (2, 3)], 4)
    with pytest.raises(MalformedPartition):
        PairPartition.from_pairs([(1, 1)], 2)
    with pytest.raises(MalformedPartition):
        PairPartition.from_pairs([(1, 2)], n=4)
    with pytest.raises(MalformedPartition):
        PairPartition.parse("1-2,3", 4)
    with pytest.raises(MalformedPartition):
        PairPartition.from_pairs([(1, 2), (3, 5)], 5)
    with pytest.raises(MalformedPartition):
        PairPartition.from_pairs([], 2)
    assert PairPartition.from_pairs([], 0).pairs == ()


def test_enumerate_pairings_examples(single, edge2):
    w = parse_labeled_word("a:1 a:1 a:1 a:1")
    pairings = enumerate_pairings(single, w)
    assert [p.pairs for p in pairings] == [
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    ]
    w = parse_labeled_word("a:1 b:1 a:1 b:1")
    assert [p.pairs for p in enumerate_pairings(edge2, w)] == [((1, 3), (2, 4))]
    assert enumerate_pairings(single, (("a", 1),) * 3) == []
    w = parse_labeled_word("a:1 a:2 a:1 a:2")
    assert [p.pairs for p in enumerate_pairings(single, w)] == [((1, 3), (2, 4))]


def test_match_vertex_mode(single):
    w = parse_labeled_word("a:1 a:2 a:1 a:2")
    assert len(enumerate_pairings(single, w, match="vertex")) == 3
    assert len(enumerate_pairings(single, w, match="label")) == 1
    with pytest.raises(DomainError):
        enumerate_pairings(single, w, match="bogus")


@pytest.mark.parametrize("n", [0, 1, 2])
def test_bad_match_mode_is_rejected_at_every_length(single, n):
    # empty and odd words have no pairing, but the mode is still checked
    w = (("a", 1),) * n
    entry_points = [
        lambda: enumerate_pairings(single, w, match="bogus"),
        lambda: crossing_polynomial(single, w, match="bogus"),
        lambda: crossing_polynomial(single, w, match="bogus", degree=0),
        lambda: count_pairings(single, w, match="bogus"),
        lambda: count_gamma_admissible(single, w, match="bogus"),
    ] + [
        lambda theta=theta: limit_moment(single, w, theta, match="bogus")
        for theta in (0.0, 0.5, 1.0)
    ]
    for call in entry_points:
        with pytest.raises(DomainError):
            call()


def test_size_limit(single):
    w = (("a", 1),) * 18
    with pytest.raises(SizeLimit):
        enumerate_pairings(single, w)
    wide = build_graph([f"v{k}" for k in range(9)])
    cheap = tuple((f"v{k}", 1) for k in range(9) for _ in range(2))
    assert len(enumerate_pairings(wide, cheap, max_len=18)) == 1


def test_enumerate_pairings_takes_words_past_the_recursion_limit():
    # one pair per vertex, 1,100 deep: deeper than Python's default
    # recursion limit
    graph = build_graph([f"v{k}" for k in range(1100)])
    word = tuple((f"v{k}", 1) for k in range(1100) for _ in range(2))
    pairings = enumerate_pairings(graph, word, max_len=len(word))
    assert [p.pairs for p in pairings] == [tuple((e, e + 1) for e in range(1, 2200, 2))]


def test_crossings_examples(edge2, noedge2):
    w = parse_labeled_word("a:1 b:1 a:1 b:1")
    p = PairPartition.from_pairs([(1, 3), (2, 4)], 4)
    crossings, graph_crossings = gamma_crossing_pairs(edge2, w, p)
    assert crossings == {(1, 2)}
    assert graph_crossings == set()
    crossings, graph_crossings = gamma_crossing_pairs(noedge2, w, p)
    assert crossings == {(1, 2)}
    assert graph_crossings == {(1, 2)}
    nested = PairPartition.from_pairs([(1, 4), (2, 3)], 4)
    w2 = parse_labeled_word("a:1 b:1 b:1 a:1")
    assert gamma_crossing_pairs(noedge2, w2, nested) == (set(), set())


def test_crossings_number_blocks_by_sorted_openers(noedge2):
    w = parse_labeled_word("a:1 b:1 a:1 b:1")
    unsorted = PairPartition(((2, 4), (1, 3)))
    assert gamma_crossing_pairs(noedge2, w, unsorted) == ({(1, 2)}, {(1, 2)})


def test_crossing_partition_must_match_word(edge2):
    w = parse_labeled_word("a:1 b:1 a:1 b:1")
    with pytest.raises(MalformedPartition):
        gamma_crossing_pairs(edge2, w, PairPartition.from_pairs([(1, 2)], 2))


def test_count_examples(single, edge2, noedge2):
    w4 = parse_labeled_word("a:1 a:1 a:1 a:1")
    assert count_gamma_admissible(single, w4) == 2
    abab = parse_labeled_word("a:1 b:1 a:1 b:1")
    assert count_gamma_admissible(edge2, abab) == 1
    assert count_gamma_admissible(noedge2, abab) == 0
    assert count_gamma_admissible(single, (("a", 1),) * 5) == 0


def test_catalan_oracle(single):
    for r in range(1, 7):
        word = (("a", 1),) * (2 * r)
        assert count_gamma_admissible(single, word, max_len=2 * r) == catalan(r)


def test_limit_moment_examples(noedge2):
    w4 = parse_labeled_word("a:1 a:1 a:1 a:1")
    assert limit_moment(noedge2, w4, 0.0) == 2.0
    assert limit_moment(noedge2, w4, 1.0) == 3.0
    for theta in (-1.0, -0.25, 0.5):
        assert limit_moment(noedge2, w4, theta) == pytest.approx(2.0 + theta)
    with pytest.raises(DomainError):
        limit_moment(noedge2, w4, 1.5)


def test_theta_conventions_random(graphs):
    rng = random.Random(23)
    for g in graphs.values():
        for _ in range(20):
            word = random_labeled_word(rng, g, rng.choice((2, 4, 6)))
            assert limit_moment(g, word, 0.0) == count_gamma_admissible(g, word)
            assert limit_moment(g, word, 1.0) == len(enumerate_pairings(g, word))


def test_count_monotone_in_graph():
    rng = random.Random(31)
    vertices = ["a", "b", "c", "d"]
    all_edges = list(itertools.combinations(vertices, 2))
    for _ in range(25):
        chosen = [e for e in all_edges if rng.random() < 0.4]
        g = build_graph(vertices, chosen)
        extra = [e for e in all_edges if e not in chosen]
        if not extra:
            continue
        bigger = build_graph(vertices, chosen + [rng.choice(extra)])
        word = random_labeled_word(rng, g, rng.choice((4, 6)))
        assert count_gamma_admissible(bigger, word) >= count_gamma_admissible(g, word)


def test_complete_graph_interleaving_factorizes():
    g = build_graph(
        ["a", "b", "c", "d"],
        list(itertools.combinations(["a", "b", "c", "d"], 2)),
    )
    rng = random.Random(5)
    for len1, len2 in [(2, 2), (2, 3), (3, 3)]:
        for _ in range(4):
            w1 = tuple((rng.choice(("a", "b")), rng.choice((1, 2))) for _ in range(len1))
            w2 = tuple((rng.choice(("c", "d")), rng.choice((1, 2))) for _ in range(len2))
            expected = count_gamma_admissible(g, w1) * count_gamma_admissible(g, w2)
            total = len1 + len2
            for positions in itertools.combinations(range(total), len1):
                merged, i1, i2 = [], iter(w1), iter(w2)
                for k in range(total):
                    merged.append(next(i1) if k in positions else next(i2))
                assert count_gamma_admissible(g, tuple(merged)) == expected
