import math
import random
import statistics
from fractions import Fraction

import pytest

from graphmoments import (
    ConstantSigns,
    PairPartition,
    SeededSigns,
    build_graph,
    convergence_sweep,
    limit_moment,
    parse_labeled_word,
    t_estimate,
    variance_sweep,
)
from graphmoments.cltlab import convergence_csv, variance_csv
from graphmoments.errors import BudgetExceeded, DomainError, MalformedPartition, SizeLimit


def class_tuple_count(word, pairs, n):
    """Independent oracle: product of falling factorials per vertex."""
    per_vertex = {}
    for e, _ in pairs:
        per_vertex[word[e - 1]] = per_vertex.get(word[e - 1], 0) + 1
    count = 1
    for blocks in per_vertex.values():
        for k in range(blocks):
            count *= n - k
    return count


def test_t_estimate_admissible_is_one(edge2):
    word = ("a", "b", "a", "b")
    pairing = PairPartition.parse("1-3,2-4", 4)
    for n in (1, 3, 10):
        assert t_estimate(SeededSigns(edge2, 0.5, 4), edge2, word, pairing, n) == 1.0


def test_t_estimate_constant_counts(single):
    word = ("a",) * 4
    pairing = PairPartition.parse("1-3,2-4", 4)
    assert t_estimate(ConstantSigns(single), single, word, pairing, 10) == 0.9


def test_t_estimate_against_counting_oracle():
    rng = random.Random(61)
    g = build_graph(["a", "b", "c"], [("a", "b")])
    words_and_pairs = [
        (("a", "a", "a", "a"), "1-3,2-4"),
        (("a", "a", "a", "a"), "1-2,3-4"),
        (("a", "b", "a", "b"), "1-3,2-4"),
        (("a", "c", "a", "c"), "1-3,2-4"),
        (("a", "a", "c", "a", "a", "c"), "1-4,2-5,3-6"),
    ]
    for word, text in words_and_pairs:
        pairing = PairPartition.parse(text, len(word))
        for n in (2, 5, 9):
            got = t_estimate(ConstantSigns(g), g, word, pairing, n)
            expected = class_tuple_count(word, pairing.pairs, n) / n ** len(pairing.pairs)
            assert got == pytest.approx(expected), (word, text, n)


def test_t_estimate_blocks_without_crossings_allocate_nothing(single):
    # no factor needs an N x N matrix, so a huge N answers at once
    n = 10**7
    one = PairPartition.parse("1-2", 2)
    assert t_estimate(ConstantSigns(single), single, ("a", "a"), one, n) == 1.0
    nested = PairPartition.parse("1-4,2-3", 4)
    value = t_estimate(ConstantSigns(single), single, ("a",) * 4, nested, n, budget=n**2)
    assert value == (n - 1) / n


def test_t_estimate_mismatched_pairing_has_empty_class(edge2):
    word = ("a", "b", "b", "a")
    pairing = PairPartition.parse("1-3,2-4", 4)
    assert t_estimate(ConstantSigns(edge2), edge2, word, pairing, 5) == 0.0


def test_t_estimate_concentrates(single):
    word = ("a",) * 4
    pairing = PairPartition.parse("1-3,2-4", 4)
    small = [
        abs(t_estimate(SeededSigns(single, 0.5, s), single, word, pairing, 6))
        for s in range(20)
    ]
    large = [
        abs(t_estimate(SeededSigns(single, 0.5, s), single, word, pairing, 60))
        for s in range(20)
    ]
    assert sum(large) / len(large) < sum(small) / len(small)


def test_t_estimate_takes_signs_and_crossings_from_one_graph(edge2, noedge2):
    word = ("a", "b", "a", "b")
    pairing = PairPartition.parse("1-3,2-4", 4)
    assert t_estimate(SeededSigns(noedge2, 0.5, 3), noedge2, word, pairing, 8) == -0.28125
    for signs_graph, graph in ((edge2, noedge2), (noedge2, edge2)):
        with pytest.raises(DomainError, match="another graph"):
            t_estimate(SeededSigns(signs_graph, 0.5, 3), graph, word, pairing, 8)


def test_t_estimate_budget(single):
    word = ("a",) * 4
    pairing = PairPartition.parse("1-3,2-4", 4)
    with pytest.raises(BudgetExceeded):
        t_estimate(ConstantSigns(single), single, word, pairing, 100, budget=100)


def _one_vertex_per_block(pairs):
    """The word of one vertex per block on the edgeless graph."""
    r = len(pairs)
    vertices = [f"v{k}" for k in range(r)]
    word = [None] * (2 * r)
    for v, (e, z) in zip(vertices, pairs):
        word[e - 1] = word[z - 1] = v
    return build_graph(vertices), tuple(word), PairPartition.from_pairs(pairs, 2 * r)


def test_only_blocks_on_cycles_count_towards_the_contraction_labels():
    # every two blocks cross: one clique, contracted by numpy
    for r in (52, 53):
        graph, word, pairing = _one_vertex_per_block([(k + 1, k + 1 + r) for k in range(r)])
        if r == 52:
            assert t_estimate(ConstantSigns(graph), graph, word, pairing, 1) == 1.0
        else:
            with pytest.raises(SizeLimit, match="53 crossing blocks on cycles"):
                t_estimate(ConstantSigns(graph), graph, word, pairing, 1)
    # each block crosses the next only: a path of 60, summed out leaf by leaf
    r = 60
    path = [(1, 3), *((2 * k, 2 * k + 3) for k in range(1, r - 1)), (2 * r - 2, 2 * r)]
    graph, word, pairing = _one_vertex_per_block(path)
    assert t_estimate(ConstantSigns(graph), graph, word, pairing, 1) == 1.0


def test_convergence_sweep_edge_graph_is_exact(edge2):
    word = parse_labeled_word("a:1 b:1 a:1 b:1")
    rows = convergence_sweep(edge2, word, [2, 8], [0, 1, 2], 0.5)
    assert len(rows) == 6
    for row in rows:
        assert row.exact == 1.0
        assert row.abs_err == 0.0


def test_convergence_sweep_odd_word(edge2):
    word = parse_labeled_word("a:1 b:1 a:1")
    rows = convergence_sweep(edge2, word, [2, 4], [0], 0.5)
    for row in rows:
        assert row.estimate == 0.0 and row.exact == 0.0


def test_convergence_sweep_matches_limit_and_is_deterministic(noedge2):
    word = parse_labeled_word("a:1 a:1 a:1 a:1")
    rows1 = convergence_sweep(noedge2, word, [4], [7], 0.75)
    rows2 = convergence_sweep(noedge2, word, [4], [7], 0.75)
    assert rows1 == rows2
    assert rows1[0].exact == limit_moment(noedge2, word, 0.5)


def test_variance_sweep_deterministic_signs(single):
    word = ("a",) * 4
    pairing = PairPartition.parse("1-3,2-4", 4)
    result = variance_sweep(single, word, pairing, [4, 8, 16], 8, p=1.0)
    assert all(row.variance == 0.0 for row in result.rows)
    assert result.degenerate and result.slope == 0.0


def test_variance_sweep_admissible_pairing(edge2):
    word = ("a", "b", "a", "b")
    pairing = PairPartition.parse("1-3,2-4", 4)
    result = variance_sweep(edge2, word, pairing, [4, 8], 8, p=0.5)
    assert all(row.variance == 0.0 for row in result.rows)
    assert result.degenerate


def test_variance_sweep_checks_its_input_when_there_is_no_M(single):
    word = ("a",) * 4
    assert variance_sweep(single, word, PairPartition.parse("1-3,2-4", 4), [], 8).rows == ()
    with pytest.raises(MalformedPartition):
        variance_sweep(single, word, PairPartition(((1, 2),)), [], 8)


@pytest.mark.parametrize(
    "word, text",
    [("abab", "1-3,2-4"), ("aaaa", "1-3,2-4"), ("abcabc", "1-4,2-5,3-6"),
     ("aabaab", "1-4,2-5,3-6")],
)
def test_variance_sweep_rows_are_the_variance_of_t_estimate(word, text):
    import numpy as np

    graph = build_graph(["a", "b", "c"], [("b", "c")])
    pairing = PairPartition.parse(text, len(word))
    m_list, samples, p, seed_base = [2, 3, 5], 6, 0.3, 40
    result = variance_sweep(graph, tuple(word), pairing, m_list, samples, p, seed_base)
    estimates = [
        [t_estimate(SeededSigns(graph, p, seed_base + k), graph, tuple(word), pairing, m)
         for k in range(samples)]
        for m in m_list
    ]
    assert [(row.m, row.samples) for row in result.rows] == [(m, samples) for m in m_list]
    # the exact sample variance, rounded once; numpy's float sums agree but
    # for the last bits
    assert [row.variance for row in result.rows] == [statistics.variance(e) for e in estimates]
    for row, values in zip(result.rows, estimates):
        assert math.isclose(row.variance, float(np.var(values, ddof=1)), rel_tol=1e-12)
    assert any(row.variance > 0.0 for row in result.rows)


def least_squares_slope(points):
    """The least-squares slope of log variance against log M, in exact
    rationals from the float logarithms, as the centred sums."""
    xs = [Fraction(math.log(m)) for m, _ in points]
    ys = [Fraction(math.log(v)) for _, v in points]
    x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
    covariance = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    return float(covariance / sum((x - x_bar) ** 2 for x in xs))


@pytest.mark.parametrize(
    "word, text, m_list",
    [("aaaa", "1-3,2-4", [4, 8, 16]), ("abab", "1-3,2-4", [3, 5, 7, 11]),
     ("aaaa", "1-3,2-4", [4, 4, 8, 16])],
)
def test_variance_sweep_slope_is_the_exact_least_squares_slope(word, text, m_list):
    import numpy as np

    graph = build_graph(["a", "b"])
    pairing = PairPartition.parse(text, len(word))
    result = variance_sweep(graph, tuple(word), pairing, m_list, 4, 0.5, 3)
    points = [(row.m, row.variance) for row in result.rows]
    assert not result.degenerate and all(v > 0.0 for _, v in points)
    assert result.slope == least_squares_slope(points)
    polyfit = np.polyfit(np.log([m for m, _ in points]), np.log([v for _, v in points]), 1)
    assert math.isclose(result.slope, float(polyfit[0]), rel_tol=1e-12)


def test_variance_sweep_decay_slope(single):
    word = ("a",) * 4
    pairing = PairPartition.parse("1-3,2-4", 4)
    result = variance_sweep(single, word, pairing, [8, 16, 32, 64], 16, p=0.5)
    assert not result.degenerate
    assert -3.0 < result.slope < -1.0
    variances = [row.variance for row in result.rows]
    assert variances[0] > variances[-1]


def test_csv_formats(single, edge2):
    word = parse_labeled_word("a:1 b:1 a:1 b:1")
    rows = convergence_sweep(edge2, word, [2], [0], 0.5)
    text = convergence_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "N,seed,estimate,exact,abs_err"
    assert lines[1] == "2,0,1.0,1.0,0.0"

    pairing = PairPartition.parse("1-3,2-4", 4)
    result = variance_sweep(single, ("a",) * 4, pairing, [4, 8], 8, p=1.0)
    text = variance_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == "M,samples,variance"
    assert lines[1] == "4,8,0.0"
    assert lines[-1] == "# slope=0"
