"""Concentration experiments for the central-limit behaviour of the
random-sign matrix models: per-pairing weight estimators, convergence
sweeps against the exact limit moments, and variance-decay measurements.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .defaults import DEFAULT_BUDGET, DEFAULT_MAX_WORD_LEN, DEFAULT_P
from .errors import BudgetExceeded, DomainError, SizeLimit
from .graph import SimplicialGraph
from .partitions import (
    LabeledWord,
    PairPartition,
    crossings,
    limit_moment,
)
from .spinmodel import (
    SeededSigns,
    SignFunction,
    check_summand_count,
    moment_s_word,
)

Word = tuple[str, ...]

# np.einsum names axes by integers below 52.
MAX_LABELS = 52


class SweepRow(NamedTuple):
    n: int
    seed: int
    estimate: float
    exact: float

    @property
    def abs_err(self) -> float:
        return abs(self.estimate - self.exact)


class VarianceRow(NamedTuple):
    m: int
    samples: int
    variance: float


class VarianceSweepResult(NamedTuple):
    rows: tuple[VarianceRow, ...]
    slope: float
    degenerate: bool


def t_estimate(
    signs: SignFunction,
    graph: SimplicialGraph,
    word: Word,
    partition: PairPartition,
    n: int,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Finite-N estimator of the limiting weight of one pairing.

    Sums, over all index tuples of the pairing's class, the product of
    signs over the graph crossings, scaled by N^(-n/2).  A tuple is of the
    class when paired positions share their index and no two blocks of one
    vertex do, so blocks of a common vertex get distinct indices and the
    class count is a product of falling factorials.
    """
    if signs.graph != graph:
        raise DomainError("the signs are drawn on another graph than the word's")
    pairs = _valid_pairs(graph, word, partition)
    _check_size("N", n, len(pairs), budget)
    return _estimate(signs, word, pairs, n)


def _estimate(signs: SignFunction, word: Word, pairs, n: int) -> float:
    """``t_estimate`` without its checks: the caller guarantees that ``word``
    is on the graph of ``signs``, that ``pairs`` are what ``_valid_pairs``
    gives for ``word`` and that N passed ``_check_size``.

    The sum is one exact integer contraction over the blocks that have a
    graph crossing: each graph crossing is a factor, the signs of its two
    vertices over the indices 1..N, and each two such blocks of one vertex
    a factor, the mask i != j.  A block with no graph crossing only has to
    avoid the indices of its vertex's other blocks, so those blocks
    contribute a falling factorial and allocate nothing.
    """
    r = len(pairs)
    vertices = [word[e - 1] for e, _ in pairs]
    if any(word[e - 1] != word[z - 1] for e, z in pairs):
        return 0.0
    blocks_of = Counter(vertices)
    if max(blocks_of.values(), default=0) > n:  # more blocks than indices
        return 0.0
    factors: dict[tuple[int, int], tuple[str, str] | None] = {}
    for k, l in crossings(signs.graph, word, pairs)[1]:
        # orient the factor so that it reads the one sign block of its vertex pair
        if vertices[l] < vertices[k]:
            k, l = l, k
        factors[k, l] = (vertices[k], vertices[l])
    crossed = sorted({b for pair in factors for b in pair})
    for a, k in enumerate(crossed):
        for l in crossed[a + 1 :]:
            if vertices[k] == vertices[l]:
                factors.setdefault((k, l), None)
    total = _sum_of_products(signs, n, factors)
    crossed_of = Counter(vertices[b] for b in crossed)
    for v, count in blocks_of.items():
        for k in range(crossed_of[v], count):
            total *= n - k
    estimate = total / n**r
    assert -1.0 <= estimate <= 1.0
    return estimate


def _valid_pairs(
    graph: SimplicialGraph, word: Word, partition: PairPartition
) -> tuple[tuple[int, int], ...]:
    """The pairs of ``partition``, once the word and the pairing are valid."""
    for v in word:
        graph.require_vertex(v)
    return PairPartition.from_pairs(partition.pairs, len(word)).pairs


def _check_size(name: str, n: int, r: int, budget: int) -> None:
    """Reject a class-tuple count N^r that is not positive, exceeds the budget
    or overflows the 64-bit sum; ``name`` is what the caller calls N."""
    if n < 1:
        raise DomainError(f"{name} must be positive, got {n}")
    if n**r > budget:
        raise BudgetExceeded(f"N^(n/2) = {n}^{r} exceeds the budget {budget}")
    if n**r >= 2**63:
        raise BudgetExceeded(f"N^(n/2) = {n}^{r} overflows the 64-bit integer sum")


def _sum_of_products(signs: SignFunction, n: int, factors: dict) -> int:
    """Exact sum, over every value in 1..n of every label, of a product of
    sign factors.

    ``factors`` maps each pair of labels (k, l) to the vertex pair (v, w)
    whose signs it reads, ``F[i, j] = signs(i, v, j, w)`` at k = i and
    l = j, with v <= w not adjacent, or to None for the mask i != j alone.
    A factor of one vertex, v == w, is masked too.  Each vertex pair's
    signs are drawn once.

    Labels are eliminated one at a time.  While some label x has exactly
    one factor F(x, y) left, x is replaced by the weight w[i] = sum_j
    F[i, j] u[j] on y, where u is the weight x carries (all ones at first);
    w is summed in Python ints as the rows of F are drawn, so no matrix is
    held, and the leaf whose rows collapse by a dot goes first.  When y has
    no other factor it is summed out with x.  What no leaf reaches is a
    core of cycles.  There the label that shares factors with the fewest
    other labels goes first: numpy contracts the factors and weights
    carrying it into one int64 tensor over those other labels, so every
    tensor made has fewer axes than there are labels.
    """
    reads = Counter(factors.values())
    matrices = {}

    def matrix(key):
        if key not in matrices:
            matrices[key] = signs._matrix(*key, n)
        return matrices[key]

    def rows(key):
        if reads[key] == 1:
            return signs._rows(*key, n)
        # read by more than one factor, so drawn once, as a matrix; in
        # t_estimate the masks close such factors into a cycle
        square = matrix(key).tolist()
        return square if key[0] != key[1] else [row[a + 1 :] for a, row in enumerate(square)]

    factors = dict(factors)
    incident: dict[int, set] = {}
    for pair in factors:
        for x in pair:
            incident.setdefault(x, set()).add(pair)

    def scatters(x):
        """Whether eliminating leaf x spreads each row over the columns."""
        (pair,) = incident[x]
        key = factors[pair]
        y = pair[x == pair[0]]
        return len(incident[y]) > 1 and key is not None and (key[0] == key[1] or y == pair[1])

    weights: dict[int, list[int]] = {}
    total = 1
    while leaves := [x for x, around in incident.items() if len(around) == 1]:
        x = min(leaves, key=scatters)
        (pair,) = incident.pop(x)
        k = pair[0]
        key = factors.pop(pair)
        y = pair[x == k]
        incident[y].remove(pair)
        u = weights.pop(x, None)
        drawn = None if key is None else rows(key)
        upper = key is not None and key[0] == key[1]
        if not incident[y]:
            del incident[y]
            uk, ul = (u, weights.pop(y, None)) if x == k else (weights.pop(y, None), u)
            total *= _close(drawn, uk, ul, n, upper)
        else:
            w = _apply(drawn, u, n, y == k, upper)
            weights[y] = w if y not in weights else list(map(mul, weights[y], w))
    if not factors:
        return total

    import numpy as np

    labels = sorted(incident)
    if len(labels) > MAX_LABELS:
        raise SizeLimit(
            f"{len(labels)} crossing blocks on cycles exceed the {MAX_LABELS}"
            " labels of one contraction"
        )
    axis = {x: a for a, x in enumerate(labels)}
    distinct = 1 - np.eye(n, dtype=np.int8)
    tensors = [(np.array(w, dtype=np.int64), [axis[x]]) for x, w in weights.items()]
    for (k, l), key in factors.items():
        if key is None:
            tensor = distinct
        elif key[0] == key[1]:
            tensor = matrix(key) * distinct
        else:
            tensor = matrix(key)
        tensors.append((tensor, [axis[k], axis[l]]))
    while tensors:

        def others(x):
            return {a for _, axes in tensors if x in axes for a in axes} - {x}

        x = min({a for _, axes in tensors for a in axes}, key=lambda a: len(others(a)))
        out = sorted(others(x))
        operands, rest = [], []
        for tensor, axes in tensors:
            if x in axes:
                operands += [tensor, axes]
            else:
                rest.append((tensor, axes))
        tensor = np.einsum(*operands, out, dtype=np.int64)
        if out:
            rest.append((tensor, out))
        else:
            total *= int(tensor)
        tensors = rest
    return total


def _dot(row, u, start):
    """Sum of row[b] u[start + b]; a weight of None is all ones."""
    return sum(row) if u is None else sum(map(mul, row, u[start:]))


def _apply(rows, u, n, onto_rows, upper):
    """The weight w[i] = sum_j F[i, j] u[j] that a leaf of weight u leaves
    through its one factor F.  ``rows`` are F's rows as drawn, or None for
    the mask i != j; ``onto_rows`` says that w lies on the label of the
    rows, and ``upper`` that F is the masked symmetric signs of one
    vertex, of which only the strict upper rows are drawn."""
    if rows is None:
        u = [1] * n if u is None else u
        every = sum(u)
        return [every - c for c in u]
    w = [0] * n
    for a, row in enumerate(rows):
        start = a + 1 if upper else 0
        if onto_rows or upper:  # row a against u
            w[a] += _dot(row, u, start)
        if not onto_rows or upper:  # row a, times u[a], over the columns
            c = 1 if u is None else u[a]
            w[start:] = [t + c * s for t, s in zip(w[start:], row)]
    return w


def _close(rows, u_rows, u_columns, n, upper):
    """Sum over i and j of u_rows[i] F[i, j] u_columns[j], for the one factor
    F between two labels that have no other, by dots alone: one per drawn
    row, or two when only the upper rows of symmetric F are drawn.  ``rows``
    and ``upper`` are as for ``_apply``."""
    if rows is None:  # every pair (i, j) but those with i == j
        a, b = ([1] * n if u is None else u for u in (u_rows, u_columns))
        return sum(a) * sum(b) - sum(map(mul, a, b))
    total = 0
    for a, row in enumerate(rows):
        start = a + 1 if upper else 0
        total += (1 if u_rows is None else u_rows[a]) * _dot(row, u_columns, start)
        if upper:
            total += (1 if u_columns is None else u_columns[a]) * _dot(row, u_rows, start)
    return total


def convergence_sweep(
    graph: SimplicialGraph,
    word: LabeledWord,
    n_list,
    seeds,
    p: float = DEFAULT_P,
    budget: int = DEFAULT_BUDGET,
    max_len: int = DEFAULT_MAX_WORD_LEN,
) -> list[SweepRow]:
    """Matrix-model moments against the exact limit, one row per (N, seed).

    Each seed's signs are keyed once, before the first estimate, and serve
    every N.  The exact limit weights each pairing by (2p - 1) to its
    number of graph crossings; the matrix model provably converges to it at
    p = 1/2, for other p the column is the conjectured target.  The
    budget caps each moment at N^n, and the whole sweep at
    len(seeds) x the sum of N^n over ``n_list``.
    """
    n_list, seeds = list(n_list), list(seeds)
    SeededSigns(graph, p, 0)  # p is rejected before it becomes theta = 2p - 1
    exact = limit_moment(graph, word, 2.0 * p - 1.0, max_len=max_len)
    if not (n_list and seeds):
        return []
    for n in n_list:
        check_summand_count(word, n, budget)
    total = len(seeds) * sum(n ** len(word) for n in n_list)
    if total > budget:
        raise BudgetExceeded(
            f"{len(seeds)} seeds x sum of N^{len(word)} = {total}"
            f" exceeds the budget {budget}"
        )
    signs_of = [SeededSigns(graph, p, seed) for seed in seeds]
    rows = []
    for n in n_list:
        for seed, signs in zip(seeds, signs_of):
            estimate = float(moment_s_word(signs, word, n, budget))
            rows.append(SweepRow(n, seed, estimate, exact))
    return rows


def variance_sweep(
    graph: SimplicialGraph,
    word: Word,
    partition: PairPartition,
    m_list,
    samples: int,
    p: float = DEFAULT_P,
    seed_base: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> VarianceSweepResult:
    """Empirical variance of the pairing-weight estimator as M grows.

    Seeds are seed_base + 0 .. seed_base + samples - 1 so runs replay
    bit for bit; every seed is keyed before the first estimate.  Each
    variance is the exact sample variance of the estimates, rounded once.
    The slope is the least-squares fit of log variance against log M,
    skipping zero variances, computed exactly from the float logarithms and
    rounded once; with fewer than 3 distinct M left the fit is degenerate
    and the slope is reported as exactly 0.  The budget caps each
    estimate at M^(n/2), and the whole sweep at samples x the sum of
    M^(n/2) over ``m_list``.
    """
    if samples < 2:
        raise DomainError(f"samples must be at least 2, got {samples}")
    m_list = list(m_list)
    SeededSigns(graph, p, seed_base)  # p is rejected before the budget
    pairs = _valid_pairs(graph, word, partition)
    r = len(pairs)
    for m in m_list:
        _check_size("M", m, r, budget)
    total = samples * sum(m**r for m in m_list)
    if total > budget:
        raise BudgetExceeded(
            f"{samples} samples x sum of M^{r} = {total} exceeds the budget {budget}"
        )
    # seed_base is keyed above, so every seed between is valid
    SeededSigns(graph, p, seed_base + samples - 1)
    import statistics

    rows = []
    for m in m_list:
        values = [
            _estimate(SeededSigns(graph, p, seed_base + k), word, pairs, m)
            for k in range(samples)
        ]
        rows.append(VarianceRow(m, samples, statistics.variance(values)))
    points = [(row.m, row.variance) for row in rows if row.variance > 0.0]
    if len({m for m, _ in points}) < 3:
        return VarianceSweepResult(tuple(rows), 0.0, True)
    slope = _slope([math.log(m) for m, _ in points], [math.log(v) for _, v in points])
    return VarianceSweepResult(tuple(rows), slope, False)


def _slope(xs, ys) -> float:
    """The least-squares slope of ys against xs, exact and rounded once."""
    xs, ys = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    k = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    sxx = sum(x * x for x in xs)
    return float((k * sxy - sx * sy) / (k * sxx - sx * sx))


def convergence_csv(rows) -> str:
    lines = ["N,seed,estimate,exact,abs_err"]
    for row in rows:
        lines.append(
            f"{row.n},{row.seed},{row.estimate!r},{row.exact!r},{row.abs_err!r}"
        )
    return "\n".join(lines) + "\n"


def variance_csv(result: VarianceSweepResult) -> str:
    lines = ["M,samples,variance"]
    for row in result.rows:
        lines.append(f"{row.m},{row.samples},{row.variance!r}")
    slope = "0" if result.degenerate else repr(result.slope)
    lines.append(f"# slope={slope}")
    return "\n".join(lines) + "\n"
