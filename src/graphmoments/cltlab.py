"""Concentration experiments for the central-limit behaviour of the
random-sign matrix models: per-pairing weight estimators, convergence
sweeps against the exact limit moments, and variance-decay measurements.
"""

from __future__ import annotations

from collections import Counter
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
    graph crossing: each graph crossing is a factor, the sign matrix of its
    two vertices over the indices 1..N, and each two such blocks of one
    vertex a factor, the mask i != j.  A block with no graph crossing only
    has to avoid the indices of its vertex's other blocks, so those blocks
    contribute a falling factorial and allocate nothing.
    """
    r = len(pairs)
    vertices = [word[e - 1] for e, _ in pairs]
    if any(word[e - 1] != word[z - 1] for e, z in pairs):
        return 0.0
    blocks_of = Counter(vertices)
    if max(blocks_of.values(), default=0) > n:  # more blocks than indices
        return 0.0
    crossing_pairs = crossings(signs.graph, word, pairs)[1]
    crossed = sorted({b for pair in crossing_pairs for b in pair})
    if len(crossed) > MAX_LABELS:
        raise SizeLimit(
            f"{len(crossed)} crossing blocks exceed the {MAX_LABELS} labels"
            " of one contraction"
        )
    import numpy as np

    label = {b: k for k, b in enumerate(crossed)}
    matrices: dict[tuple[str, str], np.ndarray] = {}
    factors: dict[tuple[int, int], np.ndarray] = {}
    for k, l in crossing_pairs:
        # orient the factor so that it reads the one matrix of its vertex pair
        if vertices[l] < vertices[k]:
            k, l = l, k
        key = (vertices[k], vertices[l])
        if key not in matrices:
            matrices[key] = signs._matrix(*key, n)
        factors[k, l] = matrices[key]
    same_vertex = [
        (k, l) for a, k in enumerate(crossed) for l in crossed[a + 1 :]
        if vertices[k] == vertices[l]
    ]
    if same_vertex:
        distinct = 1 - np.eye(n, dtype=np.int8)
        for key in same_vertex:
            factors[key] = factors[key] * distinct if key in factors else distinct
    total = _sum_of_products(
        [(factor, [label[k], label[l]]) for (k, l), factor in factors.items()]
    )
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


def _sum_of_products(factors: list[tuple]) -> int:
    """Exact sum, over every value of every label, of a product of factors.

    Each factor is a tensor with one axis per label it lists.  Labels are
    eliminated one at a time, each time the one that shares factors with
    the fewest other labels: the factors carrying it are contracted into
    one int64 tensor over those other labels, and it is summed out.  So
    every tensor made has fewer axes than there are labels.
    """
    import numpy as np

    total = 1
    while factors:

        def others(x):
            return {a for _, axes in factors if x in axes for a in axes} - {x}

        x = min({a for _, axes in factors for a in axes}, key=lambda a: len(others(a)))
        out = sorted(others(x))
        operands, rest = [], []
        for factor, axes in factors:
            if x in axes:
                operands += [factor, axes]
            else:
                rest.append((factor, axes))
        tensor = np.einsum(*operands, out, dtype=np.int64)
        if out:
            rest.append((tensor, out))
        else:
            total *= int(tensor)
        factors = rest
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
    bit for bit; every seed is keyed before the first estimate.  The slope
    is a least-squares fit of log variance against log M, skipping zero
    variances; with fewer than 3 distinct M left the fit is degenerate
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
    import numpy as np

    rows = []
    for m in m_list:
        values = [
            _estimate(SeededSigns(graph, p, seed_base + k), word, pairs, m)
            for k in range(samples)
        ]
        rows.append(VarianceRow(m, samples, float(np.var(values, ddof=1))))
    points = [(row.m, row.variance) for row in rows if row.variance > 0.0]
    if len({m for m, _ in points}) < 3:
        return VarianceSweepResult(tuple(rows), 0.0, True)
    log_m = np.log([m for m, _ in points])
    log_var = np.log([v for _, v in points])
    slope = float(np.polyfit(log_m, log_var, 1)[0])
    return VarianceSweepResult(tuple(rows), slope, False)


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
