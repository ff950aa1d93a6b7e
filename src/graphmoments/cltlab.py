"""Concentration experiments for the central-limit behaviour of the
random-sign matrix models: per-pairing weight estimators, convergence
sweeps against the exact limit moments, and variance-decay measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, DomainError
from .graph import SimplicialGraph
from .partitions import LabeledWord, PairPartition, crossings, limit_moment
from .spinmodel import DEFAULT_BUDGET, SeededSigns, SignFunction, moment_s_word

Word = tuple[str, ...]


@dataclass(frozen=True)
class SweepRow:
    n: int
    seed: int
    estimate: float
    exact: float

    @property
    def abs_err(self) -> float:
        return abs(self.estimate - self.exact)


@dataclass(frozen=True)
class VarianceRow:
    m: int
    samples: int
    variance: float


@dataclass(frozen=True)
class VarianceSweepResult:
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
    for v in word:
        graph.require_vertex(v)
    pairs = PairPartition.from_pairs(partition.pairs, len(word)).pairs
    if n < 1:
        raise DomainError(f"N must be positive, got {n}")
    r = len(pairs)
    if n**r > budget:
        raise BudgetExceeded(f"N^(n/2) = {n}^{r} exceeds the budget {budget}")
    vertices = [word[e - 1] for e, _ in pairs]
    if any(word[e - 1] != word[z - 1] for e, z in pairs):
        return 0.0
    crossing_pairs = crossings(graph, word, pairs)[1]
    same_vertex_before = [
        [b for b in range(a) if vertices[b] == vertices[a]] for a in range(r)
    ]
    indices = [0] * r
    total = 0

    def recurse(a: int) -> None:
        nonlocal total
        if a == r:
            product = 1
            for k, l in crossing_pairs:
                product *= signs(indices[k], vertices[k], indices[l], vertices[l])
            total += product
            return
        for i in range(1, n + 1):
            if any(indices[b] == i for b in same_vertex_before[a]):
                continue
            indices[a] = i
            recurse(a + 1)

    recurse(0)
    estimate = total / n**r
    assert -1.0 <= estimate <= 1.0
    return estimate


def convergence_sweep(
    graph: SimplicialGraph,
    word: LabeledWord,
    n_list,
    seeds,
    p: float = 0.5,
    budget: int = DEFAULT_BUDGET,
) -> list[SweepRow]:
    """Matrix-model moments against the exact limit, one row per (N, seed).

    The exact limit weights each pairing by (2p - 1) to its number of
    graph crossings; the matrix model provably converges to it at
    p = 1/2, for other p the column is the conjectured target.
    """
    exact = limit_moment(graph, word, 2.0 * p - 1.0)
    rows = []
    for n in n_list:
        for seed in seeds:
            signs = SeededSigns(graph, p, seed)
            estimate = float(moment_s_word(signs, word, n, budget))
            rows.append(SweepRow(n, seed, estimate, exact))
    return rows


def variance_sweep(
    graph: SimplicialGraph,
    word: Word,
    partition: PairPartition,
    m_list,
    sample_count: int,
    p: float = 0.5,
    seed_base: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> VarianceSweepResult:
    """Empirical variance of the pairing-weight estimator as M grows.

    Seeds are seed_base + 0 .. seed_base + sample_count - 1 so runs replay
    bit for bit.  The slope is a least-squares fit of log variance against
    log M, skipping zero variances; with fewer than 3 usable points the
    fit is degenerate and the slope is reported as exactly 0.
    """
    if sample_count < 2:
        raise DomainError(f"sample_count must be at least 2, got {sample_count}")
    rows = []
    for m in m_list:
        values = [
            t_estimate(SeededSigns(graph, p, seed_base + k), graph, word, partition, m, budget)
            for k in range(sample_count)
        ]
        rows.append(VarianceRow(m, sample_count, float(np.var(values, ddof=1))))
    points = [(row.m, row.variance) for row in rows if row.variance > 0.0]
    if len(points) < 3:
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
