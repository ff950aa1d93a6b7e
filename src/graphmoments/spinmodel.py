"""Finite-dimensional mixed-spin matrix model on the subset basis.

Generators are labeled by (integer index, vertex) and obey sign-twisted
commutation: generators of adjacent vertices commute, every generator
squares to one, and the remaining pairs carry a symmetric ±1 sign.  The
algebra has the subsets of the index universe as an orthonormal basis,
ordered products taken in a fixed linear order (vertex lexicographic, then
index).  The self-adjoint hopping operators act as left multiplication by
a generator, which on the subset basis is a signed bit flip; the sign is
the product of signs past the smaller occupied slots, exactly the phase
bookkeeping of a Jordan-Wigner string.  Everything here is exact integer
or rational arithmetic.
"""

from __future__ import annotations

import hashlib
import struct
from fractions import Fraction

from .errors import BudgetExceeded, DomainError, OddN
from .graph import SimplicialGraph
from .partitions import LabeledWord, validate_labeled_word

DEFAULT_BUDGET = 10**8

GeneratorIndex = tuple[int, str]


class SignFunction:
    """Symmetric ±1-valued commutation data on pairs of generator labels.

    The fixed rules hold for every subclass: a label against itself gives
    -1, labels of adjacent vertices give +1, and the value is symmetric in
    its two arguments.  Subclasses only decide the free entries, queried
    in the canonical (vertex, index) order.
    """

    def __init__(self, graph: SimplicialGraph):
        self.graph = graph

    def __call__(self, i: int, v: str, j: int, w: str) -> int:
        if self.graph.is_edge(v, w):  # validates both vertices
            return 1
        if i == j and v == w:
            return -1
        if (w, j) < (v, i):
            i, v, j, w = j, w, i, v
        return self._draw(i, v, j, w)

    def _draw(self, i: int, v: str, j: int, w: str) -> int:
        raise NotImplementedError


class ConstantSigns(SignFunction):
    """All free entries +1: fully commuting generators."""

    def _draw(self, i, v, j, w):
        return 1


class SeededSigns(SignFunction):
    """Counter-based random signs: +1 with probability p, independently.

    The value of a pair is a keyed 64-bit hash of its canonical encoding,
    so it is reproducible, independent of query order, and never requires
    storing the realized matrix.
    """

    def __init__(self, graph: SimplicialGraph, p: float = 0.5, seed: int = 0):
        super().__init__(graph)
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"p must lie in [0, 1], got {p}")
        self.p = p
        self.seed = seed
        self._key = struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF)
        self._threshold = int(p * 2.0**64)
        self._cache: dict[tuple[int, str, int, str], int] = {}

    def _draw(self, i, v, j, w):
        pair = (i, v, j, w)
        sign = self._cache.get(pair)
        if sign is None:
            digest = hashlib.blake2b(
                f"{v}:{i}|{w}:{j}".encode(), digest_size=8, key=self._key
            ).digest()
            sign = 1 if int.from_bytes(digest, "big") < self._threshold else -1
            self._cache[pair] = sign
        return sign


class ExplicitSigns(SignFunction):
    """Signs given by an explicit table; unlisted free pairs default to +1.

    Table keys are pairs of (index, vertex) labels in either order.
    Entries that contradict the fixed rules (diagonal -1, edges +1) are
    rejected.
    """

    def __init__(self, graph: SimplicialGraph, table: dict, default: int = 1):
        super().__init__(graph)
        if default not in (1, -1):
            raise DomainError(f"default sign must be ±1, got {default}")
        self.default = default
        self._table: dict[tuple[int, str, int, str], int] = {}
        for ((i, v), (j, w)), sign in table.items():
            if sign not in (1, -1):
                raise DomainError(f"sign must be ±1, got {sign}")
            if graph.is_edge(v, w):  # validates both vertices
                if sign != 1:
                    raise DomainError("entries on graph edges are fixed at +1")
                continue
            if i == j and v == w:
                if sign != -1:
                    raise DomainError("diagonal entries are fixed at -1")
                continue
            if (w, j) < (v, i):
                i, v, j, w = j, w, i, v
            self._table[(i, v, j, w)] = sign

    def _draw(self, i, v, j, w):
        return self._table.get((i, v, j, w), self.default)


class SpinAlgebra:
    """The generator algebra over a concrete index universe.

    The universe is ``{0, ..., n_indices - 1} x vertices`` in the linear
    order (vertex lexicographic, then index); subsets of it are stored as
    bit masks over that order.  Sign rows against all smaller slots are
    precomputed, so a left multiplication is one popcount.
    """

    def __init__(self, signs: SignFunction, n_indices: int):
        if n_indices < 0:
            raise DomainError(f"index count must not be negative, got {n_indices}")
        self.signs = signs
        self.graph = signs.graph
        self.n_indices = n_indices
        self.universe: list[GeneratorIndex] = [
            (i, v) for v in self.graph.vertices for i in range(n_indices)
        ]
        self._rank = {gi: r for r, gi in enumerate(self.universe)}
        size = len(self.universe)
        neg = [0] * size
        for r in range(size):
            i, v = self.universe[r]
            for r2 in range(r):
                j, w = self.universe[r2]
                if signs(i, v, j, w) < 0:
                    neg[r] |= 1 << r2
                    neg[r2] |= 1 << r
        self._neg = neg

    def rank(self, i: int, v: str) -> int:
        try:
            return self._rank[(i, v)]
        except KeyError:
            raise DomainError(f"generator ({i}, {v!r}) outside the index universe")

    def left_multiply(self, mask: int, r: int) -> tuple[int, int]:
        """Multiply a basis subset by generator ``r`` from the left.

        Returns the reordering sign (product of signs against occupied
        smaller slots) and the toggled subset: the generator is inserted
        when absent and cancelled when present.
        """
        below = mask & ((1 << r) - 1)
        sign = -1 if (self._neg[r] & below).bit_count() & 1 else 1
        return sign, mask ^ (1 << r)

    def apply_b(
        self, state: dict[int, int], *ranks: int, max_size: int | None = None
    ) -> dict[int, int]:
        """Sum of the hopping operators ``ranks`` applied to every term.

        With ``max_size``, result subsets of more than ``max_size`` elements
        are dropped, which prunes terms too large to return to the vacuum.
        """
        limit = len(self.universe) if max_size is None else max_size
        out: dict[int, int] = {}
        for mask, coeff in state.items():
            for r in ranks:
                sign, flipped = self.left_multiply(mask, r)
                if flipped.bit_count() > limit:
                    continue
                total = out.get(flipped, 0) + sign * coeff
                if total:
                    out[flipped] = total
                else:
                    out.pop(flipped, None)
        return out

    def vacuum_trace(self, ranks) -> int:
        """Vacuum coefficient of a product of hopping operators: -1, 0 or +1."""
        sign, mask = 1, 0
        for r in reversed(tuple(ranks)):
            step, mask = self.left_multiply(mask, r)
            sign *= step
        return sign if mask == 0 else 0

    def vacuum_trace_labels(self, labels) -> int:
        return self.vacuum_trace([self.rank(i, v) for i, v in labels])


def _validate_summand_count(word: LabeledWord, n: int) -> None:
    if n < 1:
        raise DomainError(f"N must be positive, got {n}")
    if n == 1:
        if any(spin != 1 for _, spin in word):
            raise OddN("N = 1 only supports words with all spins equal to 1")
    elif n % 2:
        raise OddN(f"N must be even, got {n}")


def moment_s_word(
    signs: SignFunction,
    word: LabeledWord,
    n: int,
    budget: int = DEFAULT_BUDGET,
) -> Fraction:
    """Exact trace of the product of averaged sums along a labeled word.

    The sum for (vertex v, spin 1) averages the hopping operators with
    even indices 0, 2, ..., 2N-2 and spin 2 the odd ones, each scaled by
    1/sqrt(N); the trace of a length-n product is therefore an integer
    over N^(n/2).  Operators are applied to the vacuum as sparse vectors,
    pruning subsets too large to empty out in the remaining steps; the
    raw count N^n must stay within the budget.
    """
    graph = signs.graph
    validate_labeled_word(graph, word)
    _validate_summand_count(word, n)
    length = len(word)
    if n**length > budget:
        raise BudgetExceeded(f"N^n = {n}^{length} exceeds the budget {budget}")
    if length % 2:
        return Fraction(0)
    algebra = SpinAlgebra(signs, 2 * n)
    state = {0: 1}
    for step, (v, spin) in enumerate(reversed(word), start=1):
        ranks = [algebra.rank(2 * i + spin - 1, v) for i in range(n)]
        state = algebra.apply_b(state, *ranks, max_size=length - step)
    return Fraction(state.get(0, 0), n ** (length // 2))


def sign_table(signs: SignFunction, n_indices: int) -> list[dict]:
    """Realized sign of every unordered generator pair in the universe."""
    algebra = SpinAlgebra(signs, n_indices)
    universe = algebra.universe
    return [
        {"i": i, "v": v, "j": j, "w": w, "sign": -1 if algebra._neg[a] >> b & 1 else 1}
        for a, (i, v) in enumerate(universe)
        for b, (j, w) in enumerate(universe[a + 1 :], start=a + 1)
    ]
