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
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

from .defaults import DEFAULT_BUDGET, DEFAULT_P
from .errors import BudgetExceeded, DomainError, OddN
from .graph import SimplicialGraph
from .partitions import LabeledWord, validate_labeled_word

GeneratorIndex = tuple[int, str]


class SignFunction:
    """Symmetric ±1-valued commutation data on pairs of generator labels.

    The fixed rules hold for every subclass: a label against itself gives
    -1, labels of adjacent vertices give +1, and the value is symmetric in
    its two arguments.  Subclasses only decide the free entries, one row at
    a time, on label keys: ``_key(i, v)`` is the key of the label (i, v),
    the label itself unless a subclass encodes it, and ``_row(head,
    later)`` gives the signs of the label keyed ``head`` against each label
    keyed in ``later``, which the caller guarantees come after it in the
    canonical (vertex, index) order and lie on no edge of its vertex.
    Callers key each label once per block and pass that key to every row.
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
        return self._row(self._key(i, v), [self._key(j, w)])[0]

    def _key(self, i: int, v: str):
        return i, v

    def _matrix(self, v: str, w: str, n: int):
        """Signs between the indices 1..n of vertex v and those of w.

        Returns the int8 numpy matrix ``S[a, b] = self(a + 1, v, b + 1, w)``,
        drawing each unordered generator pair once: for ``v == w`` the
        strict upper triangle is drawn and mirrored, with -1 on the diagonal
        (a label against itself).  The caller guarantees ``v <= w``; rows
        are drawn for v, so for ``w < v`` they would disagree with calls.
        """
        import numpy as np

        if self.graph.is_edge(v, w):  # validates both vertices
            return np.ones((n, n), dtype=np.int8)
        heads = [self._key(i, v) for i in range(1, n + 1)]
        if v != w:
            later = [self._key(j, w) for j in range(1, n + 1)]
            rows = [self._row(head, later) for head in heads]
            return np.array(rows, dtype=np.int8).reshape(n, n)
        square = np.full((n, n), -1, dtype=np.int8)
        for a, head in enumerate(heads):
            square[a, a + 1 :] = square[a + 1 :, a] = self._row(head, heads[a + 1 :])
        return square

    def _row(self, head, later: list) -> list[int]:
        raise NotImplementedError


class ConstantSigns(SignFunction):
    """All free entries +1: fully commuting generators."""

    def _row(self, head, later):
        return [1] * len(later)


class SeededSigns(SignFunction):
    """Counter-based random signs: +1 with probability p, independently.

    The value of a pair is a keyed 64-bit hash of its canonical encoding
    ``"{v}:{i}|{w}:{j}"``, so it is reproducible and independent of query
    order.  A label's key is its encoding ``"{v}:{i}"``, made once per
    block of rows.  A row shares one keyed hash state that has taken the
    prefix ``"{v}:{i}|"``; each draw copies it, takes the partner's key and
    digests, so the bytes hashed per pair are those of the whole encoding.
    Nothing is stored: a pair queried twice is hashed twice, and every
    consumer in this package draws each pair at most once per call.

    The hash key is the seed: 8 bytes little-endian for a seed in [0, 2^64),
    otherwise its shortest two's complement of 9 to 64 bytes, so distinct
    seeds draw from distinct keys; a seed outside [-2^511, 2^511) is
    rejected.
    """

    def __init__(self, graph: SimplicialGraph, p: float = DEFAULT_P, seed: int = 0):
        super().__init__(graph)
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"p must lie in [0, 1], got {p}")
        if 0 <= seed < 2**64:
            key = seed.to_bytes(8, "little")
        else:
            size = max(9, (seed if seed >= 0 else ~seed).bit_length() // 8 + 1)
            if size > 64:  # the longest blake2b key
                raise DomainError("seed must lie in [-2^511, 2^511)")
            key = seed.to_bytes(size, "little", signed=True)
        self._hash = hashlib.blake2b(digest_size=8, key=key)
        # +1 when the big-endian digest lies below p * 2^64; at p = 1 that
        # bound, 2^64, has no 8-byte form and every sign is +1.
        threshold = int(p * 2.0**64)
        self._threshold = threshold.to_bytes(8, "big") if threshold < 2**64 else None

    def _key(self, i, v):
        return f"{v}:{i}".encode()

    def _row(self, head, later):
        if self._threshold is None:
            return [1] * len(later)
        prefix = self._hash.copy()
        prefix.update(head + b"|")
        copy = prefix.copy
        threshold = self._threshold
        signs = []
        for key in later:
            h = copy()
            h.update(key)
            signs.append(1 if h.digest() < threshold else -1)
        return signs


class SpinAlgebra:
    """The generator algebra over a concrete index universe.

    ``indices`` maps each vertex to its index list; the universe holds those
    generators (i, v) in the linear order (vertex lexicographic, then
    index), and subsets of it are bit masks over that order.  A reordering
    sign only involves occupied slots, so a caller that only ever occupies
    some slots may leave the others out, which leaves every product among
    the slots it keeps unchanged.  The signs of each slot against the
    smaller ones are one bit mask, so a left multiplication is one popcount;
    that order is the canonical one, so each non-adjacent pair is drawn once
    in canonical orientation (adjacent pairs are fixed at +1).

    The slot (i, v) belongs to the label (v, 1 + i % 2), that of the spin
    whose hopping sum holds it; ``labels`` maps each label to the ranks of
    its slots, ascending.  Flipping slot r reads its sign against a
    smaller slot a only when a is occupied, so a caller whose sweeps apply
    the sum of label y only while slots of label x may be occupied can name
    the ordered label pairs (x, y) it reads in ``reads``: a pair a < r is
    then drawn only when (label of a, label of r) is one of them, and every
    other entry is left at +1, never to be read.  Without ``reads`` every
    non-adjacent pair is drawn.
    """

    def __init__(self, signs: SignFunction, indices, reads=None):
        self.signs = signs
        links = {v: signs.graph.link(v) for v in indices}  # validates them
        self.universe: list[GeneratorIndex] = [
            (i, v) for v in sorted(indices) for i in sorted(set(indices[v]))
        ]
        self._below = [0] * len(self.universe)
        keys = [signs._key(i, v) for i, v in self.universe]
        self.labels: dict[tuple[str, int], list[int]] = {}
        for r, (i, v) in enumerate(self.universe):
            self.labels.setdefault((v, 1 + i % 2), []).append(r)
        for head, ranks in self.labels.items():
            partners = [
                later
                for label, later in self.labels.items()
                if label[0] not in links[head[0]] and (reads is None or (head, label) in reads)
            ]
            for a in ranks:
                later = [r for p in partners for r in p[bisect_right(p, a) :]]
                if not later:
                    continue
                row = signs._row(keys[a], [keys[r] for r in later])
                for r, sign in zip(later, row):
                    if sign < 0:
                        self._below[r] |= 1 << a

    def apply_b(self, state: dict[int, int], *ranks: int, cap: int | None = None) -> dict[int, int]:
        """Sum of the hopping operators ``ranks`` applied to every term.

        Each generator multiplies each term from the left: it toggles its
        slot in the subset, and the reordering sign is the parity of the
        occupied smaller slots it anticommutes with, one popcount against
        its sign mask, which is looked up once per call.

        ``cap`` bounds how many of the slots ``ranks`` a result may occupy:
        a term already holding ``cap`` or more of them only has those
        flipped, so on a state holding at most ``cap + 1`` the result is the
        plain one without the masks that hold more than ``cap``.
        """
        flips = [(1 << r, self._below[r]) for r in ranks]
        if cap is not None:
            below_of = dict(flips)
            slots = sum(below_of)
        out: dict[int, int] = {}
        for mask, coeff in state.items():
            moves = flips
            if cap is not None:
                occupied = mask & slots
                if occupied.bit_count() >= cap:
                    moves = []
                    while occupied:
                        bit = occupied & -occupied
                        moves.append((bit, below_of[bit]))
                        occupied ^= bit
            for bit, below in moves:
                flipped = mask ^ bit
                step = -coeff if (below & mask).bit_count() & 1 else coeff
                total = out.get(flipped, 0) + step
                if total:
                    out[flipped] = total
                else:
                    out.pop(flipped, None)
        return out


def check_summand_count(word: LabeledWord, n: int, budget: int) -> None:
    """Reject an N the matrix model cannot take for ``word``, or whose raw
    count N^n exceeds the budget."""
    if n < 1:
        raise DomainError(f"N must be positive, got {n}")
    if n == 1:
        if any(spin != 1 for _, spin in word):
            raise OddN("N = 1 only supports words with all spins equal to 1")
    elif n % 2:
        raise OddN(f"N must be even, got {n}")
    if n ** len(word) > budget:
        raise BudgetExceeded(f"N^n = {n}^{len(word)} exceeds the budget {budget}")


def _cheapest_cut(word: LabeledWord) -> int:
    """The first rotation k of an even-length word whose halves
    ``word[k:k + n/2]`` and the rest share the fewest applications:
    Σ_x min(#x in one half, #x in the other).  Rotation k + n/2 swaps the
    halves, so only k < n/2 is scanned, shifting the halves by one letter a
    step."""
    half = len(word) // 2
    left, right = Counter(word[:half]), Counter(word[half:])
    cost = best = sum(min(count, right[x]) for x, count in left.items())
    cut = 0
    for k in range(1, half):
        out, into = word[k - 1], word[k - 1 + half]
        moved = {out, into}
        cost -= sum(min(left[x], right[x]) for x in moved)
        left[out] -= 1
        right[out] += 1
        right[into] -= 1
        left[into] += 1
        cost += sum(min(left[x], right[x]) for x in moved)
        if cost < best:
            best, cut = cost, k
    return cut


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
    over N^(n/2).  The universe holds only the slots of the word's own
    labels: the even indices of a vertex that occurs with spin 1, the odd
    ones of a vertex that occurs with spin 2.  Every hopping sum is a
    real symmetric signed permutation, so the vacuum entry of B_1...B_n
    is the inner product of B_h...B_1|0> and B_(h+1)...B_n|0> with
    h = n/2, each half applied to the vacuum as a sparse vector.

    Only what can reach the trace is computed, and every step is exact:

    - The vacuum entry is a trace, so the word is first rotated to the
      cut whose halves share the fewest applications of a label
      (``_cheapest_cut``).
    - The halves meet only on equal masks, and a half that applies label x
      m times holds at most m of its slots.  So after each step a term may
      hold no more slots of the applied label than the rest of its own
      half and the whole other half apply (the ``cap`` of ``apply_b``).
    - Flipping a slot reads its signs against the occupied smaller slots
      only.  Along each half the most slots of each label that a term can
      hold is known from the caps, so the algebra draws only the label
      pairs (x, y) whose x slots a term can hold while the sum of y is
      applied.

    The raw count N^n must stay within the budget.
    """
    graph = signs.graph
    validate_labeled_word(graph, word)
    check_summand_count(word, n, budget)
    length = len(word)
    if length % 2:
        return Fraction(0)
    half = length // 2
    cut = _cheapest_cut(word)
    word = word[cut:] + word[:cut]
    # each half in the order its sums are applied to the vacuum
    halves = word[:half], word[half:][::-1]
    counts = [Counter(part) for part in halves]
    plans = []
    reads = set()
    for part, other in zip(halves, reversed(counts)):
        remaining = Counter(part)
        most: dict[tuple[str, int], int] = {}  # label -> the most of its slots a term holds
        plan = []
        for label in part:
            remaining[label] -= 1
            cap = remaining[label] + other[label]
            held = most.get(label, 0)
            reads.update((x, label) for x, m in most.items() if m and x != label)
            # a term reads a pair of its own label's slots when it holds one
            # and flips another: below the cap, or holding two at the cap
            if held and max(held, cap) >= 2:
                reads.add((label, label))
            most[label] = held + 1 if held < cap else max(held - 1, 0)
            plan.append((label, cap))
        plans.append(plan)
    slots: dict[str, set[int]] = {}
    for v, spin in word:
        slots.setdefault(v, set()).update(range(spin - 1, 2 * n, 2))
    algebra = SpinAlgebra(signs, slots, reads)
    states = []
    for plan in plans:
        state = {0: 1}
        for label, cap in plan:
            state = algebra.apply_b(state, *algebra.labels[label], cap=cap)
        states.append(state)
    left, right = states
    trace = sum(coeff * right.get(mask, 0) for mask, coeff in left.items())
    return Fraction(trace, n**half)


def sign_table(signs: SignFunction, n_indices: int) -> list[dict]:
    """Realized sign of every unordered pair of the generators (i, v) with
    i below ``n_indices``, in the linear order of ``SpinAlgebra``."""
    universe = [(i, v) for v in signs.graph.vertices for i in range(n_indices)]
    return [
        {"i": i, "v": v, "j": j, "w": w, "sign": signs(i, v, j, w)}
        for a, (i, v) in enumerate(universe)
        for j, w in universe[a + 1 :]
    ]
