"""Reference implementations that the tests compare the package against.

Each is deliberately the slow, direct form of what it checks: single
rewriting moves and their breadth-first closure for ``words.normalize``,
the delta pairing of Fock states for the creation/annihilation adjoint,
the vacuum coefficient of a product of generators taken one left
multiplication at a time for ``SpinAlgebra``, and one whole-string hash
per pair for the seeded signs.  They do not call the kernels they certify
(``test_oracles_are_independent`` checks that).
"""

from __future__ import annotations

import hashlib
import struct
from collections import deque
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from graphmoments.errors import (
    BudgetExceeded,
    DomainError,
    GraphMomentsError,
    InvalidToken,
)
from graphmoments.fock import BasisWord, FockState, _canonical
from graphmoments.graph import SimplicialGraph
from graphmoments.partitions import validate_labeled_word
from graphmoments.spinmodel import SpinAlgebra
from graphmoments.words import Word, is_reduced

CANCEL = "cancel"
SWAP = "swap"


class MoveNotApplicable(GraphMomentsError, ValueError):
    """The rewriting move's precondition fails on this word."""


class IndexOutOfRange(GraphMomentsError, IndexError):
    """A move position lies outside the word."""


@dataclass(frozen=True)
class Move:
    """A single rewriting step at a 1-based position.

    ``cancel`` deletes the letter at ``pos + 1`` when it equals the letter
    at ``pos``; ``swap`` exchanges the letters at ``pos`` and ``pos + 1``
    when their vertices are adjacent in the graph.
    """

    kind: str
    pos: int


def _validate(graph: SimplicialGraph, word: Word) -> None:
    for v in word:
        graph.require_vertex(v)


def apply_move(graph: SimplicialGraph, word: Word, move: Move) -> Word:
    _validate(graph, word)
    i = move.pos
    if not 1 <= i <= len(word) - 1:
        raise IndexOutOfRange(f"position {i} out of range for word of length {len(word)}")
    a, b = word[i - 1], word[i]
    if move.kind == CANCEL:
        if a != b:
            raise MoveNotApplicable(f"letters at {i}, {i + 1} differ: {a!r}, {b!r}")
        return word[: i - 1] + word[i:]
    if move.kind == SWAP:
        if not graph.is_edge(a, b):
            raise MoveNotApplicable(f"{a!r} and {b!r} are not adjacent in the graph")
        return word[: i - 1] + (b, a) + word[i + 1 :]
    raise MoveNotApplicable(f"unknown move kind {move.kind!r}")


def applicable_moves(graph: SimplicialGraph, word: Word) -> list[Move]:
    """All cancel/swap moves whose precondition holds on this word."""
    _validate(graph, word)
    adjacency = graph.adjacency
    moves = []
    for i in range(1, len(word)):
        if word[i - 1] == word[i]:
            moves.append(Move(CANCEL, i))
        elif word[i] in adjacency[word[i - 1]]:
            moves.append(Move(SWAP, i))
    return moves


def equivalence_class_oracle(
    graph: SimplicialGraph,
    word: Word,
    max_len: int,
    max_states: int = 10**6,
) -> frozenset[Word]:
    """Breadth-first closure under cancel, swap, and duplicate-insertion.

    Duplicate insertion (the reverse of cancel) grows words, so the closure
    is truncated at ``max_len``; the result is the complete set of
    equivalent words of length at most ``max_len``.
    """
    if max_len < len(word):
        raise DomainError("max_len must be at least the word length")
    _validate(graph, word)
    seen: set[Word] = {word}
    queue: deque[Word] = deque([word])
    while queue:
        current = queue.popleft()
        successors: list[Word] = []
        for move in applicable_moves(graph, current):
            successors.append(apply_move(graph, current, move))
        if len(current) < max_len:
            for i, v in enumerate(current):
                successors.append(current[: i + 1] + (v,) + current[i + 1 :])
        for nxt in successors:
            if nxt not in seen:
                if len(seen) >= max_states:
                    raise BudgetExceeded(
                        f"equivalence closure exceeded {max_states} states"
                    )
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


def canonical_basis_word(graph: SimplicialGraph, letters) -> BasisWord:
    """Validate a letter sequence as a basis word and canonicalize it.

    Raises InvalidToken (a ValueError) when the collapsed vertex word is not
    reduced, i.e. the letters do not name a Fock basis vector.
    """
    letters = tuple(letters)
    validate_labeled_word(graph, letters)
    collapsed = tuple(v for v, _ in groupby(letters, itemgetter(0)))
    if not is_reduced(graph, collapsed):
        raise InvalidToken(
            f"letters {letters!r} collapse to a non-reduced word {collapsed!r}"
        )
    return _canonical(graph, letters)


def state_from_letters(graph: SimplicialGraph, letters, coeff: int = 1) -> FockState:
    return {canonical_basis_word(graph, letters): coeff}


def inner(left: FockState, right: FockState) -> int:
    """Delta pairing of canonical basis words, extended bilinearly."""
    if len(right) < len(left):
        left, right = right, left
    return sum(coeff * right.get(word, 0) for word, coeff in left.items())


def every_index_algebra(signs, n: int) -> SpinAlgebra:
    """The algebra over every index below n on every vertex of the graph of
    the sign function ``signs``."""
    return SpinAlgebra(signs, dict.fromkeys(signs.graph.vertices, range(n)))


def vacuum_trace(algebra: SpinAlgebra, ranks) -> int:
    """Vacuum coefficient of a product of hopping operators: -1, 0 or +1."""
    sign, mask = 1, 0
    for r in reversed(tuple(ranks)):
        step, mask = algebra.left_multiply(mask, r)
        sign *= step
    return sign if mask == 0 else 0


def vacuum_trace_labels(algebra: SpinAlgebra, labels) -> int:
    return vacuum_trace(algebra, [algebra.rank(i, v) for i, v in labels])


def seeded_sign(graph: SimplicialGraph, p: float, seed: int, i, v, j, w) -> int:
    """The seeded sign of generators (i, v) and (j, w), hashing the whole
    canonical pair string with the seed's key in one call."""
    if w in graph.adjacency[v]:
        return 1
    if (i, v) == (j, w):
        return -1
    if (w, j) < (v, i):
        i, v, j, w = j, w, i, v
    key = struct.pack("<Q", seed & 2**64 - 1)
    digest = hashlib.blake2b(f"{v}:{i}|{w}:{j}".encode(), digest_size=8, key=key)
    return 1 if int.from_bytes(digest.digest(), "big") < int(p * 2**64) else -1
