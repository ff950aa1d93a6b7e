"""Reference implementations that the tests compare the package against.

Each is deliberately the slow, direct form of what it checks: single
rewriting moves and their breadth-first closure for ``words.normalize``,
and for longer words a fixed-point reduction that rescans after every
merge and a greedy extraction of the smallest front-movable letter;
creation and annihilation as two separate passes for the fused field
operator of ``fock``, with the blocks of every basis word ordered by that
greedy extraction and checked by that fixed-point reduction, and the delta
pairing of Fock states for their adjoint; the vacuum coefficient of a
product of generators taken one left multiplication at a time, with each
generator's slot found by a scan of the universe, for ``SpinAlgebra``; one
whole-string hash per pair for the seeded signs; and for the t-estimate
contraction, which sums leaves out in Python ints as their rows are drawn,
the all-numpy contraction of dense factors.  They do not call the kernels
they certify (``test_oracles_are_independent`` checks that).
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
from graphmoments.fock import BasisWord, FockState
from graphmoments.graph import SimplicialGraph
from graphmoments.partitions import validate_labeled_word
from graphmoments.spinmodel import SpinAlgebra
from graphmoments.words import Word

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


def _mergeable_pair(graph: SimplicialGraph, word) -> tuple[int, int] | None:
    """First pair i < j of equal letters with only Link letters between.

    Unchecked: the letters must be vertices of the graph.  The scan right
    of i stops at the first letter outside Link of word[i]; an equal letter
    is outside its own link, so the first equal letter is the only partner.
    """
    adjacency = graph.adjacency
    for i, v in enumerate(word):
        link = adjacency[v]
        for j in range(i + 1, len(word)):
            if word[j] == v:
                return i, j
            if word[j] not in link:
                break
    return None


def slow_reduce(graph: SimplicialGraph, word: Word) -> Word:
    """Fixed-point cancellation: delete the partner of any mergeable pair.

    A pair i < j with equal letters merges when every letter strictly
    between lies in the common Link; deleting position j realizes the
    cancel move after sliding the two letters together.  Terminates since
    the length strictly decreases.
    """
    _validate(graph, word)
    letters = list(word)
    while (pair := _mergeable_pair(graph, letters)) is not None:
        del letters[pair[1]]
    return tuple(letters)


def slow_normal_form(graph: SimplicialGraph, vertices) -> list[int]:
    """Positions of a reduced vertex sequence, in normal-form order.

    Greedy extraction of the smallest front-movable letter: the standard
    lexicographic normal form of a trace monoid.  On a reduced sequence two
    front-movable positions never carry the same vertex (they would merge).
    Unchecked: the vertices must belong to the graph.
    """
    adjacency = graph.adjacency
    remaining = list(range(len(vertices)))
    order: list[int] = []
    while remaining:
        best = 0
        for k in range(1, len(remaining)):
            v = vertices[remaining[k]]
            link = adjacency[v]
            if all(vertices[q] in link for q in remaining[:k]):
                assert v != vertices[remaining[best]], "twin front-movable letters"
                if v < vertices[remaining[best]]:
                    best = k
        order.append(remaining.pop(best))
    return order


def block_canonical(graph: SimplicialGraph, letters) -> BasisWord:
    """The blocks of a basis word in the order ``slow_normal_form`` gives
    their collapsed vertex word."""
    blocks = [tuple(block) for _, block in groupby(letters, itemgetter(0))]
    order = slow_normal_form(graph, [block[0][0] for block in blocks])
    return tuple(letter for k in order for letter in blocks[k])


def canonical_basis_word(graph: SimplicialGraph, letters) -> BasisWord:
    """Validate a letter sequence as a basis word and canonicalize it.

    Raises InvalidToken (a ValueError) when the collapsed vertex word is not
    reduced, i.e. the letters do not name a Fock basis vector.
    """
    letters = tuple(letters)
    validate_labeled_word(graph, letters)
    collapsed = tuple(v for v, _ in groupby(letters, itemgetter(0)))
    if slow_reduce(graph, collapsed) != collapsed:
        raise InvalidToken(
            f"letters {letters!r} collapse to a non-reduced word {collapsed!r}"
        )
    return block_canonical(graph, letters)


def _movable_block(graph: SimplicialGraph, word: BasisWord, v: str) -> int:
    """Position of the first letter of vertex v when every letter before it
    commutes with v, else -1: the head of the block that can move to the
    front."""
    first = next((k for k, (u, _) in enumerate(word) if u == v), -1)
    link = graph.adjacency[v]
    if first < 0 or any(u not in link for u, _ in word[:first]):
        return -1
    return first


def apply_create(graph: SimplicialGraph, state: FockState, letter) -> FockState:
    """Creation: the letter joins the head of the front-movable block of its
    vertex, or forms a new front block when there is none."""
    out: FockState = {}
    for word, coeff in state.items():
        idx = _movable_block(graph, word, letter[0])
        if idx >= 0:
            created = word[:idx] + (letter,) + word[idx:]
        else:
            created = block_canonical(graph, (letter,) + word)
        out[created] = out.get(created, 0) + coeff
    return {word: coeff for word, coeff in out.items() if coeff}


def apply_annihilate(graph: SimplicialGraph, state: FockState, letter) -> FockState:
    """Annihilation: remove the head of the front-movable block of the
    letter's vertex when it equals the letter; the term dies otherwise."""
    out: FockState = {}
    for word, coeff in state.items():
        idx = _movable_block(graph, word, letter[0])
        if idx < 0 or word[idx] != letter:
            continue
        rest = block_canonical(graph, word[:idx] + word[idx + 1 :])
        out[rest] = out.get(rest, 0) + coeff
    return {word: coeff for word, coeff in out.items() if coeff}


def create_plus_annihilate(graph: SimplicialGraph, state: FockState, letter) -> FockState:
    """The uncapped field operator, as the sum of the two passes."""
    out = apply_create(graph, state, letter)
    for word, coeff in apply_annihilate(graph, state, letter).items():
        out[word] = out.get(word, 0) + coeff
    return {word: coeff for word, coeff in out.items() if coeff}


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


def rank(algebra: SpinAlgebra, i: int, v: str) -> int:
    """The slot of generator (i, v) in the algebra's universe."""
    return algebra.universe.index((i, v))


def left_multiply(algebra: SpinAlgebra, mask: int, r: int) -> tuple[int, int]:
    """Multiply a basis subset by generator ``r`` from the left.

    Returns the reordering sign (product of signs against occupied smaller
    slots, read from the algebra's sign masks) and the toggled subset: the
    generator is inserted when absent and cancelled when present.
    """
    sign = -1 if (algebra._below[r] & mask).bit_count() & 1 else 1
    return sign, mask ^ (1 << r)


def vacuum_trace(algebra: SpinAlgebra, ranks) -> int:
    """Vacuum coefficient of a product of hopping operators: -1, 0 or +1."""
    sign, mask = 1, 0
    for r in reversed(tuple(ranks)):
        step, mask = left_multiply(algebra, mask, r)
        sign *= step
    return sign if mask == 0 else 0


def vacuum_trace_labels(algebra: SpinAlgebra, labels) -> int:
    return vacuum_trace(algebra, [rank(algebra, i, v) for i, v in labels])


def seeded_sign(graph: SimplicialGraph, p: float, seed: int, i, v, j, w) -> int:
    """The seeded sign of generators (i, v) and (j, w), hashing the whole
    canonical pair string with the seed's key in one call.  The key of a
    seed in [0, 2^64) is its 8-byte little-endian form, and of any other
    seed the shortest signed little-endian form of at least 9 bytes."""
    if w in graph.adjacency[v]:
        return 1
    if (i, v) == (j, w):
        return -1
    if (w, j) < (v, i):
        i, v, j, w = j, w, i, v
    if 0 <= seed < 2**64:
        key = struct.pack("<Q", seed)
    else:
        size = 9
        while not -(2 ** (8 * size - 1)) <= seed < 2 ** (8 * size - 1):
            size += 1
        key = seed.to_bytes(size, "little", signed=True)
    digest = hashlib.blake2b(f"{v}:{i}|{w}:{j}".encode(), digest_size=8, key=key)
    return 1 if int.from_bytes(digest.digest(), "big") < int(p * 2**64) else -1


def einsum_sum_of_products(factors) -> int:
    """Exact sum, over every value of every label, of a product of dense
    factors, each a numpy tensor with one axis per label it lists.  Labels
    are eliminated one at a time, each time the one that shares factors with
    the fewest other labels: the factors carrying it are contracted into one
    int64 tensor over those other labels by ``np.einsum``, and it is summed
    out."""
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
