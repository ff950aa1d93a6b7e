"""Word combinatorics of graph products.

Two words are equivalent when one can be turned into the other by the two
rewriting moves: cancelling one of two equal adjacent letters, and swapping
adjacent letters whose vertices share an edge.  This module decides
reducedness, applies single moves, computes the canonical (lexicographically
least reduced) representative of a class, and offers a brute-force
breadth-first closure oracle used to certify the fast path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    DomainError,
    IndexOutOfRange,
    InvalidToken,
    MoveNotApplicable,
)
from .graph import _TOKEN, SimplicialGraph

Word = tuple[str, ...]

CANCEL = "cancel"
SWAP = "swap"


@dataclass(frozen=True)
class Move:
    """A single rewriting step at a 1-based position.

    ``cancel`` deletes the letter at ``pos + 1`` when it equals the letter
    at ``pos``; ``swap`` exchanges the letters at ``pos`` and ``pos + 1``
    when their vertices are adjacent in the graph.
    """

    kind: str
    pos: int


def parse_word(text: str) -> Word:
    """Whitespace-separated vertex tokens; the empty string is the empty word."""
    letters = tuple(text.split())
    for tok in letters:
        if not _TOKEN.match(tok):
            raise InvalidToken(f"bad vertex token {tok!r} in word")
    return letters


def format_word(word: Word) -> str:
    return " ".join(word)


def _validate(graph: SimplicialGraph, word: Word) -> None:
    for v in word:
        graph.require_vertex(v)


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


def is_reduced(graph: SimplicialGraph, word: Word) -> bool:
    """True iff every pair of equal letters is separated by a non-neighbor."""
    _validate(graph, word)
    return _mergeable_pair(graph, word) is None


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


def reduce_word(graph: SimplicialGraph, word: Word) -> Word:
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


def normal_form_order(graph: SimplicialGraph, vertices) -> list[int]:
    """Positions of a reduced vertex sequence, in normal-form order.

    Greedy extraction of the smallest front-movable letter: the standard
    lexicographic normal form of a trace monoid, which ``fock`` uses for
    block order too.  On a reduced sequence two front-movable positions
    never carry the same vertex (they would merge).  Unchecked: the
    vertices must belong to the graph.
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


def normalize(graph: SimplicialGraph, word: Word) -> Word:
    """Canonical representative: reduce, then take the lex-least swap image."""
    reduced = reduce_word(graph, word)
    return tuple(reduced[k] for k in normal_form_order(graph, reduced))


def are_equivalent(graph: SimplicialGraph, w1: Word, w2: Word) -> bool:
    return normalize(graph, w1) == normalize(graph, w2)


def equivalence_class_oracle(
    graph: SimplicialGraph,
    word: Word,
    max_len: int,
    max_states: int = 10**6,
) -> frozenset[Word]:
    """Breadth-first closure under cancel, swap, and duplicate-insertion.

    Duplicate insertion (the reverse of cancel) grows words, so the closure
    is truncated at ``max_len``; the result is the complete set of
    equivalent words of length at most ``max_len``.  Deliberately
    independent of :func:`normalize` so it can serve as its oracle.
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
