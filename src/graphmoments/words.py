"""Word combinatorics of graph products.

Two words are equivalent when one can be turned into the other by the two
rewriting moves: cancelling one of two equal adjacent letters, and swapping
adjacent letters whose vertices share an edge.  This module decides
reducedness and computes the canonical (lexicographically least reduced)
representative of a class.
"""

from __future__ import annotations

from .errors import InvalidToken
from .graph import _TOKEN, SimplicialGraph

Word = tuple[str, ...]


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
