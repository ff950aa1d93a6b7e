"""Word combinatorics of graph products.

Two words are equivalent when one can be turned into the other by the two
rewriting moves: cancelling one of two equal adjacent letters, and swapping
adjacent letters whose vertices share an edge.  Every class holds one
reduced word up to swaps, and one lexicographically least reduced word,
its normal form.  One pass over the word finds both: it drops each letter
that merges into an earlier one, and orders the kept letters by a
topological sort of their dependences, in O(n·|V| log n) time.
"""

from __future__ import annotations

from heapq import heappop, heappush

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


def normal_form_order(graph: SimplicialGraph, vertices) -> list[int]:
    """Positions of the letters that survive merging, in normal-form order.

    Left to right, ``last[u]`` is the position of the last kept letter of
    vertex u.  A letter v merges into ``last[v]`` (and is dropped) when no
    kept letter of a vertex outside v's link lies after it; otherwise it is
    kept and waits on ``last[u]`` for every u outside its link, v included.
    A min-heap on (vertex, position) then releases the ready letters in
    lexicographic normal-form order; on the kept letters, which form a
    reduced word, two ready letters never share a vertex.  Unchecked: the
    vertices must belong to the graph.
    """
    adjacency = graph.adjacency
    last: dict[str, int] = {}
    blockers = [0] * len(vertices)
    waiting: list[list[int]] = [[] for _ in vertices]
    ready: list[tuple[str, int]] = []
    for p, v in enumerate(vertices):
        link = adjacency[v]
        before = [q for u, q in last.items() if u not in link]
        if v in last and max(before) == last[v]:
            continue
        last[v] = p
        blockers[p] = len(before)
        for q in before:
            waiting[q].append(p)
        if not before:
            heappush(ready, (v, p))
    order: list[int] = []
    while ready:
        p = heappop(ready)[1]
        order.append(p)
        for q in waiting[p]:
            blockers[q] -= 1
            if not blockers[q]:
                heappush(ready, (vertices[q], q))
    return order


def is_reduced(graph: SimplicialGraph, word: Word) -> bool:
    """True iff no letter merges into an earlier one."""
    _validate(graph, word)
    return len(normal_form_order(graph, word)) == len(word)


def normalize(graph: SimplicialGraph, word: Word) -> Word:
    """Canonical representative: the kept letters in normal-form order."""
    _validate(graph, word)
    return tuple(word[k] for k in normal_form_order(graph, word))


def are_equivalent(graph: SimplicialGraph, w1: Word, w2: Word) -> bool:
    return normalize(graph, w1) == normalize(graph, w2)
