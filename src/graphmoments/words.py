"""Word combinatorics of graph products.

Two words are equivalent when one can be turned into the other by the two
rewriting moves: cancelling one of two equal adjacent letters, and swapping
adjacent letters whose vertices share an edge.  Every class holds one
reduced word up to swaps, and one lexicographically least reduced word,
its normal form.  One pass over the word finds both: it drops each letter
that merges into an earlier one, and inserts each kept letter into the
normal form of the kept letters before it.  A letter costs O(|V|) plus the
letters it passes and one list insertion; the insertions can move O(n²)
entries in all: 60,000 letters inserted mid-list take about 0.25 s on a
2-vCPU VM.
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


def normal_form_order(graph: SimplicialGraph, vertices) -> list[int]:
    """Positions of the letters that survive merging, in normal-form order.

    Left to right, each letter is inserted into ``order``, the normal form
    of the kept letters before it (Anisimov and Knuth's inhomogeneous
    sorting).  Letters that do not commute keep their relative order in
    every equivalent word, so of the letters that a new letter v cannot
    pass, the one furthest right in ``order`` is the last kept letter of
    some vertex outside v's link.  When that letter has vertex v, v merges
    into it and is dropped.  Otherwise v goes right after it, then past the
    letters that sort below it, which all commute with it.  ``at[u]`` is
    the index in ``order`` of the last kept letter of vertex u.  Unchecked:
    the vertices must belong to the graph.
    """
    adjacency = graph.adjacency
    order: list[int] = []
    at: dict[str, int] = {}
    for p, v in enumerate(vertices):
        link = adjacency[v]
        k = -1
        for u, q in at.items():
            if q > k and u not in link:
                k = q
        if at.get(v) == k:
            continue
        k += 1
        n = len(order)
        while k < n and vertices[order[k]] < v:
            k += 1
        if k < n:
            for u, q in at.items():
                if q >= k:
                    at[u] = q + 1
        at[v] = k
        order.insert(k, p)
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
