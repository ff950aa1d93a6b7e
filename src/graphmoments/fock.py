"""Exact simulator of creation, annihilation, and field operators on the
graph-product Fock space, over integer coefficients.

A basis word is a sequence of (vertex, spin) letters in which letters of
one vertex form contiguous blocks; collapsing each block to a single
letter must leave a reduced word.  Words that differ only by swapping
adjacent blocks of adjacent vertices name the same basis vector, so every
word is stored in a canonical block order (lexicographically least, via
greedy extraction of the smallest front-movable block).  The operators
edit the canonical letter tuple in place and re-derive the block order
only when a block appears or disappears; growing or shrinking a block
leaves the collapsed word, hence the order, unchanged.  All inner
products in this model are 0 or 1, hence states are plain dictionaries
mapping canonical words to integers and the whole module is float-free.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby
from operator import itemgetter

from .errors import InvalidToken
from .graph import SimplicialGraph
from .partitions import (
    DEFAULT_MAX_WORD_LEN,
    LabeledWord,
    Letter,
    validate_labeled_word,
)
from .words import is_reduced, normal_form_order

BasisWord = tuple[Letter, ...]
FockState = dict[BasisWord, int]


def _canonical(graph: SimplicialGraph, letters: BasisWord) -> BasisWord:
    # The blocks of a basis word collapse to a reduced vertex word, whose
    # normal form fixes the canonical block order.
    blocks = [tuple(block) for _, block in groupby(letters, itemgetter(0))]
    order = normal_form_order(graph, [block[0][0] for block in blocks])
    return tuple(letter for k in order for letter in blocks[k])


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


def vacuum() -> FockState:
    """The vacuum state: coefficient 1 on the empty word."""
    return {(): 1}


def state_from_letters(graph: SimplicialGraph, letters, coeff: int = 1) -> FockState:
    return {canonical_basis_word(graph, letters): coeff}


def _accumulate(state: FockState, word: BasisWord, coeff: int) -> None:
    total = state.get(word, 0) + coeff
    if total:
        state[word] = total
    else:
        state.pop(word, None)


def inner(left: FockState, right: FockState) -> int:
    """Delta pairing of canonical basis words, extended bilinearly."""
    if len(right) < len(left):
        left, right = right, left
    return sum(coeff * right.get(word, 0) for word, coeff in left.items())


def _front(word: BasisWord, v: str, link: frozenset[str]) -> int:
    """Position of the head of the block of vertex v that can move to the
    front, or -1.

    Only the first block of v can: a later one has that block, which does
    not commute with v, among its predecessors.
    """
    for idx, (u, _) in enumerate(word):
        if u == v:
            return idx
        if u not in link:
            break
    return -1


def apply_create(
    graph: SimplicialGraph,
    state: FockState,
    letter: Letter,
    *,
    max_letters: int | None = None,
) -> FockState:
    """Creation: prepend the letter and slide it to its unique slot.

    The letter joins the head of the first block of its vertex whose
    predecessors all commute with it; if a non-commuting block appears
    first (or no such block exists) it forms a new front block.  Either
    way the result is a single basis word with the same coefficient.

    With ``max_letters``, words that would hold more than ``max_letters``
    letters equal to ``letter`` are dropped before they are built.
    """
    v, spin = letter
    link = graph.link(v)
    out: FockState = {}
    for word, coeff in state.items():
        if max_letters is not None and word.count(letter) >= max_letters:
            continue
        idx = _front(word, v, link)
        if idx >= 0:
            created = word[:idx] + (letter,) + word[idx:]
        else:
            created = _canonical(graph, (letter,) + word)
        _accumulate(out, created, coeff)
    return out


def apply_annihilate(
    graph: SimplicialGraph, state: FockState, letter: Letter
) -> FockState:
    """Annihilation: remove the head of the front-movable block of the vertex.

    A term dies when no block of the letter's vertex can be moved to the
    front, or when the head spin differs (orthogonal spins).
    """
    v, spin = letter
    link = graph.link(v)
    out: FockState = {}
    for word, coeff in state.items():
        idx = _front(word, v, link)
        if idx < 0 or word[idx][1] != spin:
            continue
        rest = word[:idx] + word[idx + 1 :]
        if idx == len(rest) or rest[idx][0] != v:  # the block died
            rest = _canonical(graph, rest)
        _accumulate(out, rest, coeff)
    return out


def apply_field(
    graph: SimplicialGraph,
    state: FockState,
    letter: Letter,
    *,
    max_letters: int | None = None,
) -> FockState:
    """The self-adjoint field operator: creation plus annihilation.

    With ``max_letters``, result words holding more than ``max_letters``
    letters equal to ``letter`` are dropped, as in ``apply_create``.
    """
    out = apply_create(graph, state, letter, max_letters=max_letters)
    for word, coeff in apply_annihilate(graph, state, letter).items():
        if max_letters is None or word.count(letter) <= max_letters:
            _accumulate(out, word, coeff)
    return out


def vacuum_moment(
    graph: SimplicialGraph,
    word: LabeledWord,
    max_len: int = DEFAULT_MAX_WORD_LEN,
) -> int:
    """Vacuum expectation of the product of field operators along the word.

    Applies the field operators right to left to the vacuum and reads off
    the vacuum coefficient.  Exact integer; zero for odd length.

    Only annihilation removes a letter, one per operator of its label, so
    a word holding more letters of a label than operators of that label
    remain cannot return to the vacuum; such words are never created.
    """
    validate_labeled_word(graph, word, max_len)
    remaining = Counter(word)
    state = vacuum()
    for letter in reversed(word):
        remaining[letter] -= 1
        state = apply_field(graph, state, letter, max_letters=remaining[letter])
    return state.get((), 0)
