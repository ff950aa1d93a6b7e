"""Exact simulator of the field operators on the graph-product Fock space,
over integer coefficients.

A basis word is a sequence of (vertex, spin) letters in which letters of
one vertex form contiguous blocks; collapsing each block to a single
letter must leave a reduced word.  Words that differ only by swapping
adjacent blocks of adjacent vertices name the same basis vector, so every
word is stored in a canonical block order (lexicographically least, by
the normal-form kernel of ``words``).  A field operator is creation plus
annihilation, applied in one pass: for each word it finds once the block
of the letter's vertex that can move to the front, and emits the created
word and, when that block's head has the letter's spin, the annihilated
one.  Both edit the canonical letter tuple in place and re-derive the
block order only when a block appears or disappears; growing or shrinking
a block leaves the collapsed word, hence the order, unchanged.  All inner
products in this model are 0 or 1, hence states are plain dictionaries
mapping canonical words to integers and the whole module is float-free.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby
from operator import itemgetter

from .defaults import DEFAULT_MAX_WORD_LEN
from .graph import SimplicialGraph
from .partitions import LabeledWord, Letter, validate_labeled_word
from .words import normal_form_order

BasisWord = tuple[Letter, ...]
FockState = dict[BasisWord, int]


def _canonical(graph: SimplicialGraph, letters: BasisWord) -> BasisWord:
    # The blocks of a basis word collapse to a reduced vertex word, whose
    # normal form fixes the canonical block order.
    blocks = [tuple(block) for _, block in groupby(letters, itemgetter(0))]
    order = normal_form_order(graph, [block[0][0] for block in blocks])
    return tuple(letter for k in order for letter in blocks[k])


def vacuum() -> FockState:
    """The vacuum state: coefficient 1 on the empty word."""
    return {(): 1}


def _accumulate(state: FockState, word: BasisWord, coeff: int) -> None:
    total = state.get(word, 0) + coeff
    if total:
        state[word] = total
    else:
        state.pop(word, None)


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


def apply_field(
    graph: SimplicialGraph, state: FockState, letter: Letter, *, max_letters: int
) -> FockState:
    """The self-adjoint field operator, creation plus annihilation, in one
    pass over the state.

    Both act at the head of the block of the letter's vertex that can move
    to the front.  Creation joins the letter to that head, or makes it a
    new front block when no such block exists.  Annihilation removes that
    head when its spin matches; otherwise, or when there is no such block,
    the term dies.  Result words holding more than ``max_letters`` letters
    equal to ``letter`` are dropped before they are built.
    """
    v, spin = letter
    link = graph.link(v)
    out: FockState = {}
    for word, coeff in state.items():
        count = word.count(letter)
        idx = _front(word, v, link)
        if count < max_letters:
            if idx >= 0:
                created = word[:idx] + (letter,) + word[idx:]
            else:
                created = _canonical(graph, (letter,) + word)
            _accumulate(out, created, coeff)
        if idx >= 0 and word[idx][1] == spin and count <= max_letters + 1:
            rest = word[:idx] + word[idx + 1 :]
            if idx == len(rest) or rest[idx][0] != v:  # the block died
                rest = _canonical(graph, rest)
            _accumulate(out, rest, coeff)
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
