"""Exact simulator of creation, annihilation, and field operators on the
graph-product Fock space, over integer coefficients.

A basis word is a sequence of (vertex, spin) letters in which letters of
one vertex form contiguous blocks; collapsing each block to a single
letter must leave a reduced word.  Words that differ only by swapping
adjacent blocks of adjacent vertices name the same basis vector, so every
word is stored in a canonical block order (lexicographically least, via
greedy extraction of the smallest front-movable block).  All inner
products in this model are 0 or 1, hence states are plain dictionaries
mapping canonical words to integers and the whole module is float-free.
"""

from __future__ import annotations

from .errors import InvalidToken, SizeLimit
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

Block = tuple[str, tuple[int, ...]]


def _split_blocks(letters: BasisWord) -> list[Block]:
    blocks: list[Block] = []
    for v, s in letters:
        if blocks and blocks[-1][0] == v:
            blocks[-1] = (v, blocks[-1][1] + (s,))
        else:
            blocks.append((v, (s,)))
    return blocks


def _join_canonical(graph: SimplicialGraph, blocks: list[Block]) -> BasisWord:
    # The blocks of a basis word collapse to a reduced vertex word, whose
    # normal form fixes the canonical block order.
    order = normal_form_order(graph, [v for v, _ in blocks])
    return tuple((blocks[k][0], s) for k in order for s in blocks[k][1])


def canonical_basis_word(graph: SimplicialGraph, letters) -> BasisWord:
    """Validate a letter sequence as a basis word and canonicalize it.

    Raises InvalidToken (a ValueError) when the collapsed vertex word is not
    reduced, i.e. the letters do not name a Fock basis vector.
    """
    letters = tuple(letters)
    validate_labeled_word(graph, letters)
    blocks = _split_blocks(letters)
    collapsed = tuple(v for v, _ in blocks)
    if not is_reduced(graph, collapsed):
        raise InvalidToken(
            f"letters {letters!r} collapse to a non-reduced word {collapsed!r}"
        )
    return _join_canonical(graph, blocks)


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


def _front_block(blocks: list[Block], v: str, link: frozenset[str]) -> int:
    """Index of the block of vertex v that can move to the front, or -1.

    Only the first block of v can: a later one has that block, which does
    not commute with v, among its predecessors.
    """
    for idx, (u, _) in enumerate(blocks):
        if u == v:
            return idx
        if u not in link:
            break
    return -1


def apply_create(graph: SimplicialGraph, state: FockState, letter: Letter) -> FockState:
    """Creation: prepend the letter and slide it to its unique slot.

    The letter joins the head of the first block of its vertex whose
    predecessors all commute with it; if a non-commuting block appears
    first (or no such block exists) it forms a new front block.  Either
    way the result is a single basis word with the same coefficient.
    """
    v, spin = letter
    link = graph.link(v)
    out: FockState = {}
    for word, coeff in state.items():
        blocks = _split_blocks(word)
        idx = _front_block(blocks, v, link)
        if idx >= 0:
            blocks[idx] = (v, (spin,) + blocks[idx][1])
        else:
            blocks.insert(0, (v, (spin,)))
        _accumulate(out, _join_canonical(graph, blocks), coeff)
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
        blocks = _split_blocks(word)
        idx = _front_block(blocks, v, link)
        if idx < 0 or blocks[idx][1][0] != spin:
            continue
        spins = blocks[idx][1]
        if len(spins) == 1:
            del blocks[idx]
        else:
            blocks[idx] = (v, spins[1:])
        _accumulate(out, _join_canonical(graph, blocks), coeff)
    return out


def apply_field(graph: SimplicialGraph, state: FockState, letter: Letter) -> FockState:
    """The self-adjoint field operator: creation plus annihilation."""
    out = apply_create(graph, state, letter)
    for word, coeff in apply_annihilate(graph, state, letter).items():
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
    """
    validate_labeled_word(graph, word)
    if len(word) > max_len:
        raise SizeLimit(f"word length {len(word)} exceeds the cap {max_len}")
    state = vacuum()
    for letter in reversed(word):
        state = apply_field(graph, state, letter)
    return state.get((), 0)
