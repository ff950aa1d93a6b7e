"""Pair partitions of labeled words, their crossings, and limit moments.

A labeled word is a sequence of (vertex, spin) letters with spin 1 or 2.
Pairings match positions carrying the same label; the crossing data of a
pairing splits into all crossings and the graph crossings, those whose
opener vertices are not adjacent.  Counting pairings without graph
crossings gives the exact vacuum moment, and weighting each pairing by
theta to the number of graph crossings gives the limit moment of the
random-sign matrix models.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DomainError,
    InvalidToken,
    MalformedPartition,
    SizeLimit,
)
from .graph import _TOKEN, SimplicialGraph

Letter = tuple[str, int]
LabeledWord = tuple[Letter, ...]

SPINS = (1, 2)

MATCH_LABEL = "label"
MATCH_VERTEX = "vertex"

DEFAULT_MAX_WORD_LEN = 16


def parse_labeled_word(text: str) -> LabeledWord:
    """Parse ``"a:1 b:2 a"`` tokens; a missing spin defaults to 1."""
    letters: list[Letter] = []
    for tok in text.split():
        vertex, sep, spin_text = tok.partition(":")
        if not _TOKEN.match(vertex):
            raise InvalidToken(f"bad vertex token {vertex!r} in labeled word")
        if not sep:
            spin = 1
        elif spin_text in ("1", "2"):
            spin = int(spin_text)
        else:
            raise InvalidToken(f"spin must be 1 or 2, got {spin_text!r}")
        letters.append((vertex, spin))
    return tuple(letters)


def format_labeled_word(word: LabeledWord) -> str:
    return " ".join(f"{v}:{s}" for v, s in word)


def validate_labeled_word(graph: SimplicialGraph, word: LabeledWord) -> None:
    for v, s in word:
        graph.require_vertex(v)
        if s not in SPINS:
            raise InvalidToken(f"spin must be 1 or 2, got {s!r}")


@dataclass(frozen=True)
class PairPartition:
    """Perfect matching of positions 1..n, stored sorted by opener."""

    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def from_pairs(cls, pairs, n: int | None = None) -> "PairPartition":
        """Validate and canonicalize a collection of (opener, closer) pairs."""
        canonical = []
        for pair in pairs:
            e, z = pair
            if e == z:
                raise MalformedPartition(f"pair ({e}, {z}) repeats a position")
            canonical.append((min(e, z), max(e, z)))
        canonical.sort()
        covered = [p for pair in canonical for p in pair]
        if len(set(covered)) != len(covered):
            raise MalformedPartition("pairs overlap")
        if covered:
            size = n if n is not None else max(covered)
            if sorted(covered) != list(range(1, size + 1)):
                raise MalformedPartition(
                    f"pairs do not cover positions 1..{size} exactly"
                )
        elif n:
            raise MalformedPartition(f"pairs do not cover positions 1..{n} exactly")
        return cls(tuple(canonical))

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "PairPartition":
        """Parse the CLI syntax ``"1-3,2-4"`` (1-based positions)."""
        pairs = []
        text = text.strip()
        if text:
            for chunk in text.split(","):
                left, sep, right = chunk.partition("-")
                if not sep:
                    raise MalformedPartition(f"bad pair {chunk!r}, expected 'e-z'")
                try:
                    pairs.append((int(left), int(right)))
                except ValueError as exc:
                    raise MalformedPartition(f"bad pair {chunk!r}") from exc
        return cls.from_pairs(pairs, n)

    def __str__(self) -> str:
        return ",".join(f"{e}-{z}" for e, z in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def _match_key(letter: Letter, match: str):
    if match == MATCH_LABEL:
        return letter
    if match == MATCH_VERTEX:
        return letter[0]
    raise DomainError(f"match mode must be 'label' or 'vertex', got {match!r}")


def enumerate_pairings(
    graph: SimplicialGraph,
    word: LabeledWord,
    match: str = MATCH_LABEL,
    max_len: int = DEFAULT_MAX_WORD_LEN,
) -> list[PairPartition]:
    """All pairings matching positions with equal labels, lexicographic order.

    Under ``match="label"`` paired positions must agree in vertex and spin
    (the inner products of the Fock model vanish otherwise); under
    ``match="vertex"`` only the vertex must agree.  Odd-length words have
    no pairings.
    """
    validate_labeled_word(graph, word)
    n = len(word)
    if n > max_len:
        raise SizeLimit(f"word length {n} exceeds the cap {max_len}")
    if n % 2:
        return []
    keys = [_match_key(letter, match) for letter in word]
    results: list[PairPartition] = []
    pairs: list[tuple[int, int]] = []
    unpaired = list(range(n))

    def recurse() -> None:
        if not unpaired:
            results.append(PairPartition(tuple(pairs)))
            return
        first = unpaired.pop(0)
        for idx in range(len(unpaired)):
            partner = unpaired[idx]
            if keys[partner] != keys[first]:
                continue
            del unpaired[idx]
            pairs.append((first + 1, partner + 1))
            recurse()
            pairs.pop()
            unpaired.insert(idx, partner)
        unpaired.insert(0, first)

    recurse()
    results.sort(key=lambda p: p.pairs)
    return results


def crossings(
    graph: SimplicialGraph, vertices, blocks
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Crossings and graph crossings of a pairing, as 0-based block pairs.

    The one crossing kernel, unchecked: ``blocks`` must be sorted by opener
    (1-based positions) and ``vertices[p - 1]`` must be the graph vertex at
    position p.  Blocks k < l cross when e_k < e_l < z_k < z_l; the crossing
    is a graph crossing when the two opener vertices are not adjacent.
    """
    adjacency = graph.adjacency
    all_pairs, graph_pairs = [], []
    for k, (ek, zk) in enumerate(blocks):
        link = adjacency[vertices[ek - 1]]
        for l in range(k + 1, len(blocks)):
            el, zl = blocks[l]
            if el > zk:
                break
            if zk < zl:
                all_pairs.append((k, l))
                if vertices[el - 1] not in link:
                    graph_pairs.append((k, l))
    return all_pairs, graph_pairs


def gamma_crossing_pairs(
    graph: SimplicialGraph,
    word: LabeledWord,
    partition: PairPartition,
) -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
    """Crossings and graph crossings of a pairing, as 1-based block pairs.

    Blocks are numbered by opener order.  Blocks k < l cross when
    e_k < e_l < z_k < z_l; the crossing is a graph crossing when the two
    opener vertices are not adjacent.
    """
    validate_labeled_word(graph, word)
    blocks = PairPartition.from_pairs(partition.pairs, len(word)).pairs
    found = crossings(graph, [v for v, _ in word], blocks)
    return tuple({(k + 1, l + 1) for k, l in pairs} for pairs in found)


def count_gamma_admissible(
    graph: SimplicialGraph,
    word: LabeledWord,
    match: str = MATCH_LABEL,
    max_len: int = DEFAULT_MAX_WORD_LEN,
) -> int:
    """Number of pairings without graph crossings; 0 for odd length."""
    vertices = [v for v, _ in word]
    total = 0
    for partition in enumerate_pairings(graph, word, match, max_len):
        if not crossings(graph, vertices, partition.pairs)[1]:
            total += 1
    return total


def limit_moment(
    graph: SimplicialGraph,
    word: LabeledWord,
    theta: float,
    match: str = MATCH_LABEL,
    max_len: int = DEFAULT_MAX_WORD_LEN,
) -> float:
    """Sum of theta ** (number of graph crossings) over all pairings.

    theta is the sign bias p - q of the random-sign model; theta ** 0 is 1
    even at theta = 0, so the value at 0 is the admissible-pairing count
    and the value at 1 is the total pairing count.
    """
    if not -1.0 <= theta <= 1.0:
        raise DomainError(f"theta must lie in [-1, 1], got {theta}")
    vertices = [v for v, _ in word]
    total = 0.0
    for partition in enumerate_pairings(graph, word, match, max_len):
        exponent = len(crossings(graph, vertices, partition.pairs)[1])
        total += 1.0 if exponent == 0 else theta**exponent
    return total
