"""Pair partitions of labeled words, their crossings, and limit moments.

A labeled word is a sequence of (vertex, spin) letters with spin 1 or 2.
Pairings match positions carrying the same label; the crossing data of a
pairing splits into all crossings and the graph crossings, those whose
opener vertices are not adjacent.  Counting pairings without graph
crossings gives the exact vacuum moment, and weighting each pairing by
theta to the number of graph crossings gives the limit moment of the
random-sign matrix models.  One transfer DP counts pairings by graph
crossings without building a single pairing, and each caller asks only
for what it reads: counts take the DP cut to degree 0, totals take the
closed form of ``count_pairings``, and only a limit moment at theta
outside {0, 1} builds the whole polynomial.
"""

from __future__ import annotations

from collections import Counter
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


def validate_labeled_word(
    graph: SimplicialGraph, word: LabeledWord, max_len: int | None = None
) -> None:
    """Check every letter, then the length against ``max_len`` if given."""
    for v, s in word:
        graph.require_vertex(v)
        if s not in SPINS:
            raise InvalidToken(f"spin must be 1 or 2, got {s!r}")
    if max_len is not None and len(word) > max_len:
        raise SizeLimit(f"word length {len(word)} exceeds the cap {max_len}")


@dataclass(frozen=True)
class PairPartition:
    """Perfect matching of positions 1..n, stored sorted by opener."""

    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def from_pairs(cls, pairs, n: int) -> "PairPartition":
        """Validate and canonicalize a collection of (opener, closer) pairs
        that must cover the positions 1..n."""
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
        if sorted(covered) != list(range(1, n + 1)):
            raise MalformedPartition(f"pairs do not cover positions 1..{n} exactly")
        return cls(tuple(canonical))

    @classmethod
    def parse(cls, text: str, n: int) -> "PairPartition":
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


def _match_keys(word: LabeledWord, match: str) -> list:
    """The key each letter is matched by: its label, or only its vertex."""
    if match == MATCH_LABEL:
        return list(word)
    if match == MATCH_VERTEX:
        return [v for v, _ in word]
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
    ``match="vertex"`` only the vertex must agree.  A word in which some
    key occurs an odd number of times has no pairings and is not searched.
    The search pairs the first unpaired position with each later partner
    in turn, so the pairings come out in lexicographic order.  This is the
    reference that ``crossing_polynomial`` is tested against; the counts
    never enumerate.
    """
    validate_labeled_word(graph, word, max_len)
    n = len(word)
    keys = _match_keys(word, match)
    if any(m % 2 for m in Counter(keys).values()):
        return []
    same: dict = {}  # key -> bit mask of its positions
    for q, key in enumerate(keys):
        same[key] = same.get(key, 0) | 1 << q
    results: list[PairPartition] = []
    # An explicit stack, so that long words fit.  The partners of a first
    # position are pushed last to first, so that the pairings through the
    # first partner all come out before those through the next.
    stack = [((), (1 << n) - 1)]  # (pairs so far, mask of unpaired positions)
    while stack:
        pairs, unpaired = stack.pop()
        if not unpaired:
            results.append(PairPartition(pairs))
            continue
        low = unpaired & -unpaired
        first = low.bit_length()  # 1-based, as is every position below
        rest = unpaired ^ low
        partners = rest & same[keys[first - 1]]
        while partners:
            last = 1 << partners.bit_length() - 1
            partners ^= last
            stack.append((pairs + ((first, last.bit_length()),), rest ^ last))
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


def crossing_polynomial(
    graph: SimplicialGraph,
    word: LabeledWord,
    match: str = MATCH_LABEL,
    max_len: int = DEFAULT_MAX_WORD_LEN,
    degree: int | None = None,
) -> list[int]:
    """Pairings counted by graph crossings: ``c[k]`` have exactly k of them.

    A transfer DP over positions, left to right.  Its state is the tuple of
    open arcs in opening order, each named by its match key alone, so
    pairings that leave the same labels open merge.  At each position an
    open arc of the same key closes, or a new arc opens if enough letters
    of its key lie ahead to close every open arc of that key.  Closing arc
    k adds one graph crossing per arc opened after it and still open whose
    vertex is not adjacent to k's.  Every state reached completes, and each
    pairing is one path.  The list is never empty: ``[0]`` when the word
    has no pairing.

    With ``degree=d >= 0`` exactly ``c[0..d]`` is returned, zero-padded
    where the polynomial is shorter: the scan over open arcs stops at the
    first one past which a closing would add more than d graph crossings,
    and every coefficient above ``x ** d`` is dropped.
    """
    validate_labeled_word(graph, word, max_len)
    keys = _match_keys(word, match)
    zero = [0] * (1 if degree is None else degree + 1)
    if len(word) % 2:
        return zero
    if degree is None:
        degree = len(word) ** 2  # more than any pairing's graph crossings
    vertex_of = {key: v for key, (v, _) in zip(keys, word)}
    ahead = Counter(keys)
    adjacency = graph.adjacency
    states: dict[tuple, list[int]] = {(): [1]}
    for key in keys:
        ahead[key] -= 1
        link = adjacency[vertex_of[key]]
        step: dict[tuple, list[int]] = {}
        for arcs, poly in states.items():
            after = 0  # arcs after index k that cross arc k
            for k in range(len(arcs) - 1, -1, -1):
                if arcs[k] == key:
                    _add_shifted(step, arcs[:k] + arcs[k + 1 :], poly, after, degree)
                if vertex_of[arcs[k]] not in link:
                    after += 1
                    if after > degree:
                        break
            if arcs.count(key) < ahead[key]:
                _add_shifted(step, arcs + (key,), poly, 0, degree)
        states = step
    poly = states.get((), [])
    return poly + zero[len(poly) :]


def _add_shifted(
    states: dict, arcs: tuple, poly: list[int], shift: int, degree: int
) -> None:
    """Add x ** shift * poly, cut above x ** degree, to the polynomial of ``arcs``.

    The first contribution is copied, since later ones are added in place.
    """
    if shift + len(poly) > degree + 1:
        poly = poly[: degree + 1 - shift]
    acc = states.get(arcs)
    if acc is None:
        states[arcs] = [0] * shift + poly
        return
    if len(acc) < shift + len(poly):
        acc.extend([0] * (shift + len(poly) - len(acc)))
    for k, c in enumerate(poly, shift):
        acc[k] += c


def count_pairings(
    graph: SimplicialGraph,
    word: LabeledWord,
    match: str = MATCH_LABEL,
    max_len: int = DEFAULT_MAX_WORD_LEN,
) -> int:
    """Number of pairings matching equal labels, the crossing polynomial's sum.

    The positions of each match key pair among themselves, so the count is
    the product over keys of (m - 1)!! for a key met m times, and 0 when
    some key is met an odd number of times.  The word is checked as the DP
    checks it.
    """
    validate_labeled_word(graph, word, max_len)
    keys = _match_keys(word, match)
    if len(word) % 2:
        return 0
    total = 1
    for m in Counter(keys).values():
        if m % 2:
            return 0
        for odd in range(m - 1, 1, -2):
            total *= odd
    return total


def count_gamma_admissible(
    graph: SimplicialGraph,
    word: LabeledWord,
    match: str = MATCH_LABEL,
    max_len: int = DEFAULT_MAX_WORD_LEN,
) -> int:
    """Number of pairings without graph crossings; 0 for odd length.

    The crossing DP cut to degree 0: an arc closes only when every arc
    opened after it and still open is adjacent to its vertex.
    """
    return crossing_polynomial(graph, word, match, max_len, degree=0)[0]


def limit_moment(
    graph: SimplicialGraph,
    word: LabeledWord,
    theta: float,
    match: str = MATCH_LABEL,
    max_len: int = DEFAULT_MAX_WORD_LEN,
) -> float:
    """Sum of theta ** (number of graph crossings) over all pairings.

    theta is the sign bias p - q of the random-sign model; theta ** 0 is 1
    even at theta = 0, so the value at 0 (or -0.0) is the admissible-pairing
    count, which the DP cut to degree 0 gives, and the value at 1 is the
    total pairing count, which ``count_pairings`` gives in closed form.  At
    any other theta the whole crossing polynomial is evaluated exactly at
    the float theta and rounded once.  A value beyond the float range
    raises ``SizeLimit``.
    """
    if not -1.0 <= theta <= 1.0:
        raise DomainError(f"theta must lie in [-1, 1], got {theta}")
    den = 1
    if theta == 0.0:
        num = crossing_polynomial(graph, word, match, max_len, degree=0)[0]
    elif theta == 1.0:
        num = count_pairings(graph, word, match, max_len)
    else:
        coeffs = crossing_polynomial(graph, word, match, max_len)
        # theta = p / q exactly, so sum c_k theta^k = sum c_k p^k q^(d-k) / q^d,
        # and int / int rounds the exact quotient once.
        p, q = theta.as_integer_ratio()
        d = len(coeffs) - 1
        num = sum(c * p**k * q ** (d - k) for k, c in enumerate(coeffs))
        den = q**d
    try:
        return num / den
    except OverflowError:
        raise SizeLimit("the limit moment exceeds the float range") from None
