"""Simplicial graphs: finite vertex sets, undirected loop-free edges, and
the link and edge queries every other module relies on.

Vertices are plain string tokens.  Their lexicographic order is the one
canonical order used everywhere (word normal forms, generator indexing),
so it is fixed here once: ``SimplicialGraph.vertices`` is always sorted.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .errors import DuplicateVertex, InvalidToken, LoopEdge, UnknownVertex

_TOKEN = re.compile(r"[A-Za-z0-9_]+\Z")


@dataclass(frozen=True)
class SimplicialGraph:
    """Undirected graph without loops or multiple edges.

    Immutable after construction; safe to share between threads.  Build
    instances through :func:`build_graph` (or the JSON helpers), which
    validate and canonicalize the input.
    """

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    # Unchecked link lookup, for callers that validated their vertices at
    # their entry point; ``link`` is the checked form.
    adjacency: dict[str, frozenset[str]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        adjacency: dict[str, set[str]] = {v: set() for v in self.vertices}
        for v, w in self.edges:
            adjacency[v].add(w)
            adjacency[w].add(v)
        object.__setattr__(
            self, "adjacency", {v: frozenset(ns) for v, ns in adjacency.items()}
        )

    def require_vertex(self, v: str) -> None:
        if v not in self.adjacency:
            raise UnknownVertex(f"vertex {v!r} is not in the graph")

    def is_edge(self, v: str, w: str) -> bool:
        """True iff {v, w} is an edge; always false for v == w."""
        self.require_vertex(v)
        self.require_vertex(w)
        return w in self.adjacency[v]

    def link(self, v: str) -> frozenset[str]:
        """Neighbors of v."""
        self.require_vertex(v)
        return self.adjacency[v]


def build_graph(
    vertices: list[str] | tuple[str, ...],
    edges: list[tuple[str, str]] | list[list[str]] = (),
) -> SimplicialGraph:
    """Validate and canonicalize a vertex/edge description.

    Edge input may repeat pairs or list both orientations; the symmetric
    closure is taken silently.  Vertex order in the input is ignored: the
    stored order is lexicographic.
    """
    if not isinstance(vertices, (list, tuple)) or not isinstance(edges, (list, tuple)):
        raise InvalidToken("vertices and edges must be lists")
    seen: set[str] = set()
    for v in vertices:
        if not isinstance(v, str) or not _TOKEN.match(v):
            raise InvalidToken(f"bad vertex token {v!r}")
        if v in seen:
            raise DuplicateVertex(f"vertex {v!r} declared twice")
        seen.add(v)
    canonical_edges: set[tuple[str, str]] = set()
    for pair in edges:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InvalidToken(f"edge {pair!r} is not a pair of vertices")
        v, w = pair
        if v == w:
            raise LoopEdge(f"loop edge on vertex {v!r}")
        for x in (v, w):
            if not isinstance(x, str) or x not in seen:
                raise UnknownVertex(f"edge endpoint {x!r} is not a declared vertex")
        canonical_edges.add((min(v, w), max(v, w)))
    return SimplicialGraph(tuple(sorted(seen)), frozenset(canonical_edges))


def graph_from_json(doc: dict | str) -> SimplicialGraph:
    """Parse ``{"vertices": [...], "edges": [[v, w], ...]}``."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except RecursionError as exc:
            raise InvalidToken("graph document nests too deeply") from exc
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise InvalidToken("graph document must be an object with a 'vertices' key")
    return build_graph(doc["vertices"], doc.get("edges", []))


def load_graph(path: str) -> SimplicialGraph:
    with open(path, encoding="utf-8") as fh:
        return graph_from_json(fh.read())
