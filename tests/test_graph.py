import copy
import json
import pickle

import pytest

from graphmoments import build_graph, graph_from_json, load_graph
from graphmoments.errors import (
    DuplicateVertex,
    InvalidToken,
    LoopEdge,
    UnknownVertex,
)


def test_build_and_canonical_order():
    g = build_graph(["b", "a"], [("b", "a")])
    assert g.vertices == ("a", "b")
    assert g.is_edge("a", "b") and g.is_edge("b", "a")


def test_edge_dedup_and_symmetrization():
    g1 = build_graph(["a", "b"], [("a", "b"), ("b", "a"), ("a", "b")])
    g2 = build_graph(["a", "b"], [("a", "b")])
    assert g1 == g2


def test_graph_is_an_immutable_value():
    g = build_graph(["b", "a"], [("b", "a")])
    same = build_graph(["a", "b"], [("a", "b")])
    assert g == same and hash(g) == hash(same)
    assert g != build_graph(["a", "b"])
    assert repr(g) == "SimplicialGraph(vertices=('a', 'b'), edges=frozenset({('a', 'b')}))"
    for attr in ("vertices", "edges", "adjacency", "other"):
        with pytest.raises(AttributeError):
            setattr(g, attr, None)
        with pytest.raises(AttributeError):
            delattr(g, attr)
    for twin in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert twin == g and twin.adjacency == g.adjacency


def test_loop_edge_rejected():
    with pytest.raises(LoopEdge):
        build_graph(["a"], [("a", "a")])


def test_unknown_edge_endpoint_rejected():
    with pytest.raises(UnknownVertex):
        build_graph(["a", "b"], [("a", "c")])


def test_duplicate_vertex_rejected():
    with pytest.raises(DuplicateVertex):
        build_graph(["a", "a"])


def test_bad_token_rejected():
    with pytest.raises(InvalidToken):
        build_graph(["a b"])
    with pytest.raises(InvalidToken):
        build_graph([""])


def test_link(graphs):
    p3 = graphs["path3"]
    assert p3.link("b") == {"a", "c"}
    assert p3.link("a") == {"b"}
    assert build_graph(["a", "b"]).link("a") == frozenset()


def test_no_loops_in_queries(graphs):
    p3 = graphs["path3"]
    assert p3.is_edge("a", "b")
    assert not p3.is_edge("a", "c")
    assert not p3.is_edge("a", "a")
    assert "a" not in p3.link("a")


def test_unknown_vertex_queries(graphs):
    p3 = graphs["path3"]
    with pytest.raises(UnknownVertex):
        p3.link("z")
    with pytest.raises(UnknownVertex):
        p3.is_edge("a", "z")


def test_link_symmetry(graphs):
    for g in graphs.values():
        for v in g.vertices:
            for w in g.vertices:
                assert (w in g.link(v)) == (v in g.link(w))
                assert g.is_edge(v, w) == g.is_edge(w, v)


def test_json_round_trip(graphs, tmp_path):
    for g in graphs.values():
        doc = {"vertices": list(g.vertices), "edges": [list(e) for e in sorted(g.edges)]}
        assert graph_from_json(doc) == g
        # order of the vertices array must not matter
        doc["vertices"] = list(reversed(doc["vertices"]))
        assert graph_from_json(doc) == g
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        assert load_graph(str(path)) == g


def test_bad_json_document():
    with pytest.raises(InvalidToken):
        graph_from_json({"edges": []})
