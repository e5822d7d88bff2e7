import json

import pytest

from raag import Graph, load_graph


def p3():
    return Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])


def test_basic_structure():
    g = p3()
    assert g.n == 3
    assert g.adjacent(0, 1) and g.adjacent(1, 2) and not g.adjacent(0, 2)
    assert g.link(1) == {0, 2}
    assert g.dependents[0] == (2,)
    assert g.dependents[1] == ()


def test_center_vertices():
    assert p3().center_vertices() == [1]
    tri = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert tri.center_vertices() == [0, 1, 2]
    assert Graph(["a", "b"], []).center_vertices() == []
    assert Graph(["a"], []).center_vertices() == [0]


def test_full_subgraph_inherits_order():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    sub = g.full_subgraph({3, 1, 2})
    assert sub.vertices == ["b", "c", "d"]
    assert sub.edges() == [("b", "c"), ("c", "d")]


def test_validation_errors():
    with pytest.raises(ValueError):
        Graph(["a", "a"], [])
    with pytest.raises(ValueError):
        Graph(["a", "b"], [("a", "z")])
    with pytest.raises(ValueError):
        Graph(["a", "b"], [("a", "a")])
    with pytest.raises(ValueError):
        Graph(["a", ""], [])
    with pytest.raises(ValueError):
        Graph.from_dict({"vertices": ["a"], "edgez": []})
    with pytest.raises(ValueError):
        Graph.from_dict({"edges": []})
    with pytest.raises(ValueError):
        Graph.from_dict([1, 2])
    # an unhashable name or endpoint is bad input, not a TypeError
    with pytest.raises(ValueError, match="nonempty strings"):
        Graph.from_dict({"vertices": [["a"], "b"]})
    with pytest.raises(ValueError, match="unknown vertex"):
        Graph.from_dict({"vertices": ["a", "b"], "edges": [["a", ["b"]]]})
    with pytest.raises(ValueError, match="unknown vertex"):
        Graph(["a", "b"], [(0, "b")])


def test_edge_must_be_a_list_or_tuple_of_two():
    # a two-letter string and a two-key object unpack into two names
    for edge in ("ab", {"a": 1, "b": 2}, {"a", "b"}, ["a", "b", "a"], ["a"], 5):
        with pytest.raises(ValueError, match="is not a pair"):
            Graph.from_dict({"vertices": ["a", "b"], "edges": [edge]})
    assert Graph(["a", "b"], [["a", "b"]]) == Graph(["a", "b"], [("a", "b")])


def test_names_that_printed_words_cannot_carry():
    # "a^-1" would print as the inverse of a, and "b c" as the product b c
    with pytest.raises(ValueError, match="without whitespace or '\\^'"):
        Graph(["a", "a^-1"], [("a", "a^-1")])
    with pytest.raises(ValueError, match="without whitespace"):
        Graph(["b", "c", "b c"], [])
    for name in ("b\tc", " b", "b\n", "^"):
        with pytest.raises(ValueError, match="without whitespace"):
            Graph(["a", name])
    # "1" would read back as the identity
    with pytest.raises(ValueError, match="identity"):
        Graph(["1", "a"])


def test_json_roundtrip(tmp_path):
    g = p3()
    d = g.to_dict()
    assert d == {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}
    assert Graph.from_dict(d) == g

    path = tmp_path / "graph.json"
    path.write_text(json.dumps(d))
    assert load_graph(path) == g

    path.write_text("{nope")
    with pytest.raises(ValueError):
        load_graph(path)


def test_equality_and_repr():
    assert p3() == p3()
    assert p3() != Graph(["a", "b", "c"], [("a", "b")])
    assert "Graph" in repr(p3())
