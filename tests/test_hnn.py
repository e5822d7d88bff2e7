import random

import pytest

from oracles import hnn_element
from raag import Element, Graph, parse
from raag.hnn import decompose

PATH_ATB = Graph(["a", "t", "b"], [("a", "t"), ("t", "b")])
FREE_AT = Graph(["a", "t"], [])
EDGE_ISO = Graph(["a", "b", "t"], [("a", "b")])


def test_decompose_examples():
    # the pinch t a t^-1 collapses during canonicalisation already
    g = parse(PATH_ATB, "t a t^-1")
    hw = decompose(g, 1)
    assert hw.n == 0 and hw.head == parse(PATH_ATB, "a")

    # t commutes with a and b, so the runs merge into one t between them
    g = parse(PATH_ATB, "a t^2 b t^-1")
    hw = decompose(g, 1)
    assert hnn_element(hw, 1) == g
    assert hw.head == parse(PATH_ATB, "a")
    assert hw.syllables == ((1, parse(PATH_ATB, "b")),)

    # canonical form pulls the commuting letters in front of the runs,
    # so recomputing the syllables of the canonical word is stable
    hw2 = decompose(hnn_element(hw, 1), 1)
    assert hnn_element(hw2, 1) == g


def test_decompose_roundtrip_random():
    rng = random.Random(321)
    for graph in (PATH_ATB, FREE_AT, EDGE_ISO):
        for pivot in range(graph.n):
            for _ in range(60):
                letters = tuple(
                    rng.choice([1, -1]) * rng.randrange(1, graph.n + 1)
                    for _ in range(rng.randrange(0, 10))
                )
                g = Element(graph, letters)
                hw = decompose(g, pivot)
                assert hnn_element(hw, pivot) == g
                # exponent sum at the pivot is just the letter count there
                assert sum(a for a, _ in hw.syllables) == sum(
                    1 if lt == pivot + 1 else -1 if lt == -(pivot + 1) else 0
                    for lt in g.letters
                )


def test_decompose_refuses_a_pivot_outside_the_graph():
    g = parse(PATH_ATB, "a t")
    for pivot in (-1, 3, 1.0):
        with pytest.raises(ValueError, match="not a vertex index"):
            decompose(g, pivot)
