"""Conjugacy decisions with verified witnesses and exact centralizers."""

import random

import numpy as np
import pytest

from oracles import (
    NotInBall,
    Undecided,
    ball_oracle_conjugate,
    cayley_ball,
    factor_loop_conjugate,
    factor_loop_servatius,
    fold_centralizer_in_special,
    hnn_conjugate_under,
    in_centralizer_shape,
    reference_cyclic_class,
    servatius_centralizer,
    subgroup_ball,
    union_pure_factor_supports,
)
from raag import conjugacy
from raag.graphs import Graph
from raag.words import Element, gen, parse
from raag.conjugacy import (
    Conjugate,
    NotConjugate,
    centralizer,
    centralizer_in_special,
    conjugate,
    conjugate_under,
)

GRAPHS = {
    "f2": Graph(["a", "b"]),
    "k2": Graph(["a", "b"], [("a", "b")]),
    "f3": Graph(["a", "b", "c"]),
    "p3": Graph(["a", "b", "c"], [("a", "b"), ("b", "c")]),
    "edge_iso": Graph(["a", "b", "c"], [("a", "b")]),
    "tri": Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]),
    "p4": Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]),
    "c5": Graph(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
    ),
}


def _random_graph(seed, n, density):
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return Graph(names, edges)


GRAPHS["rand8"] = _random_graph(8, 8, 0.4)
# seeded G(n, 1/2); neither is a join
GRAPHS["half6"] = _random_graph(6, 6, 0.5)
GRAPHS["half8"] = _random_graph(8, 8, 0.5)
# a path a-b-c-d with a central vertex z
GRAPHS["cone_p4"] = Graph(
    ["a", "b", "c", "d", "z"],
    [("a", "b"), ("b", "c"), ("c", "d")] + [(v, "z") for v in "abcd"],
)
# the join of the paths a-b-c-d and x-y-z: A(P4) x A(P3)
GRAPHS["p4_join_p3"] = Graph(
    ["a", "b", "c", "d", "x", "y", "z"],
    [("a", "b"), ("b", "c"), ("c", "d"), ("x", "y"), ("y", "z")]
    + [(u, v) for u in "abcd" for v in "xyz"],
)


def rand_word(rng, graph, length):
    letters = tuple(
        rng.choice((1, -1)) * rng.randrange(1, graph.n + 1) for _ in range(length)
    )
    return Element(graph, letters)


# ---------------------------------------------------------------------------
# centralizers


CENTRALIZER_CASES = [
    ("f2", "a b", ["a b"]),
    ("f2", "a", ["a"]),
    ("f2", "a b a^-1", ["a b a^-1"]),
    ("f2", "a^2", ["a"]),
    ("k2", "a b", ["a", "b"]),
    ("k2", "a", ["a", "b"]),
    ("p3", "a c", ["a c", "b"]),
    ("p3", "b", ["a", "b", "c"]),
    ("p3", "a b", ["a", "b"]),
    ("p3", "c a c", ["b", "c a c"]),
    ("p3", "b^2 a", ["a", "b"]),
    ("edge_iso", "c", ["c"]),
    ("edge_iso", "a", ["a", "b"]),
    ("edge_iso", "a b", ["a", "b"]),
    ("edge_iso", "c a", ["c a"]),
    ("f3", "a b a^-1", ["a b a^-1"]),
    ("f3", "a b c", ["a b c"]),
    ("tri", "a b^-1 c", ["a", "b", "c"]),
    # two pure factors with a non-empty link; C5 has no triangle, so no
    # element there has both
    ("tri", "a b^2", ["a", "b", "c"]),
    ("p3", "a c a c", ["a c", "b"]),
    ("p4", "a c d^-1 a b^-1 c d^-1 b^-1", ["a c d^-1 b^-1"]),
    ("c5", "a^2", ["a", "b", "e"]),
    ("c5", "a b^2", ["a", "b"]),
    ("c5", "a c^-1 a c^-1", ["a c^-1", "b"]),
    ("c5", "d a c d^-1", ["d a c d^-1", "d b d^-1"]),
]


@pytest.mark.parametrize("gname,word,expected", CENTRALIZER_CASES)
def test_centralizer_pinned(gname, word, expected):
    graph = GRAPHS[gname]
    g = parse(graph, word)
    gens = centralizer(g)
    assert gens.complete
    assert sorted(str(x) for x in gens) == expected
    for x in gens:
        assert x * g == g * x


def test_centralizer_of_identity():
    graph = GRAPHS["p3"]
    gens = centralizer(Element(graph))
    assert gens.complete
    assert sorted(str(x) for x in gens) == ["a", "b", "c"]


def test_centralizer_never_decides_conjugacy(monkeypatch):
    from raag import conjugacy

    def refuse(*args, **kwargs):
        raise AssertionError("centralizer called the conjugacy decision")

    monkeypatch.setattr(conjugacy, "conjugate_under", refuse)
    monkeypatch.setattr(conjugacy, "conjugate", refuse)
    monkeypatch.setattr(conjugacy, "_conjugate_cores", refuse)
    rng = random.Random(7)
    for gname in ("p4", "c5"):
        graph = GRAPHS[gname]
        for _ in range(20):
            g = rand_word(rng, graph, rng.randrange(1, 12))
            gens = centralizer(g)
            assert gens.complete
            assert all(x * g == g * x for x in gens)


def test_centralizer_matches_ball():
    rng = random.Random(20260822)
    # a smaller slack finds fewer elements of <gens>, so it only makes the
    # equality harder to meet; it keeps the sweep short on five vertices
    slacks = {"c5": 2, "p4": 2}
    for gname in ("f2", "k2", "p3", "edge_iso", "f3", "c5", "p4"):
        graph = GRAPHS[gname]
        ball = cayley_ball(graph, 4)
        for _ in range(6):
            g = rand_word(rng, graph, rng.randrange(1, 5))
            gens = centralizer(g)
            assert gens.complete
            brute = {w for w in ball if w * g == g * w}
            sweep = subgroup_ball(graph, list(gens), 4, slack=slacks.get(gname, 6))
            got = {w for w in sweep if len(w) <= 4}
            assert got == brute


def test_centralizer_in_special_restricts():
    graph = GRAPHS["p3"]
    g = parse(graph, "b")
    gens = centralizer_in_special(graph, frozenset({0, 1}), (g,))
    assert sorted(str(x) for x in gens) == ["a", "b"]
    for x in gens:
        assert x.in_special({0, 1})


@pytest.mark.parametrize(
    "elems,expected",
    [(["b"], ["a"]), (["b", "c"], []), (["c a^2 c^-1"], []), (["b a^3 b^-1"], ["a"])],
)
def test_centralizer_in_one_vertex(elems, expected):
    graph = GRAPHS["p3"]
    gens = centralizer_in_special(graph, {0}, [parse(graph, w) for w in elems])
    assert gens.complete
    assert [str(x) for x in gens] == expected


SET_CENTRALIZER_CASES = [
    ("c5", "a, c", "b"),
    ("c5", "a c, c a", "b"),
    ("c5", "a, b", "a, b"),
    ("c5", "a c, b", "a c, b"),
    ("c5", "b a b^-1, b e b^-1", "a, b e b^-1"),
    ("cone_p4", "a, c", "b, z"),
    ("p4_join_p3", "a x, c", "b, x, y"),
]


@pytest.mark.parametrize("gname,elems,expected", SET_CENTRALIZER_CASES)
def test_set_centralizer_pinned(gname, elems, expected):
    graph = GRAPHS[gname]
    elems = [parse(graph, w) for w in elems.split(", ")]
    gens = centralizer_in_special(graph, range(graph.n), elems)
    assert gens.complete
    assert ", ".join(sorted(str(x) for x in gens)) == expected
    assert all(x * y == y * x for x in gens for y in elems)


@pytest.mark.parametrize("gname", ["c5", "p4", "half6", "half8"])
def test_set_centralizer_matches_ball(gname):
    graph = GRAPHS[gname]
    rng = random.Random(2026)
    ball = cayley_ball(graph, 4)
    for k in range(24):
        elems = [rand_word(rng, graph, rng.randrange(1, 5)) for _ in range(rng.randrange(2, 4))]
        # the whole group first, then proper special subgroups, the set
        # still drawn from the whole group
        verts = range(graph.n) if k < 12 else rng.sample(range(graph.n), rng.randrange(1, graph.n))
        gens = centralizer_in_special(graph, verts, elems)
        assert gens.complete
        brute = {w for w in ball if w.in_special(verts) and all(w * y == y * w for y in elems)}
        # a smaller slack finds fewer elements of <gens>, so it only makes
        # the equality harder to meet
        got = subgroup_ball(graph, list(gens), 4, slack=2)
        assert got == brute, (sorted(verts), [str(y) for y in elems])


def _set_queries(rng, graph, count):
    """(verts, elems): a random proper special subgroup of 3 or more
    vertices and 2-3 words of length 8-50, drawn from the whole group in
    the first half of the queries and from the subgroup in the second."""
    for k in range(count):
        verts = rng.sample(range(graph.n), rng.randrange(3, graph.n))
        letters = range(1, graph.n + 1) if k < count // 2 else [v + 1 for v in verts]
        elems = [
            Element(graph, [rng.choice((1, -1)) * rng.choice(letters) for _ in range(rng.randrange(8, 51))])
            for _ in range(rng.randrange(2, 4))
        ]
        yield verts, elems


def test_set_centralizer_contains_fold_oracle():
    # the fold oracle peels HNN pivots, a route that shares nothing with
    # the shape cuts past Servatius' theorem itself
    from raag.conjugacy import _centralizer_shape

    rng = random.Random(11)
    half8 = _random_graph(11, 8, 0.5)
    cases = [(half8, verts, elems) for verts, elems in _set_queries(rng, half8, 100)]
    # the long words above mostly leave vertices or nothing; short words on
    # small graphs keep long roots
    for seed in range(20):
        graph = _random_graph(seed, rng.randrange(2, 7), rng.random())
        for _ in range(15):
            verts = rng.sample(range(graph.n), rng.randrange(1, graph.n + 1))
            elems = [rand_word(rng, graph, rng.randrange(0, 14)) for _ in range(rng.randrange(1, 4))]
            cases.append((graph, verts, elems))
    nontrivial = 0
    for graph, verts, elems in cases:
        gens = centralizer_in_special(graph, verts, elems)
        shape = _centralizer_shape(graph, verts, elems)
        assert all(in_centralizer_shape(x, *shape) for x in gens)
        assert all(x.in_special(verts) and all(x * y == y * x for y in elems) for x in gens)
        want = fold_centralizer_in_special(graph, verts, elems)
        assert all(in_centralizer_shape(x, *shape) for x in want), (graph, verts, [str(y) for y in elems])
        nontrivial += bool(gens)
    assert nontrivial >= 100, nontrivial


def test_set_centralizer_never_decomposes(monkeypatch):
    from raag import hnn

    def refuse(*args, **kwargs):
        raise AssertionError("set centralizer split along a pivot")

    monkeypatch.setattr(hnn, "decompose", refuse)
    graph = GRAPHS["half8"]
    for verts, elems in _set_queries(random.Random(5), graph, 20):
        gens = centralizer_in_special(graph, verts, elems)
        assert all(x.in_special(verts) and all(x * y == y * x for y in elems) for x in gens)


def test_centralizer_matches_servatius_formula():
    # centralizer is the one-element fold; the oracle reads the theorem off
    # the Servatius data directly, generators in the same order
    rng = random.Random(41)
    for gname in ("f2", "p3", "c5", "cone_p4", "p4_join_p3", "half8"):
        graph = GRAPHS[gname]
        for length in [0] + [rng.randrange(1, 20) for _ in range(15)]:
            g = rand_word(rng, graph, length)
            assert list(centralizer(g)) == servatius_centralizer(graph, g)


_V8 = [f"v{i}" for i in range(8)]
# F2 x F2, a and c commuting with b and d; the complement of the path
# v0 - v1 - ... - v7, whose non-commutation graph is that path
C4 = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
CO_P8 = Graph(_V8, [(u, v) for i, u in enumerate(_V8) for v in _V8[i + 2:]])


@pytest.mark.parametrize("graph", [C4, CO_P8], ids=["c4", "co_p8"])
def test_pure_factors_are_the_retractions(graph):
    rng = random.Random(27)
    several = single = 0
    for _ in range(200):
        core = rand_word(rng, graph, rng.randrange(1, 40)).cyclic_normal_form()[1]
        comps = conjugacy._pure_factor_supports(graph, core.support())
        assert comps == union_pure_factor_supports(graph, core.support())
        factors = conjugacy._pure_factors(core, comps)
        assert [u for u, _ in factors] == comps
        for u, factor in factors:
            assert factor.letters == core.retract(u).letters, (core, u)
        if len(factors) == 1:
            # a core with one component is its own factor, not a copy
            assert factors[0][1] is core
            single += 1
        several += len(factors) > 1
    assert several >= 100 and single >= 10


def test_primitive_root_of_a_power_and_of_a_root():
    f2, c4 = GRAPHS["f2"], C4
    for graph, word in ((f2, "a b^2 a^-1 b"), (c4, "a c^-1 a"), (c4, "b d b^-1 d")):
        r = parse(graph, word)
        assert conjugacy._primitive_root(r**3) == r
        assert conjugacy._primitive_root(r) is r
    # vertex counts with gcd 1 rule out every e > 1 unread; with gcd 2 the
    # square root is tried, fails, and p is its own root
    p = parse(f2, "a^2 b")
    assert conjugacy._primitive_root(p) is p
    p = parse(f2, "a b a^-1 b^-1")
    assert conjugacy._primitive_root(p) is p


def test_set_centralizer_refuses_foreign_input():
    p3, f2 = GRAPHS["p3"], GRAPHS["f2"]
    b = parse(p3, "b")
    # an index outside the graph used to give the empty list
    with pytest.raises(ValueError, match="-1 is not a vertex index"):
        centralizer_in_special(p3, {-1}, [b])
    with pytest.raises(ValueError, match="3 is not a vertex index"):
        centralizer_in_special(p3, {0, 3}, [b])
    with pytest.raises(ValueError, match="1.0 is not a vertex index"):
        centralizer_in_special(f2, [1.0], [parse(f2, "a")])
    with pytest.raises(ValueError, match="different graphs"):
        centralizer_in_special(p3, {0, 1}, [b, parse(f2, "a")])


# ---------------------------------------------------------------------------
# conjugacy of pairs


CONJUGATE_CASES = [
    ("f2", "a b", "b a", "a^-1"),
    ("p3", "a b c", "c b a", "a^-1"),
    ("p3", "a c", "c a", "a^-1"),
    ("k2", "a b", "b a", "1"),
    ("tri", "a b c", "c b a", "1"),
    ("f2", "a b a b", "b a b a", "a^-1"),
    ("f3", "a b c a", "c a a b", "b^-1 a^-1"),
]

NOT_CONJUGATE_CASES = [
    ("f2", "a b a^-1 b^-1", "b a b^-1 a^-1", "cyclic-normal-form"),
    ("f2", "a", "b", "abelianization"),
    ("f2", "a", "a^-1", "abelianization"),
    ("f3", "b c b^-1 c^-1 a", "a", "cyclic-support"),
    ("f2", "1", "a b a^-1 b^-1", "identity"),
    # equal length, support and abelianization; no cyclic cut matches
    ("c5", "d b d^-1 a d e^-1", "d a b e^-1", "cyclic-normal-form"),
]


@pytest.mark.parametrize("gname,gw,hw,sw", CONJUGATE_CASES)
def test_conjugate_pinned(gname, gw, hw, sw):
    graph = GRAPHS[gname]
    g, h = parse(graph, gw), parse(graph, hw)
    res = conjugate(g, h)
    assert isinstance(res, Conjugate)
    assert str(res.conjugator) == sw
    assert res.conjugator * g * res.conjugator.inverse() == h


@pytest.mark.parametrize("gname,gw,hw,reason", NOT_CONJUGATE_CASES)
def test_not_conjugate_pinned(gname, gw, hw, reason):
    graph = GRAPHS[gname]
    res = conjugate(parse(graph, gw), parse(graph, hw))
    assert isinstance(res, NotConjugate)
    assert res.reason == reason


def test_conjugate_recovers_constructed_pairs():
    rng = random.Random(97)
    for gname in ("f2", "k2", "p3", "edge_iso", "f3"):
        graph = GRAPHS[gname]
        for _ in range(15):
            g = rand_word(rng, graph, rng.randrange(1, 5))
            s = rand_word(rng, graph, rng.randrange(4))
            h = s * g * s.inverse()
            res = conjugate(g, h)
            assert isinstance(res, Conjugate)
            assert res.conjugator * g * res.conjugator.inverse() == h
            back = conjugate(h, g)
            assert isinstance(back, Conjugate)


def test_conjugate_agrees_with_ball_oracle():
    rng = random.Random(101)
    for gname in ("f2", "k2", "p3", "edge_iso", "f3"):
        graph = GRAPHS[gname]
        for _ in range(12):
            g = rand_word(rng, graph, rng.randrange(5))
            h = rand_word(rng, graph, rng.randrange(5))
            res = conjugate(g, h)
            assert isinstance(res, (Conjugate, NotConjugate))
            if isinstance(res, Conjugate):
                s = res.conjugator
                assert s * g * s.inverse() == h
            oracle = ball_oracle_conjugate(g, h, 5)
            if isinstance(oracle, Conjugate):
                assert isinstance(res, Conjugate)


def test_conjugate_agrees_with_orbit_oracle():
    # a shuffle keeps the abelianization, so every pair reaches the cuts
    rng = random.Random(2026)
    for gname in ("c5", "rand8"):
        graph = GRAPHS[gname]
        memo = {}
        for _ in range(1500):
            g = rand_word(rng, graph, 8)
            letters = list(g.letters)
            rng.shuffle(letters)
            h = Element(graph, letters)
            res = conjugate(g, h)
            assert isinstance(res, (Conjugate, NotConjugate))
            want = reference_cyclic_class(
                graph.adj, g.letters, memo
            ) == reference_cyclic_class(graph.adj, h.letters, memo)
            assert isinstance(res, Conjugate) == want, (gname, str(g), str(h))
            if want:
                s = res.conjugator
                assert s * g * s.inverse() == h


def _special_word(rng, graph, verts, length):
    vs = sorted(verts)
    return Element(
        graph, [rng.choice((1, -1)) * (rng.choice(vs) + 1) for _ in range(length)]
    )


def test_conjugate_under_consistent_with_conjugate_on_long_words():
    # the conjugator-coset decision against the cut decision, far beyond any ball
    rng = random.Random(4242)
    for gname in ("p4", "c5", "rand8"):
        graph = GRAPHS[gname]
        for length in (50, 100, 200):
            verts = frozenset(rng.sample(range(graph.n), rng.randrange(1, graph.n)))
            g = rand_word(rng, graph, length)
            s = _special_word(rng, graph, verts, 10)
            h = s * g * s.inverse()
            assert isinstance(conjugate(g, h), Conjugate)
            res = conjugate_under(g, h, verts)
            assert isinstance(res, Conjugate)
            assert res.conjugator.in_special(verts)
            # same length, support and abelianization, usually not conjugate
            core = g.cyclic_normal_form()[1].letters
            i = next(
                i for i in range(len(core) - 1)
                if abs(core[i + 1]) - 1 in graph.dependents[abs(core[i]) - 1]
            )
            swapped = core[:i] + core[i + 1:i + 2] + core[i:i + 1] + core[i + 2:]
            shuffled = list(h.letters)
            rng.shuffle(shuffled)
            for k in (s * Element(graph, swapped) * s.inverse(), Element(graph, shuffled)):
                if isinstance(conjugate(g, k), NotConjugate):
                    assert isinstance(conjugate_under(g, k, verts), NotConjugate)


def test_conjugacy_is_transitive_on_witnesses():
    graph = GRAPHS["f2"]
    g = parse(graph, "a b")
    h = parse(graph, "b a")
    k = parse(graph, "b^-1 a b b")
    r1 = conjugate(g, h)
    r2 = conjugate(h, k)
    assert isinstance(r1, Conjugate) and isinstance(r2, Conjugate)
    s = r2.conjugator * r1.conjugator
    assert s * g * s.inverse() == k


# ---------------------------------------------------------------------------
# conjugacy under a special subgroup


def test_conjugate_under_pinned():
    graph = GRAPHS["f2"]
    b = parse(graph, "b")
    target = parse(graph, "a b a^-1")
    res = conjugate_under(b, target, {0})
    assert isinstance(res, Conjugate)
    assert str(res.conjugator) == "a"
    res2 = conjugate_under(b, target, {1})
    assert isinstance(res2, NotConjugate)
    res3 = conjugate_under(b, b, frozenset())
    assert isinstance(res3, Conjugate) and res3.conjugator.is_identity()
    res4 = conjugate_under(b, parse(graph, "a^2"), {0})
    assert isinstance(res4, NotConjugate)
    assert res4.reason == "abelianization"
    res5 = conjugate_under(b, parse(graph, "a b a^-1"), frozenset())
    assert isinstance(res5, NotConjugate)
    assert res5.reason == "trivial-subgroup"


def test_conjugate_under_recovers_constructed_pairs():
    rng = random.Random(113)
    for gname in ("f3", "p3", "edge_iso"):
        graph = GRAPHS[gname]
        for _ in range(10):
            verts = frozenset(rng.sample(range(graph.n), rng.randrange(1, graph.n + 1)))
            g = rand_word(rng, graph, rng.randrange(1, 4))
            letters = tuple(
                rng.choice((1, -1)) * (rng.choice(sorted(verts)) + 1)
                for _ in range(rng.randrange(3))
            )
            s = Element(graph, letters)
            h = s * g * s.inverse()
            res = conjugate_under(g, h, verts)
            assert isinstance(res, Conjugate)
            assert res.conjugator.in_special(verts)
            assert res.conjugator * g * res.conjugator.inverse() == h


def test_conjugate_under_matches_enumeration():
    rng = random.Random(127)
    for gname in ("f3", "p3"):
        graph = GRAPHS[gname]
        sub_balls = {}
        for _ in range(10):
            verts = frozenset(rng.sample(range(graph.n), rng.randrange(1, graph.n + 1)))
            if verts not in sub_balls:
                gens = [Element(graph, (v + 1,)) for v in sorted(verts)]
                sub_balls[verts] = subgroup_ball(graph, gens, 4, slack=4)
            g = rand_word(rng, graph, rng.randrange(4))
            h = rand_word(rng, graph, rng.randrange(4))
            res = conjugate_under(g, h, verts)
            found = any(s * g * s.inverse() == h for s in sub_balls[verts])
            if found:
                assert isinstance(res, Conjugate)
            if isinstance(res, Conjugate):
                s = res.conjugator
                assert s.in_special(verts)
                assert s * g * s.inverse() == h
    # pairs conjugate by a word in <S> or by any word; every conjugator in
    # <S> of length <= 5 is in the ball, so a pair the ball conjugates must
    # be decided Conjugate
    rng = random.Random(314)
    found_any = refused = 0
    for gname in ("f3", "p3", "p4", "c5"):
        graph = GRAPHS[gname]
        balls = {}
        for g, h, verts in _under_queries(rng, graph, 60, 3):
            if verts not in balls:
                gens = [Element(graph, (v + 1,)) for v in sorted(verts)]
                balls[verts] = subgroup_ball(graph, gens, 5)
            res = conjugate_under(g, h, verts)
            _check_under(res, g, h, verts)
            if any(x * g * x.inverse() == h for x in balls[verts]):
                found_any += 1
                assert isinstance(res, Conjugate), (gname, str(g), str(h), sorted(verts))
            elif isinstance(res, NotConjugate):
                refused += 1
    assert found_any >= 80 and refused >= 40


@pytest.mark.parametrize(
    "gname,gw,hw,verts,reason",
    [
        ("f3", "b", "a b a^-1", "c", "retraction"),
        ("f2", "a^-1", "b a^-1 b^-1", "a", "double-coset"),
        # the conjugators b (b a)^n never lie in <a>
        ("f2", "b a", "b^2 a b^-1", "a", "centralizer-coset"),
    ],
)
def test_conjugate_under_negative_reasons(gname, gw, hw, verts, reason):
    graph = GRAPHS[gname]
    g, h = parse(graph, gw), parse(graph, hw)
    s = frozenset(graph.index[v] for v in verts.split(","))
    assert isinstance(conjugate(g, h), Conjugate)
    res = conjugate_under(g, h, s)
    assert isinstance(res, NotConjugate)
    assert res.reason == reason


@pytest.mark.parametrize(
    "gname,gw,hw,verts,expected",
    [
        # x0 from conjugate lies outside <S>, and the roots have no exponent
        # sum outside Z, so the root exponent (here 1 or -1) is scanned for
        ("f2", "b^2 a^-2 b^-2 a^2", "a^2 b^2 a^-2 b^-2", "a", "a^2"),
        ("f3", "a^3 c^-2 a^-3 c^2", "c^3 a^3 c^-2 a^-3 c^-1", "c", "c^3"),
        ("p4", "a b d^-1 a^-1 b^-1 d", "a d^-1 a^-1 b^-1 d b", "b,c", "b^-1"),
    ],
)
def test_conjugate_under_scanned_exponent(gname, gw, hw, verts, expected):
    graph = GRAPHS[gname]
    g, h = parse(graph, gw), parse(graph, hw)
    s = frozenset(graph.index[v] for v in verts.split(","))
    assert not conjugate(g, h).conjugator.in_special(s)
    res = conjugate_under(g, h, s)
    assert isinstance(res, Conjugate)
    assert str(res.conjugator) == expected
    assert res.conjugator * g * res.conjugator.inverse() == h


def test_conjugate_under_half8_pin():
    # the HNN route's coset sweep gives up here; killing S does not
    # separate the pair, and no conjugator lies in the radius-7 ball of <S>
    graph = GRAPHS["half8"]
    s = frozenset({2, 6})
    g = parse(graph, "v3")
    h = parse(graph, "v0 v2^-1 v3 v2 v0^-1")
    rest = frozenset(range(graph.n)) - s
    assert g.retract(rest) == h.retract(rest)
    assert isinstance(conjugate(g, h), Conjugate)
    res = conjugate_under(g, h, s)
    assert isinstance(res, NotConjugate)
    assert res.reason == "double-coset"
    ball = subgroup_ball(graph, [gen(graph, "v2"), gen(graph, "v6")], 7)
    assert not any(x * g * x.inverse() == h for x in ball)


def _under_queries(rng, graph, count, length):
    """(g, h, S) with h = t * g * t^-1, t a word in <S> for every third
    query and any word otherwise, so every pair is conjugate in the group."""
    for k in range(count):
        verts = frozenset(rng.sample(range(graph.n), rng.randrange(1, graph.n)))
        g = rand_word(rng, graph, rng.randrange(1, length + 1))
        if k % 3 == 0:
            t = _special_word(rng, graph, verts, rng.randrange(1, length + 1))
        else:
            t = rand_word(rng, graph, rng.randrange(1, length + 1))
        yield g, t * g * t.inverse(), verts


def _check_under(res, g, h, verts):
    assert isinstance(res, (Conjugate, NotConjugate))
    if isinstance(res, Conjugate):
        s = res.conjugator
        assert s.in_special(verts)
        assert s * g * s.inverse() == h


def test_conjugate_under_agrees_with_hnn_oracle():
    # the paper's HNN route, wherever its bounded coset sweep decides
    rng = random.Random(2718)
    decided = undecided = 0
    outcomes = set()
    for gname in ("f3", "p3", "edge_iso", "p4", "c5", "rand8", "half6"):
        graph = GRAPHS[gname]
        for g, h, verts in _under_queries(rng, graph, 45, 7):
            res = conjugate_under(g, h, verts)
            _check_under(res, g, h, verts)
            oracle = hnn_conjugate_under(g, h, verts)
            if isinstance(oracle, Undecided):
                undecided += 1
                continue
            decided += 1
            assert isinstance(res, Conjugate) == isinstance(oracle, Conjugate), (
                gname, str(g), str(h), sorted(verts)
            )
            outcomes.add(type(res))
    assert outcomes == {Conjugate, NotConjugate}
    assert decided >= 300 and undecided <= 5


@pytest.mark.parametrize("gname", ["p4", "c5", "rand8", "half8", "p4_join_p3"])
def test_conjugate_under_finds_long_constructed_pairs(gname):
    graph = GRAPHS[gname]
    rng = random.Random(1618)
    for length in (50, 100, 200, 500):
        for _ in range(2):
            verts = frozenset(rng.sample(range(graph.n), rng.randrange(1, graph.n)))
            g = rand_word(rng, graph, length)
            s = _special_word(rng, graph, verts, length // 5)
            h = s * g * s.inverse()
            res = conjugate_under(g, h, verts)
            assert isinstance(res, Conjugate)
            _check_under(res, g, h, verts)


def test_conjugate_under_independent_of_x0(monkeypatch):
    # any conjugator x0 * z, z in C(g), must lead to the same verdict; this
    # moves x0 along the root and link coordinates of the centralizer
    from raag import conjugacy

    rng = random.Random(577)
    exact = conjugacy._conjugate_cores
    shift = {}

    def shifted(g, h):
        res, parts = exact(g, h)
        if isinstance(res, Conjugate):
            res = Conjugate(res.conjugator * shift["z"])
            assert res.conjugator * g * res.conjugator.inverse() == h
        return res, parts

    for gname in ("p3", "p4", "c5", "cone_p4", "p4_join_p3", "half8"):
        graph = GRAPHS[gname]
        for g, h, verts in _under_queries(rng, graph, 30, 6):
            want = conjugate_under(g, h, verts)
            gens = centralizer(g)
            z = Element(graph)
            for _ in range(4):
                z = z * rng.choice(gens) ** rng.choice((-2, -1, 1, 2))
            shift["z"] = z
            with monkeypatch.context() as m:
                m.setattr(conjugacy, "_conjugate_cores", shifted)
                res = conjugate_under(g, h, verts)
            _check_under(res, g, h, verts)
            assert type(res) is type(want), (gname, str(g), str(h), sorted(verts), str(z))


def test_conjugate_under_never_folds(monkeypatch):
    from raag import conjugacy

    def refuse(*args, **kwargs):
        raise AssertionError("conjugate_under computed a set centralizer")

    monkeypatch.setattr(conjugacy, "centralizer_in_special", refuse)
    rng = random.Random(11)
    seen = set()
    for gname in ("p4", "c5", "rand8"):
        graph = GRAPHS[gname]
        for g, h, verts in _under_queries(rng, graph, 30, 12):
            res = conjugate_under(g, h, verts)
            _check_under(res, g, h, verts)
            seen.add(type(res))
    assert seen == {Conjugate, NotConjugate}


# ---------------------------------------------------------------------------
# the full factor loop as reference


K8 = Graph(_V8, [(u, v) for i, u in enumerate(_V8) for v in _V8[i + 1:]])
CENSUS_GRAPHS = {
    "f3": GRAPHS["f3"], "p4": GRAPHS["p4"], "c5": GRAPHS["c5"],
    "half8": GRAPHS["half8"], "k8": K8, "c4": C4, "co_p8": CO_P8,
}


def _census_queries(rng, graph):
    """(g, h, S) at each length 0..40: h a conjugate of g, by a word in
    <S> every other time, then a shuffle of g's letters, which keeps the
    abelianization; S any subset, the empty set and everything included."""
    for length in range(41):
        g = rand_word(rng, graph, length)
        for shuffle in (False, True):
            verts = frozenset(rng.sample(range(graph.n), rng.randrange(graph.n + 1)))
            if shuffle:
                letters = list(g.letters)
                rng.shuffle(letters)
                h = Element(graph, letters)
            else:
                t = (_special_word(rng, graph, verts, rng.randrange(6)) if verts and length % 2
                     else rand_word(rng, graph, rng.randrange(6)))
                h = t * g * t.inverse()
            yield g, h, verts


def _census(queries):
    return [
        (conjugate(g, h), conjugate_under(g, h, verts), [x.letters for x in centralizer(g)])
        for g, h, verts in queries
    ]


def test_conjugacy_matches_the_factor_loop(monkeypatch):
    # every answer letter for letter as the full factor loop gives it, with
    # g's Servatius data computed again from scratch
    rng = random.Random(3101)
    queries = [q for graph in CENSUS_GRAPHS.values() for q in _census_queries(rng, graph)]
    got = _census(queries)
    with monkeypatch.context() as m:
        m.setattr(conjugacy, "_conjugate_cores", lambda g, h: (factor_loop_conjugate(g, h), None))
        m.setattr(conjugacy, "_servatius", lambda y, parts=None: factor_loop_servatius(y))
        want = _census(queries)
    for (g, h, verts), a, b in zip(queries, got, want):
        assert a == b, (str(g), str(h), sorted(verts))
    seen = {
        (type(res).__name__, getattr(res, "reason", None))
        for answers in got for res in answers[:2]
    }
    assert {
        ("Conjugate", None), ("NotConjugate", "cyclic-normal-form"),
        ("NotConjugate", "double-coset"), ("NotConjugate", "retraction"),
    } <= seen, seen


def test_equal_cores_split_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("equal cores were split into pure factors")

    rng = random.Random(3102)
    pairs = []
    for graph in CENSUS_GRAPHS.values():
        for _ in range(40):
            core = rand_word(rng, graph, rng.randrange(1, 30)).cyclic_normal_form()[1]
            s, t = rand_word(rng, graph, 4), rand_word(rng, graph, 4)
            g, h = s * core * s.inverse(), t * core * t.inverse()
            if g != h and g.cyclic_normal_form()[1] == h.cyclic_normal_form()[1]:
                pairs.append((g, h))
    assert len(pairs) >= 100
    monkeypatch.setattr(conjugacy, "_pure_factors", refuse)
    monkeypatch.setattr(conjugacy, "_factor_conjugator", refuse)
    for g, h in pairs:
        res = conjugate(g, h)
        assert isinstance(res, Conjugate)
        assert res.conjugator * g * res.conjugator.inverse() == h


def test_conjugate_under_reduces_each_element_once(monkeypatch):
    # conjugate_under reads C(g) off the cyclic normal form that deciding
    # conjugacy computed for g, and computes no other
    calls = []
    reduce = Element.cyclic_normal_form

    def counted(self):
        calls.append(self)
        return reduce(self)

    monkeypatch.setattr(Element, "cyclic_normal_form", counted)
    rng = random.Random(3103)
    positives = 0
    for gname in ("p4", "c5", "half8"):
        graph = GRAPHS[gname]
        for g, h, verts in _under_queries(rng, graph, 40, 12):
            calls.clear()
            res = conjugate_under(g, h, verts)
            if isinstance(res, Conjugate) and g != h:
                assert calls == [g, h]
                positives += 1
    assert positives >= 30


# ---------------------------------------------------------------------------
# supporting machinery


def test_ball_oracle_results():
    graph = GRAPHS["f2"]
    res = ball_oracle_conjugate(parse(graph, "a b"), parse(graph, "b a"), 2)
    assert isinstance(res, Conjugate)
    assert str(res.conjugator) == "a^-1"
    miss = ball_oracle_conjugate(parse(graph, "a"), parse(graph, "b"), 3)
    assert isinstance(miss, NotInBall)
    assert miss.radius == 3
    same = ball_oracle_conjugate(parse(graph, "a"), parse(graph, "a"), 0)
    assert isinstance(same, Conjugate)
    assert same.conjugator.is_identity()


def test_cayley_ball_sizes():
    graph = GRAPHS["f2"]
    assert len(cayley_ball(graph, 0)) == 1
    assert len(cayley_ball(graph, 1)) == 5
    assert len(cayley_ball(graph, 2)) == 17
    tri = GRAPHS["tri"]
    # free abelian of rank 3: ball sizes are coordination sequences of Z^3
    assert len(cayley_ball(tri, 1)) == 7
    assert len(cayley_ball(tri, 2)) == 25


def test_subgroup_ball_identity_only():
    graph = GRAPHS["f2"]
    ball = subgroup_ball(graph, [], 3)
    assert ball == {Element(graph)}


def test_conjugate_refuses_elements_over_different_graphs():
    # the same letters over Z^2 and F2: "b a" and "a b" used to come back
    # NotConjugate("cyclic-normal-form")
    f2, k2 = GRAPHS["f2"], GRAPHS["k2"]
    with pytest.raises(ValueError, match="different graphs"):
        conjugate(parse(f2, "b a"), parse(k2, "a b"))
    with pytest.raises(ValueError, match="different graphs"):
        conjugate_under(parse(f2, "b a"), parse(k2, "a b"), {0})
    # an equal copy of the graph is the same graph
    copy = Graph(["a", "b"])
    assert isinstance(conjugate(parse(f2, "a b"), parse(copy, "b a")), Conjugate)


def test_conjugate_under_refuses_bad_vertex_indices():
    f2 = GRAPHS["f2"]
    a, b = parse(f2, "a"), parse(f2, "b")
    # used to raise IndexError from inside the strip
    with pytest.raises(ValueError, match="5 is not a vertex index"):
        conjugate_under(a, b * a * b.inverse(), {1, 5})
    with pytest.raises(ValueError, match="-1 is not a vertex index"):
        conjugate_under(a, a, {-1})


def test_vertex_indices_may_be_numpy_integers():
    # numpy integers index lists; they used to be refused as non-vertices
    p3 = GRAPHS["p3"]
    a, b, c = (parse(p3, x) for x in "abc")
    res = conjugate_under(a, b * a * b.inverse(), {np.int64(1)})
    assert res == conjugate_under(a, b * a * b.inverse(), {1})
    assert isinstance(res, Conjugate)
    x = parse(p3, "a b c")
    assert x.retract({np.int32(0), np.int64(2)}) == x.retract({0, 2})
    assert x.double_coset_form({np.int64(0)}, [np.uint8(2)]) == x.double_coset_form({0}, {2})
    for bad in (np.float64(1.0), "a", np.int64(3)):
        with pytest.raises(ValueError, match="is not a vertex index"):
            conjugate_under(a, a, {bad})
        with pytest.raises(ValueError, match="is not a vertex index"):
            x.retract({bad})
        with pytest.raises(ValueError, match="is not a vertex index"):
            x.double_coset_form({0}, {bad})
