"""Double cosets and conjugated intersections, and the HNN route's
centralizer-state folds and coset search kept as oracles."""

import random

import pytest

from oracles import (
    EMPTY,
    UNDECIDED,
    CentralizerState,
    SpecialCoset,
    canonical_double_coset_data,
    cayley_ball,
    core_conjugacy_double_coset,
    coset_intersection_nonempty,
    subgroup_ball,
)
from raag.graphs import Graph
from raag.words import Element, parse
from raag import conjugacy
from raag.cosets import (
    CosetFactors,
    NotMember,
    abelianization,
    in_double_coset,
    intersect_conjugated,
    make_gens,
)

F2 = Graph(["a", "b"])
F3 = Graph(["a", "b", "c"])
P3 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
EDGE_ISO = Graph(["a", "b", "c"], [("a", "b")])
P4 = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
C5 = Graph(
    ["a", "b", "c", "d", "e"],
    [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
)
# a seeded G(8, 1/2), spelled out so the pinned words below keep their meaning
RAND8 = Graph(
    [f"v{i}" for i in range(8)],
    [
        ("v0", "v1"), ("v0", "v3"), ("v0", "v5"), ("v0", "v6"), ("v1", "v2"),
        ("v1", "v4"), ("v1", "v5"), ("v1", "v6"), ("v1", "v7"), ("v2", "v4"),
        ("v2", "v5"), ("v2", "v6"), ("v2", "v7"), ("v3", "v4"), ("v3", "v6"),
        ("v3", "v7"), ("v4", "v5"), ("v4", "v7"), ("v5", "v7"),
    ],
)


def service(graph, verts, elems):
    return conjugacy.centralizer_in_special(graph, verts, elems)


def rand_word(rng, graph, length):
    letters = tuple(
        rng.choice((1, -1)) * rng.randrange(1, graph.n + 1) for _ in range(length)
    )
    return Element(graph, letters)


def rand_special(rng, graph, verts, length):
    vs = sorted(verts)
    if not vs:
        return Element(graph)
    letters = tuple(
        rng.choice((1, -1)) * (rng.choice(vs) + 1) for _ in range(length)
    )
    return Element(graph, letters)


def subgroup_elements(graph, verts, max_len):
    gens = [Element(graph, (v + 1,)) for v in sorted(verts)]
    return subgroup_ball(graph, gens, max_len, slack=4)


# ---------------------------------------------------------------------------
# canonical double-coset data


def test_core_of_identity_is_trivial():
    for graph in (F2, P3, F3):
        one = Element(graph)
        alpha, gamma = canonical_double_coset_data(one, {0}, {1})
        assert alpha.is_identity() and gamma.is_identity()


def test_core_trivial_on_product_cosets():
    # any x = a*b has the same double coset as the identity
    rng = random.Random(7)
    for graph in (F3, P3):
        for _ in range(10):
            averts, bverts = {0, 1}, {1, 2}
            x = rand_special(rng, graph, averts, 2) * rand_special(rng, graph, bverts, 2)
            alpha, gamma = canonical_double_coset_data(x, averts, bverts)
            assert alpha.is_identity()
            assert gamma.in_special(averts)


def test_core_lies_in_own_double_coset():
    rng = random.Random(11)
    for graph in (F3, P3, EDGE_ISO):
        for _ in range(8):
            x = rand_word(rng, graph, rng.randrange(4))
            averts, bverts = frozenset({0, 1}), frozenset({1, 2})
            alpha, gamma = canonical_double_coset_data(x, averts, bverts)
            res = in_double_coset(alpha, x, averts, bverts)
            assert isinstance(res, CosetFactors)


# ---------------------------------------------------------------------------
# membership with factors


def test_membership_of_x_has_identity_factors():
    rng = random.Random(3)
    for graph in (F3, P3):
        for _ in range(6):
            x = rand_word(rng, graph, 3)
            res = in_double_coset(x, x, {0, 1}, {1, 2})
            assert isinstance(res, CosetFactors)
            assert res.left.is_identity() and res.right.is_identity()


def test_nonmember_disjoint_supports():
    res = in_double_coset(parse(F3, "c"), Element(F3), {0}, {1})
    assert isinstance(res, NotMember)
    assert res.reason == "reduced-representative"


def test_constructed_members_are_recognized():
    rng = random.Random(23)
    for graph in (F3, P3, EDGE_ISO):
        for _ in range(12):
            averts, bverts = frozenset({0, 2}), frozenset({1, 2})
            x = rand_word(rng, graph, rng.randrange(4))
            a = rand_special(rng, graph, averts, rng.randrange(3))
            b = rand_special(rng, graph, bverts, rng.randrange(3))
            y = a * x * b
            res = in_double_coset(y, x, averts, bverts)
            assert isinstance(res, CosetFactors)
            assert res.left * x * res.right == y
            assert res.left.in_special(averts) and res.right.in_special(bverts)


def test_membership_independent_of_representative():
    # replacing x by a'*x*b' must not change any verdict
    rng = random.Random(29)
    for _ in range(10):
        graph = P3
        averts, bverts = frozenset({0, 1}), frozenset({1, 2})
        x = rand_word(rng, graph, 3)
        y = rand_word(rng, graph, 3)
        x2 = (
            rand_special(rng, graph, averts, 2)
            * x
            * rand_special(rng, graph, bverts, 2)
        )
        r1 = in_double_coset(y, x, averts, bverts)
        r2 = in_double_coset(y, x2, averts, bverts)
        assert isinstance(r1, CosetFactors) == isinstance(r2, CosetFactors)


def test_membership_matches_enumeration():
    # one-sided oracle: y in <A>x<B>  iff  x^-1 a^-1 y in <B> for some a
    rng = random.Random(41)
    for graph in (F3, P3):
        for averts, bverts in (({0}, {1}), ({0, 1}, {1, 2})):
            aball = subgroup_elements(graph, averts, 4)
            x = rand_word(rng, graph, 2)
            for y in sorted(cayley_ball(graph, 3), key=lambda w: w.shortlex_key()):
                oracle = any(
                    (x.inverse() * a.inverse() * y).in_special(bverts) for a in aball
                )
                res = in_double_coset(y, x, averts, bverts)
                if oracle:
                    assert isinstance(res, CosetFactors)
                elif isinstance(res, CosetFactors):
                    # engine found a longer factor pair; verify it honestly
                    assert res.left * x * res.right == y


def test_membership_agrees_with_core_conjugacy_oracle():
    # the retraction-core reduction, through the exact conjugate_under
    rng = random.Random(97)
    checked = 0
    for graph in (P4, C5, RAND8):
        for k in range(40):
            averts = frozenset(rng.sample(range(graph.n), rng.randrange(1, graph.n)))
            bverts = frozenset(rng.sample(range(graph.n), rng.randrange(1, graph.n)))
            x = rand_word(rng, graph, rng.randrange(2, 9))
            if k % 2:
                y = rand_special(rng, graph, averts, 4) * x * rand_special(rng, graph, bverts, 4)
            else:
                y = rand_word(rng, graph, rng.randrange(2, 9))
            res = in_double_coset(y, x, averts, bverts)
            oracle = core_conjugacy_double_coset(y, x, averts, bverts)
            checked += 1
            assert isinstance(res, CosetFactors) == (oracle is not None), (graph.vertices, x, y)
            if k % 2:
                assert isinstance(res, CosetFactors)
    assert checked == 120


def test_long_factor_member_is_decided():
    # the core-conjugacy reduction gives up on this member after seconds
    x = parse(RAND8, "v7^-1 v6^-1 v7^-1 v0^2 v2 v3^-1 v5^-1 v3 v6^-1")
    y = parse(
        RAND8,
        "v7^-1 v0^-1 v7^-2 v6 v5^-1 v7 v0^-1 v7^-1 v6^-1 v7^-1 v0^2 v2 v0^-1 "
        "v3^-1 v5^-1 v3 v2^-1 v6",
    )
    averts, bverts = frozenset({0, 5, 6, 7}), frozenset({0, 2, 6, 7})
    res = in_double_coset(y, x, averts, bverts)
    assert isinstance(res, CosetFactors)
    assert res.left * x * res.right == y
    assert res.left.in_special(averts) and res.right.in_special(bverts)


def test_membership_never_decides_conjugacy(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("in_double_coset called a conjugacy decision")

    monkeypatch.setattr(conjugacy, "conjugate_under", refuse)
    monkeypatch.setattr(conjugacy, "conjugate", refuse)
    monkeypatch.setattr(conjugacy, "_conjugate_cores", refuse)
    rng = random.Random(5)
    for graph in (P4, C5, RAND8):
        for k in range(20):
            averts = frozenset(rng.sample(range(graph.n), 2))
            bverts = frozenset(rng.sample(range(graph.n), 2))
            x = rand_word(rng, graph, 12)
            y = rand_special(rng, graph, averts, 6) * x * rand_special(rng, graph, bverts, 6)
            if k % 2:
                y = y * rand_word(rng, graph, 1)
            res = in_double_coset(y, x, averts, bverts, conjugacy._tester)
            assert isinstance(res, (CosetFactors, NotMember))
            if not k % 2:
                assert isinstance(res, CosetFactors)


# ---------------------------------------------------------------------------
# intersections of a special subgroup with a conjugate


def test_intersect_conjugated_identity():
    gamma, gens = intersect_conjugated({0, 1}, Element(P3), {1, 2})
    assert gamma.is_identity()
    assert sorted(str(g) for g in gens) == ["b"]
    assert gens.complete


def test_coset_calls_refuse_bad_vertex_indices():
    a = parse(F2, "a")
    # -1 used to pass through, and v + 1 == 0 built a generator from letter 0
    with pytest.raises(ValueError, match="-1 is not a vertex index"):
        intersect_conjugated({-1, 0}, a, {-1, 0})
    with pytest.raises(ValueError, match="2 is not a vertex index"):
        intersect_conjugated({0}, a, {1, 2})
    with pytest.raises(ValueError, match="-1 is not a vertex index"):
        in_double_coset(a, a, {-1}, {0})
    with pytest.raises(ValueError, match="7 is not a vertex index"):
        in_double_coset(a, a, {0}, {7})
    with pytest.raises(ValueError, match="1.0 is not a vertex index"):
        in_double_coset(a, a, {1.0}, {0})
    with pytest.raises(ValueError, match="1.0 is not a vertex index"):
        intersect_conjugated({0}, a, {1.0})
    # an unhashable member raised TypeError in frozenset()
    with pytest.raises(ValueError, match=r"\[0\] is not a vertex index"):
        in_double_coset(a, a, [[0]], [1])
    with pytest.raises(ValueError, match=r"\[0\] is not a vertex index"):
        intersect_conjugated([[0]], a, [1])


def test_coset_calls_take_numpy_vertex_indices():
    import numpy as np

    x, y = parse(P3, "b a c"), parse(P3, "a b c b^-1")
    zero, one = np.int64(0), np.int64(1)
    assert in_double_coset(y, x, [zero, one], [one]) == in_double_coset(y, x, [0, 1], [1])
    assert intersect_conjugated([zero, one], x, [one]) == intersect_conjugated([0, 1], x, [1])


def test_in_double_coset_refuses_elements_over_different_graphs():
    with pytest.raises(ValueError, match="different graphs"):
        in_double_coset(parse(F2, "a"), parse(F3, "a"), {0}, {1})


def test_intersect_conjugated_matches_ball():
    rng = random.Random(53)
    for graph in (F3, P3, P4, C5):
        ball = cayley_ball(graph, 3)
        for _ in range(8):
            averts, bverts = frozenset({0, 1}), frozenset({1, 2})
            if graph.n > 3:
                averts, bverts = averts | {3}, bverts | {3}
            x = rand_word(rng, graph, rng.randrange(4 if graph.n == 3 else 8))
            gamma, gens = intersect_conjugated(averts, x, bverts)
            assert gens.complete
            conj_gens = [gamma.inverse() * g * gamma for g in gens]
            for h in conj_gens:
                assert h.in_special(averts)
                assert (x.inverse() * h * x).in_special(bverts)
            brute = {
                w
                for w in ball
                if w.in_special(averts) and (x.inverse() * w * x).in_special(bverts)
            }
            if graph.n == 3:
                got = {
                    w
                    for w in subgroup_ball(graph, conj_gens, 3, slack=6)
                    if len(w) <= 3
                }
            else:
                # the generators are vertices, so they generate the special
                # subgroup on Z; a product sweep would be slow here
                assert all(len(g) == 1 for g in gens)
                z = frozenset().union(*(g.support() for g in gens))
                got = {w for w in ball if (gamma * w * gamma.inverse()).in_special(z)}
            assert got == brute


# ---------------------------------------------------------------------------
# centralizer-state folding


def test_state_fold_matches_brute_force():
    rng = random.Random(61)
    for graph in (P3, F3):
        for _ in range(6):
            z = rand_word(rng, graph, 2)
            prefix = rand_word(rng, graph, 2)
            assoc = frozenset({1})
            state = CentralizerState(graph, Element(graph), range(graph.n), (z,), service)
            gens = state.constrain_membership(prefix, assoc).generators()
            brute = {
                w
                for w in cayley_ball(graph, 3)
                if w * z == z * w
                and (prefix.inverse() * w * prefix).in_special(assoc)
            }
            got = {
                w
                for w in subgroup_ball(graph, list(gens), 3, slack=6)
                if len(w) <= 3
            }
            assert got == brute


def test_state_two_folds_match_brute_force():
    rng = random.Random(67)
    graph = P3
    for _ in range(5):
        z = rand_word(rng, graph, 2)
        p1, p2 = rand_word(rng, graph, 2), rand_word(rng, graph, 2)
        k1, k2 = frozenset({0, 1}), frozenset({1, 2})
        state = CentralizerState(graph, Element(graph), range(graph.n), (z,), service)
        gens = state.constrain_membership(p1, k1).constrain_membership(p2, k2).generators()
        brute = {
            w
            for w in cayley_ball(graph, 3)
            if w * z == z * w
            and (p1.inverse() * w * p1).in_special(k1)
            and (p2.inverse() * w * p2).in_special(k2)
        }
        got = {
            w
            for w in subgroup_ball(graph, list(gens), 3, slack=6)
            if len(w) <= 3
        }
        assert got == brute


# ---------------------------------------------------------------------------
# the HNN route's folding intersection search (an oracle in tests/oracles.py)


def full_state(graph, verts, svc=service):
    return CentralizerState(graph, Element(graph), verts, (), svc)


def test_search_no_cosets_returns_rep():
    rep = parse(F2, "a b")
    out = coset_intersection_nonempty(rep, full_state(F2, {0, 1}), [], 8)
    assert out == rep


def test_search_finds_simple_witness():
    one = Element(F2)
    dc = SpecialCoset(parse(F2, "a^3"), frozenset(), one)
    out = coset_intersection_nonempty(one, full_state(F2, {0}), [dc], 8)
    assert isinstance(out, Element)
    assert out == parse(F2, "a^3")


def test_search_certifies_empty_by_exponents():
    one = Element(F2)
    dc = SpecialCoset(parse(F2, "b"), frozenset(), one)
    out = coset_intersection_nonempty(one, full_state(F2, {0}), [dc], 8)
    assert out is EMPTY


def test_search_conflicting_cosets_empty_without_gens():
    # two cosets forcing different exponents certify emptiness on their own
    def stub(graph, verts, elems):
        return []

    one = Element(F2)
    dcs = [
        SpecialCoset(parse(F2, "b"), frozenset(), one),
        SpecialCoset(parse(F2, "b^2"), frozenset(), one),
    ]
    out = coset_intersection_nonempty(one, full_state(F2, {0}, stub), dcs, 8)
    assert out is EMPTY


def test_search_bound_gives_inconclusive():
    one = Element(F2)
    dc = SpecialCoset(parse(F2, "a^9"), frozenset(), one)
    out = coset_intersection_nonempty(one, full_state(F2, {0}), [dc], 4)
    assert out is UNDECIDED


def test_search_two_cosets_folded():
    # witness must satisfy both constraints simultaneously
    graph = P3
    one = Element(graph)
    dc1 = SpecialCoset(parse(graph, "b"), frozenset({0}), one)
    dc2 = SpecialCoset(parse(graph, "b"), frozenset({2}), one)
    out = coset_intersection_nonempty(one, full_state(graph, {0, 1, 2}), [dc1, dc2], 8)
    assert isinstance(out, Element)
    assert dc1.contains(out) and dc2.contains(out)


# ---------------------------------------------------------------------------
# odds and ends


def test_abelianization_values():
    assert abelianization(parse(F2, "a b a^-1 b^-1")) == (0, 0)
    assert abelianization(parse(F2, "a^2 b^-1")) == (2, -1)
    assert abelianization(parse(F3, "c a c")) == (1, 0, 2)


def test_gens_completeness_flag():
    g = make_gens([parse(F2, "a")])
    assert g.complete


def test_special_coset_contains():
    dc = SpecialCoset(parse(P3, "a"), frozenset({1}), parse(P3, "c"))
    assert dc.contains(parse(P3, "a b c"))
    assert dc.contains(parse(P3, "a b^-2 c"))
    assert not dc.contains(parse(P3, "a c^2"))
