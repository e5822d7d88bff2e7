"""Truncated algebra, unit embedding, separation levels, and Lie dimensions."""

import gc
import itertools
import math
import pickle
import random

import numpy as np
import pytest

from raag.graphs import Graph
from raag.words import Element, _canonical, parse
from raag.conjugacy import Conjugate, NotConjugate, conjugate
from raag import nilpotent
from raag.nilpotent import (
    MAX_LIE_DEGREE,
    MAX_PRECISION,
    MAX_TRACE_MONOMIALS,
    NOT_FOUND,
    NotSeparatedAtThisLevel,
    Separated,
    TraceAlgebra,
    TruncatedAlgebraElement,
    find_separating_level,
    lie_center_trivial,
    lie_graded_dims,
    magnus_conjugate_test,
    magnus_image,
)
from oracles import (
    bracket,
    clique_polynomial,
    count_trace_monomials,
    echelon_center_trivial_upto,
    echelon_lie_dims,
    full_magnus_system,
    grid_separating_level,
    listed_clique_counts,
    piled_magnus_conjugate_test,
    piled_magnus_image,
    piled_product,
    piled_trace_canonical,
    piled_trace_monomials,
    poincare_series_product,
    reference_solve_mod_prime_power,
    trace_monoid_growth,
    whole_graph_magnus_conjugate_test,
    whole_magnus_system,
    witt_free_lie_dims,
)

F2 = Graph(["a", "b"])
K2 = Graph(["a", "b"], [("a", "b")])
F3 = Graph(["a", "b", "c"])
P3 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
K3 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
EDGE_ISO = Graph(["a", "b", "c"], [("a", "b")])
C5 = Graph(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
P4 = Graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")])

CORPUS = [F2, K2, F3, P3, K3, EDGE_ISO]


def complete_graph(n):
    names = [f"v{i}" for i in range(n)]
    return Graph(names, list(itertools.combinations(names, 2)))


def random_graph(rng, n, density=0.5):
    names = [f"v{i}" for i in range(n)]
    edges = [e for e in itertools.combinations(names, 2) if rng.random() < density]
    return Graph(names, edges)


def every_graph(n):
    names = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(names, 2))
    for mask in range(1 << len(pairs)):
        yield Graph(names, [e for i, e in enumerate(pairs) if mask >> i & 1])


def adj_sets(graph):
    return [set(s) for s in graph.adj]


def indexed(algebra, coeffs, q):
    """The TruncatedAlgebraElement with these {basis index: coefficient}."""
    return TruncatedAlgebraElement(
        algebra.graph, algebra.d, q, {algebra.basis[i]: c for i, c in coeffs.items()}
    )


def inserted(graph, word):
    """The canonical form of a positive word of vertex indices, one
    `words._canonical` call per letter, so that every letter goes in by
    insertion and none through the piles."""
    out = ()
    for v in word:
        out = _canonical(graph, (v + 1,), out)
    return tuple(v - 1 for v in out)


def is_one(x):
    return x.coeffs == {(): 1}


def is_checked_unit(unit, g, h, d, p, m):
    """unit has constant term 1 and no monomial of degree d, and M(g).unit
    == unit.M(h) by piled products."""
    return (
        unit.coeffs[()] == 1
        and all(len(w) < d for w in unit.coeffs)
        and conjugates_images(unit, g, h, d, p, m)
    )


def conjugates_images(unit, g, h, d, p, m):
    """M(g).unit == unit.M(h), by piled products."""
    return piled_product(magnus_image(g, d, p, m), unit) == piled_product(unit, magnus_image(h, d, p, m))


def rand_word(rng, graph, length):
    letters = tuple(
        rng.choice((1, -1)) * rng.randrange(1, graph.n + 1) for _ in range(length)
    )
    return Element(graph, letters)


# ---------------------------------------------------------------------------
# monomials and multiplication


def test_trace_canonical_sorts_commuting_letters():
    assert inserted(P3, (1, 0)) == (0, 1)
    assert inserted(P3, (2, 0)) == (2, 0)
    assert inserted(K3, (2, 1, 0)) == (0, 1, 2)
    assert inserted(F2, (1, 0)) == (1, 0)


def test_trace_monomial_counts_match_oracles():
    for graph in CORPUS:
        adj = adj_sets(graph)
        monos = TraceAlgebra(graph, 4).basis
        by_degree = [sum(1 for m in monos if len(m) == k) for k in range(5)]
        assert by_degree == count_trace_monomials(adj, 4)
        assert by_degree == trace_monoid_growth(adj, 4)


def test_trace_basis_bound_covers_the_benchmark_sizes():
    sizes = [len(TraceAlgebra(graph, d).basis) for graph, d in ((C5, 5), (F3, 6), (P3, 8))]
    assert sizes == [1376, 1093, 1013]
    assert len(TraceAlgebra(F2, 10).basis) == 2047 <= MAX_TRACE_MONOMIALS


def test_trace_canonical_matches_piles():
    # the insertion rule against the group's pile/depile normal form, on
    # every positive word of length <= 6
    for graph in CORPUS:
        for k in range(7):
            for word in itertools.product(range(graph.n), repeat=k):
                assert inserted(graph, word) == piled_trace_canonical(graph, word), (graph, word)


def assert_tables_match_piles(algebra):
    graph, d, basis = algebra.graph, algebra.d, algebra.basis
    assert basis == piled_trace_monomials(graph, d)
    assert algebra.rows == sum(1 for w in basis if len(w) < d)
    for i, w in enumerate(basis):
        if len(w) == d:
            assert algebra.right[i] == algebra.left[i] == []
            continue
        for v in range(graph.n):
            assert basis[algebra.right[i][v]] == piled_trace_canonical(graph, w + (v,))
            assert basis[algebra.left[i][v]] == piled_trace_canonical(graph, (v,) + w)
        if w:
            assert basis[algebra.parent[i]] == w[:-1]
            assert basis[algebra.tail[i]] == w[1:]


@pytest.mark.parametrize("graph", [P3, C5, F3, K3], ids=["P3", "C5", "F3", "K3"])
def test_append_tables_match_piles(graph):
    for d in range(1, 6):
        algebra = TraceAlgebra(graph, d)
        basis = algebra.basis
        assert_tables_match_piles(algebra)
    # products on indices against piled products of the same elements
    rng = random.Random(graph.n)
    for _ in range(20):
        x, y = ({rng.randrange(len(basis)): rng.randrange(1, 9) for _ in range(12)} for _ in "xy")
        want = piled_product(indexed(algebra, x, 9), indexed(algebra, y, 9))
        assert indexed(algebra, algebra.mul(x, y, 9), 9) == want


def test_grown_algebra_matches_piles_at_every_degree():
    # the Magnus test grows one algebra a degree at a time; after each step
    # it must be the algebra of that degree
    for graph in CORPUS:
        algebra = TraceAlgebra(graph, 0)
        assert (algebra.d, algebra.basis) == (0, [()])
        for d in range(1, 7):
            algebra.grow()
            assert algebra.d == d
            assert_tables_match_piles(algebra)


def test_trace_algebra_degree_must_be_a_nonnegative_integer():
    # 2.0 raised a TypeError in range(), and -1 quietly built degree 0
    with pytest.raises(ValueError, match="d = 2.0 is not an integer"):
        TraceAlgebra(P3, 2.0)
    with pytest.raises(ValueError, match="need d >= 0"):
        TraceAlgebra(P3, -1)
    assert TraceAlgebra(P3, np.int64(2)).basis == TraceAlgebra(P3, 2).basis


def test_trace_basis_bound_refuses_before_building(monkeypatch):
    # five free letters have 781 monomials up to degree 4 and 3906 up to
    # degree 5, so the bound stops the build at degree 5 whatever the
    # truncation; 5^40 monomials could not be listed first
    edgeless5 = Graph(list("abcde"))
    with pytest.raises(ValueError, match=f"^more than {MAX_TRACE_MONOMIALS} trace monomials up to degree 5$"):
        TraceAlgebra(edgeless5, 40)
    # 31 monomials up to degree 2 and 156 up to degree 3
    monkeypatch.setattr(nilpotent, "MAX_TRACE_MONOMIALS", 100)
    with pytest.raises(ValueError, match="^more than 100 trace monomials up to degree 3$"):
        TraceAlgebra(edgeless5, 40)


def commutator(x, y):
    return x * y * x.inverse() * y.inverse()


def left_normed(graph, names):
    """[[...[[x1, x2], x3], ...], xk] over the named vertices."""
    out = parse(graph, names[0])
    for name in names[1:]:
        out = commutator(out, parse(graph, name))
    return out


def whole_layered_system(g, h, d, p, m):
    """The package's Magnus system of g and h on g.graph, every layer built."""
    system = nilpotent._MagnusSystem(g, h, d, p**m)
    for _ in system:
        pass
    return system


def record_growth(monkeypatch):
    """Patch TraceAlgebra.grow to record (degree, basis size) after each
    step it completes; returns the list it fills."""
    grown = []
    grow = TraceAlgebra.grow

    def recorded(algebra):
        grow(algebra)
        grown.append((algebra.d, len(algebra.basis)))

    monkeypatch.setattr(TraceAlgebra, "grow", recorded)
    return grown


def test_separating_level_stops_at_the_basis_bound(monkeypatch):
    # a weight-5 commutator lies in the fifth term of the lower central
    # series, so its image is trivial below degree 5: the pair with the
    # identity is tried at max_m on every degree up to 4 (781 monomials),
    # each built to its last degree, and degree 5 is past the bound and
    # ends the scan
    edgeless5 = Graph(list("abcde"))
    tried = []
    test = nilpotent._cores_separate
    grown = record_growth(monkeypatch)
    monkeypatch.setattr(
        nilpotent, "_cores_separate", lambda g, h, d, p, m: tried.append((d, m)) or test(g, h, d, p, m)
    )
    g, h = left_normed(edgeless5, "abcde"), parse(edgeless5, "1")
    with pytest.raises(ValueError) as caught:
        find_separating_level(g, h, 2, max_d=6)
    # the refusal keeps the verdict that conjugacy reached before the scan
    assert str(caught.value) == (
        f"more than {MAX_TRACE_MONOMIALS} trace monomials up to degree 5; "
        "not conjugate (identity), but no level below the bound separates the pair"
    )
    assert tried == [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2)]
    assert [k for k, _ in grown] == [k for d in range(1, 6) for k in range(1, min(d, 4) + 1)]
    assert max(size for _, size in grown) == 781


def test_magnus_build_stops_at_the_certificate(monkeypatch):
    # [a, b] against [b, a]: their degree-2 rows read 0 = +-2 mod 4, so
    # the degree-8 test grows the algebra to degree 2 and builds no row of
    # degree 3 or more
    grown = record_growth(monkeypatch)
    systems = []
    solve = nilpotent.solve_mod_prime_power

    def capture(matrix, rhs, p, m):
        systems.append(matrix)
        return solve(matrix, rhs, p, m)

    monkeypatch.setattr(nilpotent, "solve_mod_prime_power", capture)
    g, h = parse(F2, "a b a^-1 b^-1"), parse(F2, "b a b^-1 a^-1")
    assert magnus_conjugate_test(g, h, 8, 2, 2) == Separated(8, 2, 2)
    (system,) = systems
    assert grown == [(1, 3), (2, 7)]
    assert (system.algebra.d, len(system), len(system.rhs)) == (2, 6, 6)
    # the rows built are the leading rows of the whole degree-8 system,
    # and shape is still the whole system's: 510 equations, 254 unknowns
    matrix, rhs = whole_magnus_system(g, h, 8, 2, 2)
    assert (system[:], system.rhs) == (matrix[:6], rhs[:6])
    assert system.shape == matrix.shape == (510, 254)
    # on five free letters the pair uses two, and degree 40 answers as
    # degree 2 does; the whole basis up to degree 11 would pass the bound
    free5 = Graph(list("abcde"))
    g, h = parse(free5, "a b a^-1 b^-1"), parse(free5, "b a b^-1 a^-1")
    del grown[:]
    assert magnus_conjugate_test(g, h, 40, 2, 2) == Separated(40, 2, 2)
    assert grown == [(1, 3), (2, 7)]
    with pytest.raises(ValueError, match="up to degree 11"):
        TraceAlgebra(F2, 40)


def test_magnus_test_leaves_no_cyclic_garbage():
    # neither a test that finds and checks a unit nor one whose solve stops
    # early leaves a reference cycle: with the collector off, every object
    # they make is freed by its reference count alone
    g = parse(C5, "a c a c^-1 a^-1")
    x = parse(C5, "c a")
    u, v = parse(C5, "a c a^-1 c^-1"), parse(C5, "c a c^-1 a^-1")
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            assert isinstance(magnus_conjugate_test(g, x * g * x.inverse(), 5, 2, 2), NotSeparatedAtThisLevel)
        conjugate_pairs = gc.collect()
        for _ in range(10):
            assert magnus_conjugate_test(u, v, 6, 2, 2) == Separated(6, 2, 2)
        early_exits = gc.collect()
    finally:
        gc.enable()
    assert (conjugate_pairs, early_exits) == (0, 0)


@pytest.mark.parametrize(
    ("graph", "top"), [(F2, 6), (P3, 5), (F3, 4), (C5, 3)], ids=["F2", "P3", "F3", "C5"]
)
def test_layered_rows_match_the_whole_system(graph, top):
    # built a degree at a time, the system has the rows of the system built
    # whole, row for row and in order, with the same right-hand sides; its
    # shape is counted right before anything is built
    rng = random.Random(300 + top)
    pairs = magnus_pairs(rng, graph, 2)
    pairs += [(rand_word(rng, graph, rng.randrange(1, 6)), rand_word(rng, graph, rng.randrange(1, 6))) for _ in range(2)]
    for g, h in pairs:
        for d in range(1, top + 1):
            for p, m in ((2, 2), (3, 1), (100003, 2)):
                matrix, rhs = whole_magnus_system(g, h, d, p, m)
                assert nilpotent._MagnusSystem(g, h, d, p**m).shape == matrix.shape
                system = whole_layered_system(g, h, d, p, m)
                assert list(system) == list(matrix) and system.rhs == rhs, (g, h, d, p, m)
                assert system.shape == matrix.shape


def test_separating_level_answers_below_the_basis_bound():
    # C5 has 5001 trace monomials up to the default max_d of 6; pairs that
    # separate at a lower degree never reach it
    assert find_separating_level(parse(C5, "a"), parse(C5, "b"), 2) == (1, 1)
    comm = parse(C5, "a c a^-1 c^-1")
    assert find_separating_level(comm, parse(C5, "c a c^-1 a^-1"), 2) == (2, 2)
    assert find_separating_level(comm, parse(C5, "a d a^-1 d^-1"), 3) == (2, 1)
    # a weight-6 commutator against the identity separates at no degree
    # below 6; its basis is built on {a, c}, a free group of rank 2 with
    # 127 monomials up to degree 6, not on C5
    g = left_normed(C5, "acacac")
    assert find_separating_level(g, parse(C5, "1"), 2) == (6, 1)


def test_basis_bound_error_names_the_support(monkeypatch):
    # {a, c} has 63 monomials up to degree 5 and 127 up to degree 6
    monkeypatch.setattr(nilpotent, "MAX_TRACE_MONOMIALS", 100)
    g = left_normed(C5, "acacac")
    with pytest.raises(ValueError) as caught:
        find_separating_level(g, parse(C5, "1"), 2)
    assert str(caught.value) == (
        "more than 100 trace monomials up to degree 6 on {a, c}; "
        "not conjugate (identity), but no level below the bound separates the pair"
    )


def test_generators_commute_exactly_when_adjacent():
    # the basis lists 1, a, b first, so the letters have indices 1 and 2
    for graph, commute in ((K2, True), (F2, False)):
        algebra = TraceAlgebra(graph, 3)
        a, b = {1: 1}, {2: 1}
        ab, ba = algebra.mul(a, b, 5), algebra.mul(b, a, 5)
        assert (ab == ba) is commute
        assert indexed(algebra, ab, 5).coeffs == {(0, 1): 1}
    a = TruncatedAlgebraElement(F2, 3, 0, {(0,): 1})
    assert not bracket(a, a).coeffs


def test_multiply_truncates_and_respects_one():
    algebra = TraceAlgebra(F2, 2)
    index = {w: i for i, w in enumerate(algebra.basis)}
    x = {index[(0,)]: 1, index[(0, 1)]: 3}
    one = {0: 1}
    assert algebra.mul(x, one, 7) == x == algebra.mul(one, x, 7)
    y = {index[(1,)]: 2}
    assert algebra.mul(x, y, 7) == {index[(0, 1)]: 2}
    assert algebra.mul(y, x, 7) == {index[(1, 0)]: 2}
    # coefficients are reduced mod q, and zeros dropped
    assert algebra.mul(x, {index[(1,)]: 4}, 4) == {}


def test_ring_and_degree_mismatch_raise():
    with pytest.raises(ValueError, match="exceeds truncation degree"):
        TruncatedAlgebraElement(F2, 1, 0, {(0, 1): 1})


# ---------------------------------------------------------------------------
# the unit embedding


def test_magnus_identity_and_inverse():
    assert is_one(magnus_image(Element(F2), 3, 2, 1))
    assert is_one(magnus_image(parse(F2, "a a^-1"), 5, 2, 2))
    assert is_one(magnus_image(parse(F3, "b^-1 b"), 6, 3, 1))


def test_magnus_commutator_expansion():
    img = magnus_image(parse(F2, "a b a^-1 b^-1"), 2, 2, 3)
    assert img.coeffs == {(): 1, (0, 1): 1, (1, 0): 7}


def test_layered_image_matches_magnus_image():
    # the Magnus test's images, one degree at a time on basis indices,
    # against magnus_image and against products of piled series, on words
    # with inverse letters
    rng = random.Random(71)
    for graph in CORPUS + [C5]:
        words = []
        while len(words) < 4:
            x = rand_word(rng, graph, rng.randrange(1, 9))
            if any(lt < 0 for lt in x.letters):
                words.append(x)
        for x in words:
            for d, p, m in ((1, 2, 2), (3, 3, 1), (5, 2, 3), (4, 100003, 2)):
                system = whole_layered_system(x, x, d, p, m)
                want = piled_magnus_image(x, d, p, m)
                assert magnus_image(x, d, p, m) == want
                assert indexed(system.algebra, system.image_g, p**m) == want


def test_magnus_is_homomorphism():
    rng = random.Random(17)
    for graph in (F2, P3, K2):
        for d, p, m in ((2, 2, 1), (3, 2, 2), (4, 3, 1)):
            for _ in range(6):
                g = rand_word(rng, graph, rng.randrange(5))
                h = rand_word(rng, graph, rng.randrange(5))
                lhs = magnus_image(g * h, d, p, m)
                rhs = piled_product(magnus_image(g, d, p, m), magnus_image(h, d, p, m))
                assert lhs == rhs


def test_magnus_constant_term_is_one():
    rng = random.Random(19)
    for _ in range(10):
        g = rand_word(rng, F3, rng.randrange(6))
        assert magnus_image(g, 3, 2, 2).coeffs[()] == 1


def test_magnus_kills_nothing_short():
    # small-scale injectivity: nothing of length <= 3 dies by degree 4
    for graph in (F2, K2, P3):
        seen = {Element(graph)}
        frontier = [Element(graph)]
        for _ in range(3):
            new = []
            for w in frontier:
                for v in range(graph.n):
                    for s in (1, -1):
                        nxt = w * Element(graph, (s * (v + 1),), canonical=True)
                        if nxt not in seen:
                            seen.add(nxt)
                            new.append(nxt)
            frontier = new
        for w in seen:
            if not w.is_identity():
                assert not is_one(magnus_image(w, 4, 2, 1))


# ---------------------------------------------------------------------------
# separation


def test_same_element_never_separates():
    g = parse(F2, "a b a^-1 b^-1")
    res = magnus_conjugate_test(g, g, 3, 2, 1)
    assert isinstance(res, NotSeparatedAtThisLevel)
    assert res.unit.coeffs[()] == 1


def test_distinct_abelianizations_separate_at_degree_one():
    res = magnus_conjugate_test(parse(F2, "a"), parse(F2, "b"), 1, 2, 1)
    assert res == Separated(1, 2, 1)
    # equal mod 2 but not mod 4: precision matters
    assert find_separating_level(parse(F2, "a"), parse(F2, "a^3"), 2) == (1, 2)


def test_sentinels_share_one_class():
    # NOT_FOUND and INCONCLUSIVE are markers of one class, each printing as
    # its name, in a pickle of any protocol too
    from raag.cosets import INCONCLUSIVE

    assert type(NOT_FOUND) is type(INCONCLUSIVE)
    for sentinel, name in ((NOT_FOUND, "NOT_FOUND"), (INCONCLUSIVE, "INCONCLUSIVE")):
        assert repr(sentinel) == name
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert repr(pickle.loads(pickle.dumps(sentinel, protocol))) == name


def test_classic_commutator_pair_levels():
    g = parse(F2, "a b a^-1 b^-1")
    h = parse(F2, "b a b^-1 a^-1")
    assert find_separating_level(g, h, 2) == (2, 2)
    assert find_separating_level(g, h, 3) == (2, 1)


def test_conjugate_pairs_return_not_found(monkeypatch):
    # the Magnus test separates no conjugate pair at any level of the grid
    rng = random.Random(23)
    pairs = []
    for graph in (F2, P3):
        for _ in range(5):
            g = rand_word(rng, graph, rng.randrange(1, 4))
            s = rand_word(rng, graph, rng.randrange(3))
            pairs.append((g, s * g * s.inverse()))
    for g, h in pairs:
        assert grid_separating_level(g, h, 2, max_d=3, max_m=2) is NOT_FOUND
    ab, ba = parse(F2, "a b"), parse(F2, "b a")
    assert grid_separating_level(ab, ba, 2) is NOT_FOUND

    # find_separating_level decides conjugacy first: a conjugate pair builds
    # no trace basis and solves no Magnus system, even where its grid
    # passes the basis bound
    def refuse(*args):
        raise AssertionError("the level grid was scanned")

    monkeypatch.setattr(nilpotent, "magnus_conjugate_test", refuse)
    monkeypatch.setattr(nilpotent, "_cores_separate", refuse)
    monkeypatch.setattr(nilpotent, "TraceAlgebra", refuse)
    for g, h in pairs:
        assert find_separating_level(g, h, 2, max_d=3, max_m=2) is NOT_FOUND
    assert find_separating_level(ab, ba, 2) is NOT_FOUND
    assert find_separating_level(parse(C5, "a b"), parse(C5, "b a"), 2) is NOT_FOUND
    edgeless5 = Graph(list("abcde"))
    g, h = parse(edgeless5, "a b"), parse(edgeless5, "b a")
    assert find_separating_level(g, h, 2, max_d=40) is NOT_FOUND
    rng = random.Random(31)
    for graph in CORPUS:
        g = rand_word(rng, graph, rng.randrange(2, 6))
        s = rand_word(rng, graph, rng.randrange(1, 4))
        assert find_separating_level(g, s * g * s.inverse(), 3, max_d=6) is NOT_FOUND


def test_large_prime_does_not_falsely_separate():
    # q^2 > 2^63 at p = 100003, m = 2; the solve must stay exact there
    g, h = parse(F2, "a b"), parse(F2, "b a")
    assert grid_separating_level(g, h, 100003, max_d=3) is NOT_FOUND
    assert find_separating_level(g, h, 100003, max_d=3) is NOT_FOUND


def test_separating_level_refuses_precision_past_bound():
    # the bound itself is accepted; past it the grid is refused before
    # conjugacy is decided
    g, h = parse(F2, "a b a^-1 b^-1"), parse(F2, "b a b^-1 a^-1")
    assert find_separating_level(g, h, 2, max_m=MAX_PRECISION) == (2, 2)
    for x, y in ((g, h), (g, g)):
        with pytest.raises(ValueError, match="above the bound"):
            find_separating_level(x, y, 2, max_m=MAX_PRECISION + 1)


def test_separating_level_scans_precision_only_at_the_separating_degree(monkeypatch):
    # this pair separates at (7, 2) with max_m = 2, at (4, 5) with
    # max_m = 256 and at (4, 1) for p = 2^61 - 1; each degree below d* is
    # tried once, at max_m, and d* at m = 1, 2, ... up to m*: at most
    # d* + m* tests, where the whole grid up to (d*, m*) has
    # (d* - 1) max_m + m*
    g, h = parse(F2, "a b^2 a^-2 b^-2"), parse(F2, "a b^-2 a^-2 b^2")
    test = nilpotent._cores_separate
    tried = []
    monkeypatch.setattr(
        nilpotent, "_cores_separate", lambda g, h, d, p, m: tried.append((d, m)) or test(g, h, d, p, m)
    )
    for p, max_m, want in ((2, 2, (7, 2)), (2, MAX_PRECISION, (4, 5)), (2**61 - 1, MAX_PRECISION, (4, 1))):
        tried.clear()
        assert find_separating_level(g, h, p, max_d=7, max_m=max_m) == want
        assert tried[: want[0]] == [(d, max_m) for d in range(1, want[0] + 1)]
        assert tried[want[0]:] == [(want[0], m) for m in range(1, min(want[1] + 1, max_m))]
        assert len(tried) <= sum(want)


@pytest.mark.parametrize("graph", [F2, P3, F3], ids=["F2", "P3", "F3"])
def test_separating_level_matches_the_whole_grid(graph):
    # pairs with equal abelianization, h a shuffle of g's letters, that
    # conjugacy rules out; the grid helper solves every level degree first
    rng = random.Random(5000 + graph.n)
    count = 0
    while count < 6:
        g = rand_word(rng, graph, rng.randrange(4, 8))
        letters = list(g.letters)
        rng.shuffle(letters)
        h = Element(graph, tuple(letters))
        if isinstance(conjugate(g, h), Conjugate):
            continue
        count += 1
        for p, max_m in ((2, 1), (2, 3), (3, 2)):
            want = grid_separating_level(g, h, p, max_d=4, max_m=max_m)
            assert find_separating_level(g, h, p, max_d=4, max_m=max_m) == want, (g, h, p, max_m)


@pytest.mark.parametrize("p", [0, 1, 4])
def test_non_prime_p_rejected(p):
    g = parse(F2, "a b")
    with pytest.raises(ValueError, match="not prime"):
        magnus_image(g, 2, p, 1)
    with pytest.raises(ValueError, match="not prime"):
        find_separating_level(g, g, p, max_d=0)


@pytest.mark.parametrize("d, p, m", [(2.0, 2, 2), (2, 2.0, 2), (2, 2, 2.0), (2, "2", 2)])
def test_levels_that_are_not_integers_rejected(d, p, m):
    # 2.0 == 2, and an image over "Z/4.0" had float coefficients
    g, h = parse(F2, "a b"), parse(F2, "b a^-1")
    with pytest.raises(ValueError, match="is not an integer"):
        magnus_image(g, d, p, m)
    with pytest.raises(ValueError, match="is not an integer"):
        magnus_conjugate_test(g, h, d + 1, p, m)
    with pytest.raises(ValueError, match="is not an integer"):
        find_separating_level(g, h, p, max_d=d, max_m=m)


@pytest.mark.parametrize("degree", [3.0, "3"])
def test_lie_degree_that_is_not_an_integer_rejected(degree):
    # 3.0 == 3, and range(1, 3.0 + 1) raised a TypeError
    with pytest.raises(ValueError, match="max_degree = .* is not an integer"):
        lie_graded_dims(F3, degree)


def test_numpy_integer_lie_degree_passes():
    dims = lie_graded_dims(F3, np.int64(4))
    assert dims == lie_graded_dims(F3, 4) and all(type(d) is int for d in dims)


def test_numpy_integer_levels_pass():
    g, h = parse(P3, "a c b"), parse(P3, "c a b^-1")
    d, p, m = np.int64(3), np.int64(3), np.int64(2)
    image = magnus_image(g, d, p, m)
    assert image == magnus_image(g, 3, 3, 2) and type(image.modulus) is int
    assert magnus_conjugate_test(g, h, d, p, m) == magnus_conjugate_test(g, h, 3, 3, 2)
    assert find_separating_level(g, h, p, max_d=d, max_m=m) == find_separating_level(g, h, 3, 3, 2)


def test_separation_refuses_elements_over_different_graphs():
    # F3's "c a" against F2's "a b" used to come back Separated(3, 2, 1)
    f2, f3 = Graph(["a", "b"]), Graph(["a", "b", "c"])
    with pytest.raises(ValueError, match="different graphs"):
        magnus_conjugate_test(parse(f3, "c a"), parse(f2, "a b"), 3, 2, 1)
    with pytest.raises(ValueError, match="different graphs"):
        find_separating_level(parse(f3, "c a"), parse(f2, "a b"), 2)


def test_separation_is_sound_against_exact_conjugacy():
    rng = random.Random(29)
    hits = 0
    for graph in (F2, P3, EDGE_ISO):
        for _ in range(12):
            g = rand_word(rng, graph, rng.randrange(1, 5))
            h = rand_word(rng, graph, rng.randrange(1, 5))
            level = find_separating_level(g, h, 2, max_d=4, max_m=2)
            if level is not NOT_FOUND:
                hits += 1
                assert isinstance(conjugate(g, h), NotConjugate)
    assert hits > 5


def test_found_unit_conjugates_the_images():
    g = parse(P3, "a b c")
    h = parse(P3, "c b a")
    res = magnus_conjugate_test(g, h, 4, 2, 2)
    assert isinstance(res, NotSeparatedAtThisLevel)
    assert conjugates_images(res.unit, g, h, 4, 2, 2)


def magnus_pairs(rng, graph, count):
    """Commutator pairs [u, v] against s [v, u] s^-1, and conjugate pairs."""
    pairs = []
    for _ in range(count):
        u, v, s = (rand_word(rng, graph, rng.randrange(1, 4)) for _ in range(3))
        pairs.append((u * v * u.inverse() * v.inverse(), s * v * u * v.inverse() * u.inverse() * s.inverse()))
        g = rand_word(rng, graph, rng.randrange(1, 5))
        pairs.append((g, s * g * s.inverse()))
    return pairs


@pytest.mark.parametrize(("graph", "max_d"), [(P3, 5), (F3, 4), (C5, 3)], ids=["P3", "F3", "C5"])
def test_cut_system_decides_as_the_full_one(graph, max_d):
    # the package solves only the degree 1..d-1 unknowns against the degree
    # 1..d equations; the full system must show the rest identically zero
    # and reach the same verdict at every level; p = 100003 at m = 2 runs
    # on Python integers
    rng = random.Random(max_d)
    for i, (g, h) in enumerate(magnus_pairs(rng, graph, 3)):
        for p, top in ((2, max_d), (3, max_d), (100003, 3)):
            level = NOT_FOUND
            for d in range(1, top + 1):
                for m in (1, 2):
                    q = p**m
                    basis, full = full_magnus_system(g, h, d, p, m)
                    assert not np.any(full[0] % q)
                    assert not np.any(full[:, [j for j, w in enumerate(basis) if len(w) == d]] % q)
                    solvable = reference_solve_mod_prime_power(full[:, 1:], (-full[:, 0]) % q, p, m) is not None
                    res = magnus_conjugate_test(g, h, d, p, m)
                    if not solvable:
                        assert res == Separated(d, p, m)
                        level = (d, m) if level is NOT_FOUND else level
                        continue
                    assert isinstance(res, NotSeparatedAtThisLevel)
                    unit = res.unit
                    assert unit.coeffs[()] == 1
                    assert all(len(w) < d for w in unit.coeffs)
                    assert conjugates_images(unit, g, h, d, p, m)
            assert find_separating_level(g, h, p, max_d=top, max_m=2) == level
            if i % 2:
                assert level is NOT_FOUND


@pytest.mark.parametrize(
    ("graph", "max_d"), [(P3, 7), (F3, 5), (C5, 4), (F2, 8)], ids=["P3", "F3", "C5", "F2"]
)
def test_magnus_test_matches_piled_products(graph, max_d):
    # the kernel on append tables against the same test summed from piled
    # products: the same verdicts and the same units, on nontrivial
    # commutators [u, v] against s [v, u] s^-1 and on distinct conjugates
    # g, s g s^-1; the public test, which decides on cyclic cores, gives
    # the same verdicts and levels, with units that conjugate the images
    rng = random.Random(100 + max_d)
    pairs = []
    while len(pairs) < 4:
        g, h = magnus_pairs(rng, graph, 1)[len(pairs) % 2]
        if not g.is_identity() and g != h:
            pairs.append((g, h))
    for g, h in pairs:
        for p, top in ((2, max_d), (3, max_d), (100003, 3)):
            level = NOT_FOUND
            for d in range(1, top + 1):
                for m in (1, 2):
                    want = whole_graph_magnus_conjugate_test(g, h, d, p, m)
                    assert want == piled_magnus_conjugate_test(g, h, d, p, m), (g, h, d, p, m)
                    res = magnus_conjugate_test(g, h, d, p, m)
                    assert type(res) is type(want), (g, h, d, p, m)
                    if isinstance(res, NotSeparatedAtThisLevel):
                        assert is_checked_unit(res.unit, g, h, d, p, m)
                    elif level is NOT_FOUND:
                        level = (d, m)
            image = piled_magnus_image(g, top, p, 2)
            system = whole_layered_system(g, h, top, p, 2)
            assert magnus_image(g, top, p, 2) == image == indexed(system.algebra, system.image_g, p**2)
            assert find_separating_level(g, h, p, max_d=top, max_m=2) == level


def proper_support_pairs(rng, graph, count):
    """Pairs over a random proper subset of the vertices: [u, v] against
    s [v, u] s^-1, g against s g s^-1, and g against an unrelated word."""
    pairs = []
    for _ in range(count):
        keep = rng.sample(range(1, graph.n + 1), rng.randrange(1, graph.n))

        def word(length):
            return Element(graph, tuple(rng.choice((1, -1)) * rng.choice(keep) for _ in range(length)))

        u, v, s = (word(rng.randrange(1, 4)) for _ in range(3))
        g = word(rng.randrange(1, 5))
        pairs += [
            (commutator(u, v), s * commutator(v, u) * s.inverse()),
            (g, s * g * s.inverse()),
            (g, word(rng.randrange(1, 5))),
        ]
    return pairs


@pytest.mark.parametrize(("graph", "top"), [(C5, 5), (P4, 6), (F3, 6)], ids=["C5", "P4", "F3"])
def test_support_path_decides_as_the_whole_graph(graph, top):
    # the Magnus test runs on the letters the pair uses; at every level
    # whose whole-graph basis is below the bound, its verdict must be the
    # one the same test reaches on the whole graph, and its unit must
    # conjugate the images over the pair's own graph
    with pytest.raises(ValueError, match="trace monomials"):
        TraceAlgebra(graph, top + 1)
    rng = random.Random(40 + graph.n)
    one = Element(graph)
    weight4 = left_normed(graph, "acac")
    assert not weight4.is_identity()
    pairs = [(one, one), (weight4, one)] + proper_support_pairs(rng, graph, 3)
    verdicts = set()
    for g, h in pairs:
        assert len(g.support() | h.support()) < graph.n
        for p in (2, 3):
            for d in range(1, top + 1):
                for m in (1, 2):
                    res = magnus_conjugate_test(g, h, d, p, m)
                    want = whole_graph_magnus_conjugate_test(g, h, d, p, m)
                    assert type(res) is type(want), (g, h, d, p, m)
                    verdicts.add(type(res))
                    if isinstance(res, Separated):
                        assert res == want
                        continue
                    unit = res.unit
                    assert unit.graph is g.graph and unit.coeffs[()] == 1
                    assert conjugates_images(unit, g, h, d, p, m)
    assert verdicts == {Separated, NotSeparatedAtThisLevel}


def lifted_pairs(rng, graph, count):
    """Pairs whose cyclic cores differ and whose cyclic conjugators are
    not both 1: g against s rot(g) s^-1, rot(g) a rotation of g's word,
    which are conjugate, and s g' s^-1 against g, g' a shuffle of g's
    letters, which conjugacy rules out."""
    rotated, shuffled = [], []
    while len(rotated) < count or len(shuffled) < count:
        g = rand_word(rng, graph, rng.randrange(3, 7))
        s = rand_word(rng, graph, rng.randrange(1, 4))
        if len(g) < 2:
            continue
        k = rng.randrange(1, len(g))
        letters = list(g.letters)
        rng.shuffle(letters)
        for kind, g, h in (
            (rotated, g, s * Element(graph, g.letters[k:] + g.letters[:k]) * s.inverse()),
            (shuffled, s * Element(graph, letters) * s.inverse(), g),
        ):
            (cg, gc), (ch, hc) = g.cyclic_normal_form(), h.cyclic_normal_form()
            if len(kind) < count and gc != hc and (cg or ch):
                if kind is rotated or isinstance(conjugate(g, h), NotConjugate):
                    kind.append((g, h))
    return rotated + shuffled


@pytest.mark.parametrize(
    ("graph", "top", "names", "conj"),
    [(F2, 5, "aba", "b^2"), (P3, 5, "aca", "c^2"), (C5, 3, "aca", "d")],
    ids=["F2", "P3", "C5"],
)
def test_units_moved_from_the_cores(graph, top, names, conj, monkeypatch):
    # conjugate pairs with rotated cores, and non-conjugate pairs below
    # their level, are solved on their cores and the unit moved to the
    # pair: it conjugates the images by piled products, has constant term
    # 1 and no monomial of degree d, and is 1 at d = 1; the verdicts are
    # the whole graph's
    lifted = nilpotent._lifted_unit
    moved = []
    monkeypatch.setattr(nilpotent, "_lifted_unit", lambda *args: moved.append(args[1:3]) or lifted(*args))
    rng = random.Random(340 + graph.n)
    pairs = lifted_pairs(rng, graph, 3)
    # a weight-3 commutator, conjugated, against 1 separates at degree 3
    s = parse(graph, conj)
    pairs.append((s * left_normed(graph, names) * s.inverse(), Element(graph)))
    verdicts = set()
    for g, h in pairs:
        for p in (2, 3):
            for d in range(1, top + 1):
                for m in (1, 2):
                    res = magnus_conjugate_test(g, h, d, p, m)
                    want = whole_graph_magnus_conjugate_test(g, h, d, p, m)
                    assert type(res) is type(want), (g, h, d, p, m)
                    verdicts.add(type(res))
                    if isinstance(res, Separated):
                        assert res == want
                        continue
                    assert is_checked_unit(res.unit, g, h, d, p, m), (g, h, d, p, m)
                    assert d > 1 or is_one(res.unit)
    assert verdicts == {Separated, NotSeparatedAtThisLevel}
    assert {(g, h) for g, h in moved} == set(pairs)


def test_equal_cores_build_no_system(monkeypatch):
    # s g s^-1 against t g t^-1 have the core g and the cyclic conjugators
    # s and t: the unit is M(x^-1) for x = t s^-1, at degree d - 1, with no
    # trace basis built and no solve
    def refuse(*args):
        raise AssertionError("a Magnus system was built")

    monkeypatch.setattr(nilpotent, "TraceAlgebra", refuse)
    monkeypatch.setattr(nilpotent, "solve_mod_prime_power", refuse)
    g, s, t = parse(P3, "a c^2"), parse(P3, "c a"), parse(P3, "a^-1 c^-1")
    x, y = s * g * s.inverse(), t * g * t.inverse()
    assert (x.cyclic_normal_form(), y.cyclic_normal_form()) == ((s, g), (t, g))
    for d in range(1, 6):
        res = magnus_conjugate_test(x, y, d, 2, 2)
        assert res.unit == TruncatedAlgebraElement(
            P3, d, 4, magnus_image(s * t.inverse(), d - 1, 2, 2).coeffs if d > 1 else {(): 1}
        )
        assert is_checked_unit(res.unit, x, y, d, 2, 2)


def capture_solves(monkeypatch):
    """Patch the Magnus test's solver to record (system, its top, its
    shape, the rows read, the answer) per solve; returns the list."""
    solves = []
    solve = nilpotent.solve_mod_prime_power

    def capture(matrix, rhs, p, m):
        x = solve(matrix, rhs, p, m)
        solves.append((matrix, matrix.top, matrix.shape, matrix[:], x))
        return x

    monkeypatch.setattr(nilpotent, "solve_mod_prime_power", capture)
    return solves


def test_conjugate_cores_answer_with_their_conjugator(monkeypatch):
    # a b c a c^-1 against c (b c a c^-1 a) c^-1: different cores, and
    # conjugate. At d = 6 one solve reads the rows of degree <= 2, with the
    # degree-6 shape, and grows the algebra to degree 2 only; conjugate on
    # the cores gives tau, and the unit is exactly M(x^-1) at degree 5 for
    # the verified x = ch tau cg^-1
    grown = record_growth(monkeypatch)
    solves = capture_solves(monkeypatch)
    g, s = parse(P3, "a b c a c^-1"), parse(P3, "c")
    h = s * parse(P3, "b c a c^-1 a") * s.inverse()
    (cg, gc), (ch, hc) = g.cyclic_normal_form(), h.cyclic_normal_form()
    assert gc != hc and (cg, ch) == (Element(P3), s)
    res = magnus_conjugate_test(g, h, 6, 2, 2)
    assert grown == [(1, 4), (2, 11)]
    ((_, top, shape, rows, x),) = solves
    assert (top, len(rows)) == (2, 10) and x is not None
    tau = conjugate(gc, hc).conjugator
    conj = ch * tau * cg.inverse()
    assert conj * g * conj.inverse() == h
    unit = TruncatedAlgebraElement(P3, 6, 4, magnus_image(conj.inverse(), 5, 2, 2).coeffs)
    assert res == NotSeparatedAtThisLevel(unit)
    assert is_checked_unit(res.unit, g, h, 6, 2, 2)
    assert shape == whole_magnus_system(gc, hc, 6, 2, 2)[0].shape


def test_conjugate_pair_past_the_basis_bound_answers():
    # five free letters pass the bound at degree 5, where the whole system
    # of a b c d e against its rotation c d e a b raised ValueError; its
    # rows of degree <= 2 use 31 monomials, and the conjugator answers
    free5 = Graph(list("abcde"))
    g, h = parse(free5, "a b c d e"), parse(free5, "c d e a b")
    with pytest.raises(ValueError, match="up to degree 5"):
        TraceAlgebra(free5, 5)
    for d in (5, 8):
        res = magnus_conjugate_test(g, h, d, 2, 2)
        assert is_checked_unit(res.unit, g, h, d, 2, 2)


def test_non_conjugate_cores_extend_the_leading_rows(monkeypatch):
    # a b^2 a^-2 b^-2 against a b^-2 a^-2 b^2 pass their rows of degree
    # <= 2 and conjugate rules them out, so one system is extended: the
    # second solve reads the first's rows first, and each degree is grown
    # once; at d = 6 it finds a unit, at d = 7 it separates
    grown = record_growth(monkeypatch)
    solves = capture_solves(monkeypatch)
    g, h = parse(F2, "a b^2 a^-2 b^-2"), parse(F2, "a b^-2 a^-2 b^2")
    for d, kind in ((6, NotSeparatedAtThisLevel), (7, Separated)):
        del grown[:], solves[:]
        res = magnus_conjugate_test(g, h, d, 2, 2)
        assert type(res) is kind
        assert [k for k, _ in grown] == list(range(1, d + 1))
        (first, top1, shape1, rows1, x1), (second, top2, shape2, rows2, x2) = solves
        assert first is second and (top1, top2) == (2, d) and shape1 == shape2
        assert x1 is not None and rows2[:len(rows1)] == rows1 and len(rows1) == 6
        matrix, _ = whole_magnus_system(g, h, d, 2, 2)
        assert shape2 == matrix.shape and rows2 == matrix[:len(rows2)]
        assert (x2 is None) == (kind is Separated)
    assert is_checked_unit(magnus_conjugate_test(g, h, 6, 2, 2).unit, g, h, 6, 2, 2)


def test_separating_level_scans_the_cores(monkeypatch):
    # conjugated by b d e, the weight-6 commutator on {a, c} uses all of
    # C5, whose basis passes the bound below degree 6 (the scan used to
    # raise there); its core uses {a, c}, where the scan answers (6, 1),
    # testing the cores alone
    test = nilpotent._cores_separate
    tried = []
    monkeypatch.setattr(
        nilpotent, "_cores_separate", lambda g, h, d, p, m: tried.append((g, h)) or test(g, h, d, p, m)
    )
    x, core = parse(C5, "b d e"), left_normed(C5, "acacac")
    g = x * core * x.inverse()
    assert g.support() == frozenset(range(5))
    with pytest.raises(ValueError, match="trace monomials"):
        TraceAlgebra(C5, 6)
    assert find_separating_level(g, parse(C5, "1"), 2) == (6, 1)
    assert set(tried) == {(core, parse(C5, "1"))}


def test_direct_call_on_a_pair_past_the_bound_decides_on_its_core(monkeypatch):
    # the pair of test_separating_level_scans_the_cores, called directly:
    # its own letters, all of C5, pass the bound below degree 6, so the
    # system is solved on its core's letters {a, c} alone; at degree 6 the
    # core separates, and at degree 5 the core's unit is moved to the pair
    lifted = nilpotent._lifted_unit
    moved = []
    monkeypatch.setattr(nilpotent, "_lifted_unit", lambda *args: moved.append(args[5]) or lifted(*args))
    x, core = parse(C5, "b d e"), left_normed(C5, "acacac")
    g, one = x * core * x.inverse(), parse(C5, "1")
    with pytest.raises(ValueError, match="trace monomials"):
        TraceAlgebra(C5, 6)
    assert magnus_conjugate_test(g, one, 6, 2, 1) == Separated(6, 2, 1)
    res = magnus_conjugate_test(g, one, 5, 2, 1)
    assert is_checked_unit(res.unit, g, one, 5, 2, 1)
    assert moved == [5]


def test_nothing_is_cached_on_the_graph():
    graph = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    before = set(vars(graph))
    g, h = parse(graph, "a b c"), parse(graph, "c b a")
    magnus_conjugate_test(g, h, 4, 2, 2)
    find_separating_level(g, parse(graph, "a c"), 2, max_d=3)
    lie_graded_dims(graph, 5)
    assert "_trace_cache" not in vars(graph)
    # adj_masks is the graph's own table, which cyclic_normal_form reads
    assert set(vars(graph)) - before <= {"adj_masks", "dependents", "letter_links"}


# ---------------------------------------------------------------------------
# graded Lie dimensions


def test_lie_dims_free_rank_two():
    dims = lie_graded_dims(F2, 5)
    assert tuple(dims) == (2, 1, 2, 3, 6)
    assert tuple(dims) == tuple(witt_free_lie_dims(2, 5))


def test_lie_dims_free_rank_three():
    assert tuple(lie_graded_dims(F3, 5)) == tuple(witt_free_lie_dims(3, 5))


def test_lie_dims_complete_graphs_are_abelian():
    assert tuple(lie_graded_dims(K2, 4)) == (2, 0, 0, 0)
    assert tuple(lie_graded_dims(K3, 4)) == (3, 0, 0, 0)
    # 768 212 cliques of at most 6 vertices: one factor (1 + t)^30, not one by one
    assert tuple(lie_graded_dims(complete_graph(30), 6)) == (30, 0, 0, 0, 0, 0)


def test_lie_dims_path():
    assert tuple(lie_graded_dims(P3, 4)) == (3, 1, 2, 3)


def test_lie_dims_satisfy_pbw_identity():
    for graph in CORPUS:
        adj = adj_sets(graph)
        dims = list(lie_graded_dims(graph, 5))
        lhs = poincare_series_product(dims, 5)
        rhs = trace_monoid_growth(adj, 5)
        assert lhs == rhs, graph


@pytest.mark.parametrize("p", [0, 2, 3])
def test_lie_dims_match_echelon(p):
    # the echelon brackets and eliminates over Z or F_p; the closed form
    # has no p because the ranks agree over every one of them
    rng = random.Random(4711)
    graphs = CORPUS + [C5] + [random_graph(rng, rng.randrange(2, 7)) for _ in range(20)]
    for graph in graphs:
        assert tuple(lie_graded_dims(graph, 5)) == echelon_lie_dims(graph, 5, p), graph.edges()


def test_lie_dims_stable_under_large_prime():
    for graph in CORPUS:
        assert tuple(lie_graded_dims(graph, 4)) == echelon_lie_dims(graph, 4, 31)


def test_clique_counts_match_oracle():
    rng = random.Random(1729)
    graphs = [complete_graph(6)] + [
        random_graph(rng, rng.randrange(1, 11), rng.choice((0.3, 0.6, 0.9)))
        for _ in range(30)
    ]
    for graph in graphs:
        full = clique_polynomial(adj_sets(graph))
        for upto in (1, 3, graph.n, graph.n + 2):
            want = (full + [0] * upto)[: upto + 1]
            assert nilpotent._clique_counts(graph, upto) == want, (graph.edges(), upto)


def cocktail_party(pairs):
    # every edge but a perfect matching: the join of `pairs` copies of F2
    names = [f"v{i}" for i in range(2 * pairs)]
    return Graph(names, [
        (names[i], names[j]) for i, j in itertools.combinations(range(2 * pairs), 2)
        if j != i + pairs
    ])


def test_clique_counts_cocktail_party():
    # a j-clique picks j of the 20 pairs and one vertex from each; listing
    # the 3^20 cliques one by one would not finish
    graph = cocktail_party(20)
    want = [math.comb(20, j) * 2**j for j in range(21)] + [0] * 20
    assert nilpotent._clique_counts(graph, 40) == want
    # the group is F2^20, whose Lie ring is 20 copies of the free one
    dims = tuple(lie_graded_dims(graph, 40))
    assert dims == tuple(20 * d for d in witt_free_lie_dims(2, 40))


def test_clique_counts_dense_random_graph():
    graph = random_graph(random.Random(40), 40, 0.9)
    counts = nilpotent._clique_counts(graph, 40)
    assert counts[:5] == clique_polynomial(adj_sets(graph), 4)
    assert len(lie_graded_dims(graph, 40)) == 40


def path_graph(n):
    names = [f"v{i}" for i in range(n)]
    return Graph(names, list(zip(names, names[1:])))


def test_listed_clique_counts_match_subset_scan():
    rng = random.Random(1730)
    for graph in [complete_graph(6)] + [random_graph(rng, rng.randrange(1, 11)) for _ in range(20)]:
        adj = adj_sets(graph)
        assert listed_clique_counts(adj, graph.n + 1) == clique_polynomial(adj, graph.n + 1)


@pytest.mark.parametrize("n", [1, 2, 5, 3000])
def test_clique_counts_long_paths(n):
    graph = path_graph(n)
    want = listed_clique_counts(adj_sets(graph), 6)
    assert want == [1, n, n - 1, 0, 0, 0, 0]
    assert nilpotent._clique_counts(graph, 6) == want


def test_lie_dims_of_long_path_never_list_non_neighbours():
    # Graph.dependents is quadratic in the vertex count; the Lie dimensions
    # come from the clique counts, so neither the graph nor they build it
    graph = path_graph(3000)
    assert lie_graded_dims(graph, 6)[0] == 3000
    assert "dependents" not in graph.__dict__


def test_clique_counts_free_group_of_rank_3000():
    graph = Graph([f"v{i}" for i in range(3000)])
    assert nilpotent._clique_counts(graph, 6) == listed_clique_counts(adj_sets(graph), 6)
    assert tuple(lie_graded_dims(graph, 4)) == tuple(witt_free_lie_dims(3000, 4))


def test_lie_dims_refuse_degree_past_bound():
    assert len(lie_graded_dims(F2, MAX_LIE_DEGREE)) == MAX_LIE_DEGREE
    with pytest.raises(ValueError, match="above the bound"):
        lie_graded_dims(F2, MAX_LIE_DEGREE + 1)


def test_graded_dims_container():
    dims = lie_graded_dims(F2, 3)
    assert isinstance(dims, tuple)
    assert dims == (2, 1, 2)


# ---------------------------------------------------------------------------
# Lie center


def test_center_trivial_free():
    assert lie_center_trivial(F2)
    assert lie_center_trivial(F3)


def test_center_nontrivial_with_central_vertex():
    assert not lie_center_trivial(K2)
    assert not lie_center_trivial(K3)
    assert not lie_center_trivial(P3)


def test_center_trivial_edge_plus_isolated():
    # no vertex is adjacent to everything, so nothing is central
    assert lie_center_trivial(EDGE_ISO)


@pytest.mark.parametrize("p", [2, 3])
def test_center_matches_echelon(p):
    # the answer holds over every ring and in every degree; the oracle
    # eliminates over F_p in degrees 1 to 3
    rng = random.Random(2718)
    graphs = [g for n in range(1, 5) for g in every_graph(n)]
    graphs += [random_graph(rng, 5) for _ in range(40)]
    for graph in graphs:
        want = echelon_center_trivial_upto(graph, 4, p)
        assert lie_center_trivial(graph) == want, graph.edges()


def test_center_matches_graph_center_at_degree_one():
    for graph in CORPUS:
        has_central_vertex = bool(graph.center_vertices())
        if has_central_vertex:
            assert not lie_center_trivial(graph)
