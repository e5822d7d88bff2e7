"""Exact linear solvers over Z and Z/p^m."""

import itertools
import random

import numpy as np

from raag import nilpotent
from raag._intlinalg import solve_mod_prime_power
from raag.graphs import Graph
from raag.words import Element
from oracles import (
    SparseMatrix,
    dense_matrix,
    dense_solve_mod_prime_power,
    reference_solve_mod_prime_power,
    solve_left_integer,
    solve_right_integer,
    sparse_matrix,
    whole_magnus_system,
)


def test_left_integer_simple():
    x = solve_left_integer([[2, 0], [0, 3]], [4, -3])
    assert x == [2, -1]
    assert solve_left_integer([[2, 0]], [1, 0]) is None
    assert solve_left_integer([], [0, 0]) == []
    assert solve_left_integer([], [1]) is None


def test_left_integer_gcd_combination():
    # 3 and 5 generate Z
    x = solve_left_integer([[3], [5]], [1])
    assert x is not None and 3 * x[0] + 5 * x[1] == 1


def test_right_integer_matches_left():
    x = solve_right_integer([[2, 3], [1, 1]], [7, 3])
    assert x is not None
    assert [2 * x[0] + 3 * x[1], x[0] + x[1]] == [7, 3]


def test_left_integer_random_solvable():
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        coeffs = [rng.randrange(-3, 4) for _ in range(m)]
        target = [sum(coeffs[i] * rows[i][j] for i in range(m)) for j in range(n)]
        x = solve_left_integer(rows, target)
        assert x is not None
        assert [sum(x[i] * rows[i][j] for i in range(m)) for j in range(n)] == target


def test_mod_prime_power_valuation_pivoting():
    # needs the low-valuation entry even though it is not first in its column
    x = solve_mod_prime_power(sparse_matrix([[2, 1]]), [1], 2, 2)
    assert x is not None
    assert (2 * x[0] + x[1]) % 4 == 1


def test_mod_prime_power_no_solution():
    assert solve_mod_prime_power(sparse_matrix([[2]]), [1], 2, 2) is None
    assert solve_mod_prime_power(sparse_matrix([[0]]), [2], 3, 1) is None
    assert solve_mod_prime_power(sparse_matrix([[3, 6]]), [1], 3, 2) is None


def test_mod_prime_power_larger_system():
    rng = random.Random(13)
    for p, m in ((2, 2), (3, 1)):
        q = p**m
        n = 30
        sol = np.array([rng.randrange(q) for _ in range(n)])
        a = np.array([[rng.randrange(q) for _ in range(n)] for _ in range(n)])
        b = (a @ sol) % q
        x = solve_mod_prime_power(sparse_matrix(a), b, p, m)
        assert x is not None
        assert not np.any((a @ x - b) % q)


def test_mod_prime_power_large_modulus_is_exact():
    # q^2 is far past 2^63 here, so int64 elimination would wrap around
    p, m = 2**31 - 1, 2
    q = p**m
    rng = random.Random(17)
    n = 6
    sol = [rng.randrange(q) for _ in range(n)]
    a = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
    b = [sum(r * s for r, s in zip(row, sol)) % q for row in a]
    x = solve_mod_prime_power(sparse_matrix(a), b, p, m)
    assert x is not None
    assert all(sum(r * int(v) for r, v in zip(row, x)) % q == t for row, t in zip(a, b))


def _uniform(rng, p, m):
    return rng.randrange(p**m)


def _weighted(rng, p, m):
    # c * p^k with k uniform in 0..m, so every valuation is common
    return rng.randrange(1, p**m) * p ** rng.randrange(m + 1) % p**m


def _image(a, q):
    grid = np.array(list(itertools.product(range(q), repeat=len(a[0]))), dtype=np.int64)
    return {tuple(row) for row in (grid @ np.array(a, dtype=np.int64).T % q).tolist()}


def test_mod_prime_power_matches_enumeration():
    # uniform and valuation-weighted entries, non-square and rank-deficient
    # systems; the verdict must match the enumerated image and the
    # global-pivoting oracle, and a returned solution must solve the system
    rng = random.Random(19)
    seen = {"solvable": 0, "unsolvable": 0, "deficient": 0, "non-square": 0}
    for draw in (_uniform, _weighted):
        for p in (2, 3, 5):
            for m in (1, 2, 3):
                q = p**m
                widest = max(k for k in range(1, 5) if q**k <= 15625)
                for _ in range(30):
                    neq, nvar = rng.randrange(1, 5), rng.randrange(1, widest + 1)
                    a = [[draw(rng, p, m) for _ in range(nvar)] for _ in range(neq)]
                    if neq > 1 and rng.random() < 0.4:
                        # one row a weighted combination of the others
                        coef = [_weighted(rng, p, m) for _ in range(neq - 1)]
                        a[-1] = [sum(c * r[j] for c, r in zip(coef, a)) % q for j in range(nvar)]
                        seen["deficient"] += 1
                    elif nvar > 1 and rng.random() < 0.4:
                        # one column a weighted combination of the others
                        coef = [_weighted(rng, p, m) for _ in range(nvar - 1)]
                        for row in a:
                            row[-1] = sum(c * x for c, x in zip(coef, row)) % q
                        seen["deficient"] += 1
                    seen["non-square"] += neq != nvar
                    image = _image(a, q)
                    x0 = [rng.randrange(q) for _ in range(nvar)]
                    targets = [
                        [sum(r * x for r, x in zip(row, x0)) % q for row in a],
                        [draw(rng, p, m) for _ in range(neq)],
                        [_weighted(rng, p, m) for _ in range(neq)],
                    ]
                    for b in targets:
                        x = solve_mod_prime_power(sparse_matrix(a), b, p, m)
                        ref = reference_solve_mod_prime_power(a, b, p, m)
                        solvable = tuple(b) in image
                        assert (x is not None) == solvable == (ref is not None), (p, m, a, b)
                        if x is not None:
                            got = np.array(a, dtype=np.int64) @ np.array(x, dtype=np.int64) % q
                            assert got.tolist() == b
                        seen["solvable" if solvable else "unsolvable"] += 1
    assert min(seen.values()) > 150, seen


def _commutator_pairs(rng, graph, count):
    """[u, v] against s [v, u] s^-1 for non-adjacent vertices u, v."""
    apart = [
        (u, v) for u in range(graph.n) for v in range(graph.n)
        if u != v and not graph.adjacent(u, v)
    ]
    for _ in range(count):
        u, v = (x + 1 for x in rng.choice(apart))
        s = Element(graph, [rng.choice((1, -1)) * rng.randrange(1, graph.n + 1) for _ in range(2)])
        yield Element(graph, [u, v, -u, -v]), s * Element(graph, [v, u, -v, -u]) * s.inverse()


def _conjugate_pairs(rng, graph, count):
    for _ in range(count):
        g = Element(graph, [rng.choice((1, -1)) * rng.randrange(1, graph.n + 1) for _ in range(4)])
        s = Element(graph, [rng.choice((1, -1)) * rng.randrange(1, graph.n + 1) for _ in range(3)])
        yield g, s * g * s.inverse()


def capture_magnus_solves(monkeypatch):
    """Record each solve of a Magnus test as (g, h, rows, rhs, unknowns, p,
    m, x): the pair its `_MagnusSystem` was built on (the cyclic cores on
    their support, from `magnus_conjugate_test`), the rows the solve built
    and read, whole degrees up to the one that ended it, their right-hand
    sides, the number of unknowns of the whole system, the modulus and the
    answer. Above degree 2 the public test may solve one system twice:
    first its rows of degree <= 2, then all of it."""
    solves, pairs = [], {}
    system, solve = nilpotent._MagnusSystem, nilpotent.solve_mod_prime_power

    def magnus_system(g, h, d, q):
        built = system(g, h, d, q)
        pairs[id(built)] = (built, g, h)
        return built

    def capture(matrix, rhs, p, m):
        x = solve(matrix, rhs, p, m)
        solves.append((*pairs[id(matrix)][1:], matrix[:], rhs[:], matrix.shape[1], p, m, x))
        return x

    monkeypatch.setattr(nilpotent, "_MagnusSystem", magnus_system)
    monkeypatch.setattr(nilpotent, "solve_mod_prime_power", capture)
    return solves


def test_mod_prime_power_agrees_with_global_pivoting_on_magnus_systems(monkeypatch):
    # the kernel is driven on the pairs themselves, on the whole graph: the
    # public test answers conjugate pairs with equal cores without a solve
    solves = capture_magnus_solves(monkeypatch)
    rng = random.Random(31)
    p3 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    f3 = Graph(["a", "b", "c"])
    c5 = Graph(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
    verdicts = []
    for graph, d in ((p3, 6), (f3, 5), (c5, 4)):
        pairs = [*_commutator_pairs(rng, graph, 3), *_conjugate_pairs(rng, graph, 2)]
        for g, h in pairs:
            for p, m in ((2, 2), (3, 2)):
                del solves[:]
                nilpotent._conjugating_unit(g, h, d, p, m)
                (g1, h1, rows, rhs, ncols, _, _, x), = solves
                res = nilpotent.magnus_conjugate_test(g, h, d, p, m)
                assert isinstance(res, nilpotent.Separated) == (x is None)
                # the rows read decide as global pivoting does on them, and
                # they lead the whole system, which it decides the same way
                ref = reference_solve_mod_prime_power(dense_matrix(SparseMatrix(rows, ncols)), rhs, p, m)
                assert (x is None) == (ref is None)
                whole, whole_rhs = whole_magnus_system(g1, h1, d, p, m)
                assert (rows, rhs) == (whole[:len(rows)], whole_rhs[:len(rows)])
                ref = reference_solve_mod_prime_power(dense_matrix(whole), whole_rhs, p, m)
                assert (x is None) == (ref is None)
                assert x is None or len(rows) == len(whole)
                verdicts.append(ref is None)
    assert 0 < sum(verdicts) < len(verdicts)


def test_sparse_solve_matches_dense_elimination_on_magnus_systems(monkeypatch):
    # the sparse solver runs the dense elimination on nonzeros only: same
    # pivots, so the same vector (or None on both sides), on the rows the
    # solve read; a vector comes only from reading every row it was given,
    # the whole system or, in the public test's first stage above degree
    # 2, its rows of degree <= 2, which lead the whole system
    solves = capture_magnus_solves(monkeypatch)
    rng = random.Random(37)
    f2 = Graph(["a", "b"])
    p3 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    f3 = Graph(["a", "b", "c"])
    c5 = Graph(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
    for graph, top in ((p3, 7), (f3, 5), (c5, 4), (f2, 8)):
        for g, h in [*_commutator_pairs(rng, graph, 2), *_conjugate_pairs(rng, graph, 2)]:
            for d in range(1, top + 1):
                for p, m in ((2, 1), (2, 2), (3, 1), (3, 2)):
                    nilpotent.magnus_conjugate_test(g, h, d, p, m)
            for d in range(1, 4):
                nilpotent.magnus_conjugate_test(g, h, d, 100003, 2)
    leading = 0
    for g, h, rows, rhs, ncols, p, m, x in solves:
        ref = dense_solve_mod_prime_power(dense_matrix(SparseMatrix(rows, ncols)), rhs, p, m)
        assert x == (None if ref is None else [int(v) for v in ref]), (len(rows), ncols, p, m)
        whole, _ = whole_magnus_system(g, h, 2, p, m)
        if x is not None and len(rows) == len(whole) and ncols > whole.shape[1]:
            leading += 1
            assert rows == whole[:]
    assert leading > 0
    verdicts = [x is None for *_, x in solves]
    assert 0 < sum(verdicts) < len(verdicts)


def test_mod_prime_power_revisits_a_column_in_the_next_pass():
    # pass 0: row 0 pivots on its last unit, column 1; row 1 reduces
    # to (2, 0, 1) and pivots on column 2; row 2 reduces to (2, 0, 0), with
    # no unit left. Column 0 is pivoted only in pass 1, on the 2 in row 2;
    # skip it and row 2 looks inconsistent.
    a = [[1, 1, 0], [1, 3, 1], [0, 2, 2]]
    p, m = 2, 2
    image = _image(a, 4)
    assert len(image) == 32
    for b in itertools.product(range(4), repeat=3):
        x = solve_mod_prime_power(sparse_matrix(a), list(b), p, m)
        assert (x is not None) == (b in image) == (reference_solve_mod_prime_power(a, list(b), p, m) is not None)
        if x is not None:
            assert (np.array(a) @ x % 4).tolist() == list(b)


def test_mod_prime_power_clears_a_free_row_by_the_pivots_made_after_it():
    # mod 4: row 0 has no unit, so pass 0 leaves it free; row 1 then
    # pivots on column 1. Pass 1 must reduce row 0 by that pivot, to
    # (2, 0), before reading it; unreduced, it would pivot on column 1 a
    # second time. Mod 8: row 0 stays free through passes 0 and 1, row 1
    # pivots on column 1 in pass 1, and row 0, reduced by it to (4, 0),
    # pivots in pass 2.
    for a, p, m in (([[2, 2], [0, 1]], 2, 2), ([[4, 4], [0, 2]], 2, 3)):
        q = p**m
        image = _image(a, q)
        for b in itertools.product(range(q), repeat=2):
            x = solve_mod_prime_power(sparse_matrix(a), list(b), p, m)
            ref = reference_solve_mod_prime_power(a, list(b), p, m)
            assert (x is not None) == (b in image) == (ref is not None), (a, b)
            if x is not None:
                assert (np.array(a) @ x % q).tolist() == list(b)


class _Unread(dict):
    """A row that elimination must not reach."""

    def items(self):
        raise AssertionError("a row past the certificate was read")


def test_mod_prime_power_stops_at_a_built_row_with_no_solution(monkeypatch):
    # [a, b] and [b, a] have zero abelianization, so the degree-2 rows of
    # their Magnus system have no unknowns, and the row of ab reads
    # 0 = 2 mod 4; the rows after it are unsolvable too, and none is read:
    # the solve builds the degree-2 rows and no more
    solves = capture_magnus_solves(monkeypatch)
    f2 = Graph(["a", "b"])
    g, h = Element(f2, [1, 2, -1, -2]), Element(f2, [2, 1, -2, -1])
    assert isinstance(nilpotent.magnus_conjugate_test(g, h, 4, 2, 2), nilpotent.Separated)
    (_, _, rows, rhs, ncols, _, _, x), = solves
    first = next(i for i, t in enumerate(rhs) if t % 4)
    # basis[1:] starts a, b, aa, ab
    assert (x, first, rows[first], rhs[first] % 4) == (None, 3, {}, 2)
    assert len(rows) == 6
    matrix, rhs = whole_magnus_system(g, h, 4, 2, 2)
    assert (matrix.shape[1], rows) == (ncols, matrix[:6])
    tail = dense_matrix(SparseMatrix(matrix[first + 1:], ncols))
    assert reference_solve_mod_prime_power(tail, rhs[first + 1:], 2, 2) is None
    unread = SparseMatrix(matrix[:first + 1] + [_Unread(row) for row in matrix[first + 1:]], ncols)
    assert solve_mod_prime_power(unread, rhs, 2, 2) is None


def test_mod_prime_power_stops_at_a_reduced_row_with_no_solution():
    # row 1 has a unit, so it proves nothing as given; reduced by the
    # pivot on row 0 it reads 3 x_1 = 1 mod 9, which nothing solves
    a = [[1, 3], [1, 6]]
    assert reference_solve_mod_prime_power(a[1:], [1], 3, 2) is not None
    assert reference_solve_mod_prime_power(a, [0, 1], 3, 2) is None
    unread = SparseMatrix([{0: 1, 1: 3}, {0: 1, 1: 6}, _Unread({0: 1})], 2)
    assert solve_mod_prime_power(unread, [0, 1, 0], 3, 2) is None
    # with 3 x_1 = 3 the row is consistent, and elimination goes on
    x = solve_mod_prime_power(sparse_matrix(a + [[1, 0]]), [0, 3, 6], 3, 2)
    assert x is not None and (x[0], x[1] % 3) == (6, 1)
