"""Exact linear solvers over Z and Z/p^m."""

import itertools
import random

import numpy as np

from raag._intlinalg import solve_left_integer, solve_mod_prime_power, solve_right_integer


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
    x = solve_mod_prime_power([[2, 1]], [1], 2, 2)
    assert x is not None
    assert (2 * x[0] + x[1]) % 4 == 1


def test_mod_prime_power_no_solution():
    assert solve_mod_prime_power([[2]], [1], 2, 2) is None
    assert solve_mod_prime_power([[0]], [2], 3, 1) is None
    assert solve_mod_prime_power([[3, 6]], [1], 3, 2) is None


def test_mod_prime_power_matches_enumeration():
    rng = random.Random(11)
    for _ in range(60):
        p = rng.choice((2, 3))
        m = rng.randrange(1, 3)
        q = p**m
        neq, nvar = rng.randrange(1, 4), rng.randrange(1, 4)
        a = [[rng.randrange(q) for _ in range(nvar)] for _ in range(neq)]
        b = [rng.randrange(q) for _ in range(neq)]
        x = solve_mod_prime_power(a, b, p, m)
        brute = any(
            all(
                sum(a[i][j] * v[j] for j in range(nvar)) % q == b[i] % q
                for i in range(neq)
            )
            for v in itertools.product(range(q), repeat=nvar)
        )
        if x is None:
            assert not brute
        else:
            arr = np.asarray(a) @ np.asarray(x) % q
            assert all(int(arr[i]) == b[i] % q for i in range(neq))


def test_mod_prime_power_larger_system():
    rng = random.Random(13)
    for p, m in ((2, 2), (3, 1)):
        q = p**m
        n = 30
        sol = np.array([rng.randrange(q) for _ in range(n)])
        a = np.array([[rng.randrange(q) for _ in range(n)] for _ in range(n)])
        b = (a @ sol) % q
        x = solve_mod_prime_power(a, b, p, m)
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
    x = solve_mod_prime_power(a, b, p, m)
    assert x is not None
    assert all(sum(r * int(v) for r, v in zip(row, x)) % q == t for row, t in zip(a, b))
