"""Witness checks that stay on under ``python -O``."""

import os
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path

import numpy as np
import pytest

from raag._checks import PRIME_BOUND, require_prime

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Each block hands the library a corrupted intermediate result; the check on
# the witness it returns must raise even though -O strips every assert.
SCRIPT = r"""
from unittest import mock

from raag import conjugacy, cosets, hnn, nilpotent
from raag._intlinalg import solve_mod_prime_power
from raag.graphs import Graph
from raag.words import Element, parse
from oracles import SparseMatrix

f2 = Graph(["a", "b"])
one, a, b = parse(f2, "1"), parse(f2, "a"), parse(f2, "b")
ab, ba = parse(f2, "a b"), parse(f2, "b a")

try:
    assert False
    print("asserts stripped")
except AssertionError:
    print("asserts kept")


def corrupted(name, call):
    try:
        call()
        print(name, "returned")
    except AssertionError as exc:
        print(name, "raised:", exc)


# b is not in <a> 1 <a>; a lying strip gives both words the representative 1
with mock.patch.object(Element, "double_coset_form", lambda self, front, back: (one, one, one)):
    corrupted("double coset", lambda: cosets.in_double_coset(b, one, {0}, {0}))
    # b is not conjugate to a b a^-1 under <b>; the lying strip puts the
    # conjugator a in the double coset <b> 1 <b>, and a comes back
    corrupted("conjugate under strip", lambda: conjugacy.conjugate_under(b, a * b * a.inverse(), {1}))
# a bogus x0 = a^5 survives every step of conjugate_under's coset algebra
cores = conjugacy._conjugate_cores
with mock.patch.object(conjugacy, "_conjugate_cores", lambda g, h: (conjugacy.Conjugate(a**5), cores(g, h)[1])):
    corrupted("conjugate under", lambda: conjugacy.conjugate_under(ab, ba, {0}))
# a lying cyclic normal form gives a b and b a one core and conjugator 1
with mock.patch.object(Element, "cyclic_normal_form", lambda self: (one, ab)):
    corrupted("conjugate equal cores", lambda: conjugacy.conjugate(ab, ba))
    # the Magnus test takes M(1) as the unit only once 1 * ab * 1 == ba
    corrupted("magnus equal cores", lambda: nilpotent.magnus_conjugate_test(ab, ba, 2, 2, 1))
with mock.patch.object(conjugacy, "_factor_conjugator", lambda u, v: a**5):
    corrupted("conjugate", lambda: conjugacy.conjugate(ab, ba))
    # above degree 2 the rotated cores a b and b a pass their degree-2
    # rows, and the unit is M(x^-1) only once x * ab * x^-1 == ba
    corrupted("magnus rotated cores", lambda: nilpotent.magnus_conjugate_test(ab, ba, 4, 2, 1))
# the same pair when conjugate itself lies: the Magnus test checks x too
with mock.patch.object(conjugacy, "conjugate", lambda g, h: conjugacy.Conjugate(a**5)):
    corrupted("magnus lying conjugate", lambda: nilpotent.magnus_conjugate_test(ab, ba, 4, 2, 1))
with mock.patch.object(conjugacy, "_primitive_root", lambda p: a):
    corrupted("centralizer", lambda: conjugacy.centralizer(ab))
    # the set fold keeps the bogus root a of a b, which fails its own check
    corrupted("set centralizer", lambda: conjugacy.centralizer_in_special(f2, {0, 1}, [ab]))
# a c and c a use two of C5's letters, so the unit is solved for and
# checked on the full subgraph on {a, c}
c5 = Graph(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
ac, ca = parse(c5, "a c"), parse(c5, "c a")
with mock.patch.object(nilpotent, "solve_mod_prime_power", lambda m, r, p, k: [1] * m.shape[1]):
    corrupted("magnus unit", lambda: nilpotent.magnus_conjugate_test(ab, ba, 2, 2, 1))
    corrupted("magnus unit on the support", lambda: nilpotent.magnus_conjugate_test(ac, ca, 2, 2, 1))
# a b against a^-1 (b a) a: 1 + b conjugates neither their cores' images
# nor, moved by M(a), theirs at degree 2 mod 4
with mock.patch.object(nilpotent, "_conjugating_unit", lambda g, h, d, p, m: {(): 1, (1,): 1}):
    corrupted("magnus moved unit", lambda: nilpotent.magnus_conjugate_test(ab, a.inverse() * ba * a, 2, 2, 2))


# a row that reads {0: 1} to elimination and {0: 2} to the check
class Shifting(dict):
    reads = 0

    def items(self):
        self.reads += 1
        return {0: 1 if self.reads == 1 else 2}.items()


# x_0 = 1 solves x_0 = 1 but not 2 x_0 = 1 mod 4
corrupted("modular solution", lambda: solve_mod_prime_power(SparseMatrix([Shifting()], 1), [1], 2, 2))
# the separating-level scan decides conjugacy first; a bogus conjugator
# must raise there rather than come back as NOT_FOUND
with mock.patch.object(conjugacy, "_factor_conjugator", lambda u, v: a**5):
    corrupted("separating level", lambda: nilpotent.find_separating_level(ab, ba, 2))

# words wrongly flagged canonical: in a b a on the path a-b-c the interior
# syllable b commutes with the pivot a, and a a^-1 is a run of mixed signs
p3 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
aba = Element(p3, (1, 2, 1), canonical=True)
corrupted("reduced form", lambda: hnn.decompose(aba, 0))
run = Element(f2, (1, -1), canonical=True)
corrupted("pivot run", lambda: hnn.decompose(run, 0))
"""


def test_corrupted_witnesses_raise_under_optimize():
    # the script takes SparseMatrix from the test oracles
    paths = [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "asserts stripped"
    assert [line.split(":")[0] for line in lines[1:]] == [
        "double coset raised",
        "conjugate under strip raised",
        "conjugate under raised",
        "conjugate equal cores raised",
        "magnus equal cores raised",
        "conjugate raised",
        "magnus rotated cores raised",
        "magnus lying conjugate raised",
        "centralizer raised",
        "set centralizer raised",
        "magnus unit raised",
        "magnus unit on the support raised",
        "magnus moved unit raised",
        "modular solution raised",
        "separating level raised",
        "reduced form raised",
        "pivot run raised",
    ], proc.stdout


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _accepted(n):
    try:
        require_prime(n)
    except ValueError as exc:
        assert str(exc) == f"p = {n} is not prime"
        return False
    return True


def test_require_prime_matches_trial_division():
    assert [n for n in range(-3, 10**5) if _accepted(n) != _is_prime(n)] == []


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael
        2047,  # strong pseudoprime to base 2
        3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
        3825123056546413051,  # strong pseudoprime to the primes up to 23
        318665857834031151167461,  # strong pseudoprime to the primes up to 37
    ],
)
def test_require_prime_rejects_strong_pseudoprimes(n):
    assert not _accepted(n)


def test_require_prime_accepts_large_primes_fast():
    start = time.perf_counter()
    for p in (2**31 - 1, 2**61 - 1, 2**79 - 67):
        require_prime(p)
    assert time.perf_counter() - start < 0.05


def test_require_prime_wants_an_integer():
    # 2.0 == 2 is one of the bases, and used to pass
    for p in (2.0, 3.0, 7.5, "2", None):
        with pytest.raises(ValueError, match=f"p = {p!r} is not an integer"):
            require_prime(p)
    # numpy integers carry __index__, and come back as ints
    for p in (np.int64(2), np.int32(2**31 - 1)):
        assert require_prime(p) == p and type(require_prime(p)) is int


def test_require_prime_refuses_past_its_bound():
    # the bound is the least strong pseudoprime to the 13 bases, so it is
    # composite; past it, no answer would be exact
    for n in (PRIME_BOUND, 2**127 - 1):
        with pytest.raises(ValueError, match=f"decided only below {PRIME_BOUND}"):
            require_prime(n)
