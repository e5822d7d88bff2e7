"""Truncated trace-monoid algebras, unit embeddings, and nilpotent separation.

The positive words over a graph's vertices, modulo the commutations the graph
prescribes, form a trace monoid. Truncating its monoid algebra past a fixed
degree d gives a finite-rank ring in which each group generator embeds as the
unit 1 + v; inverses become geometric series that are exact in the truncation.
Over Z/p^m the units with constant term 1 form a finite p-group, so a pair of
group elements whose images fail to be conjugate there is certified
non-conjugate in the group itself. Deciding conjugacy of two UNITS is linear
algebra: M(g)·u = u·M(h) with the affine constraint that u has constant term
1 is a linear system over Z/p^m, solved exactly.

The same algebra carries the Lie theory: brackets of the degree-one part
generate a graded Lie ring whose dimensions are the successive ranks of the
group's lower central series, computed degree by degree with exact
elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from ._checks import require_prime, verify
from ._intlinalg import exact_dtype, solve_mod_prime_power
from .words import _canonical

__all__ = [
    "TruncatedAlgebraElement",
    "Separated",
    "NotSeparatedAtThisLevel",
    "NOT_FOUND",
    "GradedDims",
    "trace_canonical",
    "trace_monomials",
    "MAX_TRACE_MONOMIALS",
    "magnus_image",
    "magnus_conjugate_test",
    "find_separating_level",
    "lie_graded_dims",
    "lie_center_trivial_upto",
]


# ---------------------------------------------------------------------------
# trace monomials

# monomials are canonical positive trace words, stored as tuples of vertex
# indices; canonicalization is the group normal form restricted to positive
# letters, which never cancels and lands on the lex-least representative


def _monomial_cache(graph):
    cache = getattr(graph, "_trace_cache", None)
    if cache is None:
        cache = {}
        graph._trace_cache = cache
    return cache


def trace_canonical(graph, word):
    """Canonical form of a positive trace word (tuple of vertex indices)."""
    cache = _monomial_cache(graph)
    out = cache.get(word)
    if out is None:
        letters = _canonical(graph, tuple(v + 1 for v in word))
        out = tuple(lt - 1 for lt in letters)
        cache[word] = out
    return out


# the Magnus system is a dense square matrix with one unknown per monomial;
# a free group of rank 2 has 2047 of them at degree 10 and 4095 at degree 11,
# where one solve takes tens of seconds, so larger bases are refused before
# they are built
MAX_TRACE_MONOMIALS = 2048


def trace_monomials(graph, cap):
    """All canonical trace monomials of degree <= cap, by degree then lex.

    Raises ValueError as soon as more than MAX_TRACE_MONOMIALS have been
    found, without building the rest of the basis.
    """
    levels = [[()]]
    count = 1
    for d in range(1, cap + 1):
        new = set()
        for w in levels[-1]:
            new.update(trace_canonical(graph, w + (v,)) for v in range(graph.n))
            if count + len(new) > MAX_TRACE_MONOMIALS:
                raise ValueError(
                    f"more than {MAX_TRACE_MONOMIALS} trace monomials up to degree {d}"
                )
        count += len(new)
        levels.append(sorted(new))
    return [m for level in levels for m in level]


# ---------------------------------------------------------------------------
# the truncated algebra


class TruncatedAlgebraElement:
    """Finitely supported coefficient map on trace monomials of degree <= cap.

    modulus 0 means exact integer (or rational) coefficients; modulus q > 0
    means coefficients in Z/q. Products discard every term whose degree
    exceeds the cap, which is what makes inverses of units exact.
    """

    __slots__ = ("graph", "cap", "modulus", "coeffs")

    def __init__(self, graph, cap, modulus=0, coeffs=None):
        self.graph = graph
        self.cap = cap
        self.modulus = modulus
        clean = {}
        for mono, c in (coeffs or {}).items():
            if len(mono) > cap:
                raise ValueError("monomial exceeds truncation degree")
            if modulus:
                c %= modulus
            if c:
                clean[mono] = c
        self.coeffs = clean

    @classmethod
    def one(cls, graph, cap, modulus=0):
        return cls(graph, cap, modulus, {(): 1})

    def _compat(self, other):
        if self.cap != other.cap:
            raise ValueError("truncation degrees differ")
        if self.modulus != other.modulus:
            raise ValueError("coefficient rings differ")
        if self.graph != other.graph:
            raise ValueError("algebras over different graphs")

    def __add__(self, other):
        self._compat(other)
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out.get(mono, 0) + c
        return TruncatedAlgebraElement(self.graph, self.cap, self.modulus, out)

    def __sub__(self, other):
        self._compat(other)
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out.get(mono, 0) - c
        return TruncatedAlgebraElement(self.graph, self.cap, self.modulus, out)

    def __neg__(self):
        return TruncatedAlgebraElement(
            self.graph, self.cap, self.modulus,
            {mono: -c for mono, c in self.coeffs.items()},
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncatedAlgebraElement(
                self.graph, self.cap, self.modulus,
                {mono: c * other for mono, c in self.coeffs.items()},
            )
        self._compat(other)
        cap = self.cap
        graph = self.graph
        out = {}
        for m1, c1 in self.coeffs.items():
            d1 = len(m1)
            for m2, c2 in other.coeffs.items():
                if d1 + len(m2) > cap:
                    continue
                key = trace_canonical(graph, m1 + m2)
                out[key] = out.get(key, 0) + c1 * c2
        return TruncatedAlgebraElement(graph, cap, self.modulus, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def constant_term(self):
        return self.coeffs.get((), 0)

    def is_one(self):
        return self.coeffs == {(): 1}

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedAlgebraElement)
            and self.graph == other.graph
            and self.cap == other.cap
            and self.modulus == other.modulus
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.cap, self.modulus, frozenset(self.coeffs.items())))

    def __repr__(self):
        names = self.graph.vertices
        terms = sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))
        parts = []
        for mono, c in terms[:8]:
            word = ".".join(names[v] for v in mono) if mono else "1"
            parts.append(f"{c}*{word}" if word != "1" else f"{c}")
        if len(terms) > 8:
            parts.append(f"... ({len(terms) - 8} more)")
        body = " + ".join(parts) if parts else "0"
        ring = f"Z/{self.modulus}" if self.modulus else "Z"
        return f"<{body} | deg<={self.cap} over {ring}>"


def bracket(x, y):
    """Ring commutator x*y - y*x."""
    return x * y - y * x


# ---------------------------------------------------------------------------
# the unit embedding


def magnus_image(x, d, p, m):
    """Image of a group element under v -> 1 + v, truncated at degree d,
    coefficients in Z/p^m.

    Inverse letters map to the truncated geometric series, so letter and
    inverse multiply to exactly 1 in the truncation and the whole map is a
    homomorphism into the units with constant term 1. p must be prime.
    """
    require_prime(p)
    if d < 1 or m < 1:
        raise ValueError("need d >= 1 and m >= 1")
    q = p**m
    graph = x.graph
    out = TruncatedAlgebraElement.one(graph, d, q)
    for lt in x.letters:
        v = lt - 1 if lt > 0 else -lt - 1
        if lt > 0:
            series = {(): 1, (v,): 1}
        else:
            series = {(v,) * k: (-1) ** k for k in range(d + 1)}
        out = out * TruncatedAlgebraElement(graph, d, q, series)
    return out


@dataclass(frozen=True)
class Separated:
    """No unit with constant term 1 conjugates one image to the other, so the
    group elements are non-conjugate in the finite p-group of units."""

    degree: int
    prime: int
    precision: int


@dataclass(frozen=True)
class NotSeparatedAtThisLevel:
    """A conjugating unit exists at this truncation level (stored, verified)."""

    unit: TruncatedAlgebraElement


class _NotFound:
    __slots__ = ()

    def __repr__(self):
        return "NOT_FOUND"


NOT_FOUND = _NotFound()


def magnus_conjugate_test(g, h, d, p, m):
    """Decide conjugacy of the images of g and h in the truncated unit group.

    Solvability of M(g)*u = u*M(h) in u with constant term 1 is one exact
    linear system over Z/p^m: the identity-monomial column moves to the right
    hand side and the rest is elimination. A found unit is verified by
    multiplication before being returned.
    """
    left = magnus_image(g, d, p, m)
    right = magnus_image(h, d, p, m)
    graph = g.graph
    basis = trace_monomials(graph, d)
    index = {mono: i for i, mono in enumerate(basis)}
    q = p**m
    n = len(basis)
    mat = np.zeros((n, n), dtype=exact_dtype(q, n))
    for j, w in enumerate(basis):
        lw = len(w)
        col = {}
        for t, c in left.coeffs.items():
            if len(t) + lw <= d:
                key = trace_canonical(graph, t + w)
                col[key] = col.get(key, 0) + c
        for t, c in right.coeffs.items():
            if lw + len(t) <= d:
                key = trace_canonical(graph, w + t)
                col[key] = col.get(key, 0) - c
        for key, c in col.items():
            mat[index[key], j] = c % q
    sol = solve_mod_prime_power(mat[:, 1:], (-mat[:, 0]) % q, p, m)
    if sol is None:
        return Separated(d, p, m)
    coeffs = {(): 1}
    for j, c in enumerate(sol, start=1):
        coeffs[basis[j]] = int(c)
    unit = TruncatedAlgebraElement(graph, d, q, coeffs)
    verify(
        unit.constant_term() == 1 and left * unit == unit * right,
        "conjugating unit",
    )
    return NotSeparatedAtThisLevel(unit)


def find_separating_level(g, h, p, max_d=6, max_m=2):
    """Least (d, m), degree scanned first, at which the images separate.

    Returns NOT_FOUND when every level in the grid admits a conjugating
    unit; conjugate inputs always come back NOT_FOUND. p must be prime,
    and max_d and max_m at least 1, so that the grid is not empty. The scan
    raises ValueError at the first degree whose trace basis is larger than
    MAX_TRACE_MONOMIALS, so pairs that separate below it are still answered.
    """
    require_prime(p)
    if max_d < 1 or max_m < 1:
        raise ValueError("need max_d >= 1 and max_m >= 1")
    for d in range(1, max_d + 1):
        for m in range(1, max_m + 1):
            if isinstance(magnus_conjugate_test(g, h, d, p, m), Separated):
                return d, m
    return NOT_FOUND


# ---------------------------------------------------------------------------
# graded Lie data


@dataclass(frozen=True)
class GradedDims:
    """Dimensions of the graded pieces, degree 1 upward."""

    dims: tuple

    def __iter__(self):
        return iter(self.dims)

    def __len__(self):
        return len(self.dims)

    def __getitem__(self, i):
        return self.dims[i]


def _strip(vec):
    return {k: v for k, v in vec.items() if v}


def _insert_echelon(pivots, vec, p):
    """Reduce vec against the pivot rows; install it if independent.

    Rows are dicts keyed by monomial; the pivot of a row is its least key.
    p = 0 runs exact integer cross-multiplication (with gcd normalization),
    p > 0 runs arithmetic mod the prime p. Returns the reduced row, or None
    when vec was in the span already.
    """
    vec = _strip(vec)
    while vec:
        lead = min(vec)
        piv = pivots.get(lead)
        if piv is None:
            if p:
                inv = pow(vec[lead], -1, p)
                vec = _strip({k: (v * inv) % p for k, v in vec.items()})
            else:
                g = 0
                for v in vec.values():
                    g = gcd(g, v)
                sign = -1 if vec[lead] < 0 else 1
                vec = {k: sign * v // g for k, v in vec.items()}
            pivots[lead] = vec
            return vec
        if p:
            c = vec[lead]
            keys = set(vec) | set(piv)
            vec = _strip(
                {k: (vec.get(k, 0) - c * piv.get(k, 0)) % p for k in keys}
            )
        else:
            a, b = piv[lead], vec[lead]
            keys = set(vec) | set(piv)
            vec = _strip(
                {k: vec.get(k, 0) * a - piv.get(k, 0) * b for k in keys}
            )
    return None


def _graded_bases(graph, max_degree, p=0):
    """Echelonized bases of the graded Lie pieces up to max_degree.

    The degree-one piece is spanned by the vertices; each next piece is
    spanned by brackets of the previous one with the vertices, which is all
    of it because the algebra is generated in degree one.
    """
    modulus = p
    gens = [
        TruncatedAlgebraElement(graph, max_degree, modulus, {(v,): 1})
        for v in range(graph.n)
    ]
    bases = [list(gens)]
    for _ in range(1, max_degree):
        pivots = {}
        level = []
        for x in bases[-1]:
            for g in gens:
                vec = bracket(x, g).coeffs
                red = _insert_echelon(pivots, vec, p)
                if red is not None:
                    level.append(
                        TruncatedAlgebraElement(graph, max_degree, modulus, red)
                    )
        bases.append(level)
    return bases


def lie_graded_dims(graph, max_degree, p=0):
    """Graded dimensions of the Lie ring generated by the vertices.

    Exact over the integers by default (these graded pieces are free, so the
    integer ranks are the rational ones); pass a prime p to compute the same
    dimensions over the field with p elements.
    """
    if max_degree < 1:
        raise ValueError("need at least degree 1")
    if p:
        require_prime(p)
    bases = _graded_bases(graph, max_degree, p)
    return GradedDims(tuple(len(level) for level in bases))


def lie_center_trivial_upto(graph, max_degree, p):
    """True when no nonzero homogeneous element of degree < max_degree
    commutes with every vertex generator, over the field with p elements.

    Each degree is one kernel computation: stack the brackets with all
    generators and check the columns are independent. p must be prime
    and max_degree at least 2, or no degree would be checked.
    """
    require_prime(p)
    if max_degree < 2:
        raise ValueError("need max degree at least 2; only lower degrees are checked")
    bases = _graded_bases(graph, max_degree, p)
    gens = bases[0]
    for level in bases[: max_degree - 1]:
        pivots = {}
        for x in level:
            stacked = {}
            for v, g in enumerate(gens):
                for mono, c in bracket(x, g).coeffs.items():
                    stacked[(v, mono)] = c
            if _insert_echelon(pivots, stacked, p) is None:
                return False
    return True
