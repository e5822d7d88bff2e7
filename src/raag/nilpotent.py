"""Truncated trace-monoid algebras, unit embeddings, and nilpotent separation.

The positive words over a graph's vertices, modulo the commutations the graph
prescribes, form a trace monoid. Truncating its monoid algebra past a fixed
degree d gives a finite-rank ring in which each group generator embeds as the
unit 1 + v; inverses become geometric series that are exact in the truncation.
Over Z/p^m the units with constant term 1 form a finite p-group, so a pair of
group elements whose images fail to be conjugate there is certified
non-conjugate in the group itself. Deciding conjugacy of two UNITS is linear
algebra: M(g)·u = u·M(h) with the affine constraint that u has constant term
1 is a linear system over Z/p^m; it is almost all zeros, so it is built
and solved on its nonzero entries, exactly, in Python integers.

The same algebra carries the Lie theory: brackets of the degree-one part
generate a graded Lie ring whose dimensions d_n are the successive ranks of
the group's lower central series. They follow in closed form from the
clique polynomial C(t) = sum_j c_j t^j, where c_j counts the j-cliques:
prod_n (1 - t^n)^(-d_n) = 1 / C(-t) (Duchamp-Krob).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import zip_longest
from math import comb

from ._checks import require_prime, verify
from ._intlinalg import SparseMatrix, solve_mod_prime_power
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
    "MAX_LIE_DEGREE",
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


# the Magnus system has one equation per monomial of degree 1..d and one
# unknown per monomial of degree 1..d-1; a free group of rank 2 has 2047
# monomials at degree 10 and 4095 at degree 11, where the test of a
# conjugate pair takes about 0.2 s and 0.4-0.7 s on one Xeon core (Python
# 3.11), and elimination fill-in makes each further degree cost about 2-4
# times the last, so larger bases are refused before they are built
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
    linear system over Z/p^m. Write it as (M(g) - 1)*u - u*(M(h) - 1) = 0:
    both factors lack a constant term, so the operator raises degree by at
    least one. The degree-0 equation is then identically zero, and so is
    the column of every degree-d unknown: those coefficients are free, and
    the returned unit has them 0. What is left has one unknown per monomial
    of degree 1..d-1 and one equation per monomial of degree 1..d; the
    constant term 1 moves to the right-hand side, and the rest is
    elimination. A found unit is verified by multiplication before being
    returned.
    """
    left = magnus_image(g, d, p, m)
    right = magnus_image(h, d, p, m)
    graph = g.graph
    basis = trace_monomials(graph, d)
    index = {mono: i for i, mono in enumerate(basis[1:])}
    # the constant 1 first, then the unknowns; the basis runs by degree
    cols = [w for w in basis if len(w) < d]
    # the constant terms of the two images cancel in every column
    left_terms = [(t, c) for t, c in left.coeffs.items() if t]
    right_terms = [(t, c) for t, c in right.coeffs.items() if t]
    q = p**m
    rows = [{} for _ in index]
    rhs = [0] * len(rows)
    for j, w in enumerate(cols):
        room = d - len(w)
        col = {}
        for t, c in left_terms:
            if len(t) <= room:
                key = trace_canonical(graph, t + w)
                col[key] = col.get(key, 0) + c
        for t, c in right_terms:
            if len(t) <= room:
                key = trace_canonical(graph, w + t)
                col[key] = col.get(key, 0) - c
        for key, c in col.items():
            c %= q
            if not c:
                continue
            if j:
                rows[index[key]][j - 1] = c
            else:
                # the constant column moves to the right-hand side
                rhs[index[key]] = -c % q
    sol = solve_mod_prime_power(SparseMatrix(rows, len(cols) - 1), rhs, p, m)
    if sol is None:
        return Separated(d, p, m)
    coeffs = {(): 1}
    coeffs.update(zip(cols[1:], sol))
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


def _times_binomial(poly, k, upto):
    """poly * (1 + t)^k, cut past degree upto."""
    out = [0] * min(len(poly) + k, upto + 1)
    for i, a in enumerate(poly):
        for j in range(min(k, len(out) - 1 - i) + 1):
            out[i + j] += a * comb(k, j)
    return out


def _clique_counts(graph, upto):
    """c_0, ..., c_upto, where c_j is the number of cliques with j vertices.

    Let P(S) be the clique polynomial of the subgraph induced on S. Order
    the vertices v_1, v_2, ... by repeatedly taking one of least degree
    among those left (a degeneracy order), and let N+(v_i) be the
    neighbours of v_i later in the order. A nonempty clique is its first
    vertex v_i joined to a clique of N+(v_i), so

        P(V) = 1 + t sum_i P(N+(v_i)),

    and each N+(v_i) has at most the graph's degeneracy many vertices,
    which keeps the pieces small on sparse graphs.
    """
    adj = graph.adj
    degree = [len(a) for a in adj]
    heap = [(k, v) for v, k in enumerate(degree)]
    heapq.heapify(heap)
    taken = [False] * graph.n
    memo = {}
    counts = [1] + [0] * upto
    while heap:
        k, v = heapq.heappop(heap)
        if taken[v] or k != degree[v]:
            continue
        taken[v] = True
        later = frozenset(w for w in adj[v] if not taken[w])
        for w in later:
            degree[w] -= 1
            heapq.heappush(heap, (degree[w], w))
        for j, c in enumerate(_clique_polynomial(adj, later, upto, memo)[:upto]):
            counts[j + 1] += c
    return counts


def _clique_polynomial(adj, whole, upto, memo):
    """P(whole), cut past degree upto, memoised in memo on vertex sets.

    A clique of S misses a vertex v or is v joined to a clique of its
    neighbours, so P(S) = P(S - v) + t P(S & N(v)). The k vertices of S
    adjacent to all the rest join every clique of the others freely, a
    factor (1 + t)^k; on what remains the recursion branches on the vertex
    with the fewest neighbours there. An explicit stack keeps the
    recursion off Python's call stack, which a long chain would overflow.
    """
    plans = {}
    stack = [whole]
    while stack:
        s = stack[-1]
        if s in memo:
            stack.pop()
            continue
        if s not in plans:
            inner = {v: len(s & adj[v]) for v in s}
            rest = [v for v in s if inner[v] < len(s) - 1]
            if not rest:
                memo[s] = _times_binomial([1], len(s), upto)
                continue
            v = min(rest, key=inner.get)
            rest = frozenset(rest)
            plans[s] = (len(s) - len(rest), rest - {v}, rest & adj[v])
            stack.extend(m for m in plans[s][1:] if m not in memo)
            continue
        peeled, without, within = plans.pop(s)
        shifted = [0] + memo[within][:upto]
        poly = [a + b for a, b in zip_longest(memo[without], shifted, fillvalue=0)]
        memo[s] = _times_binomial(poly, peeled, upto)
        stack.pop()
    return memo[whole]


# the Newton loop below costs O(d^2) big-integer steps; degree 4096 takes
# about 1.5 s on a free group of rank 2, and larger degrees are refused
MAX_LIE_DEGREE = 4096


def lie_graded_dims(graph, max_degree):
    """Graded dimensions of the Lie ring generated by the vertices.

    Its graded pieces are free modules of the same rank over Z and over
    every field (the Lyndon heaps of Lalonde give a basis with leading
    coefficient 1), and by Duchamp-Krob the ranks d_n satisfy

        prod_n (1 - t^n)^(-d_n)  ==  1 / C(-t),

    with C(t) = sum_j c_j t^j the clique polynomial. Taking logarithms,
    sum_{k | n} k d_k equals the power sum p_n of the roots of
    G(t) = C(-t), and Newton's identity gives p_n from g_j = (-1)^j c_j.
    max_degree must lie between 1 and MAX_LIE_DEGREE.
    """
    if max_degree < 1:
        raise ValueError("need at least degree 1")
    if max_degree > MAX_LIE_DEGREE:
        raise ValueError(f"degree {max_degree} is above the bound {MAX_LIE_DEGREE}")
    g = [(-1) ** j * c for j, c in enumerate(_clique_counts(graph, max_degree))]
    power = [0]
    dims = [0]
    for n in range(1, max_degree + 1):
        power.append(-n * g[n] - sum(power[k] * g[n - k] for k in range(1, n)))
        divisors = sum(k * dims[k] for k in range(1, n) if n % k == 0)
        dims.append((power[n] - divisors) // n)
    return GradedDims(tuple(dims[1:]))


def lie_center_trivial_upto(graph, max_degree, p):
    """True when no nonzero homogeneous element of degree < max_degree
    commutes with every vertex generator, over the field with p elements.

    That holds exactly when the graph has no central vertex, in every degree
    and over every coefficient ring. p must be prime and max_degree at least
    2, or no degree would be checked.

    Proof. (1) If vx = xv in the trace algebra, every monomial of x uses
    only letters of st(v). Suppose a monomial t of x has j letters v and a
    letter u outside st(v). The coefficient of v.t in vx is that of t, so
    v.t is a monomial of xv and ends in v: the last v of t commutes with
    every letter after it, and v.t = t'.v with t' the word t with that v
    moved to the front. Trace monoids cancel, so t' has the coefficient of
    t in x. After j moves v^j.r is a monomial of x, with r free of v and
    containing u; then v^(j+1).r must end in v, which needs every letter
    of r in st(v), and u is not. (2) So a homogeneous Lie element commuting
    with every vertex uses only the set C of central vertices, which is a
    clique. (3) The ring map that kills every vertex outside C fixes that
    element and sends the Lie ring into the commutative algebra on C, where
    every bracket vanishes. So the element is 0 in degree >= 2 and lies in
    the span of C in degree 1, and a nonzero one exists exactly when C is
    not empty.
    """
    require_prime(p)
    if max_degree < 2:
        raise ValueError("need max degree at least 2; only lower degrees are checked")
    return not graph.center_vertices()
