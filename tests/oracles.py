"""Independent reference computations used to pin expected test values.

Everything here except the last sections (the ball searches, the
retraction-core double cosets and the paper's HNN routes for conjugacy
under a subgroup and for set centralizers, which reuse the package's word
arithmetic, the dense modular solver, which runs the package's
elimination on whole numpy rows, the sparse-form converters, and the
full Magnus system, the piled Magnus test and the Magnus system built
whole, which reuse the group normal form and the trace basis, the
whole-graph Magnus test and the Magnus level grid, which run the
package's own test, the Lie
bracket echelon, which reuse its truncated algebra, the full factor
loop for conjugacy, which reuses its cut decision and primitive roots,
and the p-group class, which reuses the witness group's law) is
deliberately written with
machinery different from the package: rewriting closures over raw tuples,
generating function recurrences, and brute force enumeration. Agreement
with the package is then a meaningful check rather than a tautology.

Words are tuples of signed ints, vertex i appearing as +-(i+1). A graph is
given by its adjacency: a list of frozensets of neighbour indices, except
in the sections that reuse the package, which take its Graph.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


# ---------------------------------------------------------------------------
# word problem: full rewriting closure


def reference_normal_form(adj, word, memo=None):
    """Canonical form of `word` by exhaustive rewriting.

    Explores the closure of the word under adjacent commuting swaps. If a
    free cancellation ever appears, recurses on the shortened word; all
    words seen along the way share the answer, which makes sweeping whole
    length-6 balls affordable. The canonical representative is the one
    minimising the vertex-index sequence (signs never need comparing: two
    distinct words in one class differ in their vertex sequences).
    """
    if memo is None:
        memo = {}
    word = tuple(word)
    if word in memo:
        return memo[word]
    seen = {word}
    stack = [word]
    shorter = None
    while stack and shorter is None:
        w = stack.pop()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a == -b:
                shorter = w[:i] + w[i + 2:]
                break
            if abs(a) != abs(b) and abs(b) - 1 in adj[abs(a) - 1]:
                swapped = w[:i] + (b, a) + w[i + 2:]
                if swapped not in seen:
                    seen.add(swapped)
                    stack.append(swapped)
    if shorter is not None:
        result = reference_normal_form(adj, shorter, memo)
    else:
        result = min(seen, key=lambda w: tuple(abs(x) for x in w))
    for w in seen:
        memo[w] = result
    return result


def all_words(rank, length):
    """Every word of exactly `length` letters over `rank` generators."""
    alphabet = [s * (i + 1) for i in range(rank) for s in (1, -1)]
    return itertools.product(alphabet, repeat=length)


def reference_reduced_words(adj, rank, max_len):
    """All canonical forms of length <= max_len, via the closure oracle."""
    memo = {}
    out = set()
    for length in range(max_len + 1):
        for w in all_words(rank, length):
            out.add(reference_normal_form(adj, w, memo))
    return out


# ---------------------------------------------------------------------------
# graded dimensions


def witt_free_lie_dims(rank, upto):
    """Degree-n dimensions of the free Lie algebra on `rank` generators."""

    def mobius(n):
        result = 1
        m = n
        p = 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                result = -result
            p += 1
        if m > 1:
            result = -result
        return result

    dims = []
    for n in range(1, upto + 1):
        total = 0
        for d in range(1, n + 1):
            if n % d == 0:
                total += mobius(d) * rank ** (n // d)
        dims.append(total // n)
    return dims


def clique_polynomial(adj, upto=None):
    """Coefficients c_0, c_1, ... where c_j counts the j-cliques, by trying
    every vertex subset of at most `upto` vertices (all of them by default)."""
    n = len(adj)
    upto = n if upto is None else upto
    coeffs = [0] * (upto + 1)
    for size in range(min(n, upto) + 1):
        for combo in itertools.combinations(range(n), size):
            if all(b in adj[a] for a, b in itertools.combinations(combo, 2)):
                coeffs[size] += 1
    return coeffs


def listed_clique_counts(adj, upto):
    """c_0, ..., c_upto by listing each clique of at most upto vertices
    once, as an increasing tuple grown by one larger common neighbour at a
    time. The work is the number of cliques times the degree, so it reaches
    large sparse graphs where clique_polynomial's subset scan cannot."""
    counts = [1] + [0] * upto
    level = [(v, frozenset(w for w in adj[v] if w > v)) for v in range(len(adj))]
    for size in range(1, upto + 1):
        counts[size] = len(level)
        level = [
            (w, frozenset(x for x in common & adj[w] if x > w))
            for _, common in level for w in common
        ]
    return counts


def trace_monoid_growth(adj, upto):
    """Number of degree-k basis monomials of the commutation monoid, from
    the reciprocal of the clique polynomial sum_j c_j (-t)^j."""
    c = clique_polynomial(adj)
    h = [1]
    for k in range(1, upto + 1):
        total = 0
        for j in range(1, min(k, len(c) - 1) + 1):
            total += c[j] * (-1) ** j * h[k - j]
        h.append(-total)
    return h


def count_trace_monomials(adj, upto):
    """The same counts by direct enumeration of lex-least representatives."""
    n = len(adj)
    counts = []
    for k in range(upto + 1):
        basis = set()
        for w in itertools.product(range(n), repeat=k):
            basis.add(_lex_least_positive(adj, w))
        counts.append(len(basis))
    return counts


def _lex_least_positive(adj, word):
    seen = {tuple(word)}
    stack = [tuple(word)]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            if w[i] != w[i + 1] and w[i + 1] in adj[w[i]]:
                s = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
    return min(seen)


def poincare_series_product(dims, upto):
    """Coefficients of prod_n (1 - t^n)^(-d_n) through degree `upto`,
    computed with exact rational arithmetic and returned as ints."""
    series = [Fraction(1)] + [Fraction(0)] * upto
    for n, d in enumerate(dims, start=1):
        if d == 0:
            continue
        # multiply by (1 - t^n)^(-d) = sum_j binom(d - 1 + j, j) t^(n j)
        factor = [Fraction(0)] * (upto + 1)
        j = 0
        while n * j <= upto:
            num = 1
            den = 1
            for i in range(j):
                num *= d + i
                den *= i + 1
            factor[n * j] = Fraction(num, den)
            j += 1
        new = [Fraction(0)] * (upto + 1)
        for a in range(upto + 1):
            if series[a] == 0:
                continue
            for b in range(0, upto + 1 - a):
                if factor[b] != 0:
                    new[a + b] += series[a] * factor[b]
        series = new
    assert all(x.denominator == 1 for x in series)
    return [int(x) for x in series]


# ---------------------------------------------------------------------------
# conjugacy: the Liu-Wrathall-Zeger orbit test


def reference_cyclic_class(adj, word, memo=None):
    """A representative of the conjugacy class of `word`.

    Liu, Wrathall and Zeger: cyclically reduced words of conjugate elements
    are joined by commuting swaps and moves of the front letter to the
    back. The closure of the word under those two moves is explored; when
    a free cancellation shows up, between neighbours or around the cycle,
    the search restarts from the shortened word. Every word seen along the
    way shares the answer, the least word of the final closure.
    """
    if memo is None:
        memo = {}
    word = tuple(word)
    if word in memo:
        return memo[word]
    seen = {word}
    stack = [word]
    shorter = None
    while stack and shorter is None:
        w = stack.pop()
        if len(w) >= 2 and w[0] == -w[-1]:
            shorter = w[1:-1]
            break
        moves = [w[1:] + w[:1]]
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a == -b:
                shorter = w[:i] + w[i + 2:]
                break
            if abs(a) != abs(b) and abs(b) - 1 in adj[abs(a) - 1]:
                moves.append(w[:i] + (b, a) + w[i + 2:])
        for nxt in moves:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if shorter is not None:
        result = reference_cyclic_class(adj, shorter, memo)
    else:
        result = min(seen)
    for w in seen:
        memo[w] = result
    return result


# ---------------------------------------------------------------------------
# the piling kernel's straightforward algorithms
#
# The package reads piles through a heap of ready vertices and cyclically
# reduces by peeling its heap once. These are the direct versions: a scan
# over every vertex per emitted letter, and one cancelled pair per pass.
# The package strips double cosets by scanning the canonical word with
# vertex bitmasks; `piled_double_coset_form` strips them on the piles.


def scan_depile(graph, piles):
    """Read the canonical word off piles built by raag.words._pile (a
    vertex's own letters, 0 for a marker) by scanning for the smallest
    vertex with a real front letter before every emission."""
    out = []
    while True:
        for v in range(graph.n):
            pile = piles[v]
            if pile and pile[0] != 0:
                out.append(pile.popleft())
                for j in graph.dependents[v]:
                    piles[j].popleft()
                break
        else:
            return tuple(out)


def reference_cyclic_normal_form(g):
    """(conj, core) with g == conj * core * conj^-1, cancelling one pair
    per pass: the first letter x that moves to the front of the canonical
    word for which some x^-1 moves to its back, then re-canonicalising."""
    from raag.words import Element

    graph = g.graph

    def commutes_with_all(x, letters):
        v = abs(x) - 1
        return all(abs(y) - 1 == v or abs(y) - 1 in graph.adj[v] for y in letters)

    conj = Element(graph, (), canonical=True)
    core = g
    changed = True
    while changed and core.letters:
        changed = False
        c = core.letters
        n = len(c)
        for i in range(n):
            x = c[i]
            if not commutes_with_all(x, c[:i]):
                continue
            for j in range(n - 1, i, -1):
                if c[j] == -x and commutes_with_all(x, c[j + 1:]):
                    conj = conj * Element(graph, (x,), canonical=True)
                    core = Element(graph, c[:i] + c[i + 1:j] + c[j + 1:])
                    changed = True
                    break
            if changed:
                break
    return conj, core


def _peel(graph, piles, verts, at_back):
    """Delete letters of vertices in `verts` from one end of the heap until
    none is left there; returns them in the order deleted."""
    from collections import deque

    dependents = graph.dependents
    end = -1 if at_back else 0
    take = deque.pop if at_back else deque.popleft
    # two ready vertices never depend on each other, so a vertex is pushed
    # only while absent
    ready = [v for v in verts if piles[v] and piles[v][end]]
    peeled = []
    while ready:
        v = ready.pop()
        pile = piles[v]
        peeled.append(take(pile))
        if pile and pile[end]:
            ready.append(v)
        for j in dependents[v]:
            other = piles[j]
            take(other)
            if j in verts and other and other[end]:
                ready.append(j)
    return peeled


def piled_double_coset_form(x, front, back):
    """(a, rep, b) of `Element.double_coset_form`, stripped on the piles:
    letters of `front` peeled from the front of x's heap until none is
    left there, then letters of `back` from its back, and the rest read
    off the piles."""
    from raag.words import Element, _depile, _pile

    graph = x.graph
    front, back = frozenset(front), frozenset(back)
    piles = _pile(graph, x.letters)
    left = _peel(graph, piles, front, at_back=False)
    right = _peel(graph, piles, back, at_back=True)
    return (
        Element(graph, left),
        Element(graph, _depile(graph, piles), canonical=True),
        Element(graph, right[::-1]),
    )


# ---------------------------------------------------------------------------
# ball searches over the package's own arithmetic
#
# These enumerate with raag's Element, so agreement with them checks the
# decision procedures, not the word arithmetic underneath.


def embed(x, supergraph):
    """x rewritten over a graph that induces x.graph on its vertex names."""
    from raag.words import Element

    names = x.graph.vertices
    mapped = []
    for lt in x.letters:
        j = supergraph.index[names[abs(lt) - 1]] + 1
        mapped.append(j if lt > 0 else -j)
    return Element(supergraph, mapped)


def restrict(x, subgraph):
    """x rewritten over a graph that x.graph induces on the names of its
    vertices, in any order; raises ValueError if a letter of x is not one
    of them. The word is canonicalised again, as the order may differ."""
    from raag.words import Element

    names = x.graph.vertices
    mapped = []
    for lt in x.letters:
        name = names[abs(lt) - 1]
        if name not in subgraph.index:
            raise ValueError(f"letter {name!r} missing from subgraph")
        j = subgraph.index[name] + 1
        mapped.append(j if lt > 0 else -j)
    return Element(subgraph, mapped)


def cayley_ball(graph, radius):
    """Set of all elements of reduced length at most `radius`.

    Prefixes of canonical words are canonical, so every element of length
    L+1 is a length-L element times one letter that makes the word longer;
    the length-increasing sweep is therefore exhaustive.
    """
    from raag.words import Element

    out = {Element(graph)}
    frontier = list(out)
    letters = [i + 1 for i in range(graph.n)]
    letters += [-lt for lt in letters]
    for _ in range(radius):
        new = []
        for w in frontier:
            for lt in letters:
                nxt = Element(graph, w.letters + (lt,))
                if len(nxt) > len(w) and nxt not in out:
                    out.add(nxt)
                    new.append(nxt)
        frontier = new
    return out


def subgroup_ball(graph, gens, max_len, slack=4, cap=400_000):
    """Elements of <gens> of reduced length at most max_len, by a bounded
    product sweep.

    Intermediate products may overshoot max_len by `slack` plus the longest
    generator before they are pruned, which in practice recovers every
    short element of the subgroups this package produces; the sweep makes
    no completeness promise beyond that. Generators that include every
    vertex of their supports (or its inverse) generate the special subgroup
    on those vertices, whose ball is enumerated exactly instead.
    """
    from raag.words import Element

    one = Element(graph)
    gens = [g for g in gens if g]
    if not gens:
        return {one}
    step = gens + [g.inverse() for g in gens]
    verts = frozenset().union(*(g.support() for g in gens))
    if all(Element(graph, (v + 1,)) in step for v in verts):
        sub = graph.full_subgraph(verts)
        return {embed(w, graph) for w in cayley_ball(sub, max_len)}
    limit = max_len + slack + max(len(g) for g in gens)
    seen = {one}
    frontier = [one]
    while frontier and len(seen) < cap:
        new = []
        for w in frontier:
            for s in step:
                nxt = w * s
                if len(nxt) > limit or nxt in seen:
                    continue
                seen.add(nxt)
                new.append(nxt)
                if len(seen) >= cap:
                    break
            if len(seen) >= cap:
                break
        frontier = new
    return {w for w in seen if len(w) <= max_len}


@dataclass(frozen=True)
class NotInBall:
    """No conjugator exists within the searched radius."""

    radius: int


def ball_oracle_conjugate(g, h, radius):
    """Decide existence of a conjugator of reduced length at most `radius`
    by meeting in the middle.

    Conjugation orbits of depth floor(r/2) from g and ceil(r/2) from h are
    expanded; any conjugator of length <= r splits across the two sweeps,
    so within the radius the decision is exact. Returns Conjugate with the
    shortlex-least witness found, or NotInBall.
    """
    from raag.conjugacy import Conjugate
    from raag.words import Element

    graph = g.graph
    one = Element(graph)
    gens = [Element(graph, (i + 1,)) for i in range(graph.n)]
    gens += [x.inverse() for x in gens]

    def orbit(start, depth):
        table = {start: one}
        frontier = [start]
        for _ in range(depth):
            new = []
            for w in frontier:
                s = table[w]
                for x in gens:
                    nw = x * w * x.inverse()
                    if nw not in table:
                        table[nw] = x * s
                        new.append(nw)
            frontier = new
        return table

    side_g = orbit(g, radius // 2)
    side_h = orbit(h, radius - radius // 2)
    best = None
    for w, tau in side_h.items():
        s2 = side_g.get(w)
        if s2 is None:
            continue
        sigma = tau.inverse() * s2
        if best is None or sigma.shortlex_key() < best.shortlex_key():
            best = sigma
    if best is None:
        return NotInBall(radius)
    if best * g * best.inverse() != h:
        raise AssertionError("ball-search conjugator fails to conjugate")
    return Conjugate(best)


# ---------------------------------------------------------------------------
# double cosets by the retraction algebra
#
# The package compares reduced representatives. This is the older
# reduction: the retraction algebra gives each double coset A·x·B a core,
# and membership is conjugacy of the cores under the special subgroup on
# A∩B, decided by conjugate_under (which can give up).


def canonical_double_coset_data(x, a_verts, b_verts):
    """(alpha, gamma) with gamma in <A> and alpha = gamma*x*rho_B(x^-1),
    so alpha lies in the double coset <A>x<B> by construction."""
    a = frozenset(a_verts)
    b = frozenset(b_verts)
    gamma = (x.retract(b) * x.inverse()).retract(a)
    alpha = gamma * x * x.inverse().retract(b)
    return alpha, gamma


def core_conjugacy_double_coset(y, x, a_verts, b_verts):
    """Decide y in <A>x<B> as conjugacy of the cores of x and y under
    <A∩B>. Returns (left, right) with y == left*x*right, or None when the
    cores are not conjugate."""
    from raag.conjugacy import Conjugate, conjugate_under

    a = frozenset(a_verts)
    b = frozenset(b_verts)
    alpha_x, gamma_x = canonical_double_coset_data(x, a, b)
    alpha_y, gamma_y = canonical_double_coset_data(y, a, b)
    res = conjugate_under(alpha_x, alpha_y, a & b)
    if not isinstance(res, Conjugate):
        return None
    d = res.conjugator
    left = gamma_y.inverse() * d * gamma_x
    right = x.inverse().retract(b) * d.inverse() * y.inverse().retract(b).inverse()
    if not (left.in_special(a) and right.in_special(b) and left * x * right == y):
        raise AssertionError("core-conjugacy factors fail to multiply out")
    return left, right


# ---------------------------------------------------------------------------
# conjugacy under a special subgroup along the paper's HNN route
#
# The package decides it from the conjugator coset x0*C(g). This is the
# paper's route: split along a pivot outside the subgroup as an HNN
# extension, decide the base products under the subgroup, and search the
# intersection of the base conjugators' centralizer coset with the prefix
# cosets by a bounded sweep, which can give up. Its folds are
# CentralizerState's, below.


@dataclass(frozen=True)
class Undecided:
    """The bounded coset-intersection sweep ran out before deciding."""

    detail: str


EMPTY = "EMPTY"
UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class SpecialCoset:
    """The set left * <verts> * right."""

    left: object
    verts: frozenset
    right: object

    def contains(self, w):
        return (self.left.inverse() * w * self.right.inverse()).in_special(self.verts)

    def conjugated_shape(self):
        """(c, u) with the same set written as c * u<verts>u^-1."""
        return self.left * self.right, self.right.inverse()


def hnn_element(hw, pivot):
    """x0 t^a1 x1 ... t^an xn of a syllable form along `pivot`, as an
    element."""
    from raag.words import Element

    t = pivot + 1
    out = hw.head
    for a, x in hw.syllables:
        out = out * Element(out.graph, (t if a > 0 else -t,) * abs(a)) * x
    return out


def hnn_base_prefix(hw, i):
    """x0 x1 ... x_i of a syllable form (i ranges over 0..n, where 0 gives
    the head and n the product of all base parts)."""
    out = hw.head
    for _, x in hw.syllables[:i]:
        out = out * x
    return out


class CentralizerState:
    """The set conj * C_{<verts>}(elems) * conj^-1, closed under folds.

    constrain_membership intersects with u<B>u^-1 (u given in the outer,
    unshifted frame) and lands back in the same shape: verts shrinks to
    verts & B and everything is transported by the normalising base change
    gamma, so arbitrarily many folds stay exact. Generators come from the
    injected `service(graph, verts, elems)`.
    """

    def __init__(self, graph, conj, verts, elems, service):
        self.graph = graph
        self.conj = conj
        self.verts = frozenset(verts)
        self.elems = tuple(y for y in elems if y)
        self.service = service

    def constrain_membership(self, u, b_verts):
        b = frozenset(b_verts)
        z = self.conj.inverse() * u
        rho_b = z.retract(b)
        b_z = z.inverse().retract(b)
        gamma = (rho_b * z.inverse()).retract(self.verts)
        alpha = gamma * z * b_z
        gi = gamma.inverse()
        return CentralizerState(
            self.graph,
            self.conj * gi,
            self.verts & b,
            (alpha,) + tuple(gamma * y * gi for y in self.elems),
            self.service,
        )

    def generators(self):
        ci = self.conj.inverse()
        return [self.conj * x * ci for x in self.service(self.graph, self.verts, self.elems)]


def _abelian_certificate_empty(graph, rep, gens, cosets):
    """True when exponent sums already rule out the whole instance.

    Every element of left<B>right fixes the coordinates outside B at
    ab(left*right); two cosets disagreeing there, or a forced vector
    outside the affine lattice reachable from rep, certify emptiness.
    """
    from raag.cosets import abelianization

    forced = {}
    for dc in cosets:
        ab_c = abelianization(dc.left * dc.right)
        for v in range(graph.n):
            if v in dc.verts:
                continue
            if v in forced and forced[v] != ab_c[v]:
                return True
            forced[v] = ab_c[v]
    if not forced:
        return False
    ab_rep = abelianization(rep)
    cols = sorted(forced)
    target = [forced[v] - ab_rep[v] for v in cols]
    rows = [[abelianization(x)[v] for v in cols] for x in gens]
    return solve_left_integer(rows, target) is None


def coset_intersection_nonempty(rep, state, double_cosets, search_bound, state_cap=20_000):
    """Witness in rep * (the set of `state`) ∩ every listed double coset,
    or a verdict.

    `state` is a CentralizerState; it is folded down after
    each coset is satisfied, so the sweep always moves inside the exact
    set of still-admissible elements. Returns an Element, EMPTY (certified,
    via the exponent-sum obstruction or an exhausted finite orbit), or
    UNDECIDED when a bound was hit.
    """
    graph = rep.graph
    gens = state.generators()
    if _abelian_certificate_empty(graph, rep, gens, double_cosets):
        return EMPTY
    for dc in double_cosets:
        if not dc.contains(rep):
            gens = state.generators()
            if not gens:
                return EMPTY
            step = list(gens) + [x.inverse() for x in gens]
            seen = {rep}
            frontier = [rep]
            found = None
            exhausted = True
            while frontier and found is None:
                new = []
                for w in frontier:
                    for s in step:
                        nxt = w * s
                        if nxt in seen:
                            continue
                        if len(nxt) > search_bound or len(seen) >= state_cap:
                            exhausted = False
                            continue
                        seen.add(nxt)
                        if dc.contains(nxt):
                            found = nxt
                            break
                        new.append(nxt)
                    if found is not None:
                        break
                frontier = new
            if found is None:
                # orbits of nontrivial subgroups are infinite here, so a
                # finished sweep really did see the whole orbit
                return EMPTY if exhausted else UNDECIDED
            rep = found
        _, u = dc.conjugated_shape()
        state = state.constrain_membership(u, dc.verts)
    return rep


def _hnn_step(pivot, xw, yw, subgroup, search_bound):
    """Conjugator in <subgroup> taking xw's element to yw's, for reduced
    syllable forms with at least one pivot run: the pivot exponent
    sequences agree, the base products are conjugate under the subgroup
    with witness alpha, and the coset of alpha by the centralizer of the
    base product meets every prefix coset ypref_i <assoc> xpref_i^-1.
    Returns an Element, a NotConjugate, or an Undecided."""
    from raag.conjugacy import Conjugate, NotConjugate, centralizer_in_special
    from raag.words import Element

    graph = xw.head.graph
    if [a for a, _ in xw.syllables] != [a for a, _ in yw.syllables]:
        return NotConjugate("hnn-exponent-pattern")
    xprod, yprod = hnn_base_prefix(xw, xw.n), hnn_base_prefix(yw, yw.n)
    res = hnn_conjugate_under(xprod, yprod, subgroup, search_bound)
    if not isinstance(res, Conjugate):
        return res if isinstance(res, Undecided) else NotConjugate("base-product-conjugacy")
    state = CentralizerState(graph, Element(graph), subgroup, (xprod,), centralizer_in_special)
    double_cosets = [
        SpecialCoset(hnn_base_prefix(yw, i), graph.link(pivot), hnn_base_prefix(xw, i).inverse())
        for i in range(xw.n)
    ]
    x_elt, y_elt = hnn_element(xw, pivot), hnn_element(yw, pivot)
    if search_bound is None:
        search_bound = 2 * (len(x_elt) + len(y_elt)) + 8
    sigma = coset_intersection_nonempty(res.conjugator, state, double_cosets, search_bound)
    if sigma is EMPTY:
        return NotConjugate("coset-intersection")
    if sigma is UNDECIDED:
        return Undecided("coset intersection search hit its bounds")
    if not (sigma.in_special(subgroup) and sigma * x_elt * sigma.inverse() == y_elt):
        raise AssertionError("HNN-route conjugator fails to conjugate")
    return sigma


def hnn_conjugate_under(g, h, s_verts, search_bound=None):
    """Conjugate, NotConjugate or Undecided for sigma in <s_verts> with
    sigma*g*sigma^-1 == h, along the HNN route; search_bound caps the
    canonical length the coset sweep explores (None picks one from the
    input lengths)."""
    from raag.conjugacy import Conjugate, NotConjugate, conjugate
    from raag.cosets import abelianization
    from raag.hnn import decompose
    from raag.words import Element

    graph = g.graph
    s = frozenset(s_verts)
    if s == frozenset(range(graph.n)):
        return conjugate(g, h)
    if g == h:
        return Conjugate(Element(graph))
    if not s:
        return NotConjugate("trivial-subgroup")
    if abelianization(g) != abelianization(h):
        return NotConjugate("abelianization")
    t = max(i for i in range(graph.n) if i not in s)
    g_has = t in g.support()
    if g_has != (t in h.support()):
        return NotConjugate("hnn-exponent-pattern")
    if not g_has:
        keep = [i for i in range(graph.n) if i != t]
        sub = graph.full_subgraph(keep)
        s_sub = frozenset(sub.index[graph.vertices[i]] for i in s)
        res = hnn_conjugate_under(restrict(g, sub), restrict(h, sub), s_sub, search_bound)
        if isinstance(res, Conjugate):
            sigma = embed(res.conjugator, graph)
            if sigma * g * sigma.inverse() != h:
                raise AssertionError("HNN-route conjugator fails to conjugate")
            return Conjugate(sigma)
        return res
    res = _hnn_step(t, decompose(g, t), decompose(h, t), s, search_bound)
    return Conjugate(res) if isinstance(res, Element) else res


# ---------------------------------------------------------------------------
# centralizers of sets by the HNN fold
#
# The package cuts a Servatius shape by one centralizer at a time. This is
# the fold it replaced: peel one pivot outside the subgroup at a time,
# folding the membership constraints of the pivot's syllable form into a
# CentralizerState, until every element lies in the subgroup; there a join
# splits into its factors, and otherwise Servatius' theorem puts the
# centralizer inside a conjugate of a smaller special subgroup or of the
# cyclic group on one primitive root.


def fold_centralizer_in_special(graph, verts, elems):
    """Generators of the centralizer of `elems` inside <verts>."""
    from raag.cosets import vertex_gens
    from raag.hnn import decompose
    from raag.words import Element

    verts = frozenset(verts)
    elems = [y for y in elems if y]
    if not verts:
        return []
    if not elems:
        return vertex_gens(graph, verts)
    if len(verts) == 1:
        # roots are unique in a RAAG, so v^k commutes with y only if v does;
        # folding on here instead piles up constraints without shrinking verts
        (x,) = vertex_gens(graph, verts)
        return [x] if all(x * y == y * x for y in elems) else []
    outside = frozenset().union(*[y.support() for y in elems]) - verts
    if not outside:
        sub = graph.full_subgraph(verts)
        inner = _fold_full_centralizer(sub, [restrict(y, sub) for y in elems])
        return [embed(x, graph) for x in inner]
    t = max(outside)
    target = next(y for y in elems if t in y.support())
    rest = [y for y in elems if y is not target]
    hw = decompose(target, t)
    # a pivot-free centralizing element must fix the product of base parts
    # and lie in every base-prefix conjugate of the associated subgroup;
    # together those conditions are equivalent to commuting with target
    state = CentralizerState(
        graph, Element(graph), verts, tuple(rest) + (hnn_base_prefix(hw, hw.n),),
        fold_centralizer_in_special,
    )
    for i in range(hw.n):
        state = state.constrain_membership(hnn_base_prefix(hw, i), graph.link(t))
    return state.generators()


def servatius_centralizer(graph, y):
    """Servatius' centralizer theorem read off directly, without the
    package's fold: with (conj, factors, link) from `_servatius(y)`, the
    generators conj * x * conj^-1 for x the vertices of the link, then
    the primitive roots. The identity has empty core and link everything."""
    from raag.conjugacy import _servatius
    from raag.cosets import vertex_gens

    conj, factors, link = _servatius(y)
    ci = conj.inverse()
    return [conj * x * ci for x in vertex_gens(graph, link) + [r for _, r in factors]]


def _fold_full_centralizer(graph, elems):
    """Centralizer generators relative to the whole graph: a join splits
    into its factors; otherwise the element of widest cyclic support y has
    C(y) inside conj * <supp + link> * conj^-1, or is the cyclic group on
    its root when supp(core) is every vertex."""
    from raag.cosets import vertex_gens

    elems = list(dict.fromkeys(y for y in elems if y))
    if not elems:
        return vertex_gens(graph, range(graph.n))
    if len(elems) == 1:
        return servatius_centralizer(graph, elems[0])
    factors = union_pure_factor_supports(graph, range(graph.n))
    if len(factors) > 1:
        gens = []
        for comp in factors:
            sub = graph.full_subgraph(comp)
            inner = _fold_full_centralizer(sub, [restrict(y.retract(comp), sub) for y in elems])
            gens += [embed(x, graph) for x in inner]
        return gens
    first = max(elems, key=lambda y: len(y.cyclic_normal_form()[1].support()))
    conj, core = first.cyclic_normal_form()
    supp = core.support()
    if len(supp) == graph.n:
        (root,) = servatius_centralizer(graph, first)
        return [root] if all(root * y == y * root for y in elems) else []
    link = {v for v in range(graph.n) if v not in supp and supp <= graph.adj[v]}
    ci = conj.inverse()
    inner = fold_centralizer_in_special(graph, supp | link, [ci * y * conj for y in elems])
    return [conj * x * ci for x in inner]


def in_centralizer_shape(x, conj, roots, free):
    """Whether x lies in conj * (<r_1> x ... x <r_k> x A_free) * conj^-1,
    for commuting blocks as `raag.conjugacy._centralizer_shape` returns
    them: the frame-shifted x must lie in A_M, and each root coordinate
    must be a power of its root (|r^n| == |n| * |r|, r cyclically
    reduced)."""
    x = conj.inverse() * x * conj
    if not x.in_special(frozenset(free).union(*(r.support() for r in roots))):
        return False
    for r in roots:
        part = x.retract(r.support())
        n = len(part) // len(r)
        if part not in (r**n, r**-n):
            return False
    return True


# ---------------------------------------------------------------------------
# conjugacy by the full factor loop
#
# The package answers equal cyclic cores at once, finds the pure-factor
# supports in one bitmask pass shared by both cores, and hands g's cyclic
# normal form and pure factors from `conjugate` on to `conjugate_under`.
# This is the route it replaced: supports by set union, every core split
# letter by letter, every pair of factors through `_factor_conjugator`,
# and g's Servatius data computed again from scratch.


def union_pure_factor_supports(graph, supp):
    """Connected components of the non-commutation graph on `supp`, merged
    one vertex at a time, sorted by their least vertex."""
    comps = []
    for v in supp:
        touched = [c for c in comps if not c.isdisjoint(graph.dependents[v])]
        comps = [c for c in comps if c not in touched] + [{v}.union(*touched)]
    return sorted(comps, key=min)


def loop_pure_factors(core, supp):
    """(U, factor) for each pure factor of the cyclically reduced `core`,
    its letters read off core's canonical word one by one."""
    from raag.words import Element

    comps = union_pure_factor_supports(core.graph, supp)
    owner = {v: i for i, comp in enumerate(comps) for v in comp}
    parts = [[] for _ in comps]
    for lt in core.letters:
        parts[owner[abs(lt) - 1]].append(lt)
    return [(comp, Element(core.graph, part, canonical=True)) for comp, part in zip(comps, parts)]


def factor_loop_conjugate(g, h):
    """Conjugate or NotConjugate, with the package's invariants in its
    order, every pair of pure factors decided by `_factor_conjugator`."""
    from raag.conjugacy import Conjugate, NotConjugate, _factor_conjugator
    from raag.cosets import abelianization
    from raag.words import Element

    one = Element(g.graph)
    if g == h:
        return Conjugate(one)
    if g.is_identity() != h.is_identity():
        return NotConjugate("identity")
    if abelianization(g) != abelianization(h):
        return NotConjugate("abelianization")
    cg, gcore = g.cyclic_normal_form()
    ch, hcore = h.cyclic_normal_form()
    supp = gcore.support()
    if supp != hcore.support():
        return NotConjugate("cyclic-support")
    sigma = one
    for (_, u), (_, v) in zip(loop_pure_factors(gcore, supp), loop_pure_factors(hcore, supp)):
        tau = _factor_conjugator(u, v)
        if tau is None:
            return NotConjugate("cyclic-normal-form")
        sigma = sigma * tau
    sigma = ch * sigma * cg.inverse()
    if sigma * g * sigma.inverse() != h:
        raise AssertionError("factor-loop conjugator fails to conjugate")
    return Conjugate(sigma)


def factor_loop_servatius(y):
    """(conj, factors, link) of `raag.conjugacy._servatius`, from y's
    cyclic normal form and `loop_pure_factors`."""
    from raag.conjugacy import _primitive_root

    graph = y.graph
    conj, core = y.cyclic_normal_form()
    supp = core.support()
    link = frozenset(v for v in range(graph.n) if v not in supp and supp <= graph.adj[v])
    factors = []
    for comp, factor in loop_pure_factors(core, supp):
        r = _primitive_root(factor)
        factors.append((comp, r.inverse() if r.letters[0] < 0 else r))
    return conj, factors, link


# ---------------------------------------------------------------------------
# integer linear systems by Hermite-style elimination


def solve_left_integer(rows, target):
    """Integer vector x with sum_i x_i * rows[i] == target, or None.

    rows is a list of equal-length integer sequences; sizes are expected to
    be tiny. Elimination uses gcd steps with a tracked transform.
    """
    target = list(target)
    rows = [list(r) for r in rows]
    m = len(rows)
    if m == 0:
        return [] if not any(target) else None
    ncols = len(rows[0])
    work = [rows[i] + [int(j == i) for j in range(m)] for i in range(m)]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        pick = next((i for i in range(r, m) if work[i][c]), None)
        if pick is None:
            continue
        work[r], work[pick] = work[pick], work[r]
        for i in range(r + 1, m):
            while work[i][c]:
                q = work[r][c] // work[i][c]
                work[r] = [a - q * b for a, b in zip(work[r], work[i])]
                work[r], work[i] = work[i], work[r]
        pivots.append((r, c))
        r += 1
    x = [0] * m
    t = target
    for r, c in pivots:
        if t[c] == 0:
            continue
        if t[c] % work[r][c]:
            return None
        q = t[c] // work[r][c]
        t = [a - q * b for a, b in zip(t, work[r][:ncols])]
        for j in range(m):
            x[j] += q * work[r][ncols + j]
    if any(t):
        return None
    if [sum(x[i] * rows[i][c] for i in range(m)) for c in range(ncols)] != target:
        raise AssertionError("integer solution fails to multiply out")
    return x


def solve_right_integer(matrix, target):
    """Integer column vector x with matrix @ x == target, or None."""
    cols = len(matrix[0]) if matrix else 0
    transposed = [[matrix[i][j] for i in range(len(matrix))] for j in range(cols)]
    return solve_left_integer(transposed, list(target))


# ---------------------------------------------------------------------------
# linear systems over Z/p^m on dense numpy matrices


def exact_dtype(q, ncols):
    """int64 when a row of `ncols` residues mod q dotted with another, plus
    one more residue, stays below 2^63 ((ncols+1) * q^2 < 2^63); otherwise
    object, which holds Python integers."""
    import numpy as np

    return np.int64 if (ncols + 1) * q * q < 2**63 else object


class SparseMatrix(list):
    """Equation rows as {column: coefficient} dicts, the form the package's
    solver reads; `shape` is (equations, unknowns), since the rows do not
    show the unknowns that no equation uses."""

    __slots__ = ("shape",)

    def __init__(self, rows, ncols):
        super().__init__(rows)
        self.shape = (len(self), ncols)


def sparse_matrix(matrix):
    """The package's sparse form of a dense matrix (any nested sequence)."""
    rows = [[int(x) for x in row] for row in matrix]
    ncols = len(rows[0]) if rows else 0
    return SparseMatrix([{j: x for j, x in enumerate(row) if x} for row in rows], ncols)


def dense_matrix(matrix):
    """A SparseMatrix written out as a list of lists."""
    ncols = matrix.shape[1]
    return [[row.get(j, 0) for j in range(ncols)] for row in matrix]


def dense_solve_mod_prime_power(matrix, rhs, p, m):
    """The package's elimination on a dense numpy matrix; an int array or
    None.

    Pass v = 0, ..., m-1 reads rows in order: pass 0 every row, pass v the
    rows that pass v-1 left free. Each row is reduced by every pivot made
    so far, in the order they were made, subtracting entry // p^(v_k)
    times pivot k's row; it pivots on its last entry of valuation exactly
    v if it has one, scaled to p^v. Otherwise it is free, and a free row
    whose entries' least valuation w (m for a zero row) does not divide
    its right-hand side ends the solve. Whole rows are updated; the
    package does the same on nonzero entries only, so the two must return
    the same vector.
    """
    import numpy as np

    q = p**m
    matrix = np.asarray(matrix)
    dtype = exact_dtype(q, matrix.shape[-1])
    a = np.asarray(matrix, dtype=dtype) % q
    b = np.asarray(rhs, dtype=dtype) % q
    neq, nvar = a.shape if a.ndim == 2 else (0, 0)
    pivots = []
    rows = range(neq)
    for v in range(m):
        pv = p**v
        free = []
        for r in rows:
            for pr, pc, pk in pivots:
                f = a[r, pc] // pk
                a[r] = (a[r] - f * a[pr]) % q
                b[r] = (b[r] - f * b[pr]) % q
            hits = np.flatnonzero(a[r] % (pv * p))
            if not len(hits):
                w = v + 1
                while w < m and not np.any(a[r] % p ** (w + 1)):
                    w += 1
                if int(b[r]) % p**w:
                    return None
                free.append(r)
                continue
            c = hits[-1]
            inv = pow(int(a[r, c]) // pv, -1, q)
            a[r] = (a[r] * inv) % q
            b[r] = (b[r] * inv) % q
            pivots.append((r, c, pv))
        rows = free
    x = np.zeros(nvar, dtype=dtype)
    for r, c, pv in reversed(pivots):
        x[c] = int(b[r] - a[r] @ x) % q // pv
    if np.any((np.asarray(matrix, dtype=dtype) @ x - np.asarray(rhs, dtype=dtype)) % q):
        raise AssertionError("dense modular solution fails the system")
    return x


# ---------------------------------------------------------------------------
# linear systems over Z/p^m by global minimum-valuation pivoting


def _valuation_mask(a, p, v):
    if v == 0:
        return a % p != 0
    pv = p**v
    return (a % (pv * p) != 0) & (a % pv == 0)


def reference_solve_mod_prime_power(matrix, rhs, p, m):
    """Solve matrix @ x == rhs over Z/p^m; an int array or None.

    Before every pivot it rescans the whole free block for the first entry
    of least valuation (row-major), so the global-minimum property that
    makes back-substitution complete holds by construction rather than by
    the valuation invariant the package proves.
    """
    import numpy as np

    q = p**m
    matrix = np.asarray(matrix)
    dtype = exact_dtype(q, matrix.shape[-1])
    a = np.asarray(matrix, dtype=dtype) % q
    b = np.asarray(rhs, dtype=dtype) % q
    neq, nvar = a.shape if a.ndim == 2 else (0, 0)
    if neq == 0:
        return np.zeros(0, dtype=dtype)
    row_free = np.ones(neq, dtype=bool)
    col_free = np.ones(nvar, dtype=bool)
    pivots = []
    while True:
        found = None
        for v in range(m):
            mask = _valuation_mask(a, p, v)
            mask &= row_free[:, None]
            mask &= col_free[None, :]
            hit = np.argwhere(mask)
            if len(hit):
                found = (int(hit[0][0]), int(hit[0][1]), v)
                break
        if found is None:
            break
        r, c, v = found
        unit = int(a[r, c]) // p**v
        inv = pow(unit, -1, q)
        a[r] = (a[r] * inv) % q
        b[r] = (b[r] * inv) % q
        pv = p**v
        idx = np.flatnonzero(row_free & (a[:, c] != 0))
        idx = idx[idx != r]
        if len(idx):
            # every remaining entry in this column has valuation >= v
            factors = a[idx, c] // pv
            a[idx] = (a[idx] - factors[:, None] * a[r]) % q
            b[idx] = (b[idx] - factors * b[r]) % q
        row_free[r] = False
        col_free[c] = False
        pivots.append((r, c, v))
    # rows never picked are identically zero mod q by now; check consistency
    if np.any(b[row_free] % q):
        return None
    x = np.zeros(nvar, dtype=dtype)
    for r, c, v in reversed(pivots):
        rhs_r = int(b[r] - a[r] @ x) % q
        pv = p**v
        if rhs_r % pv:
            return None
        x[c] = (rhs_r // pv) % (q // pv)
    if np.any((np.asarray(matrix, dtype=dtype) @ x - np.asarray(rhs, dtype=dtype)) % q):
        raise AssertionError("reference modular solution fails the system")
    return x


def full_magnus_system(g, h, d, p, m):
    """The Magnus system on the whole trace basis, as (basis, matrix).

    Column j of the square matrix over Z/p^m is the image of basis[j]
    under u -> M(g)*u - u*M(h), built from piled products. It keeps the
    degree-0 row and the degree-d columns that the package drops as
    identically zero, so solving columns 1.. against minus column 0
    decides conjugacy of the images on the uncut system.
    """
    import numpy as np
    from raag.nilpotent import TraceAlgebra, TruncatedAlgebraElement, magnus_image

    left = magnus_image(g, d, p, m)
    right = magnus_image(h, d, p, m)
    basis = TraceAlgebra(g.graph, d).basis
    index = {mono: i for i, mono in enumerate(basis)}
    q = p**m
    mat = np.zeros((len(basis), len(basis)), dtype=exact_dtype(q, len(basis)))
    for j, w in enumerate(basis):
        unit = TruncatedAlgebraElement(g.graph, d, q, {w: 1})
        column = difference(piled_product(left, unit), piled_product(unit, right))
        for mono, c in column.coeffs.items():
            mat[index[mono], j] = c
    return basis, mat


# ---------------------------------------------------------------------------
# the Magnus test on products of piled trace words
#
# The package canonicalises positive trace words by the lex insertion rule
# and runs the Magnus test on integer append tables. These keep the route
# it replaced: each product of monomials goes through the group's
# pile/depile normal form (behind a cache), the images are products of
# truncated algebra elements, and each column of the system is a sum of
# such products.


@functools.lru_cache(maxsize=None)
def piled_trace_canonical(graph, word):
    """Canonical form of a positive trace word by the group normal form,
    read off the piles, not through the insertion rule."""
    from raag.words import _depile, _pile

    return tuple(lt - 1 for lt in _depile(graph, _pile(graph, tuple(v + 1 for v in word))))


def piled_trace_monomials(graph, cap):
    """The canonical monomials of degree <= cap, by degree then lex: each
    level is the set of canonical forms of the last one times a letter."""
    levels = [[()]]
    for _ in range(cap):
        levels.append(sorted({
            piled_trace_canonical(graph, w + (v,)) for w in levels[-1] for v in range(graph.n)
        }))
    return [w for level in levels for w in level]


def piled_product(x, y):
    """x * y of two TruncatedAlgebraElements, monomials piled; the result
    is in x's algebra, and terms past its cap are dropped."""
    from raag.nilpotent import TruncatedAlgebraElement

    out = {}
    for m1, c1 in x.coeffs.items():
        for m2, c2 in y.coeffs.items():
            if len(m1) + len(m2) <= x.cap:
                key = piled_trace_canonical(x.graph, m1 + m2)
                out[key] = out.get(key, 0) + c1 * c2
    return TruncatedAlgebraElement(x.graph, x.cap, x.modulus, out)


def difference(x, y):
    """x - y of two TruncatedAlgebraElements, coefficient by coefficient."""
    from raag.nilpotent import TruncatedAlgebraElement

    out = dict(x.coeffs)
    for mono, c in y.coeffs.items():
        out[mono] = out.get(mono, 0) - c
    return TruncatedAlgebraElement(x.graph, x.cap, x.modulus, out)


def piled_magnus_image(x, d, p, m):
    """M(x) over Z/p^m as a product of one truncated series per letter."""
    from raag.nilpotent import TruncatedAlgebraElement

    q = p**m
    out = TruncatedAlgebraElement(x.graph, d, q, {(): 1})
    for lt in x.letters:
        v = abs(lt) - 1
        if lt > 0:
            series = {(): 1, (v,): 1}
        else:
            series = {(v,) * k: (-1) ** k for k in range(d + 1)}
        out = piled_product(out, TruncatedAlgebraElement(x.graph, d, q, series))
    return out


def piled_magnus_conjugate_test(g, h, d, p, m):
    """The Magnus test with every column summed from piled products: one
    unknown per monomial of degree 1..d-1, one equation per monomial of
    degree 1..d, solved by the package's solver; a found unit is checked
    by piled products."""
    from raag._intlinalg import solve_mod_prime_power
    from raag.nilpotent import NotSeparatedAtThisLevel, Separated, TruncatedAlgebraElement

    graph = g.graph
    left = piled_magnus_image(g, d, p, m)
    right = piled_magnus_image(h, d, p, m)
    basis = piled_trace_monomials(graph, d)
    index = {mono: i for i, mono in enumerate(basis[1:])}
    cols = [w for w in basis if len(w) < d]
    q = p**m
    rows = [{} for _ in index]
    rhs = [0] * len(rows)
    for j, w in enumerate(cols):
        col = {}
        for t, c in left.coeffs.items():
            if t and len(t) + len(w) <= d:
                key = piled_trace_canonical(graph, t + w)
                col[key] = col.get(key, 0) + c
        for t, c in right.coeffs.items():
            if t and len(t) + len(w) <= d:
                key = piled_trace_canonical(graph, w + t)
                col[key] = col.get(key, 0) - c
        for key, c in col.items():
            if c % q:
                if j:
                    rows[index[key]][j - 1] = c % q
                else:
                    rhs[index[key]] = -c % q
    sol = solve_mod_prime_power(SparseMatrix(rows, len(cols) - 1), rhs, p, m)
    if sol is None:
        return Separated(d, p, m)
    coeffs = {(): 1}
    coeffs.update(zip(cols[1:], sol))
    unit = TruncatedAlgebraElement(graph, d, q, coeffs)
    if piled_product(left, unit) != piled_product(unit, right):
        raise AssertionError("piled Magnus unit fails to conjugate the images")
    return NotSeparatedAtThisLevel(unit)


# ---------------------------------------------------------------------------
# the Magnus test on the whole graph
#
# The package's magnus_conjugate_test builds its system on the letters the
# pair uses and renames the unit it finds back to the pair's graph. This
# runs the same kernel on the whole graph, however few letters the pair
# uses, so that the two verdicts can be compared.


def whole_graph_magnus_conjugate_test(g, h, d, p, m):
    """The package's Magnus test with its system built on all of g.graph."""
    from raag.nilpotent import (
        NotSeparatedAtThisLevel,
        Separated,
        TruncatedAlgebraElement,
        _conjugating_unit,
    )

    unit = _conjugating_unit(g, h, d, p, m)
    if unit is None:
        return Separated(d, p, m)
    return NotSeparatedAtThisLevel(TruncatedAlgebraElement(g.graph, d, p**m, unit))


# ---------------------------------------------------------------------------
# the Magnus system built whole
#
# The package builds its Magnus system one degree at a time, as its solver
# reads the rows. This builds all of it at once, column by column, as the
# package did before: every column is a whole column of the system, from
# the images of g and h by piled products.


def whole_magnus_system(g, h, d, p, m):
    """The Magnus system of g and h at degree d over Z/p^m on all of
    g.graph, as (SparseMatrix, rhs): one row per monomial of degree 1..d,
    one column per monomial of degree 1..d-1, both in basis order.

    Column j is gw_j - wh_j, with gw_j = (M(g) - 1).w and wh_j =
    w.(M(h) - 1) for w = basis[j]; gw_j is gw of w's parent times w's last
    letter, wh_j is w's first letter times wh of w's tail, each over every
    degree at once. Column 0, the unit's constant term, moves to the
    right-hand side.
    """
    from raag.nilpotent import TraceAlgebra

    q = p**m
    algebra = TraceAlgebra(g.graph, d)
    basis, right, left = algebra.basis, algebra.right, algebra.left
    index = {w: i for i, w in enumerate(basis)}
    image_g, image_h = (
        {index[w]: c for w, c in piled_magnus_image(x, d, p, m).coeffs.items()} for x in (g, h)
    )
    gw = [{i: c for i, c in image_g.items() if i}]
    wh = [{i: c for i, c in image_h.items() if i}]
    rows = [{} for _ in basis[1:]]
    rhs = [0] * len(rows)
    for j in range(algebra.rows):
        if j:
            u, v = basis[j][-1], basis[j][0]
            gw.append({right[i][u]: c for i, c in gw[algebra.parent[j]].items() if right[i]})
            wh.append({left[i][v]: c for i, c in wh[algebra.tail[j]].items() if left[i]})
        col = dict(gw[j])
        for i, c in wh[j].items():
            col[i] = col.get(i, 0) - c
        for i, c in col.items():
            c %= q
            if not c:
                continue
            if j:
                rows[i - 1][j - 1] = c
            else:
                rhs[i - 1] = -c % q
    return SparseMatrix(rows, algebra.rows - 1), rhs


# ---------------------------------------------------------------------------
# the level grid without the conjugacy shortcut
#
# The package's find_separating_level returns NOT_FOUND on a conjugate pair
# before it builds any trace basis. Checks that the Magnus test never
# separates a conjugate pair must still run its solver on such pairs.


def grid_separating_level(g, h, p, max_d=6, max_m=2):
    """Least (d, m), degree first, at which the package's Magnus test
    separates g and h, or NOT_FOUND: every level of the grid is solved,
    whether or not the pair is conjugate."""
    from raag.nilpotent import NOT_FOUND, Separated, magnus_conjugate_test

    for d in range(1, max_d + 1):
        for m in range(1, max_m + 1):
            if isinstance(magnus_conjugate_test(g, h, d, p, m), Separated):
                return d, m
    return NOT_FOUND


# ---------------------------------------------------------------------------
# graded Lie ring by bracket echelon over piled products
#
# The package reads the Lie dimensions off the clique polynomial and the
# Lie center off the graph's central vertices. These build the graded
# pieces themselves: bracket every basis element with every vertex and
# echelonise, over Z or the field with p elements.


def bracket(x, y):
    """Ring commutator x*y - y*x, by piled products."""
    return difference(piled_product(x, y), piled_product(y, x))


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


def _graded_bases(graph, max_degree, p):
    """Echelonized bases of the graded Lie pieces up to max_degree.

    The degree-one piece is spanned by the vertices; each next piece is
    spanned by brackets of the previous one with the vertices, which is all
    of it because the algebra is generated in degree one.
    """
    from raag.nilpotent import TruncatedAlgebraElement

    gens = [
        TruncatedAlgebraElement(graph, max_degree, p, {(v,): 1})
        for v in range(graph.n)
    ]
    bases = [list(gens)]
    for _ in range(1, max_degree):
        pivots = {}
        level = []
        for x in bases[-1]:
            for g in gens:
                red = _insert_echelon(pivots, bracket(x, g).coeffs, p)
                if red is not None:
                    level.append(TruncatedAlgebraElement(graph, max_degree, p, red))
        bases.append(level)
    return bases


def echelon_lie_dims(graph, max_degree, p):
    """Ranks of the graded Lie pieces over Z (p = 0) or the field F_p."""
    return tuple(len(level) for level in _graded_bases(graph, max_degree, p))


def echelon_center_trivial_upto(graph, max_degree, p):
    """Whether no nonzero homogeneous Lie element of degree < max_degree
    commutes with every vertex over F_p: per degree, the brackets of the
    basis with all vertices, stacked, must be independent."""
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


# ---------------------------------------------------------------------------
# p-group classes by conjugating with every element
#
# The package's class of x runs over B with the powers of alpha tabled and
# the expanded group law. This is the route it replaced: one conjugate
# b x b^-1 per element b, each through the group's own multiply and
# inverse, which apply alpha one power at a time.


def group_elements(group):
    """Every element of a WitnessGroup, vector residues then alpha power."""
    from raag.pgroup import PGroupElement

    if not group.params.enumerable:
        raise ValueError("group too large to enumerate")
    ranges = [range(q) for q in group.moduli] + [range(group.params.p**group.params.r)]
    return [PGroupElement(t[:-1], t[-1]) for t in itertools.product(*ranges)]


def enumerated_conjugacy_class(group, x):
    """The class of x in a WitnessGroup, conjugating by every element."""
    return {group.conjugate(x, b) for b in group_elements(group)}
