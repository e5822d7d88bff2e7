"""Conjugacy decisions with certificates, and centralizers.

`conjugate` is exact. After the cheap invariants (identity,
abelianization, support of the cyclic normal form) it splits both cyclic
cores into their pure factors, the retractions onto the components of
the non-commutation graph on the common support, and decides each pair
of factors by comparing anchored cyclic cuts of their periodic heaps.
`conjugate_under` is exact too: the conjugators taking g to h form the
coset x0 * C(g) of the centralizer, with x0 from `conjugate`, and
whether that coset meets the special subgroup comes down to two
double-coset strips, one cut Z and one integer exponent per pure factor.
Every positive answer carries a conjugator
verified by multiplication; every negative answer names the invariant
that separates the inputs.

The centralizer of a single element comes straight from Servatius'
centralizer theorem: the primitive roots of the pure factors of its
cyclic normal form, times the special subgroup on their common link.
Every such centralizer has the shape

    conj * (<r_1> x ... x <r_k> x A_F) * conj^-1,

and so does its intersection with a special subgroup or with another
shape: a root survives a cut whole or not at all, and the A_F part is
cut by one double-coset strip to the same Z. Centralizers of sets in a
special subgroup, and of one element, are one fold of such cuts, one per
element, all exact. Centralizers never call a conjugacy decision.
"""

from collections import Counter
from math import gcd

from ._checks import check_graph, verify, vertex_set
from ._record import Record
from .cosets import abelianization, intersection_vertices, make_gens, vertex_gens
from .words import Element

__all__ = [
    "Conjugate",
    "NotConjugate",
    "Inconclusive",
    "abelianization",
    "conjugate",
    "conjugate_under",
    "centralizer",
    "centralizer_in_special",
]


class Conjugate(Record):
    """Positive answer; conjugator * g * conjugator^-1 == h, verified."""

    __slots__ = ("conjugator",)


class NotConjugate(Record):
    """Negative answer, naming the invariant that separates the inputs."""

    __slots__ = ("reason",)


class Inconclusive(Record):
    """An undecided answer. No decision here returns it any more; the
    class stays only because the benchmark in bench/ still imports it."""

    __slots__ = ("detail",)


def _one(graph):
    return Element(graph, (), canonical=True)


def _tester(u, v, verts):
    """sigma in <verts> with sigma * u * sigma^-1 == v, or None. Kept only
    because the benchmark in bench/ passes it to `cosets.in_double_coset`,
    which ignores it."""
    res = conjugate_under(u, v, verts)
    return res.conjugator if isinstance(res, Conjugate) else None


# ---------------------------------------------------------------------------
# centralizers


def _pure_factor_supports(graph, supp):
    """Connected components of the non-commutation graph on `supp`."""
    comps = []
    for v in supp:
        touched = [c for c in comps if not c.isdisjoint(graph.dependents[v])]
        comps = [c for c in comps if c not in touched] + [{v}.union(*touched)]
    return sorted(comps, key=min)


def _primitive_root(p):
    """The r with p == r^e for the largest e, p a cyclically reduced pure
    factor.

    If p == r^e, the projection of p onto any two non-commuting vertices is
    that of r repeated e times. So the first count/e occurrences of each
    vertex in p project like r onto every such pair, and therefore spell r.
    Roots are unique in a RAAG, and e = 1 always checks out.
    """
    counts = Counter(abs(lt) for lt in p.letters)
    top = gcd(*counts.values())
    for e in range(top, 0, -1):
        if top % e:
            continue
        quota = {v: c // e for v, c in counts.items()}
        letters = []
        for lt in p.letters:
            if quota[abs(lt)]:
                quota[abs(lt)] -= 1
                letters.append(lt)
        r = Element(p.graph, letters)
        if r**e == p:
            return r


def _servatius(y):
    """(conj, factors, link) with y == conj * core * conj^-1, core
    cyclically reduced, factors the pairs (U_i, r_i) of the supports and
    primitive roots of the pure factors of core (its retractions onto the
    components of the non-commutation graph on its support U), each root
    flipped to start with a positive letter, and link L every vertex
    outside U adjacent to all of it.

    Servatius' centralizer theorem: for y nontrivial,
    C(y) == conj * (<r_1> x ... x <r_m> x <L>) * conj^-1, inside
    conj * A_M * conj^-1 with A_M == A_{U_1} x ... x A_{U_m} x A_L.
    """
    graph = y.graph
    conj, core = y.cyclic_normal_form()
    supp = core.support()
    link = frozenset(
        v for v in range(graph.n) if v not in supp and supp <= graph.adj[v]
    )
    factors = []
    for comp in _pure_factor_supports(graph, supp):
        r = _primitive_root(core.retract(comp))
        factors.append((comp, r.inverse() if r.letters[0] < 0 else r))
    return conj, factors, link


def centralizer(g):
    """Finite generating set of the centralizer of g: the fold of
    `centralizer_in_special` over the whole graph, which for (k, U_i, r_i,
    L) = `_servatius(g)` gives k * (L's vertices, then the r_i) * k^-1.

    The returned list carries the attribute `complete`, which is always
    True: centralizers, of single elements and of sets, are exact.
    """
    return centralizer_in_special(g.graph, range(g.graph.n), [g])


def _centralizer_shape(graph, verts, elems):
    """(conj, roots, free) with the centralizer of `elems` in A_V, V the
    vertex indices `verts`, equal to
    conj * (<r_1> x ... x <r_k> x A_F) * conj^-1, F = free.

    The r_i are primitive roots of cyclically reduced pure factors on
    supports U_i, and the blocks U_1, ..., U_k, F of M = F ∪ ⋃U_i commute
    with each other, so A_M is their direct product; conj lies in A_V.
    The fold starts from (1, [], V) and cuts by one C(y) at a time. In
    the frame y' = conj^-1 * y * conj the cut is P ∩ C(y'), with
    P = ∏<r_i> x A_F:

    (a) C(y') ∩ A_M splits over the blocks of M. By (c) with M in place
        of F it is a' * (∏<s_j> x A_{Z∩L}) * a'^-1 with a' in A_M; each
        U_j, connected in the non-commutation graph, lies in one block,
        and Z∩L and a' split over the blocks. So P ∩ C(y') is the product
        of the cuts of its blocks.
    (b) <r_i> ∩ C(y') is all of <r_i> or trivial: C(r_i^e) == C(r_i) for
        e != 0, as r_i^e has root r_i and the link of U_i.
    (c) A_F ∩ C(y'). With (k, {(U_j, s_j)}, L) from `_servatius(y')`,
        C(y') == k * Q * k^-1 inside k * A_N * k^-1, N = L ∪ ⋃U_j. For
        k == a * rep * b from `Element.double_coset_form(F, N)`,
        A_F ∩ k * A_N * k^-1 == a * A_Z * a^-1 == k * b^-1 * A_Z * b * k^-1
        (`cosets.intersect_conjugated`), Z the vertices of F∩N adjacent to
        all of supp(rep) (`cosets.intersection_vertices`). So
        A_F ∩ C(y') == k * (b^-1 * A_Z * b ∩ Q) * k^-1, which splits over
        the factors of A_N as in `conjugate_under` (b)-(c), with
        b_j = b.retract(U_j): <s_j> survives whole if U_j ⊆ Z, and
        otherwise no nontrivial power of s_j, of cyclic support U_j, lies
        in b_j^-1 * A_{Z∩U_j} * b_j; the L factor leaves
        b_L^-1 * A_{Z∩L} * b_L. As b_j and Z commute with rep and with
        the other factors, the cut is a' * (∏<s_j> x A_{Z∩L}) * a'^-1,
        the product over U_j ⊆ Z, for a' = a * ∏b_j in A_F.

    a' commutes with every r_i, so the next shape is conj * a', the
    surviving r_i and s_j, and Z∩L.
    """
    conj, roots, free = _one(graph), [], frozenset(verts)
    for y in elems:
        y = conj.inverse() * y * conj
        roots = [r for r in roots if r * y == y * r]
        k, factors, link = _servatius(y)
        n_verts = link.union(*(u for u, _ in factors))
        a, rep, b = k.double_coset_form(free, n_verts)
        z = intersection_vertices(free & n_verts, rep)
        for u, s in factors:
            if u <= z:
                a = a * b.retract(u)
                roots.append(s)
        conj, free = conj * a, z & link
    return conj, roots, free


def centralizer_in_special(graph, verts, elems):
    """Generators of the centralizer of `elems` inside the special
    subgroup on the vertex indices `verts`: the vertices of the final
    shape's F, then its roots (see `_centralizer_shape`), conjugated."""
    verts, elems = vertex_set(graph, verts), list(elems)
    check_graph(graph, *elems)
    conj, roots, free = _centralizer_shape(graph, verts, elems)
    ci = conj.inverse()
    gens = [conj * x * ci for x in vertex_gens(graph, free) + roots]
    verify(
        all(x.in_special(verts) and all(x * y == y * x for y in elems) for x in gens),
        "centralizer generator",
    )
    return make_gens(gens)


# ---------------------------------------------------------------------------
# conjugacy


def _root_exponent(r, p, b, z):
    """The n with r^n in p * b^-1 * <z> * b, or None, for r the primitive
    root of a pure factor on U = supp(r) and p, b in the special subgroup
    on U.

    The condition reads w = b * p^-1 * r^n * b^-1 in <z>. For U inside z,
    n = 0 works. Otherwise at most one n does: two would put a nontrivial
    power of r in b^-1 * <z ∩ U> * b, a conjugate of a proper special
    subgroup of A_U, where no element of cyclic support U lies. An
    exponent sum of r outside z fixes n, as w has none there. If there is
    none, every letter of r^n outside z must cancel against one of b,
    p^-1 or b^-1 (reduced words only cancel across factors), so
    |n| * out(r) <= out(p) + 2 * out(b), out counting letters outside z.
    """
    u = r.support()
    if u <= z:
        return 0
    ab_r, ab_p = abelianization(r), abelianization(p)
    pinned = [v for v in u - z if ab_r[v]]
    if pinned:
        q, rem = divmod(ab_p[pinned[0]], ab_r[pinned[0]])
        candidates = [] if rem else [q]
    else:
        def out(x):
            return sum(abs(lt) - 1 not in z for lt in x.letters)

        top = (out(p) + 2 * out(b)) // out(r)
        candidates = range(-top, top + 1)
    left, right = b * p.inverse(), b.inverse()
    for n in candidates:
        if (left * r**n * right).in_special(z):
            return n
    return None


def conjugate_under(g, h, s_verts):
    """Decide whether some sigma in the special subgroup A_S on `s_verts`
    conjugates g to h; witnesses are verified before being returned.

    Killing S must leave g and h equal. Past that, the conjugators taking
    g to h form the coset x0 * C(g), x0 from `conjugate`, and with
    (k, U_i, r_i, L) from `_servatius(g)` and M = U ∪ L, C(g) is k * P * k^-1
    for P = <r_1> x ... x <r_m> x A_L inside A_M. So sigma exists iff
    x0 * k * p * k^-1 lies in A_S for some p in P:

    (a) Then x0 * k lies in A_S * k * A_M: with k == a * rep * b and
        x0 * k == a' * rep' * b' from `Element.double_coset_form(S, M)`,
        iff rep' == rep, and then x0 * k == a' * a^-1 * k * m, m = b^-1 * b'.
        Set p0 = m^-1; x0 * k * p * k^-1 == a' * a^-1 * k * (m * p) * k^-1.
    (b) That lies in A_S iff m * p lies in A_M ∩ k^-1 * A_S * k, which is
        b^-1 * (A_M ∩ rep^-1 * A_S * rep) * b == b^-1 * A_Z * b: b is in
        A_M, a in A_S, and rep^-1 is (M, S)-reduced, so Z is the set of
        `cosets.intersection_vertices` (proof in `intersect_conjugated`).
        So the admissible p form p0 * b^-1 * A_Z * b.
    (c) A_M is the direct product of the A_{U_i} and A_L, and Z splits
        with it, so (b) holds coordinate by coordinate, coordinates being
        retractions. The A_L coordinate is met by p0's own, and factor i
        by the one exponent of `_root_exponent`, if it exists.
    """
    graph = g.graph
    check_graph(graph, h)
    s = vertex_set(graph, s_verts)
    everything = frozenset(range(graph.n))
    if s == everything:
        return conjugate(g, h)
    if g == h:
        return Conjugate(_one(graph))
    if not s:
        return NotConjugate("trivial-subgroup")
    if abelianization(g) != abelianization(h):
        return NotConjugate("abelianization")
    # conjugating by A_S fixes the image killing S; this spares most
    # negatives the cyclic normal forms of `conjugate`
    if g.retract(everything - s) != h.retract(everything - s):
        return NotConjugate("retraction")
    res = conjugate(g, h)
    if not isinstance(res, Conjugate):
        return res
    k, factors, link = _servatius(g)
    m_verts = link.union(*(u for u, _ in factors))
    _, rep, b = k.double_coset_form(s, m_verts)
    _, rep_x, b_x = (res.conjugator * k).double_coset_form(s, m_verts)
    if rep_x != rep:
        return NotConjugate("double-coset")
    p0 = b_x.inverse() * b
    z = intersection_vertices(s & m_verts, rep)
    c = p0.retract(link)
    for u, r in factors:
        n = _root_exponent(r, p0.retract(u), b.retract(u), z & u)
        if n is None:
            return NotConjugate("centralizer-coset")
        c = c * r**n
    sigma = res.conjugator * k * c * k.inverse()
    verify(sigma.in_special(s) and sigma * g * sigma.inverse() == h, "conjugator")
    return Conjugate(sigma)


def _anchored_cuts(u, a):
    """Yield (p, p^-1 u p) for each occurrence of vertex a in a period of
    the heap of u^Z, for u a cyclically reduced pure factor.

    With m = |supp(u)| + 1, p is the set of letters of u^m at or below the
    chosen a of the last copy in the heap order, minus the whole leading
    copies of u it contains. The non-commutation graph on supp(u) is
    connected, so every letter of the first copy lies below that a; the
    ideal therefore matches the one in the bi-infinite heap u^Z, and
    p^-1 u p spells the period between this a and its next translate.
    These words hang off the a-occurrences of u^Z and not off the period u
    starts from, so every cyclically reduced conjugate of u yields the same
    set of them.
    """
    graph = u.graph
    dependents = graph.dependents
    n = len(u)
    supp = u.support()
    m = len(supp) + 1
    big = u.letters * m
    for top in range((m - 1) * n, m * n):
        if abs(big[top]) - 1 != a:
            continue
        reach = {a, *dependents[a]}
        picked = {top}
        i = top - 1
        while i >= 0 and not supp <= reach:
            v = abs(big[i]) - 1
            if v in reach:
                picked.add(i)
                reach.update(dependents[v])
            i -= 1
        # every vertex of u now reaches the anchor, so all of 0..i is below it
        picked.update(range(i + 1))
        end = 0
        while end in picked:
            end += 1
        start = end - end % n
        p = Element(graph, tuple(big[k] for k in range(start, top + 1) if k in picked))
        yield p, p.inverse() * u * p


def _factor_conjugator(u, v):
    """The shortlex-least sigma of the form q p^-1 with sigma u sigma^-1
    == v, for cyclically reduced pure factors on one support, or None.

    u and v are conjugate iff they have the same length and the first
    anchored cut of v is an anchored cut of u; the anchor is the vertex
    occurring least often in u, ties going to the lowest index.
    """
    if u == v:
        # the identity is shortlex-least; this also spares single-vertex
        # factors, equal once the abelianizations agree, their a^k cuts
        return _one(u.graph)
    if len(u) != len(v):
        return None
    counts = Counter(abs(lt) - 1 for lt in u.letters)
    a = min(counts, key=lambda x: (counts[x], x))
    q, target = next(_anchored_cuts(v, a))
    found = [q * p.inverse() for p, d in _anchored_cuts(u, a) if d == target]
    return min(found, key=Element.shortlex_key, default=None)


def conjugate(g, h):
    """Decide conjugacy of g and h.

    Returns Conjugate (verified witness) or NotConjugate (naming the
    separating invariant). Cyclically reduced conjugates have one support;
    its pure factors commute with each other, and each pair of factors is
    decided by anchored cuts (Servatius 1989; Crisp-Godelle-Wiest 2009).
    """
    graph = g.graph
    check_graph(graph, h)
    if g == h:
        return Conjugate(_one(graph))
    if g.is_identity() != h.is_identity():
        return NotConjugate("identity")
    if abelianization(g) != abelianization(h):
        return NotConjugate("abelianization")
    cg, gcore = g.cyclic_normal_form()
    ch, hcore = h.cyclic_normal_form()
    if gcore.support() != hcore.support():
        return NotConjugate("cyclic-support")
    sigma = _one(graph)
    for comp in _pure_factor_supports(graph, gcore.support()):
        tau = _factor_conjugator(gcore.retract(comp), hcore.retract(comp))
        if tau is None:
            return NotConjugate("cyclic-normal-form")
        sigma = sigma * tau
    sigma = ch * sigma * cg.inverse()
    verify(sigma * g * sigma.inverse() == h, "conjugator")
    return Conjugate(sigma)
