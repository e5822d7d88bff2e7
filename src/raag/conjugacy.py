"""Conjugacy decisions with certificates, centralizers, and the
brute-force oracles used to cross-check everything else.

The decision procedure recurses on support: strip common central and
unused vertices, cyclically reduce both inputs along the last vertex as a
pivot, align pivot exponent patterns up to whole-syllable rotation, and
hand each alignment to the three-condition criterion, which in turn tests
the base products under the associated subgroup and searches a coset
intersection. Every positive answer carries a conjugator verified by
multiplication; every negative answer names the invariant that separates
the inputs; when the bounded searches run out the answer is Inconclusive,
never a guess.

The centralizer of a single element comes straight from Servatius'
centralizer theorem: the primitive roots of the pure factors of its
cyclic normal form, times the special subgroup on their common link.
Centralizers of sets inside a special subgroup peel one pivot at a time,
folding the resulting membership constraints into the exact state
machinery of module cosets until a terminal shape (complete graph,
central vertices, free group, single element) takes over. Centralizers
never call the conjugacy decision; the decision calls them, through the
coset search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd

from . import cosets, hnn
from ._checks import verify
from .cosets import Gens, abelianization, make_gens
from .words import Element

__all__ = [
    "Conjugate",
    "NotConjugate",
    "Inconclusive",
    "NotInBall",
    "abelianization",
    "conjugate",
    "conjugate_under",
    "centralizer",
    "centralizer_in_special",
    "avoid_subgroup",
    "cayley_ball",
    "subgroup_ball",
    "ball_oracle_conjugate",
]


@dataclass(frozen=True)
class Conjugate:
    """Positive answer; conjugator * g * conjugator^-1 == h, verified."""

    conjugator: Element
    note: str = ""


@dataclass(frozen=True)
class NotConjugate:
    """Negative answer, naming the invariant that separates the inputs."""

    reason: str


@dataclass(frozen=True)
class Inconclusive:
    """A bounded search ran out before deciding."""

    detail: str


@dataclass(frozen=True)
class NotInBall:
    """No conjugator exists within the searched radius."""

    radius: int


def _one(graph):
    return Element(graph, (), canonical=True)


def _vertex_gens(graph, verts):
    return [Element(graph, (i + 1,), canonical=True) for i in sorted(verts)]


# ---------------------------------------------------------------------------
# ball enumeration and the brute-force conjugacy oracle


def cayley_ball(graph, radius):
    """Set of all elements of reduced length at most `radius`.

    Prefixes of canonical words are canonical, so every element of length
    L+1 is a length-L element times one letter that makes the word longer;
    the length-increasing sweep is therefore exhaustive.
    """
    out = {_one(graph)}
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
    no completeness promise beyond that.
    """
    gens = [g for g in gens if g]
    if not gens:
        return {_one(graph)}
    step = gens + [g.inverse() for g in gens]
    limit = max_len + slack + max(len(g) for g in gens)
    seen = {_one(graph)}
    frontier = [_one(graph)]
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


def ball_oracle_conjugate(g, h, radius):
    """Decide existence of a conjugator of reduced length at most `radius`
    by meeting in the middle.

    Conjugation orbits of depth floor(r/2) from g and ceil(r/2) from h are
    expanded; any conjugator of length <= r splits across the two sweeps,
    so within the radius the decision is exact. Returns Conjugate with the
    shortlex-least witness found, or NotInBall.
    """
    graph = g.graph
    gens = _vertex_gens(graph, range(graph.n))
    gens += [x.inverse() for x in gens]

    def orbit(start, depth):
        table = {start: _one(graph)}
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
    verify(best * g * best.inverse() == h, "ball-search conjugator")
    return Conjugate(best, note="ball-search")


# ---------------------------------------------------------------------------
# services handed to the splitting-level machinery


def _service(graph, verts, elems):
    """Centralizer generator producer, in the protocol of module cosets."""
    return _centralizer_core(graph, frozenset(verts), list(elems))


def _tester(u, v, verts):
    """Witness-producing conjugacy tester, in the protocol of module
    cosets: Element, None (certified), or the INCONCLUSIVE sentinel."""
    res = conjugate_under(u, v, verts)
    if isinstance(res, Conjugate):
        return res.conjugator
    if isinstance(res, NotConjugate):
        return None
    return cosets.INCONCLUSIVE


# ---------------------------------------------------------------------------
# centralizers


def _centralizer_core(graph, verts, elems):
    """Generators of the centralizer of `elems` inside <verts>."""
    verts = frozenset(verts)
    elems = [y for y in elems if y]
    if not verts:
        return make_gens([])
    if not elems:
        return make_gens(_vertex_gens(graph, verts))
    outside = frozenset().union(*[y.support() for y in elems]) - verts
    if not outside:
        keep = sorted(verts)
        sub = graph.full_subgraph(keep)
        inner = _full_centralizer(sub, [y.restrict(sub) for y in elems])
        return make_gens((x.embed(graph) for x in inner), complete=inner.complete)
    t = max(outside)
    split = hnn.HnnSplitting(graph, t)
    target = next(y for y in elems if t in y.support())
    rest = [y for y in elems if y is not target]
    hw = hnn.decompose(split, target)
    # a pivot-free centralizing element must fix the product of base parts
    # and lie in every base-prefix conjugate of the associated subgroup;
    # together those conditions are equivalent to commuting with target
    state = cosets.CentralizerState(
        graph, _one(graph), verts, tuple(rest) + (hw.xprod(),), _service
    )
    for i in range(hw.n):
        state = state.constrain_membership(hw.base_prefix(i), split.assoc)
    return state.generators()


def _full_centralizer(graph, elems):
    """Centralizer generators relative to the whole graph."""
    seen = []
    for y in elems:
        if y and y not in seen:
            seen.append(y)
    elems = seen
    if not elems or graph.is_complete():
        return make_gens(_vertex_gens(graph, range(graph.n)))
    if len(elems) == 1:
        return _single_centralizer(graph, elems[0])
    center = graph.center_vertices()
    if center:
        others = [i for i in range(graph.n) if i not in center]
        sub = graph.full_subgraph(others)
        projected = [y.retract(others).restrict(sub) for y in elems]
        inner = _full_centralizer(sub, projected)
        out = _vertex_gens(graph, center) + [x.embed(graph) for x in inner]
        return make_gens(out, complete=inner.complete)
    if graph.is_discrete():
        return _free_multi_centralizer(graph, elems)
    return _bounded_commutant(graph, elems)


def _free_multi_centralizer(graph, elems):
    # free group: the centralizer of a nontrivial element is the cyclic
    # group on its primitive root, so a set is centralized either by that
    # root's powers or by nothing
    (root,) = _single_centralizer(graph, elems[0])
    if all(root * y == y * root for y in elems[1:]):
        return make_gens([root])
    return make_gens([])


def _bounded_commutant(graph, elems, max_len=None):
    """Sound fallback for several elements on a centerless, connected,
    non-complete, non-free piece; only ambient graphs of rank five or more
    can reach it. Returns short commuting elements found by a sweep and
    flags the list incomplete so nothing downstream certifies emptiness
    from it."""
    if max_len is None:
        max_len = max((len(y) for y in elems), default=2) + 2
    found = [
        w
        for w in sorted(cayley_ball(graph, max_len), key=Element.shortlex_key)
        if w and all(w * y == y * w for y in elems)
    ]
    return make_gens(found[:12], complete=False)


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


def _single_centralizer(graph, y):
    """Servatius' centralizer theorem for a nontrivial element: with
    y == conj * core * conj^-1 and core cyclically reduced, the centralizer
    is conj * (<root p_1> x ... x <root p_k> x <link>) * conj^-1, where p_i
    are the pure factors of core (its retractions onto the components of
    the non-commutation graph on its support) and link is every vertex
    outside the support adjacent to all of it. Link vertices come first,
    then the roots, each flipped to start with a positive letter."""
    conj, core = y.cyclic_normal_form()
    supp = core.support()
    link = [v for v in range(graph.n) if v not in supp and supp <= graph.adj[v]]
    out = _vertex_gens(graph, link)
    for comp in _pure_factor_supports(graph, supp):
        r = _primitive_root(core.retract(comp))
        out.append(r.inverse() if r.letters[0] < 0 else r)
    ci = conj.inverse()
    gens = [conj * x * ci for x in out]
    verify(all(x * y == y * x for x in gens), "centralizer generator")
    return make_gens(gens)


def centralizer(g):
    """Finite generating set of the centralizer of g, by Servatius'
    centralizer theorem.

    The returned list carries a boolean attribute `complete`, always True
    here; only centralizers of several elements can come back incomplete.
    """
    return _full_centralizer(g.graph, [g])


def centralizer_in_special(graph, verts, elems):
    """Generators of the centralizer of `elems` inside the special
    subgroup on the vertex indices `verts`."""
    return _centralizer_core(graph, frozenset(verts), list(elems))


# ---------------------------------------------------------------------------
# conjugacy


def conjugate_under(g, h, s_verts, search_bound=None):
    """Decide whether some sigma in the special subgroup on `s_verts`
    conjugates g to h; witnesses are verified before being returned.

    search_bound caps the canonical length explored by the coset
    intersection search; None picks a bound from the input lengths."""
    graph = g.graph
    s = frozenset(s_verts)
    if s == frozenset(range(graph.n)):
        return conjugate(g, h)
    if g == h:
        return Conjugate(_one(graph))
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
        res = conjugate_under(g.restrict(sub), h.restrict(sub), s_sub, search_bound)
        if isinstance(res, Conjugate):
            sigma = res.conjugator.embed(graph)
            verify(sigma * g * sigma.inverse() == h, "conjugator")
            return Conjugate(sigma, res.note)
        return res
    split = hnn.HnnSplitting(graph, t)
    res = hnn.minasyan_conjugate_under(
        split, hnn.decompose(split, g), hnn.decompose(split, h), s,
        _tester, _service, search_bound=search_bound,
    )
    if isinstance(res, hnn.NoConjugator):
        return NotConjugate(res.reason)
    if res is cosets.INCONCLUSIVE:
        return Inconclusive("coset intersection search hit its bounds")
    verify(res.in_special(s), "conjugator")
    return Conjugate(res)


def conjugate(g, h, fallback_radius=6):
    """Decide conjugacy of g and h.

    Returns Conjugate (verified witness), NotConjugate (naming the
    separating invariant), or, if every exact route and the bounded
    fallback search are exhausted, Inconclusive.
    """
    graph = g.graph
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
    supp = gcore.support()
    if supp != frozenset(range(graph.n)):
        sub = graph.full_subgraph(sorted(supp))
        res = conjugate(gcore.restrict(sub), hcore.restrict(sub), fallback_radius)
        if isinstance(res, Conjugate):
            sigma = ch * res.conjugator.embed(graph) * cg.inverse()
            verify(sigma * g * sigma.inverse() == h, "conjugator")
            return Conjugate(sigma, res.note)
        return res
    if graph.is_complete():
        # equal abelianisations on a complete graph force equality
        return NotConjugate("abelianization")
    t = graph.n - 1
    split = hnn.HnnSplitting(graph, t)
    c1, u = hnn.cyclically_reduce(split, gcore)
    c2, v = hnn.cyclically_reduce(split, hcore)
    assert u.n >= 1 and v.n >= 1
    big_g = cg * c1
    big_h = ch * c2
    saw_inconclusive = False
    if u.n == v.n:
        for k in range(v.n):
            vk = v.rotated(k)
            if vk.exponents != u.exponents:
                continue
            res = hnn.minasyan_conjugate_under(
                split, u, vk, split.assoc, _tester, _service
            )
            if res is cosets.INCONCLUSIVE:
                saw_inconclusive = True
            elif not isinstance(res, hnn.NoConjugator):
                sigma = big_h * v.full_prefix(split, k) * res * big_g.inverse()
                verify(sigma * g * sigma.inverse() == h, "conjugator")
                return Conjugate(sigma)
    if not saw_inconclusive:
        return NotConjugate("cyclic-normal-form")
    fallback = ball_oracle_conjugate(g, h, fallback_radius)
    if isinstance(fallback, Conjugate):
        return fallback
    return Inconclusive(
        f"no decision within conjugator radius {fallback_radius}"
    )


def avoid_subgroup(g):
    """A proper special subgroup (as a frozenset of vertex indices) whose
    conjugates all miss g, or None for the identity.

    Any vertex in the support of the cyclic normal form works: conjugation
    cannot erase it, so no conjugate of g lies in the subgroup on the
    remaining vertices.
    """
    if g.is_identity():
        return None
    v = min(g.cyclic_support())
    return frozenset(range(g.graph.n)) - {v}
