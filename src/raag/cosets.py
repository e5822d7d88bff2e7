"""Double cosets of special subgroups and exact subgroup intersections.

Special subgroups admit retractions, and the retraction algebra gives each
double coset A·x·B a canonical core

    alpha = gamma * x * rho_B(x^-1),   gamma = rho_A(rho_B(x) * x^-1) in A.

Membership of y in A·x·B reduces to conjugacy of the cores of x and y
under the special subgroup on A∩B, and the intersection of A with a
conjugate of B is a conjugated centralizer. The same normalisation folds a
constraint "lie in u<B>u^-1" into a running description

    conj * C_{<verts>}(elems) * conj^-1

exactly, which is what keeps the bounded intersection search honest: every
intermediate set is represented precisely, the injected centralizer service
returns exact generating sets, witnesses are verified by multiplication,
and emptiness is only ever reported with a certificate.

This module takes the conjugacy tester and the centralizer generator
producer as callables instead of importing them, so it sits below the
modules that implement them. Protocols:

    conj_tester(u, v, verts)          -> Element | None | INCONCLUSIVE
    centralizer_service(graph, verts, elems) -> Gens

where a returned Element sigma satisfies sigma * u * sigma^-1 == v and
lies in the special subgroup on `verts`, and None certifies there is none.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._checks import verify
from ._intlinalg import solve_left_integer
from .words import Element

__all__ = [
    "EMPTY",
    "INCONCLUSIVE",
    "Gens",
    "SpecialCoset",
    "SubgroupIntersectionSpec",
    "CentralizerState",
    "CosetFactors",
    "NotMember",
    "canonical_double_coset_data",
    "in_double_coset",
    "intersect_conjugated",
    "coset_intersection_nonempty",
    "state_from_spec",
]


class _Sentinel:
    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


EMPTY = _Sentinel("EMPTY")
INCONCLUSIVE = _Sentinel("INCONCLUSIVE")


class Gens(list):
    """Generating set of the whole described subgroup.

    Every centralizer comes out exact, so `complete` is always True; it is
    kept for callers that read it.
    """

    complete = True


def make_gens(items):
    return Gens(items)


def _one(graph):
    return Element(graph, (), canonical=True)


def abelianization(g):
    """Exponent-sum vector of g, indexed by vertex."""
    out = [0] * g.graph.n
    for lt in g.letters:
        out[abs(lt) - 1] += 1 if lt > 0 else -1
    return tuple(out)


@dataclass(frozen=True)
class SpecialCoset:
    """The set left * <verts> * right."""

    left: Element
    verts: frozenset
    right: Element

    def contains(self, w):
        return (self.left.inverse() * w * self.right.inverse()).in_special(self.verts)

    def conjugated_shape(self):
        """(c, u) with the same set written as c * u<verts>u^-1."""
        return self.left * self.right, self.right.inverse()


@dataclass(frozen=True)
class SubgroupIntersectionSpec:
    """Denotes C_{<subgroup>}(of) ∩ ⋂_i conj_i <verts_i> conj_i^-1.

    of=None means no centralizer condition (the full special subgroup);
    conjugated_terms is a tuple of (conj: Element, verts: frozenset).
    """

    subgroup: frozenset
    of: Element | None
    conjugated_terms: tuple = ()


class CentralizerState:
    """The set conj * C_{<verts>}(elems) * conj^-1, closed under folds.

    constrain_membership intersects with u<B>u^-1 (u given in the outer,
    unshifted frame) and lands back in the same shape: verts shrinks to
    verts & B and everything is transported by the normalising base change
    gamma, so arbitrarily many folds stay exact. Materialising a
    generating set is delegated to the injected centralizer service.
    """

    def __init__(self, graph, conj, verts, elems, service):
        self.graph = graph
        self.conj = conj
        self.verts = frozenset(verts)
        self.elems = tuple(y for y in elems if y)
        self.service = service
        self._gens = None

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
        if self._gens is None:
            inner = self.service(self.graph, self.verts, self.elems)
            ci = self.conj.inverse()
            self._gens = make_gens(self.conj * x * ci for x in inner)
        return make_gens(self._gens)


def state_from_spec(graph, spec, service):
    elems = () if spec.of is None else (spec.of,)
    state = CentralizerState(graph, _one(graph), spec.subgroup, elems, service)
    for c, b in spec.conjugated_terms:
        state = state.constrain_membership(c, b)
    return state


# ---------------------------------------------------------------------------
# double cosets


def canonical_double_coset_data(x, a_verts, b_verts):
    """(alpha, gamma) with gamma in <A> and alpha = gamma*x*rho_B(x^-1),
    so alpha lies in the double coset <A>x<B> by construction."""
    a = frozenset(a_verts)
    b = frozenset(b_verts)
    gamma = (x.retract(b) * x.inverse()).retract(a)
    alpha = gamma * x * x.inverse().retract(b)
    return alpha, gamma


@dataclass(frozen=True)
class CosetFactors:
    """Witness y == left * x * right for double-coset membership."""

    left: Element
    right: Element


@dataclass(frozen=True)
class NotMember:
    reason: str


def in_double_coset(y, x, a_verts, b_verts, conj_tester):
    """Decide y in <A>x<B> with explicit factors.

    Membership holds iff the canonical cores of x and y are conjugate
    under the special subgroup on A∩B; a core witness d is rebuilt into
    factors y == a*x*b which are verified before being returned. Returns
    CosetFactors, NotMember, or INCONCLUSIVE (from the tester).
    """
    a = frozenset(a_verts)
    b = frozenset(b_verts)
    alpha_x, gamma_x = canonical_double_coset_data(x, a, b)
    alpha_y, gamma_y = canonical_double_coset_data(y, a, b)
    d = conj_tester(alpha_x, alpha_y, a & b)
    if d is INCONCLUSIVE:
        return INCONCLUSIVE
    if d is None:
        return NotMember("core-conjugacy")
    apart = gamma_y.inverse() * d * gamma_x
    bpart = x.inverse().retract(b) * d.inverse() * y.inverse().retract(b).inverse()
    verify(
        apart.in_special(a) and bpart.in_special(b) and apart * x * bpart == y,
        "double coset factors",
    )
    return CosetFactors(apart, bpart)


def intersect_conjugated(a_verts, x, b_verts, centralizer_service):
    """(gamma, gens) with <A> ∩ x<B>x^-1 == gamma^-1 * <gens> * gamma."""
    a = frozenset(a_verts)
    b = frozenset(b_verts)
    alpha, gamma = canonical_double_coset_data(x, a, b)
    gens = centralizer_service(x.graph, a & b, (alpha,))
    return gamma, gens


# ---------------------------------------------------------------------------
# bounded intersection search


def _abelian_certificate_empty(graph, rep, gens, cosets):
    """True when exponent sums already rule out the whole instance.

    Every element of left<B>right fixes the coordinates outside B at
    ab(left*right); two cosets disagreeing there, or a forced vector
    outside the affine lattice reachable from rep, certify emptiness.
    """
    n = graph.n
    forced = {}
    for dc in cosets:
        ab_c = abelianization(dc.left * dc.right)
        for v in range(n):
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


def coset_intersection_nonempty(
    rep, spec, double_cosets, search_bound, centralizer_service, state_cap=20_000
):
    """Witness in rep*<spec> ∩ every listed double coset, or a verdict.

    The subgroup described by `spec` is folded down after each coset is
    satisfied, so the search always moves inside the exact set of
    still-admissible elements. Returns an Element, EMPTY (certified, via
    the exponent-sum obstruction or an exhausted finite orbit), or
    INCONCLUSIVE when a bound was hit.
    """
    graph = rep.graph
    state = state_from_spec(graph, spec, centralizer_service)
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
                return EMPTY if exhausted else INCONCLUSIVE
            rep = found
        _, u = dc.conjugated_shape()
        state = state.constrain_membership(u, dc.verts)
    return rep
