"""Stable-letter decompositions along a pivot vertex.

Picking a pivot vertex t presents the group as an HNN extension of the
special subgroup on the remaining vertices, with associated subgroup
generated by the link of t; the stable letter t commutes elementwise with
that associated subgroup. Elements then carry a syllable form

    x0 * t^a1 * x1 * ... * t^an * xn

with every x_i in the base and every interior x_i outside the associated
subgroup. Canonical words produce such a reduced form directly: two pivot
runs separated only by letters commuting with the pivot would have merged
during canonicalisation.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cosets
from ._checks import verify
from .words import Element

__all__ = [
    "HnnSplitting",
    "HnnWord",
    "NoConjugator",
    "decompose",
    "minasyan_conjugate_under",
]


class HnnSplitting:
    """A choice of pivot vertex on a fixed graph."""

    def __init__(self, graph, pivot):
        if not 0 <= pivot < graph.n:
            raise ValueError("pivot out of range")
        self.graph = graph
        self.pivot = pivot
        self.assoc = graph.link(pivot)

    def t(self, power=1):
        lt = self.pivot + 1
        if power == 0:
            return Element(self.graph, (), canonical=True)
        return Element(
            self.graph, (lt if power > 0 else -lt,) * abs(power), canonical=True
        )

    def in_assoc(self, x):
        return x.in_special(self.assoc)

    def __repr__(self):
        return f"HnnSplitting(pivot={self.graph.vertices[self.pivot]!r})"


@dataclass(frozen=True)
class HnnWord:
    """Syllable form x0 t^a1 x1 ... t^an xn. head = x0 may be trivial."""

    head: Element
    syllables: tuple

    @property
    def n(self):
        return len(self.syllables)

    @property
    def exponents(self):
        return tuple(a for a, _ in self.syllables)

    def xprod(self):
        """Product of the base parts x0 x1 ... xn."""
        out = self.head
        for _, x in self.syllables:
            out = out * x
        return out

    def base_prefix(self, i):
        """x0 x1 ... x_i (i ranges over 0..n, where 0 gives the head)."""
        out = self.head
        for _, x in self.syllables[:i]:
            out = out * x
        return out

    def to_element(self, split):
        """x0 t^a1 x1 ... t^an xn as an element."""
        out = self.head
        for a, x in self.syllables:
            out = out * split.t(a) * x
        return out


def decompose(split, g):
    """Syllable form of g with respect to the splitting.

    The interior parts land outside the associated subgroup automatically,
    which keeps the form reduced in Britton's sense; this is checked, since
    the certified negative answers of `minasyan_conjugate_under` rest on it.
    """
    graph = split.graph
    tv = split.pivot + 1
    chunks = [[]]
    exps = []
    for lt in g.letters:
        if lt == tv or lt == -tv:
            s = 1 if lt > 0 else -1
            if exps and not chunks[-1]:
                # continuing a pivot run; canonical words never mix signs in one
                verify((exps[-1] > 0) == (s > 0), "pivot run sign")
                exps[-1] += s
            else:
                exps.append(s)
                chunks.append([])
        else:
            chunks[-1].append(lt)
    # contiguous pieces of a canonical word are canonical
    head = Element(graph, tuple(chunks[0]), canonical=True)
    syllables = tuple(
        (exps[k], Element(graph, tuple(chunks[k + 1]), canonical=True))
        for k in range(len(exps))
    )
    for k in range(len(syllables) - 1):
        verify(not split.in_assoc(syllables[k][1]), "reduced syllable form")
    return HnnWord(head, syllables)


@dataclass(frozen=True)
class NoConjugator:
    """Certified absence of a conjugator, naming the failed condition."""

    reason: str


def minasyan_conjugate_under(
    split, xw, yw, subgroup, conj_tester, centralizer_service, search_bound=None
):
    """Conjugator inside the special subgroup on `subgroup` taking xw's
    element to yw's, for reduced forms with at least one pivot run.

    Three conditions, each necessary and together sufficient: the pivot
    exponent sequences agree; the base-part products are conjugate under
    the subgroup, with witness alpha; and the coset of alpha by the
    centralizer of the base product meets every prefix coset
    ypref_i * <assoc> * xpref_i^-1. Any solution of the last intersection
    conjugates xw to yw, and the returned witness is verified.

    Returns an Element, NoConjugator, or cosets.INCONCLUSIVE.
    """
    graph = split.graph
    verify(xw.n >= 1, "pivot run in the reduced form")
    if xw.exponents != yw.exponents:
        return NoConjugator("hnn-exponent-pattern")
    xprod = xw.xprod()
    yprod = yw.xprod()
    alpha = conj_tester(xprod, yprod, subgroup)
    if alpha is cosets.INCONCLUSIVE:
        return cosets.INCONCLUSIVE
    if alpha is None:
        return NoConjugator("base-product-conjugacy")
    spec = cosets.SubgroupIntersectionSpec(frozenset(subgroup), xprod, ())
    double_cosets = [
        cosets.SpecialCoset(
            yw.base_prefix(i), split.assoc, xw.base_prefix(i).inverse()
        )
        for i in range(xw.n)
    ]
    x_elt = xw.to_element(split)
    y_elt = yw.to_element(split)
    if search_bound is None:
        search_bound = 2 * (len(x_elt) + len(y_elt)) + 8
    sigma = cosets.coset_intersection_nonempty(
        alpha, spec, double_cosets, search_bound, centralizer_service
    )
    if sigma is cosets.EMPTY:
        return NoConjugator("coset-intersection")
    if sigma is cosets.INCONCLUSIVE:
        return cosets.INCONCLUSIVE
    verify(
        sigma.in_special(subgroup) and sigma * x_elt * sigma.inverse() == y_elt,
        "conjugator",
    )
    return sigma
