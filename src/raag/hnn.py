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

`raag hnn-decompose` prints these forms, and nothing else in the package
uses them. Conjugacy under a special subgroup and the centralizers of
sets are decided without them; the paper's HNN routes for both are kept
as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._checks import verify
from .words import Element

__all__ = [
    "HnnSplitting",
    "HnnWord",
    "decompose",
]


class HnnSplitting:
    """A choice of pivot vertex on a fixed graph."""

    def __init__(self, graph, pivot):
        if not 0 <= pivot < graph.n:
            raise ValueError("pivot out of range")
        self.graph = graph
        self.pivot = pivot
        self.assoc = graph.link(pivot)

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


def decompose(split, g):
    """Syllable form of g with respect to the splitting.

    The interior parts land outside the associated subgroup automatically,
    which keeps the form reduced in Britton's sense. This is checked, so a
    word wrongly flagged canonical cannot yield an unreduced form.
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
