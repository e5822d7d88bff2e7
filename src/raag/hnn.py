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

`decompose(g, pivot)` computes the form for the vertex index `pivot`;
`raag hnn-decompose` prints it, and nothing else in the package uses it.
Conjugacy under a special subgroup and the centralizers of sets are
decided without it; the paper's HNN routes for both are kept as test
oracles.
"""

from ._checks import vertex_set, verify
from ._record import Record
from .words import Element

__all__ = [
    "HnnWord",
    "decompose",
]


class HnnWord(Record):
    """Syllable form x0 t^a1 x1 ... t^an xn. head = x0 may be trivial."""

    __slots__ = ("head", "syllables")

    @property
    def n(self):
        return len(self.syllables)


def decompose(g, pivot):
    """Syllable form of g along the vertex index `pivot`; raises ValueError
    unless `pivot` is a vertex index of g's graph.

    The interior parts land outside the associated subgroup automatically,
    which keeps the form reduced in Britton's sense. This is checked, so a
    word wrongly flagged canonical cannot yield an unreduced form.
    """
    graph = g.graph
    vertex_set(graph, (pivot,))
    tv = pivot + 1
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
    assoc = graph.link(pivot)
    for k in range(len(syllables) - 1):
        verify(not syllables[k][1].in_special(assoc), "reduced syllable form")
    return HnnWord(head, syllables)
