"""Double cosets of special subgroups and exact subgroup intersections.

A double coset A·x·B of special subgroups has one (A, B)-reduced element:
the word left when the largest ideal of letters of A is stripped from the
front of x's heap and then the largest filter of letters of B from its
back, each in one scan of the canonical word
(`Element.double_coset_form`). So
membership is one comparison of reduced representatives, and the
intersection of A with a conjugate of B has a closed form. Both are exact
and linear in the word length, and neither calls a conjugacy decision.
`conjugate_under` and the centralizers in module conjugacy cut with the
same strip and the same vertex set Z (`intersection_vertices`).
"""

from ._checks import check_graph, verify, vertex_set
from ._record import Record, Sentinel
from .words import Element

__all__ = [
    "INCONCLUSIVE",
    "Gens",
    "CosetFactors",
    "NotMember",
    "in_double_coset",
    "intersect_conjugated",
]


# no decision returns it any more; it stays only because the benchmark in
# bench/ still imports it
INCONCLUSIVE = Sentinel("INCONCLUSIVE", __name__)


class Gens(list):
    """Generating set of the whole described subgroup.

    Every centralizer comes out exact, so `complete` is always True; it is
    kept for callers that read it.
    """

    complete = True


def make_gens(items):
    return Gens(items)


def vertex_gens(graph, verts):
    return [Element(graph, (i + 1,), canonical=True) for i in sorted(verts)]


def abelianization(g):
    """Exponent-sum vector of g, indexed by vertex. Every reduced word of
    g has the same exponent sums, so the word g holds is read as it is:
    an inverse nobody has read is not canonicalised for it."""
    out = [0] * g.graph.n
    for lt in g._word:
        out[abs(lt) - 1] += 1 if lt > 0 else -1
    return tuple(out)


# ---------------------------------------------------------------------------
# double cosets


class CosetFactors(Record):
    """Witness y == left * x * right for double-coset membership."""

    __slots__ = ("left", "right")


class NotMember(Record):
    __slots__ = ("reason",)


def in_double_coset(y, x, a_verts, b_verts, conj_tester=None):
    """Decide y in <A>x<B> with explicit factors.

    Membership holds iff x and y have the same reduced representative
    (`Element.double_coset_form`); the factors y == a*x*b then come from
    the stripped letters and are verified before being returned. Returns
    CosetFactors or NotMember, never INCONCLUSIVE. `conj_tester` is
    accepted for older callers and ignored. Raises ValueError if a vertex
    set holds a non-vertex index.
    """
    graph = x.graph
    check_graph(graph, y)
    a_verts, b_verts = vertex_set(graph, a_verts), vertex_set(graph, b_verts)
    a_x, rep_x, b_x = x.double_coset_form(a_verts, b_verts)
    a_y, rep_y, b_y = y.double_coset_form(a_verts, b_verts)
    if rep_x != rep_y:
        return NotMember("reduced-representative")
    left = a_y * a_x.inverse()
    right = b_x.inverse() * b_y
    verify(
        left.in_special(a_verts)
        and right.in_special(b_verts)
        and left * x * right == y,
        "double coset factors",
    )
    return CosetFactors(left, right)


def intersection_vertices(common, rep):
    """Z, the vertices of `common` adjacent to all of supp(rep): for rep
    (A, B)-reduced and common = A∩B, <A> ∩ rep<B>rep^-1 == <Z>."""
    supp, adj = rep.support(), rep.graph.adj
    return frozenset(v for v in common if supp <= adj[v])


def intersect_conjugated(a_verts, x, b_verts):
    """(gamma, gens) with <A> ∩ x<B>x^-1 == gamma^-1 * <gens> * gamma.

    With x = a * r * b from `Element.double_coset_form`, the intersection
    is a * (<A> ∩ r<B>r^-1) * a^-1, and <A> ∩ r<B>r^-1 is the special
    subgroup on Z, the vertices of A∩B adjacent to every vertex of
    supp(r). Proof of the hard inclusion: if alpha in <A> has
    r^-1 * alpha * r = beta in <B>, then alpha * r * beta^-1 == r, and by
    the cancellation argument of `double_coset_form` the letters of alpha
    all cancel against beta^-1 while commuting with every letter of r, so
    they lie in A∩B and in the link of each vertex of r. So gamma = a^-1
    and gens are the vertices of Z. Raises ValueError if a vertex set
    holds a non-vertex index.
    """
    graph = x.graph
    a_verts, b_verts = vertex_set(graph, a_verts), vertex_set(graph, b_verts)
    a_x, r, _ = x.double_coset_form(a_verts, b_verts)
    z = intersection_vertices(a_verts & b_verts, r)
    return a_x.inverse(), make_gens(vertex_gens(graph, z))
