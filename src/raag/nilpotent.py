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

A monomial is the lex-least word of its trace. Appending a letter v to one
is an insertion: step back over the longest suffix of letters adjacent to
v, forward past those smaller than v, and put v there (Anisimov-Knuth).
It is the rule `words._canonical` runs on group words, and the words
module docstring proves it.
`TraceAlgebra(graph, d)` lists the monomials of degree <= d and tabulates
that insertion once, as integer append tables, one degree at a time;
images, the columns of the Magnus system and the check of a found unit
then run on integer indices. The Magnus test decides on the cyclic
cores of its pair, which decide as the pair does: equal cores answer with
the image of their conjugator and build nothing, and other cores build
these on the full subgraph on the letters the cores use, which decides as
the whole graph does, and one degree at a time, as the solver reads the
rows: a solve that stops at a row of degree k builds nothing past degree k.

The same algebra carries the Lie theory: brackets of the degree-one part
generate a graded Lie ring whose dimensions d_n are the successive ranks of
the group's lower central series. They follow in closed form from the
clique polynomial C(t) = sum_j c_j t^j, where c_j counts the j-cliques:
prod_n (1 - t^n)^(-d_n) = 1 / C(-t) (Duchamp-Krob).
"""

from itertools import chain, islice, zip_longest
from math import comb
from types import MappingProxyType

from . import conjugacy, words
from ._checks import check_graph, require_int, require_prime, verify
from ._intlinalg import solve_mod_prime_power
from ._record import Record, Sentinel

__all__ = [
    "TruncatedAlgebraElement",
    "Separated",
    "NotSeparatedAtThisLevel",
    "NOT_FOUND",
    "TraceAlgebra",
    "MAX_TRACE_MONOMIALS",
    "magnus_image",
    "magnus_conjugate_test",
    "find_separating_level",
    "MAX_PRECISION",
    "lie_graded_dims",
    "MAX_LIE_DEGREE",
    "lie_center_trivial",
]


# ---------------------------------------------------------------------------
# trace monomials

# monomials are canonical positive trace words, stored as tuples of vertex
# indices: the lex-least word of each trace, which is the group normal form
# restricted to positive letters


# the Magnus system has one equation per monomial of degree 1..d and one
# unknown per monomial of degree 1..d-1; a free group of rank 2 has 2047
# monomials at degree 10 and 4095 at degree 11, where the test of a
# conjugate pair takes about 0.01-0.02 s and 0.02-0.04 s on one Xeon core
# (Python 3.11); each further degree costs about twice the last, as the
# basis grows, so larger bases are refused before they are built
MAX_TRACE_MONOMIALS = 2048


class TraceAlgebra:
    """The trace monomials of degree <= d, with integer append tables.

    basis lists them by degree, then lex; rows counts those of degree < d,
    which come first. For i < rows, right[i][v] and left[i][v] are the
    indices of the canonical forms of basis[i].v and v.basis[i], and for
    i > 0, parent[i] and tail[i] are those of basis[i] without its last and
    without its first letter. Rows of degree d are empty: their products
    leave the truncation.

    grow() raises d by one, and TraceAlgebra(graph, d) is d such steps
    from the algebra of degree 0, so a caller that needs the degrees one at
    a time builds each once. A step walks the rows of degree d in order:
    each letter v of row w either names a monomial already listed or
    appends w.v as a new one. By the insertion rule (proved in the words
    module docstring), w.v is canonical exactly when every letter of the
    longest suffix of w adjacent to v is smaller than v. For w = w'.u
    that holds when v is not adjacent to u, or when it is adjacent, larger
    than u, and w'.v is canonical, that is when row w' created its own
    entry for v; then w.v is appended. Otherwise v commutes with u, and w.v is the canonical
    form of canonical(w'.v).u. That word precedes w in lex order (it is
    w'.v with v < u, or inserts v before a larger letter of w'), so its
    row is built already. The monomials that row w appends all have
    degree |w| + 1 and come in the order of v, and the rows of one degree
    are walked in lex order, so each degree comes out in lex order, after
    every lower one. The left table follows from v.w'.u = (v.w').u, and
    the tail from w[1:] = w'[1:].u, both canonical.

    Raises ValueError for d < 0, and as soon as more than
    MAX_TRACE_MONOMIALS monomials have been created, without building the
    rest of the basis.
    """

    def __init__(self, graph, d):
        d = require_int(d, "d")
        if d < 0:
            raise ValueError("need d >= 0")
        self.graph = graph
        self.d = self.rows = 0
        self.basis = [()]
        self.parent, self.tail = [0], [0]
        self.right, self.left = [[]], [[]]
        for _ in range(d):
            self.grow()

    def grow(self):
        """Raise the truncation by one degree: the rows of degree d get
        their tables, and the monomials of degree d + 1 are listed."""
        n, adj = self.graph.n, self.graph.adj
        basis, parent, right, left, tail = self.basis, self.parent, self.right, self.left, self.tail
        first, top = self.rows, len(basis)
        for i in range(first, top):
            w = basis[i]
            near = ()
            if w:
                u, p = w[-1], parent[i]
                near, up = adj[u], right[p]
            row = right[i]
            for v in range(n):
                if v in near and (v < u or parent[up[v]] != p):
                    row.append(right[up[v]][u])
                else:
                    row.append(len(basis))
                    basis.append(w + (v,))
                    parent.append(i)
            if len(basis) > MAX_TRACE_MONOMIALS:
                raise ValueError(
                    f"more than {MAX_TRACE_MONOMIALS} trace monomials up to degree {self.d + 1}"
                )
        new = range(top, len(basis))
        right += [[] for _ in new]
        left += [[] for _ in new]
        tail += [0] * len(new)
        for i in range(first, top):
            if not i:
                left[0] = right[0]
                continue
            u, p = basis[i][-1], parent[i]
            left[i] = [right[j][u] for j in left[p]]
            if p:
                tail[i] = right[tail[p]][u]
        self.rows = top
        self.d += 1

    def mul(self, x, y, q):
        """x.y over Z/q, on {index: coefficient} maps: the sum over the
        monomials s of y of y_s (x.s), with x.s = (x.parent(s)).(last of s).
        x.s is built for the monomials of y and their prefixes, in index
        order, where a parent precedes its extensions."""
        right, parent, basis = self.right, self.parent, self.basis
        needed = set()
        for s in y:
            while s and s not in needed:
                needed.add(s)
                s = parent[s]
        times = {0: x}
        for s in sorted(needed):
            u = basis[s][-1]
            times[s] = {right[i][u]: c for i, c in times[parent[s]].items() if right[i]}
        out = {}
        for s, b in y.items():
            for i, c in times[s].items():
                out[i] = out.get(i, 0) + b * c
        return {i: c % q for i, c in out.items() if c % q}


# ---------------------------------------------------------------------------
# the truncated algebra


class TruncatedAlgebraElement(Record):
    """A checked coefficient map on trace monomials of degree <= cap, as an
    immutable record.

    This is the value the library hands out (magnus_image,
    NotSeparatedAtThisLevel.unit); it carries no arithmetic, since the
    algebra's one product is TraceAlgebra.mul. modulus 0 means exact
    integer coefficients; modulus q > 0 means coefficients in Z/q, reduced
    on construction. A monomial longer than the cap raises ValueError.
    coeffs is a read-only view of {monomial: coefficient}, so the hash
    over it cannot move; a pickle stores it as a plain dict.
    """

    __slots__ = ("graph", "cap", "modulus", "coeffs")

    def __init__(self, graph, cap, modulus=0, coeffs=None):
        clean = {}
        for mono, c in (coeffs or {}).items():
            if len(mono) > cap:
                raise ValueError("monomial exceeds truncation degree")
            if modulus:
                c %= modulus
            if c:
                clean[mono] = c
        super().__init__(graph, cap, modulus, MappingProxyType(clean))

    def __hash__(self):
        return hash((self.cap, self.modulus, frozenset(self.coeffs.items())))

    def __reduce__(self):
        return type(self), (self.graph, self.cap, self.modulus, dict(self.coeffs))

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


def _level(d, p, m):
    """(d, p, m) as ints, after checking that p is prime and d, m >= 1."""
    p = require_prime(p)
    d, m = require_int(d, "d"), require_int(m, "m")
    if d < 1 or m < 1:
        raise ValueError("need d >= 1 and m >= 1")
    return d, p, m


def magnus_image(x, d, p, m):
    """Image of a group element under v -> 1 + v, truncated at degree d,
    coefficients in Z/p^m.

    Inverse letters map to the truncated geometric series, so letter and
    inverse multiply to exactly 1 in the truncation and the whole map is a
    homomorphism into the units with constant term 1. p must be prime.
    Only the monomials the image reaches are built, each by one insertion
    of a positive letter (`words._canonical`); the Magnus test runs the
    same recurrence on the indices of a TraceAlgebra, which is cheaper once
    the tables exist.
    """
    d, p, m = _level(d, p, m)
    q = p**m
    graph = x.graph
    # keys are positive group words, vertex v as the letter v + 1
    coeffs = _truncated_image(x.letters, q, d, (), lambda term, v: {
        words._canonical(graph, (v + 1,), w): c for w, c in term.items()
    })
    coeffs = {tuple(v - 1 for v in w): c for w, c in coeffs.items()}
    return TruncatedAlgebraElement(graph, d, q, coeffs)


def _truncated_image(letters, q, d, one, shift):
    """The image over Z/q of the word `letters` up to degree d, as one
    {key: coefficient} map (see _image_layers)."""
    coeffs = {}
    for layer in islice(_image_layers(letters, q, one, shift), d + 1):
        coeffs.update(layer)
    return coeffs


def _image_layers(letters, q, one, shift):
    """The degree-k parts of the image over Z/q of the word `letters`, for
    k = 0, 1, 2, ... in turn, on monomial keys with `one` the empty
    monomial; shift(term, v) is term.v, as {key: coefficient}.

    Let P_j be the image of the first j letters and L_k(P_j) its degree-k
    part. A letter v gives P_j = P_(j-1).(1 + v), so L_k(P_j) =
    L_k(P_(j-1)) + L_(k-1)(P_(j-1)).v. An inverse letter gives
    P_j.(1 + v) = P_(j-1), so L_k(P_j) = L_k(P_(j-1)) - L_(k-1)(P_j).v:
    the geometric series of the inverse, one degree at a time. Degree k of
    every prefix thus needs only degree k - 1 of every prefix, and a
    degree is computed only when it is asked for.
    """
    last = [{one: 1}] * (len(letters) + 1)
    while True:
        yield last[-1]
        layer = [{}]
        for j, lt in enumerate(letters):
            out = layer[j]
            term, s = (last[j], 1) if lt > 0 else (last[j + 1], -1)
            if term:
                out = dict(out)
                for k, c in shift(term, s * lt - 1).items():
                    c = (out.get(k, 0) + s * c) % q
                    if c:
                        out[k] = c
                    else:
                        del out[k]
            layer.append(out)
        last = layer


class Separated(Record):
    """No unit with constant term 1 conjugates one image to the other, so the
    group elements are non-conjugate in the finite p-group of units."""

    __slots__ = ("degree", "prime", "precision")


class NotSeparatedAtThisLevel(Record):
    """A conjugating unit exists at this truncation level: `unit`, a
    TruncatedAlgebraElement, stored and verified, and as immutable as the
    verdict that holds it.

    When g and h have equal cyclic cores, the unit is M(x^-1) for the
    conjugator x = ch * cg^-1 of their cyclic normal forms, and what is
    verified is x * g * x^-1 == h, by multiplication in the group; M is
    a homomorphism. Otherwise it is a solution of the Magnus system of
    the cores, moved to g and h, and verified by multiplication against
    M(g) and M(h) in the truncated algebra. Either way it has constant
    term 1 and no monomial of the truncation degree."""

    __slots__ = ("unit",)


NOT_FOUND = Sentinel("NOT_FOUND", __name__)


def magnus_conjugate_test(g, h, d, p, m):
    """Decide conjugacy of the images of g and h in the truncated unit group.

    The test runs on cyclic cores. With g = cg * gc * cg^-1 and h = ch *
    hc * ch^-1 from `Element.cyclic_normal_form`, every image M(x) is a
    unit with constant term 1, and u -> M(cg) * u * M(ch)^-1 maps the
    units with constant term 1 conjugating M(gc) to M(hc) one to one onto
    those conjugating M(g) to M(h): if M(gc) * u = u * M(hc), then
    M(g) * M(cg) u M(ch)^-1 = M(cg) M(gc) u M(ch)^-1
    = M(cg) u M(hc) M(ch)^-1 = M(cg) u M(ch)^-1 * M(h), and the inverse
    map is u -> M(cg)^-1 * u * M(ch). So the verdict at every (d, p, m)
    is the cores'.

    Equal cores build no system: x = ch * cg^-1 conjugates g to h, which
    `conjugacy._core_conjugator` verifies by multiplication in the group,
    as `conjugate` does, and M(x^-1) is the unit. It is
    taken at degree d - 1, 1 at d = 1: the degree-d coefficients of a
    unit are free (below), and a unit here has them 0.

    Other cores are decided by their Magnus system. Solvability of
    M(g)*u = u*M(h) in u with constant term 1 is one exact linear system
    over Z/p^m. Write it as (M(g) - 1)*u - u*(M(h) - 1) = 0:
    both factors lack a constant term, so the operator raises degree by at
    least one. The degree-0 equation is then identically zero, and so is
    the column of every degree-d unknown: those coefficients are free, and
    the returned unit has them 0. What is left has one unknown per monomial
    of degree 1..d-1 and one equation per monomial of degree 1..d; the
    constant term 1 moves to the right-hand side, and the rest is
    elimination. A found unit u' is verified by multiplication; unless
    both cyclic conjugators are 1, it is moved to M(cg) * u' * M(ch)^-1 at
    degree d - 1 and verified again, against M(g) and M(h) at degree d
    (_lifted_unit), before it is returned.

    The equation at a monomial of degree k involves only the unknowns of
    degree below k and the coefficients of the images up to degree k, so
    the system is built one degree at a time as the solver reads its rows,
    and a solve that ends at a row of degree k builds nothing past degree k
    (see _MagnusSystem._layer). Such an answer is sound at degree d, however
    large: the rows read are rows of the degree-d system, and row
    operations on them show that no solution mod p^m satisfies them, so
    none satisfies the whole system. So a pair can be Separated at a
    degree whose trace basis is past MAX_TRACE_MONOMIALS; the bound is met
    only when the rows below it are all read. Nothing in the system
    refers back to it, and the unit check multiplies in plain loops, so
    no answer leaves a reference cycle for the collector.

    The system is built on S = supp(gc) | supp(hc) alone, the full
    subgraph on the letters the cores use, and the verdict is the one on
    the whole graph. Killing the letters outside S is a ring map from the
    truncated algebra over the graph onto the one over S: the monomials
    holding such a letter span a two-sided ideal. It sends units with
    constant term 1 to such units and fixes M(gc) and M(hc), so a unit
    conjugating the images over the graph gives one over S, and a
    Separated verdict on S holds on the graph. Conversely the algebra
    over S is a subalgebra of the one over the graph: two words over S
    are equivalent there exactly when they are over S, and the subgraph
    keeps the vertex order, so a lex-least word over S is lex-least over
    the graph too. A unit found on S is therefore, with its monomials
    renamed back through S, a unit over g.graph that conjugates the
    images there.
    """
    graph = g.graph
    check_graph(graph, h)
    d, p, m = _level(d, p, m)
    cg, gc = g.cyclic_normal_form()
    ch, hc = h.cyclic_normal_form()
    if gc == hc:
        x = conjugacy._core_conjugator(g, h, cg, ch)
        unit = magnus_image(x.inverse(), d - 1, p, m).coeffs if d > 1 else {(): 1}
    else:
        support, (gc, hc) = _on_support(gc, hc)
        unit = _conjugating_unit(gc, hc, d, p, m)
        if unit is None:
            return Separated(d, p, m)
        unit = {tuple(support[v] for v in w): c for w, c in unit.items()}
        if cg or ch:
            unit = _lifted_unit(unit, g, h, cg, ch, d, p, m)
    return NotSeparatedAtThisLevel(TruncatedAlgebraElement(graph, d, p**m, unit))


def _on_support(*elements):
    """(support, elements'): the vertices the elements use, in order, and
    the elements on the full subgraph on them, where vertex support[i] is
    vertex i. The subgraph keeps the vertex order, so a canonical word
    stays canonical."""
    graph = elements[0].graph
    support = sorted(frozenset().union(*(x.support() for x in elements)))
    if len(support) == graph.n:
        return support, elements
    sub = graph.full_subgraph(support)
    index = {s * (v + 1): s * (i + 1) for i, v in enumerate(support) for s in (1, -1)}
    return support, [
        words.Element(sub, [index[x] for x in y.letters], canonical=True) for y in elements
    ]


def _lifted_unit(unit, g, h, cg, ch, d, p, m):
    """M(cg) * unit * M(ch)^-1 at degree d - 1, for a unit conjugating
    the images of the cyclic cores of g and h at degree d, verified by
    multiplication to conjugate M(g) to M(h) at degree d; monomials on
    g.graph. Both products run on a TraceAlgebra over the letters g and h
    use, grown to degree d for the check."""
    q = p**m
    support, (g, h, cg, ch_inv) = _on_support(g, h, cg, ch.inverse())
    algebra = TraceAlgebra(g.graph, d - 1)
    right = algebra.right

    def image(x):
        return _truncated_image(
            x.letters, q, algebra.d, 0, lambda t, v: {right[i][v]: c for i, c in t.items()}
        )

    where = {v: i for i, v in enumerate(support)}
    index = {w: i for i, w in enumerate(algebra.basis)}
    lifted = {index[tuple(where[v] for v in w)]: c for w, c in unit.items()}
    lifted = algebra.mul(algebra.mul(image(cg), lifted, q), image(ch_inv), q)
    algebra.grow()
    verify(
        algebra.mul(image(g), lifted, q) == algebra.mul(lifted, image(h), q),
        "conjugating unit",
    )
    return {tuple(support[v] for v in algebra.basis[i]): c for i, c in lifted.items()}


def _conjugating_unit(g, h, d, p, m):
    """The Magnus test on the whole of g.graph: a verified unit u with
    M(g)*u = u*M(h), as {monomial: coefficient}, or None when there is
    none."""
    q = p**m
    system = _MagnusSystem(g, h, d, q)
    sol = solve_mod_prime_power(system, system.rhs, p, m)
    if sol is None:
        return None
    # the check needs the whole algebra and both images: pass 0 built them
    # by reading every row, and the check must not rest on that
    for _ in system:
        pass
    algebra = system.algebra
    unit = {0: 1}
    unit.update((j, c) for j, c in enumerate(sol, 1) if c)
    verify(
        algebra.mul(system.image_g, unit, q) == algebra.mul(unit, system.image_h, q),
        "conjugating unit",
    )
    return {algebra.basis[i]: c for i, c in unit.items()}


class _MagnusSystem(list):
    """The Magnus system of g and h at degree d over Z/q, built one degree
    layer at a time as it is read.

    Iterating yields the rows built so far and, when they run out, builds
    the next degree's (see _layer), so a solver that stops at a row of
    degree k leaves the algebra at degree k and builds no later row.
    len() and indexing cover the rows built, and rhs grows with them;
    image_g and image_h are the images up to the degree built. shape is
    the whole system's, one equation per monomial of degree 1..d and one
    unknown per monomial of degree 1..d-1; before the last layer it is
    counted from the clique polynomial, without building the rest.

    The system keeps no iterator over itself, and nothing it holds refers
    back to it, so a solve that stops early leaves no reference cycle.
    """

    __slots__ = ("algebra", "rhs", "image_g", "image_h", "_d", "_q", "_images", "_gw", "_wh")

    def __init__(self, g, h, d, q):
        self.algebra = TraceAlgebra(g.graph, 0)
        self.rhs = []
        self._d, self._q = d, q
        right = self.algebra.right
        self._images = [
            _image_layers(x.letters, q, 0, lambda t, v: {right[i][v]: c for i, c in t.items()})
            for x in (g, h)
        ]
        self.image_g, self.image_h = [dict(next(layers)) for layers in self._images]
        # _gw[j] and _wh[j]: the degree-(k-1) parts of column j's two halves,
        # once the rows of degree k - 1 are built
        self._gw = self._wh = ()

    @property
    def shape(self):
        if self.algebra.d == self._d:
            return len(self), self.algebra.rows - 1
        # the trace monomials of degree k number the t^k coefficient of
        # 1 / C(-t), C the clique polynomial (Cartier-Foata)
        c = _clique_counts(self.algebra.graph, self._d)
        count = [1]
        for k in range(1, self._d + 1):
            count.append(-sum((-1) ** j * c[j] * count[k - j] for j in range(1, k + 1)))
        return sum(count[1:]), sum(count[1:-1])

    def __iter__(self):
        todo = range(self.algebra.d + 1, self._d + 1)
        return chain(self[:], chain.from_iterable(map(self._layer, todo)))

    def _layer(self, k):
        """Grow the algebra to degree k and add degree k to the images;
        append the rows of degree k and their right-hand sides, and return
        the rows.

        Column j is gw_j - wh_j, with gw_j = (M(g) - 1).w and wh_j =
        w.(M(h) - 1) for w = basis[j] of degree < d; the constant terms of
        the images cancel, and column 0, the constant term of the unit,
        moves to the right-hand side. gw_j is gw of w's parent times w's
        last letter, and wh_j is w's first letter times wh of w's tail, so
        the degree-k part of a column is the degree-(k-1) part of a
        shorter word's, with one more letter. It vanishes for w of degree
        k or more, so the rows of degree k are whole once degree k of the
        images and of the columns of degree < k is. They come in the order
        of the basis, degree then lex, with the same entries as the whole
        system's.
        """
        algebra, q, d = self.algebra, self._q, self._d
        algebra.grow()
        basis, right, left, parent, tail = (
            algebra.basis, algebra.right, algebra.left, algebra.parent, algebra.tail
        )
        top = algebra.rows
        layer_g, layer_h = next(self._images[0]), next(self._images[1])
        self.image_g.update(layer_g)
        self.image_h.update(layer_h)
        rows = [{} for _ in range(len(basis) - top)]
        # row i of the layer is at[i]
        at = [None] * top + rows
        gw, wh = self._gw, self._wh
        next_gw, next_wh = [layer_g], [layer_h]
        for j in range(1, top):
            w = basis[j]
            u, v, jm = w[-1], w[0], j - 1
            for i, c in gw[parent[j]].items():
                at[right[i][u]][jm] = c
            for i, c in wh[tail[j]].items():
                row = at[left[i][v]]
                c = (row.get(jm, 0) - c) % q
                if c:
                    row[jm] = c
                else:
                    del row[jm]
            # the last degree's parts feed no later degree
            if k < d:
                next_gw.append({right[i][u]: c for i, c in gw[parent[j]].items()})
                next_wh.append({left[i][v]: c for i, c in wh[tail[j]].items()})
        self._gw, self._wh = next_gw, next_wh
        self.extend(rows)
        self.rhs += [(layer_h.get(i, 0) - layer_g.get(i, 0)) % q for i in range(top, len(basis))]
        return rows


# the scan solves each degree below the separating one once, at max_m, in
# p^max_m arithmetic, whose cost grows up to about 1.8-fold with each
# doubling of max_m; with max_m = 256 and max_d = 7, a weight-8 commutator
# against 1 on a free group of rank 2, which no degree up to 7 separates,
# takes about 0.1 s at p = 2 and 0.3 s at p = 2^61 - 1 on one Xeon core
# (Python 3.11), so larger values are refused
MAX_PRECISION = 256


def find_separating_level(g, h, p, max_d=6, max_m=2):
    """Least (d, m), degree scanned first, at which the images separate.

    Returns NOT_FOUND when every level in the grid admits a conjugating
    unit. p must be prime, and max_d and max_m at least 1, so that the grid
    is not empty; max_m must not exceed MAX_PRECISION. Conjugacy is
    decided first, exactly: if x g x^-1 = h (a verified conjugator), the
    unit M(x^-1) conjugates the images at every level, so conjugate pairs
    return NOT_FOUND before any trace basis is built.

    Only non-conjugate pairs scan the grid, and each degree d is tried at
    max_m alone until one separates. Reducing Z/p^M mod p^m (m <= M) is a
    ring map of the truncated algebras that sends M(g) and M(h) to their
    images mod p^m and a unit with constant term 1 to one, so a unit that
    conjugates the images at (d, M) gives one at (d, m). Hence d separates
    at some m <= max_m exactly when it separates at max_m, and the least m
    at the first such degree is found by trying m = 1, 2, ... there. The
    scan raises ValueError at the first degree whose trace basis is larger
    than MAX_TRACE_MONOMIALS, so pairs that separate below it are still
    answered. A Magnus test reads the rows of degree k only when it has
    read every lower one without a contradiction, and the rows of degree
    below d of the degree-d system are those of the degree-(d - 1) system,
    so a test at d after d - 1 did not separate reads every row below d,
    and builds the basis of degree d: the bound ends the scan at the same
    degree, with the same message, as building each basis whole would.
    The grid is scanned on the cyclic cores of g and h, computed once:
    they separate at exactly the levels the pair does (see
    magnus_conjugate_test), and no level moves a unit to the pair only to
    drop it. Each basis is built on the letters the cores use; the
    message names them when they are fewer than the graph's, and names
    the invariant that ruled the pair out.
    """
    p = require_prime(p)
    max_d, max_m = require_int(max_d, "max_d"), require_int(max_m, "max_m")
    if max_d < 1 or max_m < 1:
        raise ValueError("need max_d >= 1 and max_m >= 1")
    if max_m > MAX_PRECISION:
        raise ValueError(f"precision {max_m} is above the bound {MAX_PRECISION}")
    verdict = conjugacy.conjugate(g, h)
    if isinstance(verdict, conjugacy.Conjugate):
        return NOT_FOUND
    g, h = g.cyclic_normal_form()[1], h.cyclic_normal_form()[1]

    def separates(d, m):
        return isinstance(magnus_conjugate_test(g, h, d, p, m), Separated)

    try:
        for d in range(1, max_d + 1):
            if separates(d, max_m):
                return d, next((m for m in range(1, max_m) if separates(d, m)), max_m)
    except ValueError as exc:
        names = [g.graph.vertices[v] for v in sorted(g.support() | h.support())]
        where = f" on {{{', '.join(names)}}}" if len(names) < g.graph.n else ""
        raise ValueError(
            f"{exc}{where}; not conjugate ({verdict.reason}), "
            "but no level below the bound separates the pair"
        ) from exc
    return NOT_FOUND


# ---------------------------------------------------------------------------
# graded Lie data


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
    the vertices v_1, v_2, ... by degree, least first, and let N+(v_i) be
    the neighbours of v_i later in the order. A nonempty clique is its
    first vertex v_i joined to a clique of N+(v_i), so

        P(V) = 1 + t sum_i P(N+(v_i)).

    N+(v) has k <= deg v vertices, each of degree at least deg v >= k, so
    with v they have at least k(k + 1) edge ends among the 2m of a graph
    with m edges: k <= min(deg v, sqrt(2m)), which keeps the pieces small
    on sparse graphs.
    """
    adj = graph.adj
    taken = [False] * graph.n
    memo = {}
    counts = [1] + [0] * upto
    for v in sorted(range(graph.n), key=lambda v: len(adj[v])):
        taken[v] = True
        later = frozenset(w for w in adj[v] if not taken[w])
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
    Returns the tuple (d_1, ..., d_max_degree); max_degree must lie between
    1 and MAX_LIE_DEGREE.
    """
    max_degree = require_int(max_degree, "max_degree")
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
    return tuple(dims[1:])


def lie_center_trivial(graph):
    """True when no nonzero homogeneous element of the graded Lie ring
    commutes with every vertex generator.

    That holds exactly when the graph has no central vertex, in every degree
    and over every coefficient ring, so neither a degree bound nor a prime
    is needed.

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
    return not graph.center_vertices()
