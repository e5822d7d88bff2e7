"""Elements of a partially commutative group, kept in canonical form.

An element is stored as its canonical word: among all reduced words
representing it, the one whose vertex-index sequence is lexicographically
least. Two letters commute exactly when their vertices are adjacent in the
defining graph, so reduced words form a trace and the canonical word is a
well defined normal form: elements are equal iff their canonical words are
identical tuples.

Canonicalisation is done with a piling construction, the heap of pieces
of Crisp-Godelle-Wiest. Every vertex carries a deque. Pushing a letter
appends it to its own vertex's pile and an anonymous marker (0) to the
pile of every vertex it fails to commute with. If the letter's own pile
instead exposes the inverse letter at its back, the pair cancels: the back
of the pile is removed together with one marker from the back of each
dependent pile (everything above the partner's marker on those piles is
itself a marker, so the anonymous pop is exact). A vertex is ready when
its pile has a real letter at the front. Repeatedly emitting the front
letter of the smallest ready vertex, with one front marker from each
dependent pile (exact by the same argument), produces the canonical word;
the ready vertices are kept in a min-heap.

Cyclic reduction peels the same heap from both ends: while some vertex has
a real front x and a real back x^-1, both go, with one front and one back
marker from each dependent pile, and x joins the conjugator. The double
coset strip peels it the same way, letters of one special subgroup from
the front and then letters of another from the back.

Letters are signed integers: vertex i appears as +-(i+1).
"""

from collections import deque
from heapq import heappop, heappush

from ._checks import vertex_set

__all__ = ["Element", "parse", "gen", "MAX_WORD_LENGTH"]

# the longest word, in letters, that parse will expand
MAX_WORD_LENGTH = 1_000_000


def _pile(graph, letters):
    piles = [deque() for _ in range(graph.n)]
    dependents = graph.dependents
    for lt in letters:
        v = lt - 1 if lt > 0 else -lt - 1
        pile = piles[v]
        if pile and pile[-1] == -lt:
            pile.pop()
            for j in dependents[v]:
                piles[j].pop()
        else:
            pile.append(lt)
            for j in dependents[v]:
                piles[j].append(0)
    return piles


def _depile(graph, piles):
    dependents = graph.dependents
    # Two ready vertices never depend on each other, so a vertex is pushed
    # only while absent and sits in the heap at most once.
    ready = [v for v in range(graph.n) if piles[v] and piles[v][0]]
    out = []
    while ready:
        v = ready[0]
        pile = piles[v]
        out.append(pile.popleft())
        if not (pile and pile[0]):
            heappop(ready)
        for j in dependents[v]:
            other = piles[j]
            other.popleft()
            if other and other[0]:
                heappush(ready, j)
    return tuple(out)


def _peel(graph, piles, verts, at_back):
    """Delete letters of vertices in `verts` from one end of the heap until
    none is left there; returns them in the order deleted."""
    dependents = graph.dependents
    end = -1 if at_back else 0
    take = deque.pop if at_back else deque.popleft
    # as in _depile, two ready vertices never depend on each other, so a
    # vertex is pushed only while absent
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


def _canonical(graph, letters):
    return _depile(graph, _pile(graph, letters))


class Element:
    """A group element over a fixed graph.

    Do not pass canonical=True unless the letters are already known to be
    a canonical word; every public operation maintains that invariant.
    Operations canonicalise letters taken from elements themselves and pass
    canonical=True, as those letters need none of the checks on outside
    callers' letters.
    """

    __slots__ = ("graph", "letters")

    def __init__(self, graph, letters=(), canonical=False):
        self.graph = graph
        if canonical:
            self.letters = tuple(letters)
            return
        # a letter 0 would index the last vertex's pile, and one past +-n
        # finds no pile; one scan and the IndexError catch them, with no
        # per-letter check in the piling loop
        if 0 in letters:
            raise ValueError("letter 0 names no vertex")
        try:
            self.letters = _canonical(graph, letters)
        except IndexError:
            raise ValueError(f"a letter lies outside ±1..±{graph.n}") from None

    def __mul__(self, other):
        if self.graph is not other.graph and self.graph != other.graph:
            raise ValueError("elements live on different graphs")
        # elements are immutable, so a product with 1 can share its operand
        if not other.letters:
            return self
        if not self.letters:
            return other
        graph = self.graph
        return Element(graph, _canonical(graph, self.letters + other.letters), canonical=True)

    def inverse(self):
        graph = self.graph
        letters = tuple(-x for x in reversed(self.letters))
        return Element(graph, _canonical(graph, letters), canonical=True)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return Element(self.graph, (), canonical=True)
        base = self if k > 0 else self.inverse()
        return Element(self.graph, _canonical(self.graph, base.letters * abs(k)), canonical=True)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.letters == other.letters
            and (self.graph is other.graph or self.graph == other.graph)
        )

    def __hash__(self):
        return hash(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __len__(self):
        return len(self.letters)

    def is_identity(self):
        return not self.letters

    def support(self):
        return frozenset(abs(lt) - 1 for lt in self.letters)

    def in_special(self, keep):
        """Membership in the special subgroup generated by the vertex
        indices `keep`; for reduced words this is a support condition."""
        keep = frozenset(keep)
        return all(abs(lt) - 1 in keep for lt in self.letters)

    def retract(self, keep):
        """Image under the retraction killing every generator outside `keep`."""
        keep = frozenset(keep)
        letters = tuple(lt for lt in self.letters if abs(lt) - 1 in keep)
        return Element(self.graph, _canonical(self.graph, letters), canonical=True)

    def shortlex_key(self):
        return (
            len(self.letters),
            tuple(abs(lt) for lt in self.letters),
            tuple(1 if lt > 0 else 0 for lt in self.letters),
        )

    def cyclic_normal_form(self):
        """Split self as (conj, core) with self == conj * core * conj^-1 and
        core cyclically reduced (no x at its front with x^-1 at its back).

        Peeling (see the module docstring) re-examines only the vertices
        whose piles changed. Peelable vertices commute pairwise and stay
        peelable when another is peeled, so the result is order-free."""
        graph = self.graph
        dependents = graph.dependents
        piles = _pile(graph, self.letters)
        peeled = []
        work = list(range(graph.n))
        while work:
            v = work.pop()
            pile = piles[v]
            x = pile[0] if pile else 0
            if x and pile[-1] == -x:
                pile.popleft()
                pile.pop()
                for j in dependents[v]:
                    other = piles[j]
                    other.popleft()
                    other.pop()
                peeled.append(x)
                work.append(v)
                work.extend(dependents[v])
        core = Element(graph, _depile(graph, piles), canonical=True)
        return Element(graph, _canonical(graph, peeled), canonical=True), core

    def cyclic_support(self):
        return self.cyclic_normal_form()[1].support()

    def double_coset_form(self, front, back):
        """Split self as (a, rep, b) with self == a * rep * b, a in the
        special subgroup A on the vertex indices `front`, b in B on `back`,
        and rep depending only on the double coset A * self * B.

        The strip deletes letters of A at the front of the heap (real
        front letters of piles of A) until none is left, then letters of B
        at its back. Deleting a letter at the back never brings a new letter
        to the front, so rep is (A, B)-reduced: no letter of A at its front
        and none of B at its back.

        Uniqueness. For reduced u, v the product u * v reduces to u1 * v1
        where u = u1 * c and v = c^-1 * v1 (Esyp, Kazachkov and
        Remeslennikov, divisibility theory for partially commutative
        groups). Let r be (A, B)-reduced, alpha in A and beta in B. Then
        alpha * r is reduced, as r has no letter of A at its front. The
        cancelled c of (alpha * r) * beta is a suffix of alpha * r whose
        letters lie in B; a suffix reaching into r would hold a letter at
        the back of r, which is not in B, so c is a suffix of alpha whose
        letters commute with all of r, and alpha * r * beta reduces to
        alpha1 * r * beta1 with alpha1 in A, beta1 in B. If the product is
        (A, B)-reduced too, alpha1 and beta1 are empty, so it is r. Two
        (A, B)-reduced elements of one double coset are therefore equal,
        and y lies in A * x * B exactly when their reps agree, with
        y == (a_y * a_x^-1) * x * (b_x^-1 * b_y).

        Raises ValueError if `front` or `back` holds a non-vertex index.
        """
        graph = self.graph
        front, back = vertex_set(graph, front), vertex_set(graph, back)
        piles = _pile(graph, self.letters)
        left = _peel(graph, piles, front, at_back=False)
        right = _peel(graph, piles, back, at_back=True)
        rep = Element(graph, _depile(graph, piles), canonical=True)
        return (
            Element(graph, _canonical(graph, left), canonical=True),
            rep,
            Element(graph, _canonical(graph, right[::-1]), canonical=True),
        )

    def restrict(self, subgraph):
        """Rewrite over an induced subgraph of self.graph (same names, same
        relative order); support must lie inside it."""
        mapped = []
        for lt in self.letters:
            name = self.graph.vertices[abs(lt) - 1]
            if name not in subgraph.index:
                raise ValueError(f"letter {name!r} missing from subgraph")
            j = subgraph.index[name] + 1
            mapped.append(j if lt > 0 else -j)
        # relative order and adjacency are inherited, so the word stays canonical
        return Element(subgraph, tuple(mapped), canonical=True)

    def __str__(self):
        if not self.letters:
            return "1"
        parts = []
        i = 0
        while i < len(self.letters):
            j = i
            while j < len(self.letters) and self.letters[j] == self.letters[i]:
                j += 1
            name = self.graph.vertices[abs(self.letters[i]) - 1]
            e = (j - i) * (1 if self.letters[i] > 0 else -1)
            parts.append(name if e == 1 else f"{name}^{e}")
            i = j
        return " ".join(parts)

    def __repr__(self):
        return f"<{self}>"


def gen(graph, name, power=1):
    """The generator `name` raised to an integer power."""
    if name not in graph.index:
        raise ValueError(f"unknown generator {name!r}")
    if power == 0:
        return Element(graph, (), canonical=True)
    lt = graph.index[name] + 1
    return Element(graph, (lt if power > 0 else -lt,) * abs(power))


def parse(graph, text):
    """Parse a word like "a b^-1 c^2" into an Element.

    Tokens are whitespace separated, each a generator name with an optional
    nonzero integer exponent. The bare string "1" (or an empty string)
    denotes the identity; `Graph` refuses "1" as a vertex name. A word
    whose exponents expand to more than MAX_WORD_LENGTH letters raises
    ValueError before any letter is built.
    """
    text = text.strip()
    if not text or text == "1":
        return Element(graph, (), canonical=True)
    tokens = []
    for tok in text.split():
        name, sep, exp = tok.partition("^")
        if sep:
            try:
                k = int(exp)
            except ValueError:
                raise ValueError(f"bad exponent in token {tok!r}")
            if k == 0:
                raise ValueError(f"zero exponent in token {tok!r}")
        else:
            k = 1
        if name not in graph.index:
            raise ValueError(f"unknown generator {name!r}")
        tokens.append((graph.index[name] + 1, k))
    if sum(abs(k) for _, k in tokens) > MAX_WORD_LENGTH:
        raise ValueError(f"word expands to more than {MAX_WORD_LENGTH} letters")
    letters = []
    for lt, k in tokens:
        letters.extend([lt if k > 0 else -lt] * abs(k))
    return Element(graph, letters)
