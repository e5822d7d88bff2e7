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
marker from each dependent pile, and x joins the conjugator.

Letters are signed integers: vertex i appears as +-(i+1).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

__all__ = ["Element", "parse", "gen"]


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


def _canonical(graph, letters):
    return _depile(graph, _pile(graph, letters))


class Element:
    """A group element over a fixed graph.

    Do not pass canonical=True unless the letters are already known to be
    a canonical word; every public operation maintains that invariant.
    """

    __slots__ = ("graph", "letters")

    def __init__(self, graph, letters=(), canonical=False):
        self.graph = graph
        self.letters = tuple(letters) if canonical else _canonical(graph, letters)

    def __mul__(self, other):
        if self.graph is not other.graph and self.graph != other.graph:
            raise ValueError("elements live on different graphs")
        return Element(self.graph, self.letters + other.letters)

    def inverse(self):
        return Element(
            self.graph, tuple(-x for x in reversed(self.letters))
        )

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return Element(self.graph, (), canonical=True)
        base = self if k > 0 else self.inverse()
        return Element(self.graph, base.letters * abs(k))

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

    def support_names(self):
        return {self.graph.vertices[i] for i in self.support()}

    def in_special(self, keep):
        """Membership in the special subgroup generated by the vertex
        indices `keep`; for reduced words this is a support condition."""
        keep = frozenset(keep)
        return all(abs(lt) - 1 in keep for lt in self.letters)

    def retract(self, keep):
        """Image under the retraction killing every generator outside `keep`."""
        keep = frozenset(keep)
        return Element(
            self.graph, tuple(lt for lt in self.letters if abs(lt) - 1 in keep)
        )

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
        return Element(graph, peeled), core

    def cyclic_support(self):
        return self.cyclic_normal_form()[1].support()

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

    def embed(self, supergraph):
        """Rewrite over a graph that induces self.graph on our vertex names."""
        mapped = []
        for lt in self.letters:
            name = self.graph.vertices[abs(lt) - 1]
            if name not in supergraph.index:
                raise ValueError(f"letter {name!r} missing from supergraph")
            j = supergraph.index[name] + 1
            mapped.append(j if lt > 0 else -j)
        return Element(supergraph, tuple(mapped))

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
    denotes the identity, unless a vertex is literally named "1", in which
    case the vertex wins.
    """
    text = text.strip()
    if not text or (text == "1" and "1" not in graph.index):
        return Element(graph, (), canonical=True)
    letters = []
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
        lt = graph.index[name] + 1
        letters.extend([lt if k > 0 else -lt] * abs(k))
    return Element(graph, letters)
