"""Elements of a partially commutative group, kept in canonical form.

An element is stored as its canonical word: among all reduced words
representing it, the one whose vertex-index sequence is lexicographically
least. Two letters commute exactly when their vertices are adjacent in the
defining graph, so reduced words form a trace and the canonical word is a
well defined normal form: elements are equal iff their canonical words are
identical tuples.

Canonicalisation is by insertion (`_canonical`). A product g * h keeps
g's canonical word w and puts in the letters of a reduced word of h one
at a time: its canonical word, or for an inverse not yet read, the
canonical word it inverts, reversed and negated (see `Element`). The rule
needs w canonical and nothing of the letters; a raw word goes into the
empty word. For a letter x of vertex v: step back over the longest
suffix s of w whose letters are adjacent to v, so commute with x. If the
letter y before s is x^-1, delete it; otherwise step forward past the
letters of s before v and insert x. When the last letter of w fails to
commute with x, s is empty and no step is taken: the last letter goes
if it is x^-1, and otherwise x is appended. So g * g^-1 cancels each
letter at the back.

Proof. The reduced words of an element differ by commutations alone, so
the canonical word is the lex-least word of a trace over the signed
letters, and a word is canonical exactly when it is reduced and has no
factor b.u.a with a < b, a commuting with b and with every letter of u
(Anisimov-Knuth). So every factor of a canonical word is canonical: a
cancelling pair or a factor b.u.a inside it would be one of the word.
Write w = p.y.s.
- Deletion, y = x^-1. p.s equals w.x, as x commutes with s. A cancelling
  pair z...z^-1 of p.s (its letters between commuting with z), or a
  factor b.u.a as above, that w lacks has y between its ends, so its last
  letter lies in s and commutes with y. Then y does not block it: w holds
  the same pair, or b.u.a with y in u, against w canonical.
- Insertion. w.x is reduced: x would cancel an x^-1 reached from the
  back over letters that commute with x. That x^-1 is not y, nor before
  y: y does not commute with x unless y = x, and then w would cancel the
  x^-1 against y. A letter is smaller than another when its vertex is.
  Write the result as p.y.s1.x.s2 with s = s1.s2: every letter of s1 is
  smaller than x, the first letter z of s2, if any, is larger, and y, if
  any, does not commute with x. It equals w.x, as x commutes with s2,
  and a factor b.u.a as above that w lacks involves x. x inside u:
  deleting x leaves such a factor in w. x = a: b.u commutes with x, so
  it lies in s1, whose letters are all smaller than x, against a < b.
  x = b: u.a lies in s2, whose first letter z is larger than x > a, so u
  is not empty and starts with z; then z, the rest of u and a form such
  a factor in w.
  On positive letters no step deletes, and this is the rule for positive
  traces: the monomials of `nilpotent.TraceAlgebra` are the lex-least
  words it builds. `nilpotent.magnus_image` puts in one positive letter
  per call, which never spends the budget below: w is credited 2 per
  letter, and the walk passes each at most once.

The walks are not bounded by themselves: on F2 x F2 (the 4-cycle a b c d)
every a and a^-1 of (b d)^k (a a^-1)^k steps back over all of (b d)^k,
about 4k^2 steps in all. So each letter put in is charged what piling it
would cost, 2 * (non-neighbours of v + 1) deque steps, each letter of w is
credited 2, the least any letter costs to pile, and the backward steps are
spent from that budget; a forward walk is never longer than the backward
walk before it, and a letter that takes no step only adds to the budget.
Once the steps exceed the budget, the word built so far and the letters
not yet reached are canonicalised through the piles below. Either way
the work is linear: at most a small multiple of piling w and the letters
put in.

The piles are the heap of pieces of Crisp-Godelle-Wiest. Every vertex
carries a deque. Pushing a letter appends it to its own vertex's pile and
an anonymous marker (0) to the pile of every vertex it fails to commute
with. If the letter's own pile instead exposes the inverse letter at its
back, the pair cancels: the back of the pile is removed together with one
marker from the back of each dependent pile (everything above the
partner's marker on those piles is itself a marker, so the anonymous pop
is exact). A vertex is ready when its pile has a real letter at the front.
Repeatedly emitting the front letter of the smallest ready vertex, with
one front marker from each dependent pile (exact by the same argument),
produces the canonical word; the ready vertices are kept in a min-heap.

The piles stay for two jobs: bounding insertion, as above, and cyclic
reduction of a word that needs it. A letter is initial when no letter
before it fails to commute with it, terminal when none after it does. A
word is cyclically reduced unless some initial x has x^-1 terminal
(`_cyclically_reduced`). A scan from the front collects the initial
letters, keeping a bitmask of the vertices whose next letter would still
be initial; a scan from the back looks for their inverses, keeping one
of the initial letters' vertices whose next letter would still be
terminal. Each stops when its mask empties, and a word that passes is
returned unpiled. Otherwise the heap is peeled from both ends: while
some vertex has a real front x and a real back x^-1, both go, with one
front and one back marker from each dependent pile, and x joins the
conjugator.

The double coset strip reads the canonical word w itself (`_strip`). An
ideal of the heap is a set of letters closed downwards: with a letter,
every earlier letter that fails to commute with it. Scan w from the
front keeping `open`, the vertices of A that no letter kept so far fails
to commute with; take a letter when its vertex is in open, and otherwise
keep it and cut open down to the letter's neighbours.
- The taken letters are exactly the largest ideal I of letters of A.
  I is the union of all such ideals, so a letter x of A lies in I iff
  every earlier letter failing to commute with x does: each letter
  below x in the heap lies below one of those, or is one. By induction
  along w, that holds iff no earlier kept letter fails to commute with
  x, iff x's vertex is in open. Once open is empty nothing more is taken.
- Deleting a filter F (a set closed upwards) from a canonical word
  leaves it canonical. A cancelling pair z...z^-1 or a factor b.u.a as
  in the proof above that w less F has and w lacks has letters of F
  between its ends. One of those failing to commute with the last
  letter would put that letter above it in the heap, so in F; so they
  all commute with it, and w holds the same pair, or b.u.a with them in
  u, against w canonical. So I, which is w less a filter, is canonical.
- Deleting an ideal does not: on a-b, b-c the canonical word b c a
  loses its front c and leaves b a, whose canonical word is a b. So the
  front strip keeps the letters before its first deletion, a prefix of
  w and canonical, and inserts the kept letters after it with
  `_canonical`, which keeps the pile-cost bound.
The back strip runs the same scan backwards over that canonical word:
the largest ideal of the reversed heap is the largest filter of letters
of B, and deleting it leaves the representative canonical. The filter's
own letters are w less an ideal, so they are canonicalised.

Letters are signed integers: vertex i appears as +-(i+1).
"""

from collections import deque
from heapq import heappop, heappush

from ._checks import require_int, vertex_set

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


def _strip(adj_masks, letters, verts):
    """(taken, kept, stop): the letters of the largest ideal of the heap of
    `letters` whose vertices lie in the bitmask `verts`, in order, and the
    other letters of letters[:stop], in order; letters[stop:] holds no
    letter of the ideal. See the module docstring."""
    taken, kept = [], []
    for i, x in enumerate(letters):
        if not verts:
            return taken, kept, i
        v = x - 1 if x > 0 else -x - 1
        if verts >> v & 1:
            taken.append(x)
        else:
            kept.append(x)
            verts &= adj_masks[v]
    return taken, kept, len(letters)


def _cyclically_reduced(graph, letters):
    """Whether no initial letter x of the heap has x^-1 terminal (see the
    module docstring)."""
    adj_masks = graph.adj_masks
    heads, open_, ends = set(), (1 << graph.n) - 1, 0
    for x in letters:
        v = x - 1 if x > 0 else -x - 1
        if open_ >> v & 1:
            heads.add(x)
            ends |= 1 << v
        open_ &= adj_masks[v]
        if not open_:
            break
    for x in reversed(letters):
        v = x - 1 if x > 0 else -x - 1
        if ends >> v & 1 and -x in heads:
            return False
        ends &= adj_masks[v]
        if not ends:
            break
    return True


def _mask(verts):
    return sum(1 << v for v in verts)


def _canonical(graph, letters, w=()):
    """The canonical word of w * letters, for a canonical word w and any
    word `letters`, by insertion, handing over to the piles once the walks
    have cost more than piling would (see the module docstring)."""
    out = list(w)
    links = graph.letter_links
    budget = 2 * len(out)
    letters = iter(letters)
    for x in letters:
        near, lower, cost = links[x - 1 if x > 0 else -x - 1]
        budget += cost
        # s is empty, as no letter of near is 0: delete or append, no step
        y = out[-1] if out else 0
        if y not in near:
            if y == -x:
                out.pop()
            else:
                out.append(x)
            continue
        i = end = len(out)
        while i and out[i - 1] in near:
            i -= 1
        budget -= end - i
        if i and out[i - 1] == -x:
            del out[i - 1]
        else:
            while i < end and out[i] in lower:
                i += 1
            out.insert(i, x)
        if budget < 0:
            out.extend(letters)
            return _depile(graph, _pile(graph, out))
    return tuple(out)


class Element:
    """A group element over a fixed graph.

    `letters` is the canonical word once read. An inverse holds its
    operand's reduced word reversed and negated, a reduced word of the
    inverse as long as its canonical word, until something reads
    `letters` (`==`, `hash`, `str`, use as a left factor): that read
    canonicalises it, once. A right factor puts its reduced word in as it
    is. Length, truthiness, support and retraction read that word, as the
    reduced words of an element have the same letters up to order.

    Do not pass canonical=True unless the letters are already known to be
    a canonical word; every public operation maintains that invariant.
    Operations canonicalise letters taken from elements themselves and pass
    canonical=True, as those letters need none of the checks on outside
    callers' letters.
    """

    # _word: a reduced word of the element, `letters` itself once set
    __slots__ = ("graph", "letters", "_word")

    def __init__(self, graph, letters=(), canonical=False):
        self.graph = graph
        # an iterator is read once, here: the check below would consume it.
        # tuple() hands a tuple back uncopied
        letters = tuple(letters)
        if not canonical:
            # a letter 0 would read the last vertex's links or pile, and
            # one past +-n finds none; one scan and the IndexError catch
            # them, with no per-letter check in the insertion or piling loop
            if 0 in letters:
                raise ValueError("letter 0 names no vertex")
            try:
                letters = _canonical(graph, letters)
            except IndexError:
                raise ValueError(f"a letter lies outside ±1..±{graph.n}") from None
        self.letters = self._word = letters

    def __getattr__(self, name):
        # called only for an unset slot: `letters` of an inverse not read yet
        if name != "letters":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.letters = self._word = letters = _canonical(self.graph, self._word)
        return letters

    def __mul__(self, other):
        try:
            other_graph, word = other.graph, other._word
        except AttributeError:
            # not an Element: the product is undefined, a TypeError
            return NotImplemented
        if self.graph is not other_graph and self.graph != other_graph:
            raise ValueError("elements live on different graphs")
        # elements are immutable, so a product with 1 can share its operand
        if not word:
            return self
        if not self._word:
            return other
        graph = self.graph
        return Element(graph, _canonical(graph, word, self.letters), canonical=True)

    def inverse(self):
        inv = Element.__new__(Element)
        inv.graph = self.graph
        inv._word = tuple(-x for x in reversed(self._word))
        return inv

    def __pow__(self, k):
        """A power whose abs(k) copies of the canonical word pass
        MAX_WORD_LENGTH letters raises ValueError before any is built."""
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return Element(self.graph, (), canonical=True)
        base = self if k > 0 else self.inverse()
        letters = base.letters
        if abs(k) * len(letters) > MAX_WORD_LENGTH:
            raise ValueError(f"word expands to more than {MAX_WORD_LENGTH} letters")
        return Element(self.graph, _canonical(self.graph, letters * (abs(k) - 1), letters), canonical=True)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.letters == other.letters
            and (self.graph is other.graph or self.graph == other.graph)
        )

    def __hash__(self):
        return hash(self.letters)

    def __bool__(self):
        return bool(self._word)

    def __len__(self):
        return len(self._word)

    def is_identity(self):
        return not self._word

    def support(self):
        return frozenset([abs(x) - 1 for x in set(self._word)])

    def in_special(self, keep):
        """Membership in the special subgroup generated by the vertex
        indices `keep`; for reduced words this is a support condition.
        Raises ValueError if `keep` holds a non-vertex index."""
        keep = vertex_set(self.graph, keep)
        return all(abs(lt) - 1 in keep for lt in self._word)

    def retract(self, keep):
        """Image under the retraction killing every generator outside `keep`.
        Raises ValueError if `keep` holds a non-vertex index."""
        graph = self.graph
        keep = vertex_set(graph, keep)
        letters = tuple(lt for lt in self._word if abs(lt) - 1 in keep)
        if len(letters) == len(self._word):
            return self
        return Element(graph, _canonical(graph, letters), canonical=True)

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
        peelable when another is peeled, so the result is order-free.

        Most words need no piles. Strip the canonical word w = p.c.p^-1
        of the longest p whose letters meet their inverses at the two
        ends, letter by letter. Each letter of p is then at the front of
        the heap with its inverse at the back when it is peeled, so
        peeling p first is one order of peeling; if c is cyclically
        reduced nothing more peels, and (p, c) is the split. Both are
        factors of a canonical word, so canonical (see the module
        docstring), and a cyclically reduced word comes back as it is.
        Otherwise, when a peelable letter hides behind letters it
        commutes with, the piles peel the whole word."""
        graph = self.graph
        letters = self.letters
        i, j = 0, len(letters)
        while i < j and letters[i] == -letters[j - 1]:
            i, j = i + 1, j - 1
        if _cyclically_reduced(graph, letters[i:j]):
            core = Element(graph, letters[i:j], canonical=True) if i else self
            return Element(graph, letters[:i], canonical=True), core
        dependents = graph.dependents
        piles = _pile(graph, letters)
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

    def double_coset_form(self, front, back):
        """Split self as (a, rep, b) with self == a * rep * b, a in the
        special subgroup A on the vertex indices `front`, b in B on `back`,
        and rep depending only on the double coset A * self * B.

        The strip deletes the largest ideal of letters of A from the front
        of the heap, then the largest filter of letters of B from the back
        of what is left (`_strip`, proofs in the module docstring).
        Deleting letters at the back never brings a new letter to the
        front, so rep is (A, B)-reduced: no letter of A at its front and
        none of B at its back.

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
        adj_masks = graph.adj_masks
        front, back = vertex_set(graph, front), vertex_set(graph, back)
        letters = self.letters
        left, kept, stop = _strip(adj_masks, letters, _mask(front))
        if left:
            # the first letter taken is its vertex's first letter in the
            # word: an earlier one would have been kept and blocked it
            first = letters.index(left[0])
            kept.extend(letters[stop:])
            letters = _canonical(graph, kept[first:], letters[:first])
        right, kept, stop = _strip(adj_masks, letters[::-1], _mask(back))
        rep = letters[:len(letters) - stop] + tuple(kept[::-1])
        return (
            Element(graph, left, canonical=True),
            Element(graph, rep, canonical=True),
            Element(graph, _canonical(graph, right[::-1]), canonical=True),
        )

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
    """The generator `name` raised to an integer power; a power past
    MAX_WORD_LENGTH raises ValueError before any letter is built."""
    if name not in graph.index:
        raise ValueError(f"unknown generator {name!r}")
    power = require_int(power, "power")
    if abs(power) > MAX_WORD_LENGTH:
        raise ValueError(f"word expands to more than {MAX_WORD_LENGTH} letters")
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
