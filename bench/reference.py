"""Reference computations that check raag's answers without using raag.

Nothing here imports the library. Words are tuples of signed ints (vertex
i as +-(i+1)) and a graph is its adjacency, a list of frozensets of
neighbour indices, computed from the edge list in fixtures.py. The
machinery differs on purpose from the library's piling construction:

- the word problem is incremental free cancellation modulo commutation;
- negative conjugacy verdicts come from finite permutation quotients, from
  the orbit of a cyclically reduced word under rotations and commutations,
  and from retractions onto special subgroups;
- graded Lie dimensions come from the clique-polynomial identity;
- Magnus units are checked through a random matrix representation of the
  truncated algebra;
- the p-group witness is rebuilt from its defining description.
"""

from __future__ import annotations

from math import comb


class CheckFailed(Exception):
    """An answer contradicts its expected verdict or its witness fails."""


# ---------------------------------------------------------------------------
# the word problem


def reduce_word(adj, word):
    """A reduced word for `word`.

    Each letter x scans back over letters that commute with it (other
    vertices adjacent to its own); meeting x^-1 cancels the pair, meeting a
    letter that blocks it appends x. Every step keeps the word reduced, so
    the result is empty exactly when `word` is the identity.
    """
    out = []
    for x in word:
        v = abs(x) - 1
        nbrs = adj[v]
        i = len(out) - 1
        while i >= 0:
            y = out[i]
            if y == -x:
                del out[i]
                break
            w = abs(y) - 1
            if w == v or w not in nbrs:
                out.append(x)
                break
            i -= 1
        else:
            out.append(x)
    return out


def cancels(adj, word, x):
    """True when appending x to the reduced `word` cancels one of its letters."""
    v = abs(x) - 1
    for y in reversed(word):
        if y == -x:
            return True
        w = abs(y) - 1
        if w == v or w not in adj[v]:
            return False
    return False


def inverse(word):
    return tuple(-x for x in reversed(word))


def is_identity(adj, word):
    return not reduce_word(adj, word)


def equal(adj, u, v):
    return is_identity(adj, tuple(u) + inverse(v))


def retract(word, keep):
    """Image under the retraction that kills every vertex outside `keep`."""
    return tuple(x for x in word if abs(x) - 1 in keep)


def uses_only(word, verts):
    """Membership of a reduced word in the special subgroup on `verts`:
    all reduced words of an element share their letters, so this is exact."""
    return all(abs(x) - 1 in verts for x in word)


def _front_positions(adj, word):
    """Positions of the letters that commute to the front of `word`."""
    seen = set()
    for i, x in enumerate(word):
        v = abs(x) - 1
        if v not in seen and seen <= adj[v]:
            yield i
        seen.add(v)


def _front_letters(adj, word):
    return {word[i] for i in _front_positions(adj, word)}


def is_cyclically_reduced(adj, word):
    """A reduced word is cyclically reduced when no letter x can move to
    the front while x^-1 moves to the back."""
    front = _front_letters(adj, word)
    back = {-x for x in _front_letters(adj, inverse(word))}
    return not any(-x in back for x in front)


# ---------------------------------------------------------------------------
# finite permutation quotients


class PermQuotient:
    """A homomorphism onto a product of symmetric groups.

    Vertices are coloured so that adjacent vertices differ; each colour is
    one factor S_k, and each vertex maps to a random permutation of its own
    factor. Adjacent vertices then act on different factors and commute,
    so the map respects every defining relation.
    """

    def __init__(self, adj, degree, rng):
        order = list(range(len(adj)))
        rng.shuffle(order)
        colour = {}
        for v in order:
            used = {colour[u] for u in adj[v] if u in colour}
            colour[v] = min(c for c in range(len(adj) + 1) if c not in used)
        self.degree = degree
        self.factors = max(colour.values()) + 1
        self.colour = [colour[v] for v in range(len(adj))]
        self.perm = []
        for _ in adj:
            p = list(range(degree))
            rng.shuffle(p)
            inv = [0] * degree
            for i, j in enumerate(p):
                inv[j] = i
            self.perm.append((tuple(p), tuple(inv)))

    def image(self, word):
        cur = [list(range(self.degree)) for _ in range(self.factors)]
        for x in word:
            v = abs(x) - 1
            p = self.perm[v][0 if x > 0 else 1]
            f = cur[self.colour[v]]
            cur[self.colour[v]] = [p[i] for i in f]
        return cur

    def cycle_types(self, word):
        out = []
        for perm in self.image(word):
            seen = [False] * self.degree
            lengths = []
            for start in range(self.degree):
                n = 0
                i = start
                while not seen[i]:
                    seen[i] = True
                    i = perm[i]
                    n += 1
                if n:
                    lengths.append(n)
            out.append(tuple(sorted(lengths)))
        return tuple(out)


def quotient_pool(adj, rng, count=6):
    return [PermQuotient(adj, 5 + i % 3, rng) for i in range(count)]


def certify_not_conjugate(pool, g, h):
    """True when some quotient maps g and h to different cycle types, which
    proves them non-conjugate in the group."""
    return any(q.cycle_types(g) != q.cycle_types(h) for q in pool)


def cyclic_core(adj, word):
    """A cyclically reduced conjugate of `word`: reduce it, then drop a
    letter x that moves to the front together with an x^-1 that moves to
    the back (a conjugation by x), until none is left."""
    w = tuple(reduce_word(adj, word))
    while True:
        front = {w[i]: i for i in _front_positions(adj, w)}
        back = [len(w) - 1 - j for j in _front_positions(adj, w[::-1])]
        pair = next(((front[-w[j]], j) for j in back if -w[j] in front), None)
        if pair is None:
            return w
        i, j = pair
        w = w[:i] + w[i + 1:j] + w[j + 1:]


def trace_key(adj, word):
    """The least word, as a tuple of ints, among those equal to `word` up to
    swaps of adjacent commuting letters: take the least front letter first."""
    w = list(word)
    out = []
    while w:
        i = min(_front_positions(adj, w), key=w.__getitem__)
        out.append(w.pop(i))
    return tuple(out)


def certify_not_conjugate_exact(adj, g, h, cap=5000):
    """True when g and h are proved non-conjugate by the theorem of Liu,
    Wrathall and Zeger (1990): cyclically reduced words are conjugate iff
    cyclic rotations and swaps of adjacent commuting letters turn one into
    the other, so they have the same length and the same orbit of
    commutation classes under "move a front letter to the back". False
    when they are conjugate, or the orbit outgrows `cap`."""
    a, b = cyclic_core(adj, g), cyclic_core(adj, h)
    if len(a) != len(b):
        return True
    start = trace_key(adj, a)
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for i in _front_positions(adj, w):
            m = trace_key(adj, w[:i] + w[i + 1:] + w[i:i + 1])
            if m not in seen:
                if len(seen) >= cap:
                    return False
                seen.add(m)
                stack.append(m)
    return trace_key(adj, b) not in seen


def certify_not_conjugate_under(adj, verts, g, h):
    """True when g and h differ after killing `verts`; conjugating by an
    element of the special subgroup on `verts` cannot change that image."""
    keep = frozenset(range(len(adj))) - frozenset(verts)
    return not equal(adj, retract(g, keep), retract(h, keep))


def certify_not_in_double_coset(adj, a_verts, b_verts, x, y):
    """True when a retraction rules out y in <A> x <B>.

    Killing A sends y = a x b to x' b' with b' in <B>, so x'^-1 y' must lie
    in <B>; killing B symmetrically needs y' x'^-1 in <A>.
    """
    everything = frozenset(range(len(adj)))
    no_a = everything - frozenset(a_verts)
    z = reduce_word(adj, inverse(retract(x, no_a)) + retract(y, no_a))
    if not uses_only(z, b_verts):
        return True
    no_b = everything - frozenset(b_verts)
    z = reduce_word(adj, retract(y, no_b) + inverse(retract(x, no_b)))
    return not uses_only(z, a_verts)


# ---------------------------------------------------------------------------
# witness checks


def check_conjugator(adj, sigma, g, h, verts=None):
    """sigma * g * sigma^-1 * h^-1 == 1, and sigma in <verts> if given."""
    if verts is not None and not uses_only(reduce_word(adj, sigma), verts):
        raise CheckFailed("conjugator leaves the special subgroup")
    if not is_identity(adj, tuple(sigma) + tuple(g) + inverse(sigma) + inverse(h)):
        raise CheckFailed("conjugator does not conjugate g to h")


def check_coset_factors(adj, left, right, x, y, a_verts, b_verts):
    """left * x * right * y^-1 == 1 with left in <A> and right in <B>."""
    if not uses_only(reduce_word(adj, left), a_verts):
        raise CheckFailed("left factor leaves <A>")
    if not uses_only(reduce_word(adj, right), b_verts):
        raise CheckFailed("right factor leaves <B>")
    if not is_identity(adj, tuple(left) + tuple(x) + tuple(right) + inverse(y)):
        raise CheckFailed("factors do not rebuild y")


def check_commutes(adj, z, g):
    if not is_identity(adj, tuple(z) + tuple(g) + inverse(z) + inverse(g)):
        raise CheckFailed("centralizer generator does not commute")


# ---------------------------------------------------------------------------
# graded Lie dimensions and trace-monoid growth


def clique_counts(adj):
    """c_j = number of j-vertex cliques, by subset enumeration."""
    n = len(adj)
    counts = [0] * (n + 1)
    for mask in range(1 << n):
        verts = [v for v in range(n) if mask >> v & 1]
        if all(b in adj[a] for i, a in enumerate(verts) for b in verts[i + 1:]):
            counts[len(verts)] += 1
    return counts


def trace_growth(adj, upto):
    """Monomials of each degree: the series 1 / sum_j c_j (-t)^j."""
    c = clique_counts(adj)
    h = [1]
    for k in range(1, upto + 1):
        h.append(-sum(c[j] * (-1) ** j * h[k - j] for j in range(1, min(k, len(c) - 1) + 1)))
    return h


def lie_dims(adj, upto):
    """The d_n with prod_n (1 - t^n)^(-d_n) equal to the growth series.

    The product's degree-n coefficient is d_n plus terms from lower
    degrees only, so the identity fixes the dimensions one at a time.
    """
    h = trace_growth(adj, upto)
    series = [1] + [0] * upto
    dims = []
    for n in range(1, upto + 1):
        d = h[n] - series[n]
        dims.append(d)
        factor = [0] * (upto + 1)
        for j in range(upto // n + 1):
            factor[n * j] = comb(d - 1 + j, j) if d else int(j == 0)
        series = [
            sum(series[a] * factor[k - a] for a in range(k + 1)) for k in range(upto + 1)
        ]
    return tuple(dims)


# ---------------------------------------------------------------------------
# Magnus units, through a matrix representation


class UnitChecker:
    """Checks M(g) * u == u * M(h) in the truncated algebra mod q.

    Vertex v maps to N_v (x) J, where J is the (d+1)-step nilpotent shift
    and N_v a random matrix acting on its colour's tensor factor. Adjacent
    vertices act on different factors and commute, and any d+1 letters
    multiply to zero through J, so this is a ring homomorphism from the
    truncated trace algebra; an identity that fails here fails there.
    """

    def __init__(self, adj, d, q, rng):
        import numpy as np

        quotient = PermQuotient(adj, 2, rng)  # only its colouring is used
        colours = quotient.factors
        size = 3 if colours <= 2 else 2
        shift = np.eye(d + 1, k=1, dtype=np.int64)
        self.q = q
        self.d = d
        self.dim = size**colours * (d + 1)
        self.vertex = []
        for v in range(len(adj)):
            mat = np.ones((1, 1), dtype=np.int64)
            for c in range(colours):
                block = (
                    np.array([[rng.randrange(q) for _ in range(size)] for _ in range(size)])
                    if quotient.colour[v] == c
                    else np.eye(size, dtype=np.int64)
                )
                mat = np.kron(mat, block)
            self.vertex.append(np.kron(mat, shift) % q)
        self._mono = {(): np.eye(self.dim, dtype=np.int64)}

    def monomial(self, mono):
        out = self._mono.get(mono)
        if out is None:
            out = self.monomial(mono[:-1]) @ self.vertex[mono[-1]] % self.q
            self._mono[mono] = out
        return out

    def element(self, word):
        import numpy as np

        eye = np.eye(self.dim, dtype=np.int64)
        out = eye
        for x in word:
            n = self.vertex[abs(x) - 1]
            if x > 0:
                factor = eye + n
            else:
                factor = eye
                power = eye
                for k in range(1, self.d + 1):
                    power = power @ n % self.q
                    factor = factor + (-1) ** k * power
            out = out @ factor % self.q
        return out

    def check(self, coeffs, g, h):
        import numpy as np

        if coeffs.get((), 0) % self.q != 1:
            raise CheckFailed("unit does not have constant term 1")
        unit = np.zeros((self.dim, self.dim), dtype=np.int64)
        for mono, c in coeffs.items():
            unit = (unit + int(c) * self.monomial(tuple(mono))) % self.q
        lhs = self.element(g) @ unit % self.q
        rhs = unit @ self.element(h) % self.q
        if np.any((lhs - rhs) % self.q):
            raise CheckFailed("unit does not conjugate the Magnus images")


# ---------------------------------------------------------------------------
# the finite p-group witness, rebuilt from its description


class PGroupReference:
    """B = A : <alpha> for parameters (p, n, r, s).

    A is C_{p^n} x C_{p^s}^(m-2) x C_{p^r} with m = p^r + 1; alpha sends
    x1 to x1 x2 xm, shifts the middle block, sends its last generator to
    the inverse of the whole middle product, and fixes xm. The witness
    elements are g = x1, h = x1 xm, and t = alpha.
    """

    def __init__(self, p, n, r, s):
        self.p, self.n, self.r, self.s = p, n, r, s
        self.m = m = p**r + 1
        self.moduli = (p**n,) + (p**s,) * (m - 2) + (p**r,)
        self.alpha_order = p**r

    def alpha(self, vec, times=1):
        m = self.m
        for _ in range(times % self.alpha_order):
            out = [0] * m
            out[0] += vec[0]
            out[1] += vec[0]
            out[m - 1] += vec[0]
            for i in range(1, m - 2):
                out[i + 1] += vec[i]
            for j in range(1, m - 1):
                out[j] -= vec[m - 2]
            out[m - 1] += vec[m - 1]
            vec = tuple(x % q for x, q in zip(out, self.moduli))
        return tuple(vec)

    def mul(self, x, y):
        (a, i), (b, j) = x, y
        twisted = self.alpha(b, i)
        return (
            tuple((u + v) % q for u, v, q in zip(a, twisted, self.moduli)),
            (i + j) % self.alpha_order,
        )

    def inv(self, x):
        a, i = x
        back = self.alpha(tuple(-v for v in a), -i)
        return tuple(v % q for v, q in zip(back, self.moduli)), -i % self.alpha_order

    def power(self, x, k):
        out = ((0,) * self.m, 0)
        for _ in range(k):
            out = self.mul(out, x)
        return out

    def witnesses(self):
        e1 = (1,) + (0,) * (self.m - 1)
        h = (1,) + (0,) * (self.m - 2) + (1,)
        return (e1, 0), (h, 0), ((0,) * self.m, 1)

    def relations_hold(self):
        g, h, t = self.witnesses()
        p = self.p
        one = ((0,) * self.m, 0)
        lhs = self.mul(self.mul(t, self.power(g, p**self.s)), self.inv(t))
        return (
            self.power(g, p**self.n) == one
            and self.power(h, p**self.n) == one
            and self.power(g, p**self.r) == self.power(h, p**self.r)
            and lhs == self.power(h, p**self.s)
        )

    def class_of_g(self):
        """A is abelian, so conjugating (x1, 0) by (a, i) gives (alpha^i x1, 0)."""
        (e1, _), _, _ = self.witnesses()
        return {(self.alpha(e1, i), 0) for i in range(self.alpha_order)}


# ---------------------------------------------------------------------------
# text words, as the command line prints them


def parse_word(index, text):
    """Letters of a printed word such as "a b^-1 c^2"; "1" is the identity."""
    text = text.strip()
    if text in ("", "1"):
        return ()
    out = []
    for tok in text.split():
        name, _, exp = tok.partition("^")
        k = int(exp) if exp else 1
        lt = index[name] + 1
        out.extend([lt if k > 0 else -lt] * abs(k))
    return tuple(out)


def format_word(names, word):
    return " ".join(names[abs(x) - 1] + ("^-1" if x < 0 else "") for x in word) or "1"
