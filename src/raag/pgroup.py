"""An explicit finite p-group separating two non-conjugate group elements.

For parameters (p, n, r, s) the abelian group

    A = C_{p^n} x C_{p^s} x ... x C_{p^s} x C_{p^r},   m = p^r + 1 factors,

carries an automorphism alpha of order p^r, and B = A : <alpha> is a finite
p-group in which the images of two specific elements g and h land in distinct
conjugacy classes even though they satisfy the same power and twisted-power
relations. Everything here is computed exactly: the relations by direct
computation, and the class of (v, j) as the cosets alpha^i(v) + W, i < p^r,
of the subgroup W = (1 - alpha^j)(A), built by closure under the images of
the basis vectors without running over B. A class takes the powers alpha^k,
k < p^r, tabled once per call from the matrix as it stands.

A is written additively as vectors of residues; B multiplies by
(a, i)(b, j) = (a + alpha^i(b), i + j). The automorphism is stored as a
mutable integer matrix so tests can corrupt an entry and watch the relation
checker catch it.
"""

from operator import mul

from ._checks import require_int, require_prime
from ._record import Record

__all__ = [
    "WitnessParams",
    "PGroupElement",
    "WitnessGroup",
]

ENUMERATION_GUARD = 1 << 20


class WitnessParams(Record):
    """Integer parameters (p, n, r, s) with p prime, n >= 2 and r, s in
    1..n-1; anything with __index__ is stored as an int."""

    __slots__ = ("p", "n", "r", "s")

    def __init__(self, p, n, r, s):
        super().__init__(
            require_prime(p), require_int(n, "n"), require_int(r, "r"), require_int(s, "s")
        )
        if self.n < 2:
            raise ValueError("need n >= 2")
        if not 1 <= self.r <= self.n - 1:
            raise ValueError("need r in 1..n-1")
        if not 1 <= self.s <= self.n - 1:
            raise ValueError("need s in 1..n-1")

    @property
    def m(self):
        return self.p**self.r + 1

    @property
    def moduli(self):
        p = self.p
        return (p**self.n,) + (p**self.s,) * (self.m - 2) + (p**self.r,)

    @property
    def order_a(self):
        """|A|, the product of the moduli in closed form."""
        return self.p ** (self.n + self.s * (self.m - 2) + self.r)

    @property
    def order_b(self):
        return self.order_a * self.p**self.r

    @property
    def enumerable(self):
        """Whether |B| = p^(n + s(m-2) + 2r) is at most ENUMERATION_GUARD.

        The exponent is bounded before p^r or |B| is formed, so huge
        parameters are refused at once.
        """
        limit = ENUMERATION_GUARD.bit_length() - 1
        if self.n + 2 * self.r > limit:
            return False
        e = self.n + self.s * (self.m - 2) + 2 * self.r
        return e <= limit and self.p**e <= ENUMERATION_GUARD


class PGroupElement(Record):
    """(vector, alpha_exp): a point of A and a power of the twisting map."""

    __slots__ = ("vector", "alpha_exp")


class WitnessGroup:
    """Handle for B = A : <alpha> with exact arithmetic on residue vectors.

    alpha_matrix[i] is the image vector of the i-th basis generator; the
    matrix is mutable on purpose (corrupting it must flip verify_relations).
    """

    def __init__(self, params):
        self.params = params
        self.moduli = params.moduli
        m = params.m
        mat = [[0] * m for _ in range(m)]
        # x1 -> x1 x2 xm; x_i -> x_{i+1} on the middle block; the last middle
        # generator goes to the inverse of the whole middle product; xm fixed
        mat[0][0] = 1
        mat[0][1] = 1
        mat[0][m - 1] = 1
        for i in range(1, m - 2):
            mat[i][i + 1] = 1
        for j in range(1, m - 1):
            mat[m - 2][j] = -1
        mat[m - 1][m - 1] = 1
        self.alpha_matrix = mat

    # -- elements ----------------------------------------------------------

    def element(self, vector, alpha_exp=0):
        if len(vector) != self.params.m:
            raise ValueError("vector has the wrong length")
        vec = tuple(v % q for v, q in zip(vector, self.moduli))
        return PGroupElement(vec, alpha_exp % self.params.p**self.params.r)

    def identity(self):
        return self.element((0,) * self.params.m)

    def generator(self, i):
        """The basis generator x_{i+1} of A as a group element."""
        vec = [0] * self.params.m
        vec[i] = 1
        return self.element(vec)

    # -- the twisting map --------------------------------------------------

    def alpha_apply(self, vector, times=1):
        vec = list(vector)
        for _ in range(times % self.params.p**self.params.r):
            out = [0] * len(vec)
            for i, coeff in enumerate(vec):
                if coeff:
                    row = self.alpha_matrix[i]
                    for j, rj in enumerate(row):
                        if rj:
                            out[j] += coeff * rj
            vec = [v % q for v, q in zip(out, self.moduli)]
        return tuple(vec)

    def alpha_order(self):
        """Least k >= 1 with alpha^k the identity on A."""
        current = basis = [self.generator(i).vector for i in range(self.params.m)]
        for k in range(1, self.params.order_b + 1):
            current = [self.alpha_apply(v, 1) for v in current]
            if current == basis:
                return k
        raise RuntimeError("twisting map order exceeds the group order")

    # -- group law ---------------------------------------------------------

    def multiply(self, x, y):
        twisted = self.alpha_apply(y.vector, x.alpha_exp)
        vec = tuple(
            (a + b) % q for a, b, q in zip(x.vector, twisted, self.moduli)
        )
        return self.element(vec, x.alpha_exp + y.alpha_exp)

    def inverse(self, x):
        back = self.alpha_apply(
            tuple(-v for v in x.vector),
            -x.alpha_exp % self.params.p**self.params.r,
        )
        return self.element(back, -x.alpha_exp)

    def power(self, x, k):
        if k < 0:
            return self.power(self.inverse(x), -k)
        out = self.identity()
        while k:
            if k & 1:
                out = self.multiply(out, x)
            x = self.multiply(x, x)
            k >>= 1
        return out

    def conjugate(self, x, by):
        return self.multiply(self.multiply(by, x), self.inverse(by))

    # -- the homomorphism and its classes ----------------------------------

    def phi(self, name):
        """Images of the three abstract generators g, h, t."""
        m = self.params.m
        if name == "g":
            return self.generator(0)
        if name == "h":
            vec = [0] * m
            vec[0] = 1
            vec[m - 1] = 1
            return self.element(vec)
        if name == "t":
            return self.element((0,) * m, 1)
        raise ValueError(f"unknown generator {name!r}")

    def conjugacy_class(self, x):
        """The class of x = (v, j), as the cosets alpha^i(v) + W, i < p^r.

        Conjugating by b = (a, i) gives b x b^-1 = (alpha^i(v) + a -
        alpha^j(a), j), so the class is the union over i of alpha^i(v) + W,
        with W the image of 1 - alpha^j. That map is additive when
        alpha_matrix defines an endomorphism of A, that is when each row is
        killed by its generator's modulus, as it is for the twisting map
        built here. Then W is the subgroup generated
        by the images of the basis vectors, and it is built by closure: each
        generator w adds the cosets W + w, W + 2w, ... of the part built so
        far until a multiple of w falls back into it. No element of B is
        enumerated, but the class can be as large as B, so groups that are
        not enumerable are refused all the same.

        alpha^k is tabled for k < p^r, as the images of the basis vectors,
        once per call from alpha_matrix as it stands.
        """
        if not self.params.enumerable:
            raise ValueError("group too large to enumerate")
        order = self.params.p**self.params.r
        powers = [[self.generator(i).vector for i in range(self.params.m)]]
        for _ in range(1, order):
            powers.append([self.alpha_apply(row) for row in powers[-1]])
        moduli = self.moduli
        v, j = x.vector, x.alpha_exp % order

        def add(a, b):
            return tuple((s + t) % q for s, t, q in zip(a, b, moduli))

        image = {(0,) * len(moduli)}
        for e, twisted_e in zip(powers[0], powers[j]):
            w = tuple((s - t) % q for s, t, q in zip(e, twisted_e, moduli))
            layer, shift = list(image), w
            while shift not in image:
                image.update(add(a, shift) for a in layer)
                shift = add(shift, w)
        twisted = {
            tuple(sum(map(mul, v, col)) % q for col, q in zip(zip(*rows), moduli))
            for rows in powers
        }
        return {PGroupElement(add(t, w), j) for t in twisted for w in image}

    def verify_relations(self):
        """The four defining relations, checked through the homomorphism."""
        p = self.params
        g = self.phi("g")
        h = self.phi("h")
        t = self.phi("t")
        one = self.identity()
        if self.power(g, p.p**p.n) != one:
            return False
        if self.power(h, p.p**p.n) != one:
            return False
        if self.power(g, p.p**p.r) != self.power(h, p.p**p.r):
            return False
        lhs = self.conjugate(self.power(g, p.p**p.s), t)
        return lhs == self.power(h, p.p**p.s)
