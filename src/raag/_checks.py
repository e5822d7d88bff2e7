"""Checks that stay on under ``python -O``.

Returned witnesses, reduced forms, and caller-supplied primes, graphs and
vertex indices are checked with these helpers rather than with
``assert``, which ``-O`` strips.
"""

# Miller-Rabin on these bases decides primality exactly below PRIME_BOUND,
# the least strong pseudoprime to all of them (Sorenson and Webster 2015)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def verify(ok, what):
    """Raise AssertionError unless `ok`; `what` names the failed witness."""
    if not ok:
        raise AssertionError(f"{what} failed verification")


def require_prime(p):
    """Raise ValueError unless p is prime, decided by Miller-Rabin on the
    13 primes 2..41; p past PRIME_BOUND, where that is not exact, is
    refused."""
    if p >= PRIME_BOUND:
        raise ValueError(f"p = {p} is too large: primality is decided only below {PRIME_BOUND}")
    if p in _BASES:
        return
    if p < 2 or any(p % a == 0 for a in _BASES):
        raise ValueError(f"p = {p} is not prime")
    s = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> s
    for a in _BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError(f"p = {p} is not prime")


def check_graph(graph, *elems):
    """Raise ValueError unless every element lives on `graph`."""
    for x in elems:
        if x.graph is not graph and x.graph != graph:
            raise ValueError("elements live on different graphs")


def vertex_set(graph, verts):
    """frozenset(verts), after checking that each is a vertex index of
    `graph`, an int in range(graph.n); raises ValueError naming one that
    is not (1.0 == 1, but it cannot index a list)."""
    verts = frozenset(verts)
    for v in verts:
        if not isinstance(v, int) or not 0 <= v < graph.n:
            raise ValueError(f"{v!r} is not a vertex index of this {graph.n}-vertex graph")
    return verts
