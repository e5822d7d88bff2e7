"""Checks that stay on under ``python -O``.

Returned witnesses, reduced forms, and caller-supplied primes, graphs and
vertex indices are checked with these helpers rather than with
``assert``, which ``-O`` strips.
"""

from __future__ import annotations

from math import isqrt


def verify(ok, what):
    """Raise AssertionError unless `ok`; `what` names the failed witness."""
    if not ok:
        raise AssertionError(f"{what} failed verification")


def require_prime(p):
    """Raise ValueError unless p is prime (by trial division)."""
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ValueError(f"p = {p} is not prime")


def check_graph(graph, *elems):
    """Raise ValueError unless every element lives on `graph`."""
    for x in elems:
        if x.graph is not graph and x.graph != graph:
            raise ValueError("elements live on different graphs")


def vertex_set(graph, verts):
    """frozenset(verts), after checking that each is a vertex index of
    `graph`; raises ValueError naming one that is not."""
    verts = frozenset(verts)
    indices = range(graph.n)
    for v in verts:
        if v not in indices:
            raise ValueError(f"{v!r} is not a vertex index of this {graph.n}-vertex graph")
    return verts
