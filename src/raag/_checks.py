"""Checks that stay on under ``python -O``.

Returned witnesses, reduced forms and caller-supplied primes are checked
with these helpers rather than with ``assert``, which ``-O`` strips.
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
