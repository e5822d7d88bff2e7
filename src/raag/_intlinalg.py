"""Exact linear solvers over Z and Z/p^m.

The integer solver is a small Hermite-style elimination used for lattice
membership certificates; the modular solver handles the non-field rings
Z/p^m by global minimum-valuation pivoting, which keeps back-substitution
complete (every coefficient seen to the right of a pivot has valuation at
least the pivot's, so later choices can never repair a failed divisibility
check). Arithmetic stays in int64 only while no intermediate value can
reach 2^63; past that it runs on Python integers.
"""

from __future__ import annotations

import numpy as np

from ._checks import verify

__all__ = ["exact_dtype", "solve_left_integer", "solve_right_integer", "solve_mod_prime_power"]


def solve_left_integer(rows, target):
    """Integer vector x with sum_i x_i * rows[i] == target, or None.

    rows is a list of equal-length integer sequences; sizes are expected to
    be tiny. Elimination uses gcd steps with a tracked transform.
    """
    target = list(target)
    rows = [list(r) for r in rows]
    m = len(rows)
    if m == 0:
        return [] if not any(target) else None
    ncols = len(rows[0])
    work = [rows[i] + [int(j == i) for j in range(m)] for i in range(m)]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        pick = next((i for i in range(r, m) if work[i][c]), None)
        if pick is None:
            continue
        work[r], work[pick] = work[pick], work[r]
        for i in range(r + 1, m):
            while work[i][c]:
                q = work[r][c] // work[i][c]
                work[r] = [a - q * b for a, b in zip(work[r], work[i])]
                work[r], work[i] = work[i], work[r]
        pivots.append((r, c))
        r += 1
    x = [0] * m
    t = target
    for r, c in pivots:
        if t[c] == 0:
            continue
        if t[c] % work[r][c]:
            return None
        q = t[c] // work[r][c]
        t = [a - q * b for a, b in zip(t, work[r][:ncols])]
        for j in range(m):
            x[j] += q * work[r][ncols + j]
    if any(t):
        return None
    verify(
        [sum(x[i] * rows[i][c] for i in range(m)) for c in range(ncols)] == target,
        "integer solution",
    )
    return x


def solve_right_integer(matrix, target):
    """Integer column vector x with matrix @ x == target, or None."""
    cols = len(matrix[0]) if matrix else 0
    transposed = [[matrix[i][j] for i in range(len(matrix))] for j in range(cols)]
    return solve_left_integer(transposed, list(target))


def exact_dtype(q, ncols):
    """int64 when a row of `ncols` residues mod q dotted with another, plus
    one more residue, stays below 2^63 ((ncols+1) * q^2 < 2^63); otherwise
    object, which holds Python integers."""
    return np.int64 if (ncols + 1) * q * q < 2**63 else object


def _valuation_mask(a, p, v):
    if v == 0:
        return a % p != 0
    pv = p**v
    return (a % (pv * p) != 0) & (a % pv == 0)


def solve_mod_prime_power(matrix, rhs, p, m):
    """Solve matrix @ x == rhs over Z/p^m; returns an int array or None."""
    q = p**m
    matrix = np.asarray(matrix)
    dtype = exact_dtype(q, matrix.shape[-1])
    a = np.asarray(matrix, dtype=dtype) % q
    b = np.asarray(rhs, dtype=dtype) % q
    neq, nvar = a.shape if a.ndim == 2 else (0, 0)
    if neq == 0:
        return np.zeros(0, dtype=dtype)
    row_free = np.ones(neq, dtype=bool)
    col_free = np.ones(nvar, dtype=bool)
    pivots = []
    while True:
        found = None
        for v in range(m):
            mask = _valuation_mask(a, p, v)
            mask &= row_free[:, None]
            mask &= col_free[None, :]
            hit = np.argwhere(mask)
            if len(hit):
                found = (int(hit[0][0]), int(hit[0][1]), v)
                break
        if found is None:
            break
        r, c, v = found
        unit = int(a[r, c]) // p**v
        inv = pow(unit, -1, q)
        a[r] = (a[r] * inv) % q
        b[r] = (b[r] * inv) % q
        pv = p**v
        idx = np.flatnonzero(row_free & (a[:, c] != 0))
        idx = idx[idx != r]
        if len(idx):
            # every remaining entry in this column has valuation >= v
            factors = a[idx, c] // pv
            a[idx] = (a[idx] - factors[:, None] * a[r]) % q
            b[idx] = (b[idx] - factors * b[r]) % q
        row_free[r] = False
        col_free[c] = False
        pivots.append((r, c, v))
    # rows never picked are identically zero mod q by now; check consistency
    if np.any(b[row_free] % q):
        return None
    x = np.zeros(nvar, dtype=dtype)
    for r, c, v in reversed(pivots):
        rhs_r = int(b[r] - a[r] @ x) % q
        pv = p**v
        if rhs_r % pv:
            return None
        x[c] = (rhs_r // pv) % (q // pv)
    residual = np.asarray(matrix, dtype=dtype) @ x - np.asarray(rhs, dtype=dtype)
    verify(not np.any(residual % q), "modular solution")
    return x
