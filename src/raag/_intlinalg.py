"""Exact linear solver over Z/p^m.

The solver handles the non-field rings Z/p^m by elimination in valuation
passes: pass v = 0, ..., m-1 sweeps the free columns once and pivots only
on entries of valuation exactly v. Every free entry has valuation at
least v during pass v (the proof is in `solve_mod_prime_power`), so each
pivot has the least valuation of all free entries, which keeps
back-substitution complete: later choices can never repair a failed
divisibility check. Each column costs one O(rows) test per pass, not a
scan of the whole matrix per pivot.
Arithmetic stays in int64 only while no intermediate value can reach
2^63; past that it runs on Python integers. numpy is imported by the
functions that use it, not by this module, so every command that runs no
modular solve starts without it.
"""

from __future__ import annotations

from ._checks import verify

__all__ = ["exact_dtype", "solve_mod_prime_power"]


def exact_dtype(q, ncols):
    """int64 when a row of `ncols` residues mod q dotted with another, plus
    one more residue, stays below 2^63 ((ncols+1) * q^2 < 2^63); otherwise
    object, which holds Python integers."""
    import numpy as np

    return np.int64 if (ncols + 1) * q * q < 2**63 else object


def solve_mod_prime_power(matrix, rhs, p, m):
    """Solve matrix @ x == rhs over Z/p^m; returns an int array or None.

    Elimination runs in valuation passes v = 0, ..., m-1. Pass v sweeps the
    free columns once, left to right; in column c it takes the first free
    row whose entry has valuation exactly v, scales that row by a unit so
    the pivot is p^v, and clears the column from the other free rows.

    Invariant: during pass v every free entry (free row, free column) has
    valuation >= v. It holds at v = 0. A pass-v elimination subtracts
    multiples of the pivot row, whose free entries have valuation >= v, so
    nothing drops below v. A column passed over in pass v has no
    valuation-v entry among the free rows; the pivot row of any later
    pass-v elimination was one of those rows, so its entry there is above
    v, and the column stays above v to the end of the pass. So every free
    entry is above v when pass v+1 starts, and above m-1, that is 0 mod
    p^m, after the last pass. Each pivot thus has the least valuation of
    all free entries, as with global pivoting, and back-substitution is
    complete: pivot row r reads p^v x_c plus terms of valuation >= v, so
    it fails only when p^v does not divide b_r, and then nothing solves
    the system. The solution is checked against the system before it is
    returned.
    """
    import numpy as np

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
    for v in range(m):
        pv = p**v
        for c in np.flatnonzero(col_free):
            # free entries of this column are divisible by p^v
            rows = np.flatnonzero(row_free & (a[:, c] % (pv * p) != 0))
            if not len(rows):
                continue
            r = rows[0]
            inv = pow(int(a[r, c]) // pv, -1, q)
            a[r] = (a[r] * inv) % q
            b[r] = (b[r] * inv) % q
            row_free[r] = False
            col_free[c] = False
            pivots.append((r, c, v))
            idx = np.flatnonzero(row_free & (a[:, c] != 0))
            if len(idx):
                factors = a[idx, c] // pv
                a[idx] = (a[idx] - factors[:, None] * a[r]) % q
                b[idx] = (b[idx] - factors * b[r]) % q
    # the free rows are identically 0 mod q now; check consistency
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
