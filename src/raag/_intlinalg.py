"""Exact linear solver over Z/p^m, on sparse rows of Python integers.

The solver handles the non-field rings Z/p^m by elimination in valuation
passes: pass v = 0, ..., m-1 sweeps the free columns once and pivots only
on entries of valuation exactly v. Every free entry has valuation at
least v during pass v (the proof is in `solve_mod_prime_power`), so each
pivot has the least valuation of all free entries, which keeps
back-substitution complete: later choices can never repair a failed
divisibility check.
A system is a `SparseMatrix`: one {column: residue} dict per equation, so
elimination touches only nonzero entries and the fill-in they create. A
column -> rows index finds each pivot and the rows it clears without
scanning the column. Python integers keep every modulus exact.
"""

from __future__ import annotations

from ._checks import verify

__all__ = ["SparseMatrix", "solve_mod_prime_power"]


class SparseMatrix(list):
    """Equation rows as {column: coefficient} dicts; `shape` is
    (equations, unknowns), since the rows do not show the unknowns that
    no equation uses."""

    __slots__ = ("shape",)

    def __init__(self, rows, ncols):
        super().__init__(rows)
        self.shape = (len(self), ncols)


def solve_mod_prime_power(matrix, rhs, p, m):
    """Solve matrix @ x == rhs over Z/p^m; returns a list of ints or None.

    matrix is a SparseMatrix; rhs has one integer per equation.
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
    q = p**m
    nvar = matrix.shape[1]
    rows = [{c: x % q for c, x in row.items() if x % q} for row in matrix]
    b = [x % q for x in rhs]
    # the free rows holding a nonzero entry in each column
    holders = [set() for _ in range(nvar)]
    for r, row in enumerate(rows):
        for c in row:
            holders[c].add(r)
    pivots = []
    col_free = list(range(nvar))
    for v in range(m):
        pv = p**v
        above = pv * p
        left = []
        for c in col_free:
            # free entries of this column are divisible by p^v
            held = holders[c]
            r = min((r for r in held if rows[r][c] % above), default=None)
            if r is None:
                left.append(c)
                continue
            inv = pow(rows[r][c] // pv, -1, q)
            prow = rows[r] = {j: x * inv % q for j, x in rows[r].items()}
            for j in prow:
                holders[j].discard(r)
            b[r] = b[r] * inv % q
            pivots.append((r, c, v))
            # the pivot is now p^v, which divides every entry it clears
            entries = [(j, x) for j, x in prow.items() if j != c]
            for r2 in held:
                row2 = rows[r2]
                f = row2.pop(c) // pv
                for j, x in entries:
                    y = row2.get(j)
                    if y is None:
                        # fill-in
                        y = -f * x % q
                        if y:
                            row2[j] = y
                            holders[j].add(r2)
                    else:
                        y = (y - f * x) % q
                        if y:
                            row2[j] = y
                        else:
                            del row2[j]
                            holders[j].discard(r2)
                b[r2] = (b[r2] - f * b[r]) % q
            held.clear()
        col_free = left
    # the free rows are identically 0 mod q now; check consistency
    taken = {r for r, _, _ in pivots}
    if any(b[r] for r in range(len(rows)) if r not in taken):
        return None
    x = [0] * nvar
    for r, c, v in reversed(pivots):
        rhs_r = (b[r] - sum(x[j] * a for j, a in rows[r].items())) % q
        pv = p**v
        if rhs_r % pv:
            return None
        x[c] = (rhs_r // pv) % (q // pv)
    verify(
        all((sum(x[j] * a for j, a in row.items()) - t) % q == 0 for row, t in zip(matrix, rhs)),
        "modular solution",
    )
    return x
