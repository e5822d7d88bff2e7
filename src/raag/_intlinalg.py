"""Exact linear solver over Z/p^m, on sparse rows of Python integers.

The solver handles the non-field rings Z/p^m in two stages. The unit
stage takes the rows in the order given and reduces each, as it arrives,
by the unit pivots made before it; if a unit entry is left, the row
pivots on its last one. A row left without a unit is free, and a free row
whose right-hand side is not divisible by the largest power of p that
divides all its entries ends the solve at once: nothing solves it, and
no later row is read. Valuation passes v = 1, ..., m-1 then sweep the
free columns once each and pivot only on entries of valuation exactly v.
Every free entry has valuation at least v during pass v (the proof is in
`solve_mod_prime_power`), so each pivot has the least valuation of all
free entries, which keeps back-substitution complete: later choices can
never repair a failed divisibility check.
A system is a `SparseMatrix`: one {column: residue} dict per equation, so
elimination touches only nonzero entries and the fill-in they create. A
column -> rows index finds the free rows each pivot clears without
scanning the column. Python integers keep every modulus exact.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

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

    The unit stage takes the rows in order. Each is reduced by the unit
    pivots in the order they were made: pivot k subtracts the multiple of
    its row that clears its column. If a unit entry is left, the row is
    scaled so that its last one (highest column) is 1, becomes the next
    pivot there, and clears that column from the free rows, the earlier
    rows left without a unit. Pivot k's row is 0 in the columns of the
    pivots made before it: it arrived after them and was reduced by them,
    and each later subtraction is of a row that is 0 there too. So
    reducing by the pivots in order leaves every pivot column 0, and the
    free rows stay 0 in every pivot column. A free row has all entries
    divisible by p, and clearing it subtracts the pivot row times such an
    entry, so it never regains a unit: the unit pivots are all the unit
    pivots there are, of the least valuation, 0, as global pivoting
    would choose.

    Early exit. A reduced row whose entries are all divisible by p^w
    (w = m when it has none), with right-hand side not divisible by p^w,
    has no solution mod p^w, so none mod p^m. Row operations keep the
    solution set, so the solve returns None at that row, without reading
    the rows after it. Over F_p every free row is empty, so this stops at
    the first inconsistent row.

    Valuation passes v = 1, ..., m-1 follow. Pass v sweeps the free
    columns once, left to right; in column c it takes the first free row
    whose entry has valuation exactly v, scales that row by a unit so the
    pivot is p^v, and clears the column from the other free rows.

    Invariant: during pass v every free entry (free row, free column) has
    valuation >= v. It holds at v = 1 by the unit stage. A pass-v
    elimination subtracts multiples of the pivot row, whose free entries
    have valuation >= v, so nothing drops below v. A column passed over in
    pass v has no valuation-v entry among the free rows; the pivot row of
    any later pass-v elimination was one of those rows, so its entry
    there is above v, and the column stays above v to the end of the
    pass. So every free entry is above v when pass v+1 starts, and above
    m-1, that is 0 mod p^m, after the last pass. Each pivot thus has the
    least valuation of all free entries, as with global pivoting, and
    back-substitution is complete: pivot row r reads p^v x_c plus terms
    of valuation >= v, so it fails only when p^v does not divide b_r, and
    then nothing solves the system. The solution is checked against the
    system before it is returned.
    """
    q = p**m
    nvar = matrix.shape[1]
    # rows are read as they arrive, so none past a certificate is read
    rows = []
    b = []
    # the free rows holding a nonzero entry in each column
    holders = [set() for _ in range(nvar)]
    pivots = []
    # unit pivots: the pivot index of each column, and each pivot row
    # without its pivot column
    index = [None] * nvar
    tails = []
    for r, (row, t) in enumerate(zip(matrix, rhs)):
        row = {c: x % q for c, x in row.items() if x % q}
        rows.append(row)
        b.append(t % q)
        # visit only the pivots whose columns the row holds, plus those its
        # fill-in reaches; fill-in from pivot k lands only in later pivots'
        # columns, so taking the least index first keeps the creation order
        due = [index[c] for c in row if index[c] is not None]
        heapify(due)
        while due:
            k = heappop(due)
            pr, pc, _ = pivots[k]
            f = row.pop(pc, 0)
            if not f:
                # pushed twice, or cancelled since it was pushed
                continue
            for j, x in tails[k]:
                y = row.get(j)
                if y is None:
                    y = -f * x % q
                    if y:
                        row[j] = y
                        if index[j] is not None:
                            heappush(due, index[j])
                else:
                    y = (y - f * x) % q
                    if y:
                        row[j] = y
                    else:
                        del row[j]
            b[r] = (b[r] - f * b[pr]) % q
        units = [j for j, x in row.items() if x % p]
        if not units:
            if b[r] % gcd(q, *row.values()):
                return None
            for j in row:
                holders[j].add(r)
            continue
        c = max(units)
        index[c] = len(pivots)
        pivots.append((r, c, 0))
        tails.append(_pivot(rows, b, holders, r, c, 1, q))
    col_free = [c for c in range(nvar) if index[c] is None]
    for v in range(1, m):
        pv = p**v
        above = pv * p
        left = []
        for c in col_free:
            # free entries of this column are divisible by p^v
            r = min((r for r in holders[c] if rows[r][c] % above), default=None)
            if r is None:
                left.append(c)
                continue
            pivots.append((r, c, v))
            _pivot(rows, b, holders, r, c, pv, q)
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


def _pivot(rows, b, holders, r, c, pv, q):
    """Make row r the pivot of column c, whose entry there has valuation
    v (pv = p^v): take it out of the free rows, scale it by a unit so the
    entry is p^v, and clear the column from the free rows holding it;
    returns row r's other entries."""
    for j in rows[r]:
        holders[j].discard(r)
    inv = pow(rows[r][c] // pv, -1, q)
    prow = rows[r] = {j: x * inv % q for j, x in rows[r].items()}
    b[r] = b[r] * inv % q
    # the pivot is now p^v, which divides every entry it clears
    tail = [(j, x) for j, x in prow.items() if j != c]
    held = holders[c]
    for r2 in held:
        row2 = rows[r2]
        f = row2.pop(c) // pv
        for j, x in tail:
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
    return tail
