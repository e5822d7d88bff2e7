"""Exact linear solver over Z/p^m, on sparse rows of Python integers.

Z/p^m is not a field, so the solver pivots by valuation, in passes
v = 0, ..., m-1 that all follow one rule. Pass 0 reads the rows of the
system in order, each only when it is reached; pass v reads, in order,
the rows that pass v-1 left free. Each row is reduced by every pivot made
so far, in the order they were made. If an entry of valuation exactly v
is left, the row pivots on its last one; otherwise it stays free for the
next pass. A free row whose right-hand side is not divisible by the
largest power of p that divides all its entries ends the solve at once:
nothing solves it, and no later row is read; one with no entries left
that passes is 0 = 0, and is dropped. Every row that pass v reads
is divisible by p^v (the induction is in `solve_mod_prime_power`), so
each pivot has the least valuation of all free entries, as with global
pivoting, every pivot divides what it clears, and back-substitution
divides exactly.
A system is a `SparseMatrix`: one {column: residue} dict per equation, so
elimination touches only nonzero entries and the fill-in they create.
Python integers keep every modulus exact. Pass 0 iterates the system once
and reads rhs[i] after row i, so a system may build its rows as they are
iterated (the Magnus system does, one degree at a time): a solve that
ends at a row builds nothing after it. The number of unknowns is read
only after pass 0 has read every row.
"""

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

    matrix is a SparseMatrix; rhs has one integer per equation. Pass 0
    iterates matrix once, reading rhs[i] after row i; matrix.shape[1] is
    read, and matrix iterated again for the check, only after that.

    Pass v = 0, ..., m-1 reads rows in order: pass 0 the rows of the
    system, pass v the rows that pass v-1 left free. Each row is reduced
    by every pivot made so far, in the order they were made: pivot k, of
    valuation v_k, has entry p^(v_k) in its column, and subtracting
    entry // p^(v_k) times its row clears that column. If an entry of
    valuation exactly v is left, the row is scaled by a unit so that its
    last one (highest column) is p^v, and becomes the next pivot there.
    Otherwise the row is free, and stays as it is until the next pass
    reads it, unless it has no entries: once it passes the check below,
    where gcd(q) = q, it is 0 = 0, no pivot can change it, and it is
    dropped. Pivot k's row is 0 in the columns of the pivots made before
    it, which reduced it, so its fill-in lands only in later pivots'
    columns, and reducing by the pivots in order leaves every pivot
    column 0.

    Invariant: every row that pass v reads has all its entries and its
    right-hand side divisible by p^v, and so does every row it is reduced
    to. At v = 0 there is nothing to prove. While pass v reduces a row,
    each pivot k has v_k <= v, and its row and right-hand side are
    divisible by p^(v_k) (the invariant in pass v_k; scaling by a unit
    keeps it). The row's entry e in pivot k's column is divisible by p^v,
    so f = e // p^(v_k) is exact and divisible by p^(v - v_k), and f
    times pivot k's row is divisible by p^v. A row that pass v leaves free
    has no entry of valuation v, so every entry is divisible by p^(v+1),
    and it passed the check below, so its right-hand side is too; the
    pivots made after it change it only when pass v+1 reads it. So each
    pivot has the least valuation of all free entries, as with global
    pivoting.

    Early exit. A free row whose entries are all divisible by p^w
    (w = m when it has none), with right-hand side not divisible by p^w,
    has no solution mod p^w, so none mod p^m. Row operations keep the
    solution set, so the solve returns None at that row, without reading
    the rows after it. The rows that pass m-1 leaves free are divisible
    by p^m, that is empty, so there the check reads b % q, and every row
    ends as a pivot row or as 0 = 0.

    Back-substitution takes the pivots in reverse. Pivot k's row reads
    p^(v_k) x_c plus terms in later pivots' columns, already set, and in
    columns never pivoted, set to 0; the right-hand side less those terms
    is divisible by p^(v_k), so x_c is an exact quotient. Each row of the
    system is its reduced form plus a combination of pivot rows, so x
    solves the system; it is checked against the system before it is
    returned.
    """
    q = p**m
    # rows are read as they arrive, so none past a certificate is read;
    # rhs[i] is read after row i
    rows = (
        ({c: x % q for c, x in row.items() if x % q}, rhs[i] % q) for i, row in enumerate(matrix)
    )
    # the pivot index of each column; pivot k is (its column, p^(v_k), the
    # rest of its row, its right-hand side)
    index = {}
    pivots = []
    for v in range(m):
        pv = p**v
        above = pv * p
        free = []
        for row, t in rows:
            # visit only the pivots whose columns the row holds, plus those
            # its fill-in reaches; taking the least index first keeps the
            # creation order
            due = [index[c] for c in row if c in index]
            heapify(due)
            while due:
                c, pk, tail, tk = pivots[heappop(due)]
                f = row.pop(c, 0) // pk
                if not f:
                    # pushed twice, or cancelled since it was pushed
                    continue
                for j, x in tail:
                    y = row.get(j)
                    if y is None:
                        y = -f * x % q
                        if y:
                            row[j] = y
                            if j in index:
                                heappush(due, index[j])
                    else:
                        y = (y - f * x) % q
                        if y:
                            row[j] = y
                        else:
                            del row[j]
                t = (t - f * tk) % q
            hits = [j for j, x in row.items() if x % above]
            if not hits:
                if t % gcd(q, *row.values()):
                    return None
                # a row with no entries is now 0 = 0, and stays so
                if row:
                    free.append((row, t))
                continue
            c = max(hits)
            inv = pow(row[c] // pv, -1, q)
            index[c] = len(pivots)
            pivots.append(
                (c, pv, [(j, x * inv % q) for j, x in row.items() if j != c], t * inv % q)
            )
        rows = free
    x = [0] * matrix.shape[1]
    for c, pv, tail, t in reversed(pivots):
        x[c] = (t - sum(x[j] * a for j, a in tail)) % q // pv
    verify(
        all((sum(x[j] * a for j, a in row.items()) - t) % q == 0 for row, t in zip(matrix, rhs)),
        "modular solution",
    )
    return x
