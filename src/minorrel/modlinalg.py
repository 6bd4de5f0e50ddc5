"""Sparse linear algebra modulo a prime, and the feasibility guard.

Matrices are lists of sparse rows (dict column -> integer coefficient).
Ranks and kernels are taken modulo one prime; two_primes runs a computation
at two primes drawn from PRIMES and requires agreement.  Elimination takes
the rows sparsest first and pivots on each row's leftmost nonzero column.
The rank, the pivot columns and the reduced echelon form of a row space do
not depend on the order of its rows, so neither does any result here; the
order changes only the fill-in, and with it the time.
"""

import random

# fixed public list of 31-bit primes for the two-prime rank checks
PRIMES = (
    2147483647,
    2147483629,
    2147483587,
    2147483579,
    2147483563,
    2147483549,
    2147483543,
    2147483497,
)

NONZERO_CAP = 2_000_000


class CapacityError(Exception):
    """A computation would exceed the configured feasibility guard."""


def two_primes(seed, compute):
    """compute(p) at the two primes the seed draws; the results must agree."""
    p1, p2 = random.Random(seed).sample(PRIMES, 2)
    r1, r2 = compute(p1), compute(p2)
    if r1 != r2:
        raise ArithmeticError(f"results disagree at primes {p1} and {p2}: {r1} vs {r2}")
    return r1


def guard_nonzeros(count, what):
    """Raise CapacityError if count exceeds NONZERO_CAP as configured now."""
    if count > NONZERO_CAP:
        raise CapacityError(f"{what}: {count} nonzeros exceeds cap {NONZERO_CAP}")


def _eliminate_mod(rows, p, stop=None):
    """Row-reduce sparse integer rows mod p; returns (rank, reduced pivot rows).

    The rows are taken sparsest first (a stable sort by length), and each is
    reduced mod p when it is taken.  The pivot of a row is its leftmost
    nonzero column.  The order cannot change a result: the pivot columns are
    the leading columns of the row space whatever the order, and
    `nullspace_mod` back-substitutes to the reduced echelon form, which is
    unique.  It only changes the fill-in, and taking short rows first keeps
    the pivot rows short.  With stop, no further row is taken once the rank
    reaches stop, so the rank returned is min(rank, stop).
    """
    pivots = {}  # col -> row dict with that pivot, pivot value 1
    for row in sorted(rows, key=len):
        if len(pivots) == stop:
            break
        row = {c: r for c, v in row.items() if (r := v % p)}
        get = row.get
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(row[c], p - 2, p)
                pivots[c] = {cc: vv * inv % p for cc, vv in row.items()}
                break
            coef = row.pop(c)
            for cc, vv in pivot.items():
                if cc != c:
                    # a zero here cancels an entry the row has, since coef
                    # and vv are nonzero mod p
                    v = (get(cc, 0) - coef * vv) % p
                    if v:
                        row[cc] = v
                    else:
                        del row[cc]
    return len(pivots), pivots


def rank_mod(rows, p, stop=None):
    """Rank of the rows mod p, or stop if the rank reaches it first."""
    return _eliminate_mod(rows, p, stop)[0]


def nullspace_mod(rows, ncols, p):
    """Basis of the right kernel mod p, as sparse dicts over range(ncols).

    Each vector's first key is its free column, where it is 1; it is 0 at
    the other free columns, and its other keys are smaller pivot columns.
    """
    _, pivots = _eliminate_mod(rows, p)
    # back-substitute to full reduced echelon form
    cols = sorted(pivots)
    for i in range(len(cols) - 1, -1, -1):
        c = cols[i]
        row = pivots[c]
        get = row.get
        for cc in [x for x in row if x != c and x in pivots]:
            coef = row.pop(cc)
            for c2, v2 in pivots[cc].items():
                if c2 != cc:
                    v = (get(c2, 0) - coef * v2) % p
                    if v:
                        row[c2] = v
                    else:
                        del row[c2]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = {f: 1}
        for c, row in pivots.items():
            v = row.get(f, 0)
            if v:
                vec[c] = (-v) % p
        basis.append(vec)
    return basis
