"""Sparse linear algebra modulo an integer, and the feasibility guard.

Matrices are lists of sparse rows (dict column -> integer coefficient).
Ranks and kernels are taken modulo q, which is a prime or a product of
distinct primes; each new pivot is inverted mod q, and a pivot that is not
a unit raises NonUnitPivot.  two_primes runs a computation at two primes
drawn from PRIMES and requires agreement: it first runs it once at their
product, which by the Chinese remainder theorem is the run at each prime
when every pivot is a unit.  Elimination takes the rows sparsest first and
pivots on each row's leftmost nonzero column.  The rank, the pivot columns
and the reduced echelon form of a row space do not depend on the order of
its rows, so neither does any result here; the order changes only the
fill-in, and with it the time.
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


class NonUnitPivot(ArithmeticError):
    """A pivot is zero modulo one prime factor of the modulus."""


def two_primes(seed, compute):
    """compute at the two primes p1, p2 the seed draws; the results must agree.

    compute(q) may use q only through ring operations, zero tests and this
    module's inversions.  It runs once at q = p1 * p2: Z/p1p2 is Z/p1 x Z/p2,
    so an elimination whose pivots are all units mod q is the elimination at
    each prime, with the same pivot columns, and its result is the answer at
    both.  If some pivot is zero at one prime, the pivot columns may differ
    between the primes; NonUnitPivot then falls back to compute(p1) and
    compute(p2), which must agree.
    """
    p1, p2 = random.Random(seed).sample(PRIMES, 2)
    try:
        return compute(p1 * p2)
    except NonUnitPivot:
        pass
    r1, r2 = compute(p1), compute(p2)
    if r1 != r2:
        raise ArithmeticError(f"results disagree at primes {p1} and {p2}: {r1} vs {r2}")
    return r1


def guard_nonzeros(count, what):
    """Raise CapacityError if count exceeds NONZERO_CAP as configured now."""
    if count > NONZERO_CAP:
        raise CapacityError(f"{what}: {count} nonzeros exceeds cap {NONZERO_CAP}")


def _eliminate_mod(rows, q, stop=None):
    """Row-reduce sparse integer rows mod q; returns (rank, reduced pivot rows).

    The rows are taken sparsest first (a stable sort by length), and each is
    reduced mod q when it is taken.  The pivot of a row is its leftmost
    nonzero column.  The order cannot change a result: the pivot columns are
    the leading columns of the row space whatever the order, and
    `nullspace_mod` back-substitutes to the reduced echelon form, which is
    unique.  It only changes the fill-in, and taking short rows first keeps
    the pivot rows short.  With stop, no further row is taken once the rank
    reaches stop, so the rank returned is min(rank, stop).  Each new pivot
    is inverted mod q; at a composite q, a pivot that has no inverse raises
    NonUnitPivot.
    """
    pivots = {}  # col -> row dict with that pivot, pivot value 1
    for row in sorted(rows, key=len):
        if len(pivots) == stop:
            break
        row = {c: r for c, v in row.items() if (r := v % q)}
        get = row.get
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                try:
                    inv = pow(row[c], -1, q)
                except ValueError:
                    raise NonUnitPivot(f"pivot {row[c]} in column {c} mod {q}") from None
                pivots[c] = {cc: vv * inv % q for cc, vv in row.items()}
                break
            coef = row.pop(c)
            for cc, vv in pivot.items():
                if cc != c:
                    v = (get(cc, 0) - coef * vv) % q
                    if v:
                        row[cc] = v
                    else:
                        # at a composite q, coef * vv can be 0 where the row
                        # has no entry
                        row.pop(cc, None)
    return len(pivots), pivots


def rank_mod(rows, p, stop=None):
    """Rank of the rows mod the modulus p, or stop if the rank reaches it first."""
    return _eliminate_mod(rows, p, stop)[0]


def nullspace_mod(rows, ncols, p):
    """Basis of the right kernel mod the modulus p, as sparse dicts over range(ncols).

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
                        row.pop(c2, None)
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
