"""Sparse linear algebra modulo a prime, and the feasibility guard.

Matrices are lists of sparse rows (dict column -> integer coefficient).
Ranks and kernels are taken modulo one prime; witness.two_primes runs them
at two primes drawn from PRIMES and requires agreement.
"""

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

DEFAULT_NONZERO_CAP = 2_000_000


class CapacityError(Exception):
    """A computation would exceed the configured feasibility guard."""


def guard_nonzeros(count, what, cap):
    if count > cap:
        raise CapacityError(f"{what}: {count} nonzeros exceeds cap {cap}")


def _reduce_mod(rows, p):
    out = []
    for row in rows:
        new = {}
        for c, v in row.items():
            val = v % p
            if val:
                new[c] = val
        if new:
            out.append(new)
    return out


def _eliminate_mod(rows, p):
    """Row-reduce sparse rows mod p; returns (rank, reduced pivot rows)."""
    pivots = {}  # col -> row dict with that pivot, pivot value 1
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            if c in pivots:
                coef = row.pop(c)
                for cc, vv in pivots[c].items():
                    if cc == c:
                        continue
                    row[cc] = (row.get(cc, 0) - coef * vv) % p
                    if not row[cc]:
                        del row[cc]
            else:
                inv = pow(row[c], p - 2, p)
                row = {cc: vv * inv % p for cc, vv in row.items()}
                pivots[c] = row
                break
    return len(pivots), pivots


def rank_mod(rows, p):
    return _eliminate_mod(_reduce_mod(rows, p), p)[0]


def nullspace_mod(rows, ncols, p):
    """Basis of the right kernel mod p, as sparse dicts over range(ncols)."""
    _, pivots = _eliminate_mod(_reduce_mod(rows, p), p)
    # back-substitute to full reduced echelon form
    cols = sorted(pivots)
    for i in range(len(cols) - 1, -1, -1):
        c = cols[i]
        row = pivots[c]
        for cc in [x for x in row if x != c and x in pivots]:
            coef = row.pop(cc)
            for c2, v2 in pivots[cc].items():
                if c2 == cc:
                    continue
                row[c2] = (row.get(c2, 0) - coef * v2) % p
                if not row[c2]:
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
