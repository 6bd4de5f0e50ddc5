"""Exact polynomial arithmetic in the entries of a generic matrix.

A ring context fixes the m x n matrix of variables x[i,j]; with 0-based
positions, x[i,j] is variable i*n + j (row-major).  Polynomials are sparse
maps from monomial keys to integer coefficients; everything built here
(minors, permanents, their products) is integral, so no denominators arise.

A monomial key packs its exponent vector into one int, one byte per
variable: the exponent of variable v is (key >> 8*v) & 255, and the unit
monomial is 0 (Monagan and Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).  The product of
two monomials is the sum of their keys, as long as no exponent of the
product passes 255 and carries into the next variable's byte.  `pack`
raises on an exponent outside 0..255, and `guard_degree` raises before
monomials of a degree that could carry are formed: an exponent is at most
the degree of its monomial.

A torus weight (row sums, column sums) packs likewise, into 16-bit fields:
row i in field i, column j in field m + j, so the zero weight is 0.  The
top bit of each field is a guard, so a field holds 0..MAX_WEIGHT and
`pack_weight` raises outside it.
The sum of two weights is the sum of their keys; their difference is Monagan
and Pearce's guarded subtraction: with G the guard bits, r = (w | G) - d
keeps each borrow inside its field, w - d is negative in some field iff
r & G != G, and otherwise it is r ^ G.  Every field formed here is at most
a degree that `guard_degree` checks first, so it stays far below its guard.
"""

import struct
from collections import namedtuple
from itertools import combinations, combinations_with_replacement


MAX_EXP = 255  # the largest exponent a byte holds
WEIGHT_BITS = 16  # the width of a packed weight field ("H"), guard bit included
MAX_WEIGHT = (1 << WEIGHT_BITS - 1) - 1  # the largest field below the guard bit


def pack(exp):
    """The key of the exponent vector exp."""
    try:
        return int.from_bytes(bytes(exp), "little")
    except ValueError:
        raise OverflowError(f"exponent vector {exp} has an entry outside 0..{MAX_EXP}") from None


def unpack(key, nvars):
    """The exponent vector, of length nvars, of a monomial key."""
    return tuple(key.to_bytes(nvars, "little"))


def pack_weight(w):
    """The key of the weight w = (row sums, column sums)."""
    fields = (*w[0], *w[1])
    if min(fields) < 0 or max(fields) > MAX_WEIGHT:
        raise OverflowError(f"weight {w} has an entry outside 0..{MAX_WEIGHT}")
    return int.from_bytes(struct.pack(f"<{len(fields)}H", *fields), "little")


def unpack_weight(key, m, n):
    """The weight (row sums, column sums), of m and n entries, of a weight key."""
    fields = struct.unpack(f"<{m + n}H", key.to_bytes(2 * (m + n), "little"))
    return fields[:m], fields[m:]


def weight_guards(m, n):
    """The guard bits of the weight keys of m rows and n columns."""
    return sum(1 << WEIGHT_BITS * i + WEIGHT_BITS - 1 for i in range(m + n))


def weight_sub(w, d, guards):
    """The key of the weight w - d, or None if a field goes negative."""
    r = (w | guards) - d
    return r ^ guards if r & guards == guards else None


def guard_degree(degree, what):
    """Raise OverflowError if monomials of the degree could carry out of a byte."""
    if degree > MAX_EXP:
        raise OverflowError(f"{what}: degree {degree} exceeds the packed exponent bound {MAX_EXP}")


class RingContext(namedtuple("RingContext", "m n")):
    __slots__ = ()

    def __new__(cls, m, n):
        if m < 1 or n < 1:
            raise ValueError("need m, n >= 1")
        return super().__new__(cls, m, n)

    @property
    def num_vars(self):
        return self.m * self.n


def poly_mul(ctx, f, g):
    """The product f*g.

    ctx is not read; it stays the first parameter because perfbench's tracer
    reads f and g by position.
    """
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            exp = e1 + e2
            out[exp] = out.get(exp, 0) + c1 * c2
            if not out[exp]:
                del out[exp]
    return out


def x_weight(ctx, key):
    """Weight key of a monomial key: the (row sums, column sums) of its exponents."""
    n = ctx.n
    exp = unpack(key, ctx.num_vars)
    rows = tuple(sum(exp[i * n : i * n + n]) for i in range(ctx.m))
    return pack_weight((rows, tuple(sum(exp[j::n]) for j in range(n))))


def generators_for(ctx, variant):
    """The 2x2 quadrics x[i1,j1]x[i2,j2] + sign * x[i1,j2]x[i2,j1].

    "minors": sign -1 over i1 < i2 and j1 < j2.  "permanents": sign +1 over
    i1 <= i2 and j1 <= j2; where the two monomials coincide their
    coefficients add, so the fully degenerate permanent is 2*x[i,j]^2 (the
    span is insensitive to this scaling).
    """
    if variant == "minors":
        pairs, sign = combinations, -1
    elif variant == "permanents":
        pairs, sign = combinations_with_replacement, 1
    else:
        raise ValueError(f"unknown variant {variant!r}")
    n = ctx.n
    out = []
    for i1, i2 in pairs(range(ctx.m), 2):
        for j1, j2 in pairs(range(n), 2):
            f = {}
            for c, (k1, k2) in ((1, (j1, j2)), (sign, (j2, j1))):
                exp = (1 << 8 * (i1 * n + k1)) + (1 << 8 * (i2 * n + k2))
                f[exp] = f.get(exp, 0) + c
            out.append(f)
    return out
