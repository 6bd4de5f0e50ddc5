"""Exact polynomial arithmetic in the entries of a generic matrix.

A ring context fixes the m x n matrix of variables x[i,j]; with 0-based
positions, x[i,j] is variable i*n + j (row-major).  Polynomials are sparse
maps from exponent tuples to integer coefficients; everything built here
(minors, permanents, their products) is integral, so no denominators arise.
"""

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement


@dataclass(frozen=True)
class RingContext:
    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("need m, n >= 1")

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
            exp = tuple(a + b for a, b in zip(e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
            if not out[exp]:
                del out[exp]
    return out


def x_weight(ctx, exp):
    """Torus bi-weight of a monomial: (row sums, column sums) of the matrix."""
    rows = [0] * ctx.m
    cols = [0] * ctx.n
    for idx in range(ctx.num_vars):
        e = exp[idx]
        if e:
            rows[idx // ctx.n] += e
            cols[idx % ctx.n] += e
    return tuple(rows), tuple(cols)


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
                exp = [0] * ctx.num_vars
                exp[i1 * n + k1] += 1
                exp[i2 * n + k2] += 1
                exp = tuple(exp)
                f[exp] = f.get(exp, 0) + c
            out.append(f)
    return out
