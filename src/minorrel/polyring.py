"""Exact polynomial arithmetic in the entries of a generic matrix.

A ring context fixes the m x n matrix of variables x[i,j] (row-major,
1-based positions).  Polynomials are sparse maps from exponent tuples to
integer coefficients; everything built here (minors, permanents, their
products) is integral, so no denominators arise.
"""

from dataclasses import dataclass
from fractions import Fraction


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

    def x_index(self, i, j):
        """Variable index of x[i,j], 1-based matrix positions."""
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise IndexError(f"x[{i},{j}] outside {self.m}x{self.n}")
        return (i - 1) * self.n + (j - 1)


def poly(ctx, terms):
    """Normalize a term dict into a Poly value (drop zeros, integer coefficients)."""
    out = {}
    for exp, c in terms.items():
        c = Fraction(c)
        if c.denominator != 1:
            raise ValueError(f"non-integral coefficient {c}")
        if c:
            out[tuple(exp)] = c.numerator
    return out


def monomial(ctx, pairs):
    """Monic monomial from (variable index, exponent) pairs."""
    exp = [0] * ctx.num_vars
    for idx, e in pairs:
        exp[idx] += e
    return {tuple(exp): 1}


def x_var(ctx, i, j):
    return monomial(ctx, [(ctx.x_index(i, j), 1)])


def poly_add(ctx, f, g):
    out = dict(f)
    for exp, c in g.items():
        out[exp] = out.get(exp, 0) + c
        if not out[exp]:
            del out[exp]
    return out


def poly_scale(f, c):
    return poly(None, {exp: v * c for exp, v in f.items()})


def poly_mul(ctx, f, g):
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


def minors_basis(ctx):
    """All strict 2x2 minors x[i1,j1]x[i2,j2] - x[i1,j2]x[i2,j1], i1<i2, j1<j2."""
    out = []
    for i1 in range(1, ctx.m + 1):
        for i2 in range(i1 + 1, ctx.m + 1):
            for j1 in range(1, ctx.n + 1):
                for j2 in range(j1 + 1, ctx.n + 1):
                    f = poly_add(
                        ctx,
                        poly_mul(ctx, x_var(ctx, i1, j1), x_var(ctx, i2, j2)),
                        poly_scale(
                            poly_mul(ctx, x_var(ctx, i1, j2), x_var(ctx, i2, j1)), -1
                        ),
                    )
                    out.append(f)
    return out


def permanents_basis(ctx):
    """All generalized permanents x[i1,j1]x[i2,j2] + x[i1,j2]x[i2,j1], i1<=i2, j1<=j2.

    The degenerate cases keep the literal formula value (2*x[i,j]^2 when both
    index pairs coincide); the span is insensitive to this scaling.
    """
    out = []
    for i1 in range(1, ctx.m + 1):
        for i2 in range(i1, ctx.m + 1):
            for j1 in range(1, ctx.n + 1):
                for j2 in range(j1, ctx.n + 1):
                    f = poly_add(
                        ctx,
                        poly_mul(ctx, x_var(ctx, i1, j1), x_var(ctx, i2, j2)),
                        poly_mul(ctx, x_var(ctx, i1, j2), x_var(ctx, i2, j1)),
                    )
                    out.append(f)
    return out
