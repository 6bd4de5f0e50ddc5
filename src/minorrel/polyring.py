"""Exact polynomial arithmetic in the entries of a generic matrix.

A ring context fixes the m x n matrix of variables x[i,j] (row-major,
1-based in all rendered output) plus an optional block of auxiliary
variables appended after the x-block.  Polynomials are sparse maps from
exponent tuples to integer coefficients; everything built here (minors,
permanents, their products) is integral, so no denominators arise.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from .modlinalg import rank


@dataclass(frozen=True)
class RingContext:
    m: int
    n: int
    aux: tuple = ()  # names of auxiliary variables, e.g. ("T1", ..., "t")

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("need m, n >= 1")
        object.__setattr__(self, "aux", tuple(self.aux))

    @property
    def num_x(self):
        return self.m * self.n

    @property
    def num_vars(self):
        return self.num_x + len(self.aux)

    def x_index(self, i, j):
        """Variable index of x[i,j], 1-based matrix positions."""
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise IndexError(f"x[{i},{j}] outside {self.m}x{self.n}")
        return (i - 1) * self.n + (j - 1)

    def aux_index(self, k):
        return self.num_x + k

    def var_name(self, idx):
        if idx < self.num_x:
            return f"x[{idx // self.n + 1},{idx % self.n + 1}]"
        return self.aux[idx - self.num_x]


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


def monomial(ctx, pairs, coeff=1):
    """Monomial from (variable index, exponent) pairs."""
    exp = [0] * ctx.num_vars
    for idx, e in pairs:
        exp[idx] += e
    return poly(ctx, {tuple(exp): coeff})


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


def poly_degree(f):
    return max((sum(exp) for exp in f), default=0)


def is_homogeneous(f):
    degs = {sum(exp) for exp in f}
    return len(degs) <= 1


def x_weight(ctx, exp):
    """Torus bi-weight of a monomial: (row sums, column sums) of the x-block."""
    rows = [0] * ctx.m
    cols = [0] * ctx.n
    for idx in range(ctx.num_x):
        e = exp[idx]
        if e:
            rows[idx // ctx.n] += e
            cols[idx % ctx.n] += e
    return tuple(rows), tuple(cols)


def poly_text(ctx, f):
    """Render as a sum of terms c*x[i,j]^e... with 1-based indices."""
    if not f:
        return "0"
    parts = []
    for exp in sorted(f, reverse=True):
        c = f[exp]
        factors = []
        for idx, e in enumerate(exp):
            if e == 1:
                factors.append(ctx.var_name(idx))
            elif e > 1:
                factors.append(f"{ctx.var_name(idx)}^{e}")
        body = "*".join(factors) if factors else "1"
        if c == 1 and factors:
            parts.append(body)
        elif c == -1 and factors:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}*{body}")
    text = " + ".join(parts)
    return text.replace("+ -", "- ")


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


def det_r(ctx, r):
    """Determinant of the principal r x r submatrix; zero when r > min(m,n)."""
    if r == 0:
        return monomial(ctx, [])
    if r > min(ctx.m, ctx.n):
        return {}
    out = {}
    for perm in permutations(range(1, r + 1)):
        sign = 1
        seen = list(perm)
        for a in range(len(seen)):
            for b in range(a + 1, len(seen)):
                if seen[a] > seen[b]:
                    sign = -sign
        term = monomial(ctx, [], coeff=sign)
        for i, j in enumerate(perm, start=1):
            term = poly_mul(ctx, term, x_var(ctx, i, j))
        out = poly_add(ctx, out, term)
    return out


def det_lambda(ctx, lam):
    """Highest weight vector of the lam-isotypic component: prod_i det_{lam'_i}."""
    from .partitions import canon, conjugate

    lam = canon(lam)
    conj = conjugate(lam)
    out = monomial(ctx, [])
    for r in conj:
        out = poly_mul(ctx, out, det_r(ctx, r))
        if not out:
            return {}
    return out


def coefficient_rows(polys):
    """Sparse coefficient rows over a shared monomial column indexing."""
    cols = {}
    rows = []
    for f in polys:
        row = {}
        for exp, c in f.items():
            idx = cols.setdefault(exp, len(cols))
            row[idx] = c
        rows.append(row)
    return rows, len(cols)


def span_dimension(polys, method="exact", seed=0):
    """Dimension of the linear span of homogeneous polynomials of equal degree."""
    polys = [f for f in polys if f]
    if not polys:
        return 0
    degs = {poly_degree(f) for f in polys}
    if len(degs) > 1 or any(not is_homogeneous(f) for f in polys):
        raise ValueError("span_dimension expects homogeneous inputs of equal degree")
    rows, _ = coefficient_rows(polys)
    return rank(rows, method=method, seed=seed).value
