"""Bigraded defining ideal of the Rees algebra of the 2x2-minor ideal.

The Rees algebra is presented by T-variables (one per quadric generator)
over the matrix-entry ring; the defining ideal J is the bigraded kernel of
T_w -> w*t.  Components are indexed by (a, e) = (x-degree, T-degree), and
reported with the T-grading scaled by 2, i.e. as bidegree (a, 2e), so the
fiber-type condition reads: minimal generators only in (0, 2d) and (d, 2).

Everything is computed per torus-weight block.  Permuting rows and columns
of the matrix maps minors to signed minors and permanents to permanents,
over the integers, so each count is constant on S_m x S_n orbits of
weights: only the dominant weight of each orbit is eliminated, weighted by
the orbit size.  The shifted kernels it needs may sit at non-dominant
weights; they are computed on demand.
"""

import random
from collections import Counter
from itertools import combinations_with_replacement
from math import factorial

from . import modlinalg
from .modlinalg import (
    DEFAULT_NONZERO_CAP,
    guard_nonzeros,
    nullspace_mod,
    rank_mod,
)
from .polyring import monomial, poly_mul, x_weight
from .witness import _modval, _monomials_of_degree, generators_for


def _wsub(w, delta):
    """Componentwise difference of weights, or None if any entry goes negative."""
    rows = tuple(a - b for a, b in zip(w[0], delta[0]))
    cols = tuple(a - b for a, b in zip(w[1], delta[1]))
    if any(x < 0 for x in rows + cols):
        return None
    return rows, cols


def _is_dominant(w):
    return all(a >= b for a, b in zip(w[0], w[0][1:])) and all(
        a >= b for a, b in zip(w[1], w[1][1:])
    )


def _orbit_size(w):
    """Size of the S_m x S_n orbit of the weight w = (row sums, column sums)."""
    size = 1
    for part in w:
        size *= factorial(len(part))
        for mult in Counter(part).values():
            size //= factorial(mult)
    return size


class ReesEngine:
    """Per-prime bigraded kernel computations for one ring context."""

    def __init__(self, ctx, prime, variant="minors", cap=DEFAULT_NONZERO_CAP):
        self.ctx = ctx
        self.p = prime
        self.cap = cap
        self.gens = generators_for(ctx, variant)
        self.gen_weights = [x_weight(ctx, next(iter(g))) for g in self.gens]
        self.var_weights = [
            x_weight(ctx, tuple(1 if i == v else 0 for i in range(ctx.num_vars)))
            for v in range(ctx.num_x)
        ]
        self.products = {(): monomial(ctx, [])}
        self._sources = {}  # (a, e) -> dict weight -> list of (xexp, ms)
        self._kernels = {}  # (a, e, weight) -> list of vectors {source: coeff}

    def _product(self, ms):
        if ms not in self.products:
            self.products[ms] = poly_mul(
                self.ctx, self._product(ms[:-1]), self.gens[ms[-1]]
            )
        return self.products[ms]

    def sources(self, a, e):
        """All source basis elements of bidegree (a, e), bucketed by weight."""
        key = (a, e)
        if key not in self._sources:
            buckets = {}
            monos = _monomials_of_degree(self.ctx.num_vars, a)
            xs = [(xexp, x_weight(self.ctx, xexp)) for xexp in monos]
            for ms in combinations_with_replacement(range(len(self.gens)), e):
                w_ms = None
                for k in ms:
                    gw = self.gen_weights[k]
                    w_ms = gw if w_ms is None else (
                        tuple(x + y for x, y in zip(w_ms[0], gw[0])),
                        tuple(x + y for x, y in zip(w_ms[1], gw[1])),
                    )
                for xexp, xw in xs:
                    if w_ms is None:
                        w = xw
                    else:
                        w = (
                            tuple(x + y for x, y in zip(w_ms[0], xw[0])),
                            tuple(x + y for x, y in zip(w_ms[1], xw[1])),
                        )
                    buckets.setdefault(w, []).append((xexp, ms))
            self._sources[key] = buckets
        return self._sources[key]

    def kernel_block(self, a, e, w):
        """Kernel vectors of the block of weight w in bidegree (a, e)."""
        key = (a, e, w)
        if key in self._kernels:
            return self._kernels[key]
        members = self.sources(a, e).get(w, [])
        if not members:
            self._kernels[key] = []
            return []
        cols = {s: i for i, s in enumerate(members)}
        rows = {}
        nnz = 0
        for xexp, ms in members:
            f = self._product(ms)
            for exp, c in f.items():
                full = tuple(x + y for x, y in zip(exp, xexp))
                rows.setdefault(full, {})[cols[(xexp, ms)]] = _modval(c, self.p)
                nnz += 1
        guard_nonzeros(nnz, f"rees kernel ({a},{e})", self.cap)
        null = nullspace_mod(list(rows.values()), len(members), self.p)
        vectors = [{members[i]: v for i, v in vec.items()} for vec in null]
        self._kernels[key] = vectors
        return vectors

    def min_gens(self, a, e):
        """Minimal generator count of J in bidegree (a, e), from dominant weights."""
        return sum(
            _orbit_size(w) * self._min_gens_at(a, e, w)
            for w in self.sources(a, e)
            if _is_dominant(w)
        )

    def _min_gens_at(self, a, e, w):
        """Minimal generator count of J in bidegree (a, e) at the weight w."""
        kw = self.kernel_block(a, e, w)
        if not kw:
            return 0
        members = self.sources(a, e)[w]
        col = {s: i for i, s in enumerate(members)}
        shifted = []
        if a >= 1:
            for v_idx in range(self.ctx.num_x):
                w2 = _wsub(w, self.var_weights[v_idx])
                if w2 is None:
                    continue
                for vec in self.kernel_block(a - 1, e, w2):
                    row = {}
                    for (xexp, ms), c in vec.items():
                        xs = list(xexp)
                        xs[v_idx] += 1
                        idx = col[(tuple(xs), ms)]
                        row[idx] = (row.get(idx, 0) + c) % self.p
                    row = {i: v for i, v in row.items() if v}
                    if row:
                        shifted.append(row)
        if e >= 1:
            for k in range(len(self.gens)):
                w2 = _wsub(w, self.gen_weights[k])
                if w2 is None:
                    continue
                for vec in self.kernel_block(a, e - 1, w2):
                    row = {}
                    for (xexp, ms), c in vec.items():
                        idx = col[(xexp, tuple(sorted(ms + (k,))))]
                        row[idx] = (row.get(idx, 0) + c) % self.p
                    row = {i: v for i, v in row.items() if v}
                    if row:
                        shifted.append(row)
        return len(kw) - rank_mod(shifted, self.p)


def _two_engines(ctx, seed, variant, cap):
    rng = random.Random(seed)
    p1, p2 = rng.sample(modlinalg.PRIMES, 2)
    e1, e2 = ReesEngine(ctx, p1, variant, cap), ReesEngine(ctx, p2, variant, cap)
    # the source bases and the rational products do not depend on the prime
    e2._sources, e2.products = e1._sources, e1.products
    return e1, e2


def rees_ideal(ctx, a_max=3, e_max=3, seed=0, variant="minors", cap=DEFAULT_NONZERO_CAP):
    """Minimal generators of the Rees ideal J by bidegree.

    Returns a sorted list of ((a, 2e), count) with count > 0, over the window
    a <= a_max, e <= e_max (e >= 1; the component (a, 0) is zero since the
    x-variables are algebraically independent).
    """
    e1, e2 = _two_engines(ctx, seed, variant, cap)
    out = []
    for a in range(0, a_max + 1):
        for e in range(1, e_max + 1):
            c1 = e1.min_gens(a, e)
            c2 = e2.min_gens(a, e)
            if c1 != c2:
                raise ArithmeticError(f"modular Rees counts disagree at {(a, e)}")
            if c1:
                out.append(((a, 2 * e), c1))
    return sorted(out)


def fiber_type_check(
    ctx,
    a_max=3,
    e_max=3,
    seed=0,
    variant="minors",
    cap=DEFAULT_NONZERO_CAP,
):
    """Decide fiber type on a bidegree window.

    Fiber type: every minimal generator of J lies in bidegree (0, 2d) (a fiber
    relation, i.e. a defining relation of the minor variety) or (d, 2) (a
    syzygy of the quadrics).
    """
    e1, e2 = _two_engines(ctx, seed, variant, cap)
    table = {}
    fiber = True
    for a in range(0, a_max + 1):
        for e in range(1, e_max + 1):
            c1 = e1.min_gens(a, e)
            c2 = e2.min_gens(a, e)
            if c1 != c2:
                raise ArithmeticError(f"modular Rees counts disagree at {(a, e)}")
            if c1:
                table[(a, 2 * e)] = c1
                if a >= 1 and e >= 2:
                    fiber = False
    return fiber, table
