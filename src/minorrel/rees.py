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
weights; they are computed on demand.  The source bases and the integer
products do not depend on the prime and are shared by the engines of both
primes.
"""

from collections import Counter
from itertools import combinations_with_replacement
from math import factorial

from .modlinalg import guard_nonzeros, nullspace_mod, rank_mod
from .polyring import monomial, poly_mul, x_weight
from .witness import (
    _monomials_of_degree,
    _shifted_rows,
    _wadd,
    _weights_of,
    _wsub,
    generators_for,
    resolve_cap,
    two_primes,
)


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
    """Per-prime bigraded kernel computations for one ring context.

    sources and products may be dicts shared with the engine of another
    prime; they are filled on first use.
    """

    def __init__(self, ctx, prime, variant="minors", cap=None, sources=None, products=None):
        self.ctx = ctx
        self.p = prime
        self.cap = resolve_cap(cap)
        self.gens = generators_for(ctx, variant)
        self.gen_weights = _weights_of(ctx, self.gens)
        self.var_weights = [
            x_weight(ctx, tuple(1 if i == v else 0 for i in range(ctx.num_vars)))
            for v in range(ctx.num_vars)
        ]
        self.products = {(): monomial(ctx, [])} if products is None else products
        self._sources = {} if sources is None else sources  # (a, e) -> weight -> [(xexp, ms)]
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
                w_ms = ((0,) * self.ctx.m, (0,) * self.ctx.n)
                for k in ms:
                    w_ms = _wadd(w_ms, self.gen_weights[k])
                for xexp, xw in xs:
                    buckets.setdefault(_wadd(w_ms, xw), []).append((xexp, ms))
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
        rows = {}
        nnz = 0
        for i, (xexp, ms) in enumerate(members):
            for exp, c in self._product(ms).items():
                full = tuple(x + y for x, y in zip(exp, xexp))
                rows.setdefault(full, {})[i] = c
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
        col = {s: i for i, s in enumerate(self.sources(a, e)[w])}
        shifted = []
        if a >= 1:
            # x_v * J(a-1, e)
            for v, vw in enumerate(self.var_weights):
                w2 = _wsub(w, vw)
                if w2 is not None:
                    shifted += _shifted_rows(
                        self.kernel_block(a - 1, e, w2),
                        lambda s: (s[0][:v] + (s[0][v] + 1,) + s[0][v + 1:], s[1]),
                        col,
                    )
        if e >= 1:
            # T_k * J(a, e-1)
            for k, gw in enumerate(self.gen_weights):
                w2 = _wsub(w, gw)
                if w2 is not None:
                    shifted += _shifted_rows(
                        self.kernel_block(a, e - 1, w2),
                        lambda s: (s[0], tuple(sorted(s[1] + (k,)))),
                        col,
                    )
        return len(kw) - rank_mod(shifted, self.p)


def rees_ideal(ctx, a_max=3, e_max=3, seed=0, variant="minors", cap=None):
    """Minimal generators of the Rees ideal J by bidegree.

    Returns a sorted list of ((a, 2e), count) with count > 0, over the window
    a <= a_max, e <= e_max (e >= 1; the component (a, 0) is zero since the
    x-variables are algebraically independent).
    """
    sources, products = {}, {(): monomial(ctx, [])}

    def compute(p):
        engine = ReesEngine(ctx, p, variant, cap, sources, products)
        counts = [
            ((a, 2 * e), engine.min_gens(a, e))
            for a in range(a_max + 1)
            for e in range(1, e_max + 1)
        ]
        return [(bideg, c) for bideg, c in counts if c]

    return two_primes(seed, compute)


def fiber_type_check(ctx, a_max=3, e_max=3, seed=0, variant="minors", cap=None):
    """Decide fiber type on a bidegree window.

    Fiber type: every minimal generator of J lies in bidegree (0, 2d) (a fiber
    relation, i.e. a defining relation of the minor variety) or (d, 2) (a
    syzygy of the quadrics).  Returns (fiber, {(a, 2e): count}).
    """
    table = dict(rees_ideal(ctx, a_max, e_max, seed, variant, cap))
    return not any(a >= 1 and b >= 4 for a, b in table), table
