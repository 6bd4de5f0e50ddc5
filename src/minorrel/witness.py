"""Degreewise linear-algebra witnesses: relation spaces, Koszul homology,
and presentations of the Veronese filtration quotients.

Everything is computed per torus-weight block: each minor/permanent (and
each generator used below) is homogeneous for the torus of GL(V1) x GL(V2),
so kernel and rank computations split into many small independent blocks.
A weight is the pair (row sums, column sums).  The relation ideals, the
subspace variety and the Veronese relations are instances of the graded
kernel engine in `rees`: one engine per instance, built once over the
integers and run modulo q by `engine.at(q)`.  Koszul homology is a pair
of ranks per block, built and ranked only at dominant weights and keyed by
them: each per-weight dimension is constant on S_m x S_n orbits, and
`rees.orbit_total` gives the total.  Products and matrices are built once
over the integers; kernels and ranks run through `two_primes`, which draws
two seeded primes, runs once modulo their product and falls back to one run
per prime, which must agree, only when a pivot is zero at one of them.
Every `compute(q)` below uses q only through ring operations, zero tests
and `modlinalg`'s eliminations.
"""

from itertools import combinations, combinations_with_replacement
from math import factorial

from .modlinalg import guard_nonzeros, rank_mod, two_primes
from .polyring import generators_for, guard_degree, pack, poly_mul, unpack, x_weight
from .rees import (
    GradedKernel,
    _is_dominant,
    _monomials_of_degree,
    _permute,
    _wadd,
    _weights_of,
    _wsub,
    matrix_moves,
)


def presentation_dims(engine, d_max, seed=0):
    """{d: (kernel_dim, min_gen_dim)} for 1 <= d <= d_max, from the engine at two primes."""

    def compute(q):
        engine.at(q)
        return {d: (engine.kernel_dim(d), engine.min_gens(d)) for d in range(1, d_max + 1)}

    return two_primes(seed, compute)


def relation_engine(ctx, variant):
    """The engine of Sym(W) -> polynomials, W the minors or permanents."""
    gens = generators_for(ctx, variant)
    weights = _weights_of(ctx, gens)
    return GradedKernel(gens, weights, ctx.num_vars, matrix_moves(ctx))


def relation_dims(ctx, variant, d_max, seed=0):
    """Relations between the 2x2 minors (or permanents) of the generic matrix.

    For each degree d: the kernel dimension of Sym^d(W) -> S_{2d} and the
    dimension of the minimal generators of the relation ideal in degree d.
    """
    if d_max < 2:
        raise ValueError("d_max must be >= 2")
    return presentation_dims(relation_engine(ctx, variant), d_max, seed)


# ---------------------------------------------------------------------------
# Koszul homology H_1 of the quadric space W (or its permanent analogue)


def _group(items, key):
    """{key(x): [x, ...]} in the order of items."""
    out = {}
    for x in items:
        out.setdefault(key(x), []).append(x)
    return out


def _fits(w, groups):
    """(w - delta, members) for each delta of groups that w - delta stays nonnegative."""
    for delta, members in groups.items():
        rest = _wsub(w, delta)
        if rest is not None:
            yield rest, members


def koszul_h1_blocks(ctx, variant, d, seed=0):
    """H_1 of the Koszul complex of W in total degree d, at dominant weights.

    Returns {weight: dim} over the dominant weights (row sums and column sums
    both non-increasing) where H_1 is nonzero.  Permuting rows and columns
    maps the bases of W (x) S_{d-2} and W^W (x) S_{d-4} to themselves up to
    sign, so H_1 at any weight equals H_1 at the dominant weight of its
    orbit, and `rees.orbit_total` of the result is the total dimension.
    Only dominant blocks are built: their boundary matrices once over the
    integers, ranked mod two seeded primes.
    """
    if d < 2:
        raise ValueError("degree must be >= 2")
    guard_degree(d, "Koszul complex")
    gens = generators_for(ctx, variant)
    gw = _weights_of(ctx, gens)
    # monomials of degree d-2 and d-4, generators and pairs k < l, by weight
    weight = lambda x: x_weight(ctx, x)
    mono2 = _group(_monomials_of_degree(ctx.num_vars, d - 2), weight)
    mono4 = _group(_monomials_of_degree(ctx.num_vars, d - 4), weight) if d >= 4 else {}
    gens_at = _group(range(len(gens)), gw.__getitem__)
    pairs_at = _group(combinations(range(len(gens)), 2), lambda kl: _wadd(gw[kl[0]], gw[kl[1]]))
    weights = {_wadd(wk, wm) for wk in gens_at for wm in mono2}
    blocks = []
    nnz1 = nnz2 = 0
    for w in sorted(filter(_is_dominant, weights)):
        # basis of W (x) S_{d-2} at w: (k, x^a) with wt(k) + wt(a) = w
        basis = [
            (k, exp) for rest, ks in _fits(w, gens_at) for k in ks for exp in mono2.get(rest, ())
        ]
        # d1: (k, x^a) -> w_k x^a, one column per monomial of degree d
        mono_col = {}
        d1 = [
            {
                mono_col.setdefault(e2 + exp, len(mono_col)): c
                for e2, c in gens[k].items()
            }
            for k, exp in basis
        ]
        # d2: e_k ^ e_l (x) x^b -> (k, w_l x^b) - (l, w_k x^b), for k < l
        col = {kx: i for i, kx in enumerate(basis)}
        d2 = []
        for rest, kls in _fits(w, pairs_at):
            for mexp in mono4.get(rest, ()):
                for k, l in kls:
                    row = {}
                    for e2, c in gens[l].items():
                        row[col[(k, e2 + mexp)]] = c
                    for e2, c in gens[k].items():
                        row[col[(l, e2 + mexp)]] = -c
                    d2.append(row)
        nnz1 += sum(map(len, d1))
        nnz2 += sum(map(len, d2))
        guard_nonzeros(nnz1, "Koszul d1 matrix")
        guard_nonzeros(nnz2, "Koszul d2 matrix")
        blocks.append((w, len(basis), d1, d2))

    def compute(q):
        result = {}
        for w, size, d1, d2 in blocks:
            h1 = size - rank_mod(d1, q)
            if d2:
                h1 -= rank_mod(d2, q)
            if h1:
                result[w] = h1
        return result

    return two_primes(seed, compute)


# ---------------------------------------------------------------------------
# The Veronese filtration quotients M_r / M_{r-1}


def filtration_generator_space(ctx, c):
    """Generator space of the c-th filtration step: Sym^{2c}V1 (x) Sym^{2c}V2.

    One polynomial of degree 2c per weight (alpha, beta): the sum over the
    matrices A with row sums alpha and column sums beta of (2c)!/prod(A!) x^A.
    At c = 0 this is the unit polynomial.
    """
    D = 2 * c
    out = {}
    for key in _monomials_of_degree(ctx.num_vars, D):
        coeff = factorial(D)
        for e in unpack(key, ctx.num_vars):
            coeff //= factorial(e)
        out.setdefault(x_weight(ctx, key), {})[key] = coeff
    return list(out.values())


class _VeroneseRelations(GradedKernel):
    """The Veronese instance: the kernel of G_r (x) R -> M_r/M_{r-1}.

    Sources of degree D are pairs (index into the generator space G_r,
    multiset of D - r quadrics).  The kernel is taken modulo the spanning
    polynomials of M_{r-1,D}, which lower[D] buckets by weight when first
    asked, so the image dimension in degree D is dim (M_r/M_{r-1})_D.
    """

    def __init__(self, ctx, r):
        gens = generators_for(ctx, "minors")
        super().__init__(gens, _weights_of(ctx, gens), ctx.num_vars, matrix_moves(ctx))
        self.ctx, self.r = ctx, r
        self.gspace = filtration_generator_space(ctx, r)
        self.gweights = _weights_of(ctx, self.gspace)
        self.lower = {}

    def factors(self, D):
        return list(enumerate(self.gweights)), D - self.r

    def factor_map(self, perms):
        # the generator space has one polynomial per weight, and permuting
        # rows and columns carries it to the one of the permuted weight
        index = {w: gi for gi, w in enumerate(self.gweights)}
        return lambda gi: index[tuple(map(_permute, self.gweights[gi], perms))]

    def image(self, source):
        gi, ms = source
        return poly_mul(self.ctx, self.gspace[gi], self.product(ms))

    def shifts(self, D):
        return self._generator_shifts(D - 1) if D > self.r else []

    def modulo(self, D, w):
        if D not in self.lower:
            polys = self.module_component(self.r - 1, D)
            self.lower[D] = _group(polys, lambda f: x_weight(self.ctx, next(iter(f))))
        return self.lower[D].get(w, [])

    def module_component(self, r, D):
        """Spanning polynomials of the degree-D piece of M_r (degree 2D in x)."""
        out = []
        for c in range(0, min(r, D) + 1):
            gspace = filtration_generator_space(self.ctx, c)
            for ms in combinations_with_replacement(range(len(self.gens)), D - c):
                prod = self.product(ms)
                for g in gspace:
                    out.append(poly_mul(self.ctx, g, prod))
        return out


def veronese_engine(ctx, r):
    """The engine of the presentation G_r (x) R -> M_r/M_{r-1}, for the minors."""
    return _VeroneseRelations(ctx, r)


def veronese_presentation_dims(ctx, r, d_max, seed=0):
    """Generator and first-relation dimensions of M_r/M_{r-1} by degree, for the minors.

    Returns {"generators": {D: dim}, "relations": {D: dim}} for D <= d_max.
    Generators: dim M_{r,D} - dim(M_{r-1,D} + W*M_{r,D-1}).  Relations: the
    minimal generators of the kernel of the presentation G_r (x) R -> M_r/M_{r-1}.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    engine = veronese_engine(ctx, r)

    def compute(q):
        engine.at(q)
        # M_{r,D} = M_{r-1,D} + G_r*R_{D-r}: for D > r that lies in
        # M_{r-1,D} + W*M_{r,D-1}, and for D < r M_{r,D} = M_{r-1,D}, so the
        # generators sit in degree r, where they are the image of G_r in N_r
        return {
            "generators": {D: engine.image_dim(r) if D == r else 0 for D in range(d_max + 1)},
            "relations": {D: engine.min_gens(D) for D in range(r, d_max + 1)},
        }

    return two_primes(seed, compute)


# ---------------------------------------------------------------------------
# The subspace variety inside the space of permanents


def _subspace_variables(m, n):
    """Parameter indices: h[i][k] (i < m, k < m-1), then z[(k,k'),(j,j')].

    Returns (hvar, zpairs1, zvar): the h indices, the pairs (k, k'), and
    the z indices.
    """
    hvar = {}
    for i in range(m):
        for k in range(m - 1):
            hvar[(i, k)] = len(hvar)
    zpairs1 = [(k, k2) for k in range(m - 1) for k2 in range(k, m - 1)]
    zpairs2 = [(j, j2) for j in range(n) for j2 in range(j, n)]
    zvar = {}
    for a in zpairs1:
        for b in zpairs2:
            zvar[(a, b)] = len(hvar) + len(zvar)
    return hvar, zpairs1, zvar


def _subspace_moves(m, n):
    """The `moves` of the parameters: rows permute h's rows, columns z's pairs (j, j')."""
    hvar, _, zvar = _subspace_variables(m, n)

    def moves(perms):
        rows, cols = perms
        out = [0] * (len(hvar) + len(zvar))
        for (i, k), v in hvar.items():
            out[v] = hvar[(rows[i], k)]
        for (a, (j, j2)), v in zvar.items():
            out[v] = zvar[(a, tuple(sorted((cols[j], cols[j2]))))]
        return out

    return moves


def subspace_parameterization(m, n):
    """Images of the y-coordinates under the incidence parameterization.

    The variety is the locus of elements of Sym^2(C^m) (x) Sym^2(C^n) lying
    in Sym^2(H) (x) Sym^2(C^n) for some hyperplane H.  Parameters: an
    m x (m-1) matrix h and z in Sym^2(C^{m-1}) (x) Sym^2(C^n).  Returns
    (images, weights, nvars): for each y-coordinate (i<=i', j<=j'), the
    polynomial in the nvars (h, z) variables, and its torus weight key.
    """
    hvar, zpairs1, zvar = _subspace_variables(m, n)
    nvars = len(hvar) + len(zvar)
    images = []
    weights = []
    ys = [((i, i2), (j, j2)) for i in range(m) for i2 in range(i, m) for j in range(n) for j2 in range(j, n)]
    for (i, i2), (j, j2) in ys:
        terms = {}
        for (k, k2) in zpairs1:
            zc = zvar[((k, k2), (j, j2))]
            # (h_i (.) h_i2) paired with z_{kk'}: symmetrized product
            combos = [(k, k2)] if k == k2 else [(k, k2), (k2, k)]
            for ka, kb in combos:
                exp = [0] * nvars
                exp[hvar[(i, ka)]] += 1
                exp[hvar[(i2, kb)]] += 1
                exp[zc] += 1
                key = pack(exp)
                terms[key] = terms.get(key, 0) + 1
        row_w = [0] * m
        row_w[i] += 1
        row_w[i2] += 1
        col_w = [0] * n
        col_w[j] += 1
        col_w[j2] += 1
        images.append(terms)
        weights.append((tuple(row_w), tuple(col_w)))
    return images, weights, nvars


def subspace_engine(m, n):
    """The engine of the pullback along the parameterization."""
    images, weights, nvars = subspace_parameterization(m, n)
    return GradedKernel(images, weights, nvars, _subspace_moves(m, n))


def subspace_variety_gens(m, n, d_max=None, seed=0):
    """Minimal generator counts, by degree, of the ideal of the subspace variety.

    The graded-kernel engine applied to the parameterization pullback: the
    kernel degree by degree, minus the span of shifted lower-degree kernel
    elements.
    """
    if d_max is None:
        d_max = m + 1
    dims = presentation_dims(subspace_engine(m, n), d_max, seed)
    return {d: min_gens for d, (_, min_gens) in dims.items()}
