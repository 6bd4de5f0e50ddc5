"""Degreewise linear-algebra witnesses: relation spaces, Koszul homology,
and presentations of the Veronese filtration quotients.

Everything is computed per torus-weight block: each minor/permanent (and
each generator used below) is homogeneous for the torus of GL(V1) x GL(V2),
so kernel and rank computations split into many small independent blocks.
A weight is the pair (row sums, column sums).  The relation ideals, the
subspace variety and the Veronese relations are instances of the graded
kernel engine in `rees`.  Products and matrices are built once over the
integers; kernels and ranks run modulo two seeded primes through
`two_primes`, which requires the two results to agree.
"""

from itertools import combinations, combinations_with_replacement, permutations
from math import factorial

from .modlinalg import guard_nonzeros, rank_mod, resolve_cap, two_primes
from .polyring import monomial, poly_mul, x_weight
from .rees import (
    GradedKernel,
    _monomials_of_degree,
    _multiset_product,
    _wadd,
    _weights_of,
    _zero_weight,
    generators_for,
    shared_state,
)


def presentation_dims(engines, d_max, seed=0):
    """{d: (kernel_dim, min_gen_dim)} for 1 <= d <= d_max; engines(p) is the engine at p."""

    def compute(p):
        engine = engines(p)
        return {d: (engine.kernel_dim(d), engine.min_gens(d)) for d in range(1, d_max + 1)}

    return two_primes(seed, compute)


def relation_engines(ctx, variant, cap=None):
    """Engine of each prime for Sym(W) -> polynomials, W the minors or permanents."""
    gens = generators_for(ctx, variant)
    weights, zero, shared = _weights_of(ctx, gens), _zero_weight(ctx), shared_state(ctx.num_vars)
    return lambda p: GradedKernel(gens, weights, zero, p, cap, shared)


def relation_dims(ctx, variant, d_max, seed=0, cap=None):
    """Relations between the 2x2 minors (or permanents) of the generic matrix.

    For each degree d: the kernel dimension of Sym^d(W) -> S_{2d} and the
    dimension of the minimal generators of the relation ideal in degree d.
    """
    if d_max < 2:
        raise ValueError("d_max must be >= 2")
    return presentation_dims(relation_engines(ctx, variant, cap), d_max, seed)


# ---------------------------------------------------------------------------
# Koszul homology H_1 of the quadric space W (or its permanent analogue)


def koszul_h1_blocks(ctx, variant, d, seed=0, cap=None):
    """Weight-resolved H_1 dims of the Koszul complex of W in total degree d.

    Returns {weight: dim} where weight = (row sums, column sums); the total
    H_1 dimension is the sum of all values.  The boundary matrices are built
    once over the integers and ranked mod two seeded primes.
    """
    if d < 2:
        raise ValueError("degree must be >= 2")
    cap = resolve_cap(cap)
    gens = generators_for(ctx, variant)
    N = len(gens)
    gw = _weights_of(ctx, gens)
    # basis of W (x) S_{d-2}: (k, monomial); group by weight
    blocks = {}
    for k in range(N):
        for exp in _monomials_of_degree(ctx.num_vars, d - 2):
            blocks.setdefault(_wadd(gw[k], x_weight(ctx, exp)), []).append((k, exp))
    # boundary d1 images: w_k * x^exp, a polynomial of degree d
    d1rows = {}
    nnz = 0
    for w, members in blocks.items():
        colmap = {}
        rows = d1rows[w] = []
        for k, exp in members:
            row = {}
            for e2, c in gens[k].items():
                key = tuple(a + b for a, b in zip(e2, exp))
                row[colmap.setdefault(key, len(colmap))] = c
            nnz += len(row)
            rows.append(row)
        guard_nonzeros(nnz, "Koszul d1 matrix", cap)
    # boundary d2 images: for k<l and x^m of degree d-4:
    #   (k, w_l * m) with +coeffs and (l, w_k * m) with -coeffs
    d2rows = {}
    if d >= 4:
        pair_index = {w: {kv: i for i, kv in enumerate(members)} for w, members in blocks.items()}
        nnz2 = 0
        for k in range(N):
            for l in range(k + 1, N):
                w_kl = _wadd(gw[k], gw[l])
                for mexp in _monomials_of_degree(ctx.num_vars, d - 4):
                    w = _wadd(w_kl, x_weight(ctx, mexp))
                    idx = pair_index.get(w)
                    if idx is None:
                        continue
                    row = {}
                    for e2, c in gens[l].items():
                        row[idx[(k, tuple(a + b for a, b in zip(e2, mexp)))]] = c
                    for e2, c in gens[k].items():
                        row[idx[(l, tuple(a + b for a, b in zip(e2, mexp)))]] = -c
                    nnz2 += len(row)
                    d2rows.setdefault(w, []).append(row)
        guard_nonzeros(nnz2, "Koszul d2 matrix", cap)

    def compute(p):
        result = {}
        for w, members in blocks.items():
            h1 = len(members) - rank_mod(d1rows[w], p)
            if w in d2rows:
                h1 -= rank_mod(d2rows[w], p)
            if h1:
                result[w] = h1
        return result

    return two_primes(seed, compute)


# ---------------------------------------------------------------------------
# The Veronese filtration quotients M_r / M_{r-1}


def _sym_power_generators(ctx, c):
    """Basis of Sym^{2c}V1 (x) Sym^{2c}V2 inside the degree-2c polynomials.

    One vector per weight (alpha, beta) of degree 2c: the sum over the
    matrices A with row sums alpha and column sums beta of (2c)!/prod(A!) x^A.
    """
    D = 2 * c
    out = {}
    for exp in _monomials_of_degree(ctx.num_vars, D):
        coeff = factorial(D)
        for e in exp:
            coeff //= factorial(e)
        out.setdefault(x_weight(ctx, exp), {})[exp] = coeff
    return list(out.values())


def _wedge_power_generators(ctx, c):
    """Spanning set of wedge^{2c}V1 (x) wedge^{2c}V2: the 2c x 2c minors."""
    D = 2 * c
    out = []
    for rows in combinations(range(1, ctx.m + 1), D):
        for cols in combinations(range(1, ctx.n + 1), D):
            terms = {}
            for perm in permutations(range(D)):
                sign = 1
                for a in range(D):
                    for b in range(a + 1, D):
                        if perm[a] > perm[b]:
                            sign = -sign
                exp = [0] * ctx.num_vars
                for a in range(D):
                    exp[ctx.x_index(rows[a], cols[perm[a]])] += 1
                key = tuple(exp)
                terms[key] = terms.get(key, 0) + sign
            terms = {k: v for k, v in terms.items() if v}
            if terms:
                out.append(terms)
    return out


def filtration_generator_space(ctx, variant, c):
    """Generator space of the c-th filtration step as explicit polynomials."""
    if c == 0:
        return [monomial(ctx, [])]
    if variant == "minors":
        return _sym_power_generators(ctx, c)
    if variant == "permanents":
        return _wedge_power_generators(ctx, c)
    raise ValueError(f"unknown variant {variant!r}")


def _span_rows(polys, what, cap):
    """Integer coefficient rows of polys over one monomial numbering."""
    colmap = {}
    rows = [{colmap.setdefault(exp, len(colmap)): c for exp, c in f.items()} for f in polys]
    guard_nonzeros(sum(map(len, rows)), what, cap)
    return rows


def _module_component(ctx, variant, r, D, cache, gens):
    """Spanning polynomials of the degree-D piece of M_r (degree 2D in x)."""
    out = []
    for c in range(0, min(r, D) + 1):
        gspace = filtration_generator_space(ctx, variant, c)
        for ms in combinations_with_replacement(range(len(gens)), D - c):
            prod = _multiset_product(gens, ms, cache)
            for g in gspace:
                out.append(poly_mul(ctx, g, prod))
    return out


class _VeroneseRelations(GradedKernel):
    """The Veronese instance: the kernel of G_r (x) R -> M_r/M_{r-1}.

    Sources of degree D are pairs (index into the generator space G_r,
    multiset of D - r quadrics); lower[D] holds the spanning polynomials of
    M_{r-1,D} by weight, and the kernel is taken modulo them.
    """

    def __init__(self, ctx, r, gspace, gens, lower, prime, cap, shared):
        super().__init__(gens, _weights_of(ctx, gens), _zero_weight(ctx), prime, cap, shared)
        self.ctx, self.r, self.gspace, self.lower = ctx, r, gspace, lower

    def factors(self, D):
        weights = [x_weight(self.ctx, next(iter(g))) for g in self.gspace]
        return list(enumerate(weights)), D - self.r

    def image(self, source):
        gi, ms = source
        return poly_mul(self.ctx, self.gspace[gi], _multiset_product(self.gens, ms, self.products))

    def shifts(self, D):
        return self._generator_shifts(D - 1) if D > self.r else []

    def modulo(self, D, w):
        return self.lower[D].get(w, [])


def veronese_parts(ctx, variant, r, d_max, cap=None):
    """What veronese_presentation_dims needs, built once for both primes.

    Returns {D: (rows of M_{r,D}, rows of M_{r-1,D} + W*M_{r,D-1})} for
    D <= d_max, and engines(p), the engine at p of the presentation
    G_r (x) R -> M_r/M_{r-1}.
    """
    cap = resolve_cap(cap)
    gens = generators_for(ctx, variant)
    shared = shared_state(ctx.num_vars)
    spans, lower = {}, {}
    prev = []
    for D in range(0, d_max + 1):
        mr = _module_component(ctx, variant, r, D, shared[1], gens)
        sub = _module_component(ctx, variant, r - 1, D, shared[1], gens)
        lower[D] = {}
        for f in sub:
            lower[D].setdefault(x_weight(ctx, next(iter(f))), []).append(f)
        sub += [poly_mul(ctx, w, f) for w in gens for f in prev]
        spans[D] = (
            _span_rows(mr, f"veronese M_r deg {D}", cap),
            _span_rows(sub, f"veronese submodule deg {D}", cap),
        )
        prev = mr
    gspace = filtration_generator_space(ctx, variant, r)
    return spans, lambda p: _VeroneseRelations(ctx, r, gspace, gens, lower, p, cap, shared)


def veronese_presentation_dims(ctx, variant, r, d_max, seed=0, cap=None):
    """Generator and first-relation dimensions of M_r/M_{r-1} by degree.

    Returns {"generators": {D: dim}, "relations": {D: dim}} for D <= d_max.
    Generators: dim M_{r,D} - dim(M_{r-1,D} + W*M_{r,D-1}).  Relations: the
    minimal generators of the kernel of the presentation G_r (x) R -> M_r/M_{r-1}.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    spans, engines = veronese_parts(ctx, variant, r, d_max, cap)

    def compute(p):
        engine = engines(p)
        return {
            "generators": {D: rank_mod(mr, p) - rank_mod(sub, p) for D, (mr, sub) in spans.items()},
            "relations": {D: engine.min_gens(D) for D in range(r, d_max + 1)},
        }

    return two_primes(seed, compute)


# ---------------------------------------------------------------------------
# The subspace variety inside the space of permanents


def subspace_parameterization(m, n):
    """Images of the y-coordinates under the incidence parameterization.

    The variety is the locus of elements of Sym^2(C^m) (x) Sym^2(C^n) lying
    in Sym^2(H) (x) Sym^2(C^n) for some hyperplane H.  Parameters: an
    m x (m-1) matrix h and z in Sym^2(C^{m-1}) (x) Sym^2(C^n).  Returns
    (images, weights): for each y-coordinate (i<=i', j<=j'), the polynomial
    in the (h, z) variables, and its torus weight key.
    """
    # parameter variable indexing: h[i][k] (i < m, k < m-1), then z[(k,k'),(j,j')]
    hvar = {}
    for i in range(m):
        for k in range(max(m - 1, 0)):
            hvar[(i, k)] = len(hvar)
    zpairs1 = [(k, k2) for k in range(max(m - 1, 0)) for k2 in range(k, m - 1)]
    zpairs2 = [(j, j2) for j in range(n) for j2 in range(j, n)]
    zvar = {}
    for a in zpairs1:
        for b in zpairs2:
            zvar[(a, b)] = len(hvar) + len(zvar)
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
                key = tuple(exp)
                terms[key] = terms.get(key, 0) + 1
        terms = {k2: v for k2, v in terms.items() if v}
        row_w = [0] * m
        row_w[i] += 1
        row_w[i2] += 1
        col_w = [0] * n
        col_w[j] += 1
        col_w[j2] += 1
        images.append(terms)
        weights.append((tuple(row_w), tuple(col_w)))
    return images, weights, nvars, ys



def subspace_engines(m, n, cap=None):
    """Engine of each prime for the pullback along the parameterization."""
    images, weights, nvars, _ = subspace_parameterization(m, n)
    shared = shared_state(nvars)
    return lambda p: GradedKernel(images, weights, ((0,) * m, (0,) * n), p, cap, shared)


def subspace_variety_gens(m, n, d_max=None, seed=0, cap=None):
    """Minimal generator counts, by degree, of the ideal of the subspace variety.

    The graded-kernel engine applied to the parameterization pullback: the
    kernel degree by degree, minus the span of shifted lower-degree kernel
    elements.
    """
    if d_max is None:
        d_max = m + 1
    dims = presentation_dims(subspace_engines(m, n, cap), d_max, seed)
    return {d: min_gens for d, (_, min_gens) in dims.items()}
