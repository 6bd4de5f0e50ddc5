"""Degreewise linear-algebra witnesses: relation spaces, Koszul homology,
and presentations of the Veronese filtration quotients.

Everything is computed per torus-weight block: each minor/permanent (and
each generator used below) is homogeneous for the torus of GL(V1) x GL(V2),
so kernel and rank computations split into many small independent blocks.
A weight is the pair (row sums, column sums).  Products and matrices are
built once over the integers; kernels and ranks run modulo two seeded primes
through `two_primes`, which requires the two results to agree.
"""

import random
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial

from . import modlinalg
from .modlinalg import guard_nonzeros, nullspace_mod, rank_mod
from .polyring import (
    minors_basis,
    monomial,
    permanents_basis,
    poly_mul,
    x_weight,
)


def two_primes(seed, compute):
    """compute(p) at the two primes the seed draws; the results must agree."""
    p1, p2 = random.Random(seed).sample(modlinalg.PRIMES, 2)
    r1, r2 = compute(p1), compute(p2)
    if r1 != r2:
        raise ArithmeticError(f"results disagree at primes {p1} and {p2}: {r1} vs {r2}")
    return r1


def resolve_cap(cap):
    """The nonzero cap to apply: cap, or the configured default if it is None."""
    return modlinalg.DEFAULT_NONZERO_CAP if cap is None else cap


def generators_for(ctx, variant):
    if variant == "minors":
        return minors_basis(ctx)
    if variant == "permanents":
        return permanents_basis(ctx)
    raise ValueError(f"unknown variant {variant!r}")


def _weights_of(ctx, gens):
    """Torus weight of each generator; all its monomials share it."""
    return [x_weight(ctx, next(iter(g))) for g in gens]


def _wadd(w, delta):
    """Componentwise sum of weights."""
    return (
        tuple(a + b for a, b in zip(w[0], delta[0])),
        tuple(a + b for a, b in zip(w[1], delta[1])),
    )


def _wsub(w, delta):
    """Componentwise difference of weights, or None if any entry goes negative."""
    rows = tuple(a - b for a, b in zip(w[0], delta[0]))
    cols = tuple(a - b for a, b in zip(w[1], delta[1]))
    if any(x < 0 for x in rows + cols):
        return None
    return rows, cols


def _multiset_product(gens, ms, cache):
    """Product of the generators indexed by the sorted tuple ms, memoised.

    cache[()] holds the unit: the constant 1 with the zero exponent of the
    generators' length (a shorter one would truncate every product).
    poly_mul does not read its ring context, so none is needed here.
    """
    if ms not in cache:
        cache[ms] = poly_mul(None, _multiset_product(gens, ms[:-1], cache), gens[ms[-1]])
    return cache[ms]


def _shifted_rows(vectors, shift, col):
    """Lower-degree kernel vectors moved up by shift, as sparse rows.

    shift maps a source key of the vectors to a source key one degree up,
    and col numbers those keys (growing for keys it has not seen).  Entries
    are summed over the integers; rank_mod reduces them and drops zeros.
    """
    rows = []
    for vec in vectors:
        row = {}
        for key, c in vec.items():
            idx = col.setdefault(shift(key), len(col))
            row[idx] = row.get(idx, 0) + c
        rows.append(row)
    return rows


class _KernelPipeline:
    """Graded kernel and minimal generators of Sym(gens) -> polynomials.

    Source basis elements are multisets of generator indices, grouped into
    blocks by weight.  The products do not depend on the prime and are built
    once; the kernels are computed per prime.
    """

    def __init__(self, gens, weights, nvars):
        self.gens = gens
        self.weights = weights
        self.products = {(): {(0,) * nvars: 1}}

    def _blocks(self, d):
        blocks = {}
        for ms in combinations_with_replacement(range(len(self.gens)), d):
            w = self.weights[ms[0]]
            for k in ms[1:]:
                w = _wadd(w, self.weights[k])
            blocks.setdefault(w, []).append(ms)
        return blocks

    def kernel(self, d, p, cap):
        """Kernel vectors of Sym^d(gens) -> polynomials mod p, keyed by multiset."""
        vectors = []
        nnz = 0
        for members in self._blocks(d).values():
            # transposed orientation: rows indexed by monomials, columns by
            # multisets, so nullspace vectors live on the multisets
            rows = {}
            for i, ms in enumerate(members):
                for exp, c in _multiset_product(self.gens, ms, self.products).items():
                    rows.setdefault(exp, {})[i] = c
                    nnz += 1
            guard_nonzeros(nnz, "kernel matrix", cap)
            for vec in nullspace_mod(list(rows.values()), len(members), p):
                vectors.append({members[i]: v for i, v in vec.items()})
        return vectors

    def dims(self, d_max, p, cap):
        """{d: (dim ker_d, dim ker_d minus the rank of gens * ker_{d-1})}, mod p."""
        out = {}
        prev = []
        for d in range(1, d_max + 1):
            kd = self.kernel(d, p, cap)
            col = {}
            shifted = []
            for k in range(len(self.gens)):
                shifted += _shifted_rows(prev, lambda ms: tuple(sorted(ms + (k,))), col)
            out[d] = (len(kd), len(kd) - rank_mod(shifted, p))
            prev = kd
        return out


def presentation_dims(gens, weights, nvars, d_max, seed=0, cap=None):
    """Graded kernel and minimal-generator dimensions of Sym(gens) -> ring.

    gens are polynomials in nvars variables with the given torus weights.
    Returns {d: (kernel_dim, min_gen_dim)} for 1 <= d <= d_max.
    """
    pipe = _KernelPipeline(gens, weights, nvars)
    cap = resolve_cap(cap)
    return two_primes(seed, lambda p: pipe.dims(d_max, p, cap))


def relation_dims(ctx, variant, d_max, seed=0, cap=None):
    """Relations between the 2x2 minors (or permanents) of the generic matrix.

    For each degree d: the kernel dimension of Sym^d(W) -> S_{2d} and the
    dimension of the minimal generators of the relation ideal in degree d.
    """
    if d_max < 2:
        raise ValueError("d_max must be >= 2")
    gens = generators_for(ctx, variant)
    return presentation_dims(gens, _weights_of(ctx, gens), ctx.num_vars, d_max, seed, cap)


# ---------------------------------------------------------------------------
# Koszul homology H_1 of the quadric space W (or its permanent analogue)


def _monomials_of_degree(nvars, d):
    """Exponent tuples of total degree d."""
    if d == 0:
        yield (0,) * nvars
        return
    for split in combinations_with_replacement(range(nvars), d):
        exp = [0] * nvars
        for i in split:
            exp[i] += 1
        yield tuple(exp)


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

    Indexed by pairs (alpha, beta) of exponent vectors of size 2c on the rows
    and columns; the vector is sum over matrices A with row sums alpha and
    column sums beta of (2c)!/prod(A!) x^A.
    """
    D = 2 * c
    out = []
    for alpha in _compositions(D, ctx.m):
        for beta in _compositions(D, ctx.n):
            terms = {}
            for A in _matrices_with_margins(alpha, beta):
                coeff = factorial(D)
                exp = [0] * ctx.num_vars
                for i in range(ctx.m):
                    for j in range(ctx.n):
                        coeff //= factorial(A[i][j])
                        exp[ctx.x_index(i + 1, j + 1)] = A[i][j]
                terms[tuple(exp)] = coeff
            out.append(terms)
    return out


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


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _matrices_with_margins(alpha, beta):
    """Nonnegative integer matrices with given row and column sums."""
    m, n = len(alpha), len(beta)

    def rec(i, remaining_cols):
        if i == m:
            if all(x == 0 for x in remaining_cols):
                yield []
            return
        for row in _rows_with_sum(alpha[i], remaining_cols):
            new_cols = tuple(c - r for c, r in zip(remaining_cols, row))
            for rest in rec(i + 1, new_cols):
                yield [row] + rest

    yield from rec(0, tuple(beta))


def _rows_with_sum(total, caps):
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in _rows_with_sum(total - first, caps[1:]):
            yield (first,) + rest


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


def veronese_presentation_dims(ctx, variant, r, d_max, seed=0, cap=None):
    """Generator and first-relation dimensions of M_r/M_{r-1} by degree.

    Returns {"generators": {D: dim}, "relations": {D: dim}} for D <= d_max.
    Generators: dim M_{r,D} - dim(M_{r-1,D} + W*M_{r,D-1}).  Relations: the
    minimal generators of the kernel of the presentation G_r (x) R -> M_r/M_{r-1}.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    cap = resolve_cap(cap)
    gens = generators_for(ctx, variant)
    cache = {(): monomial(ctx, [])}
    spans = {}
    prev = []
    for D in range(0, d_max + 1):
        mr = _module_component(ctx, variant, r, D, cache, gens)
        sub = _module_component(ctx, variant, r - 1, D, cache, gens)
        sub += [poly_mul(ctx, w, f) for w in gens for f in prev]
        spans[D] = (
            _span_rows(mr, f"veronese M_r deg {D}", cap),
            _span_rows(sub, f"veronese submodule deg {D}", cap),
        )
        prev = mr
    matrices = _veronese_relation_matrices(ctx, variant, r, d_max, gens, cache, cap)

    def compute(p):
        return {
            "generators": {D: rank_mod(mr, p) - rank_mod(sub, p) for D, (mr, sub) in spans.items()},
            "relations": _veronese_relations(matrices, len(gens), p),
        }

    return two_primes(seed, compute)


def _veronese_relation_matrices(ctx, variant, r, d_max, gens, cache, cap):
    """Integer matrices of the presentation G_r (x) R -> M_r/M_{r-1}, by degree.

    For each D: the source pairs (generator index, multiset of quadrics) and
    the matrix with one row per monomial; the columns after the source carry
    the spanning vectors of M_{r-1,D}, so kernels are taken modulo it.
    """
    gspace = filtration_generator_space(ctx, variant, r)
    out = {}
    for D in range(r, d_max + 1):
        source = [
            (gi, ms)
            for gi in range(len(gspace))
            for ms in combinations_with_replacement(range(len(gens)), D - r)
        ]
        polys = [poly_mul(ctx, gspace[gi], _multiset_product(gens, ms, cache)) for gi, ms in source]
        polys += _module_component(ctx, variant, r - 1, D, cache, gens)
        rows = {}
        for i, f in enumerate(polys):
            for exp, c in f.items():
                rows.setdefault(exp, {})[i] = c
        guard_nonzeros(sum(map(len, polys)), f"veronese relations deg {D}", cap)
        out[D] = (source, list(rows.values()), len(polys))
    return out


def _veronese_relations(matrices, n_gens, p):
    """Minimal generators, by degree, of the presentation kernel mod p."""
    rel = {}
    prev = None
    for D, (source, rows, ncols) in matrices.items():
        # kernel vectors projected onto the source columns
        null = nullspace_mod(rows, ncols, p)
        z = [{i: c for i, c in vec.items() if i < len(source)} for vec in null]
        rel[D] = rank_mod(z, p)
        if prev is not None:
            # the spanning set of Z_{D-1} times each quadric, re-indexed
            prev_z, prev_source = prev
            col = {s: i for i, s in enumerate(source)}
            shifted = []
            for k in range(n_gens):
                shift = lambda i: (prev_source[i][0], tuple(sorted(prev_source[i][1] + (k,))))
                shifted += _shifted_rows(prev_z, shift, col)
            rel[D] -= rank_mod(shifted, p)
        prev = z, source
    return rel


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



def subspace_variety_gens(m, n, d_max=None, seed=0, cap=None):
    """Minimal generator counts, by degree, of the ideal of the subspace variety.

    The presentation pipeline applied to the parameterization pullback:
    the kernel degree by degree, minus the span of shifted lower-degree
    kernel elements.
    """
    if d_max is None:
        d_max = m + 1
    images, weights, nvars, _ = subspace_parameterization(m, n)
    dims = presentation_dims(images, weights, nvars, d_max, seed, cap)
    return {d: min_gens for d, (_, min_gens) in dims.items()}
