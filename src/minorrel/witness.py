"""Degreewise linear-algebra witnesses: relation spaces, Koszul homology,
and presentations of the Veronese filtration quotients.

Everything is computed per torus-weight block: each minor/permanent (and
each generator used below) is homogeneous for the torus of GL(V1) x GL(V2),
so kernel and rank computations split into many small independent blocks.
A weight is the pair (row sums, column sums), packed into one int
(`polyring.pack_weight`); `koszul_h1_blocks` keys its result by the pairs.
The relation ideals, the subspace variety and the Veronese relations are
instances of the graded kernel engine in `rees`, each engine built for one
modulus q.  Koszul homology is a pair of ranks per block, keyed by
dominant weights: each per-weight dimension is constant on S_m x S_n
orbits, and `rees.orbit_total` gives the total; at m = n only one block of
each transposed pair is built; one `koszul_h1_blocks` call serves every
degree of a task from one set of weight tables.  Each witness takes the
modulus q last; it builds products and matrices over the integers and
takes kernels and ranks mod q, using q only through ring operations, zero
tests and `modlinalg`'s eliminations, so a run at p1 * p2 (`tasks.run`) is
the run at each prime.
"""

from itertools import combinations, product
from math import factorial

from .modlinalg import rank_mod
from .polyring import generators_for, guard_degree, pack, poly_mul, unpack
from .polyring import pack_weight, unpack_weight, weight_guards, weight_sub
from .rees import GradedKernel, _by_mirror, _monomials, _padded_partitions, _positions
from .rees import _weights_of, matrix_moves


def presentation_dims(engine, d_max):
    """{d: (kernel_dim, min_gen_dim)} for 1 <= d <= d_max, from the engine."""
    return {d: (engine.kernel_dim(d), engine.min_gens(d)) for d in range(1, d_max + 1)}


def relation_engine(ctx, variant, q):
    """The engine of Sym(W) -> polynomials mod q, W the minors or permanents."""
    gens = generators_for(ctx, variant)
    weights = _weights_of(ctx, gens)
    return GradedKernel(gens, weights, (ctx.m, ctx.n), ctx.num_vars, matrix_moves(ctx), q)


def relation_dims(ctx, variant, d_max, q):
    """Relations between the 2x2 minors (or permanents) of the generic matrix.

    For each degree d: the kernel dimension of Sym^d(W) -> S_{2d} and the
    dimension of the minimal generators of the relation ideal in degree d.
    """
    if d_max < 2:
        raise ValueError("d_max must be >= 2")
    return presentation_dims(relation_engine(ctx, variant, q), d_max)


# ---------------------------------------------------------------------------
# Koszul homology H_1 of the quadric space W (or its permanent analogue)


def _group(pairs):
    """{w: [x, ...]} of the pairs (x, w), in their order."""
    out = {}
    for x, w in pairs:
        out.setdefault(w, []).append(x)
    return out


def _fits(w, groups, guards):
    """(w - delta, members) for each delta of groups that w - delta stays nonnegative."""
    for delta, members in groups.items():
        rest = weight_sub(w, delta, guards)
        if rest is not None:
            yield rest, members


def _koszul_basis(w, gens_at, monos, guards):
    """The basis of W (x) S_{d-2} at w: (x^a, k) with wt(a) + wt(k) = w, sorted.

    gens_at and monos group the generators and the monomials of degree
    d - 2 by weight.  The (monomial, generator) order numbers d2's columns,
    and keeps the fill-in of its elimination small.
    """
    return sorted(
        (exp, k)
        for rest, ks in _fits(w, gens_at, guards)
        for k in ks
        for exp in monos.get(rest, ())
    )


def _koszul_d2(gens, col, found):
    """The rows of d2: e_k ^ e_l (x) x^b -> w_l x^b e_k - w_k x^b e_l, for k < l.

    found lists (monomials x^b, pairs (k, l)), one entry per weight of the
    pairs, in the order of the rows; col numbers the basis of
    W (x) S_{d-2}, (x^a, k) for x^a e_k.
    """
    rows = []
    for mexps, kls in found:
        for mexp in mexps:
            for k, l in kls:
                row = {}
                for e2, c in gens[l].items():
                    row[col[e2 + mexp, k]] = c
                for e2, c in gens[k].items():
                    row[col[e2 + mexp, l]] = -c
                rows.append(row)
    return rows


def koszul_h1_blocks(ctx, variant, d_max, q):
    """H_1 of the Koszul complex of W in each degree 2 <= d <= d_max, at dominant weights.

    Returns {d: {weight: dim}}, each inner dict over the dominant weights
    (row sums and column sums both non-increasing) where H_1 is nonzero in
    degree d, each weight the pair (row sums, column sums).  Permuting rows
    and columns maps the bases of W (x) S_{d-2} and W^W (x) S_{d-4} to
    themselves up to sign, so H_1 at any weight equals H_1 at the dominant
    weight of its orbit, and `rees.orbit_total` of a degree's dict is the
    total dimension.  At m = n so does the transpose, so H_1 at (lam, mu) is
    H_1 at (mu, lam): only the side `rees._by_mirror` keeps is built.  The
    dominant weights are enumerated directly, as the pairs of partitions of
    d padded to m and n parts, and one whose W (x) S_{d-2} basis is empty is
    skipped.

    One call serves a task: the generators, the pairs k < l and the
    monomials of each degree up to d_max - 2 are grouped by weight once, for
    all degrees.  Each block is then built over the integers and ranked mod
    q in turn, so only one block is held at a time: d1 first, and d2 only
    where ker d1 is not zero.
    """
    if d_max < 2:
        raise ValueError("d_max must be >= 2")
    guard_degree(d_max, "Koszul complex")
    gens = generators_for(ctx, variant)
    gw = _weights_of(ctx, gens)
    gens_at = _group(enumerate(gw))
    pairs_at = _group((kl, gw[kl[0]] + gw[kl[1]]) for kl in combinations(range(len(gens)), 2))
    pair_pos = {delta: i for i, delta in enumerate(pairs_at)}
    pair_groups = list(pairs_at.values())
    # the top degree, the largest, is grouped as it is made
    monos = [_group(level) for level in _monomials(ctx, d_max - 2)]
    guards = weight_guards(ctx.m, ctx.n)
    out = {}
    for d in range(2, d_max + 1):
        mono2 = monos[d - 2]
        mono4 = monos[d - 4] if d >= 4 else {}
        # the block built for each dominant weight: itself, or at m = n maybe its mirror
        doms = sorted(product(_padded_partitions(d, ctx.m), _padded_partitions(d, ctx.n)))
        rep = {dom: dom[::-1] if _by_mirror(*dom, ctx.m == ctx.n) else dom for dom in doms}
        h1 = {}
        for dom in doms:
            if rep[dom] != dom:
                continue
            w = pack_weight(dom)
            basis = _koszul_basis(w, gens_at, mono2, guards)
            if not basis:
                continue
            # d1: (x^a, k) -> w_k x^a, one column per monomial of degree d,
            # so its rank is at most the number of monomials
            mono_col = {}
            d1 = []
            for exp, k in basis:
                row = {}
                for e2, c in gens[k].items():
                    row[mono_col.setdefault(e2 + exp, len(mono_col))] = c
                d1.append(row)
            h1[dom] = len(basis) - rank_mod(d1, q, stop=len(mono_col))
            # d1 d2 = 0, so rank d2 stops at dim ker d1 = h1[dom], and d2 is
            # built only where that is not 0; its rows come in pair-table
            # order, then monomial, then pair
            if not h1[dom]:
                continue
            found = sorted(
                (pair_pos[rest], mexps)
                for bw, mexps in mono4.items()
                if (rest := weight_sub(w, bw, guards)) in pair_pos
            )
            if found:
                col = {kx: i for i, kx in enumerate(basis)}
                d2 = _koszul_d2(gens, col, [(mexps, pair_groups[i]) for i, mexps in found])
                h1[dom] -= rank_mod(d2, q, stop=h1[dom])
        out[d] = {dom: h1[rep[dom]] for dom in doms if h1.get(rep[dom])}
    return out


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
    *_, top = _monomials(ctx, D)
    for key, w in top:
        coeff = factorial(D)
        for e in unpack(key, ctx.num_vars):
            coeff //= factorial(e)
        out.setdefault(w, {})[key] = coeff
    return list(out.values())


class VeroneseEngine(GradedKernel):
    """The Veronese instance, for the minors: the kernel of G_r (x) R -> M_r/M_{r-1}.

    Sources of degree D are pairs (index into the generator space G_r,
    multiset of D - r quadrics).  The kernel is taken modulo the spanning
    polynomials of M_{r-1,D} at the block's weight w: g * (product of the
    multiset) for g in G_c, c < r, and each multiset of D - c quadrics of
    weight w - wt(g).  So the image dimension in degree D is
    dim (M_r/M_{r-1})_D.
    """

    def __init__(self, ctx, r, q):
        gens = generators_for(ctx, "minors")
        weights = _weights_of(ctx, gens)
        super().__init__(gens, weights, (ctx.m, ctx.n), ctx.num_vars, matrix_moves(ctx), q)
        self.ctx, self.r = ctx, r
        self.gspace = filtration_generator_space(ctx, r)
        self.gweights = _weights_of(ctx, self.gspace)
        self.gindex = {w: gi for gi, w in enumerate(self.gweights)}
        self.gfields = [_positions(sum(unpack_weight(w, *self.shape), ())) for w in self.gweights]
        # (g, weight) of each G_c, c < r
        spaces = [filtration_generator_space(ctx, c) for c in range(r)]
        self.lower_spaces = [list(zip(g, _weights_of(ctx, g))) for g in spaces]

    def factors(self, D):
        return list(enumerate(self.gweights)), D - self.r

    def factor_map(self, move):
        # the generator space has one polynomial per weight, and a move
        # carries it to the one of the moved weight with sign +1
        fshift = self._move_shifts(move)[1].__getitem__
        return lambda gi: self.gindex[sum(map(fshift, self.gfields[gi]))]

    def image(self, source):
        gi, ms = source
        return poly_mul(self.ctx, self.gspace[gi], self.product(ms))

    def shifts(self, D):
        return self._generator_shifts(D - 1) if D > self.r else []

    def modulo(self, D, w):
        out = []
        for c, space in enumerate(self.lower_spaces[: D + 1]):
            for g, gw in space:
                rest = weight_sub(w, gw, self._guards)
                if rest is not None:
                    for ms in self.multisets(D - c, rest):
                        out.append(poly_mul(self.ctx, g, self.product(ms)))
        return out


def veronese_presentation_dims(ctx, r, d_max, q):
    """Generator and first-relation dimensions of M_r/M_{r-1} by degree, for the minors.

    Returns {"generators": {D: dim}, "relations": {D: dim}} for D <= d_max.
    Generators: dim M_{r,D} - dim(M_{r-1,D} + W*M_{r,D-1}).  Relations: the
    minimal generators of the kernel of the presentation G_r (x) R -> M_r/M_{r-1}.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    engine = VeroneseEngine(ctx, r, q)
    # M_{r,D} = M_{r-1,D} + G_r*R_{D-r}: for D > r that lies in
    # M_{r-1,D} + W*M_{r,D-1}, and for D < r M_{r,D} = M_{r-1,D}, so the
    # generators sit in degree r, where they are the image of G_r in N_r
    return {
        "generators": {D: engine.image_dim(r) if D == r else 0 for D in range(d_max + 1)},
        "relations": {D: engine.min_gens(D) for D in range(r, d_max + 1)},
    }


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
    """The `moves` of the parameters: rows permute h's rows, columns z's pairs (j, j').

    h acts on the rows only, so there is no transpose.
    """
    hvar, _, zvar = _subspace_variables(m, n)

    def moves(move):
        rows, cols, transposed = move
        if transposed:
            raise ValueError("the subspace parameterization has no transpose")
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
    polynomial in the nvars (h, z) variables, and its weight key.
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
        weights.append(pack_weight((row_w, col_w)))
    return images, weights, nvars


def subspace_engine(m, n, q):
    """The engine of the pullback along the parameterization, mod q."""
    images, weights, nvars = subspace_parameterization(m, n)
    return GradedKernel(images, weights, (m, n), nvars, _subspace_moves(m, n), q)


def subspace_variety_gens(m, n, d_max, q):
    """Minimal generator counts, by degree, of the ideal of the subspace variety.

    The graded-kernel engine applied to the parameterization pullback: the
    kernel degree by degree, minus the span of shifted lower-degree kernel
    elements.
    """
    dims = presentation_dims(subspace_engine(m, n, q), d_max)
    return {d: min_gens for d, (_, min_gens) in dims.items()}
