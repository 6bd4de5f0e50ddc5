"""Independent oracles for the cross-checks in this directory.

None of this is reached from the minorrel command line; each function is a
second route to a quantity the package computes another way: exact rank
over the rationals (against modular rank), the kernel basis from the exact
reduced echelon form (against modular elimination in any row order), the
Weyl dimension formula (against Bott's algorithm), the Pieri rule (against
Littlewood-Richardson),
Littlewood-Richardson coefficients by tableau count, one nu at a time
(against the strip-built product), plethysm through the power-sum basis
(against Jacobi-Trudi), the geometric Tor bound with every plethysm and
Littlewood-Richardson product expanded in full and truncated only at the
end (against the products bounded to the rows Bott reads), the degrees of the
Lemma 4.4 cohomology from the same full expansions (against the sweep that
skips trivial factors zero by rank and reads per-side tables), span
dimensions of explicit polynomials, the 2x2
quadrics as sums of products of variables (against the one-formula
builder), Koszul homology at every torus weight (against the dominant
weights alone), the Veronese module M_r spanned in a whole degree and the
generator count by its span ranks (against the engine's weight blocks and
the M_{r-1} part it builds at one weight), the graded-kernel engine's
source basis listed at every weight at once (against buckets built weight
by weight from the multisets one size down), and its blocks eliminated
directly at any weight and ranked on all their source columns (against
transport from the dominant weight and the rank on the free columns).
The weights of these oracles are pairs (row sums, column sums) added and
subtracted entry by entry, against the package's packed weight keys.
Partitions bounded in length and part size are enumerated here, apart
from the package's unbounded `partitions_of`.

Symmetric functions are dicts mapping a partition to its coefficient, in
the Schur basis unless a name says power sums.

One helper is not an oracle: `at_two_primes` runs a witness under the
package's two-prime protocol, as a task does at seed 0 and the default
primes, for the tests that pin a witness's counts.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, zip_longest
from math import factorial
from operator import add, sub

from minorrel.bott import bott_projective
from minorrel.modlinalg import PRIMES, nullspace_mod, rank_mod, two_primes
from minorrel.partitions import canon, conjugate, partitions_of
from minorrel.polyring import generators_for, pack, pack_weight, poly_mul, unpack, unpack_weight
from minorrel.symfunc import plethysm_schur, schur_multiply
from minorrel.witness import VeroneseEngine, filtration_generator_space


def at_two_primes(witness, *args, **kwargs):
    """witness(*args, **kwargs, q=q) through two_primes at seed 0 and PRIMES."""
    return two_primes(0, PRIMES, lambda q: witness(*args, **kwargs, q=q))


def wadd(w, delta):
    """Componentwise sum of weights."""
    return tuple(map(add, w[0], delta[0])), tuple(map(add, w[1], delta[1]))


def wsub(w, delta):
    """Componentwise difference of weights, or None if any entry goes negative."""
    rows = tuple(map(sub, w[0], delta[0]))
    cols = tuple(map(sub, w[1], delta[1]))
    if min(rows) < 0 or min(cols) < 0:
        return None
    return rows, cols


def is_dominant(w):
    """Whether the row sums and the column sums of w are both non-increasing."""
    return all(a >= b for a, b in zip(w[0], w[0][1:])) and all(
        a >= b for a, b in zip(w[1], w[1][1:])
    )


def unpacked(f, nvars):
    """The polynomial f, keyed by exponent tuples instead of packed monomial keys."""
    return {unpack(exp, nvars): c for exp, c in f.items()}


def rank_exact(rows):
    """Exact rank over the rationals by sparse Gaussian elimination."""
    pivots = {}
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            c = min(row)
            if c in pivots:
                coef = row.pop(c)
                for cc, vv in pivots[c].items():
                    if cc == c:
                        continue
                    row[cc] = row.get(cc, 0) - coef * vv
                    if not row[cc]:
                        del row[cc]
            else:
                inv = 1 / row[c]
                row = {cc: vv * inv for cc, vv in row.items()}
                pivots[c] = row
                break
    return len(pivots)


def nullspace_exact(rows, ncols, p):
    """Right kernel basis of integer rows, from the exact reduced echelon form, mapped mod p.

    Gauss-Jordan elimination over the rationals, rows in the order given,
    pivoting on the leftmost nonzero column.  There is one vector per free
    column f, which comes first with value 1; its other keys are the pivot
    columns c below f with a nonzero entry, -R[c][f] read mod p.  This is
    the basis `nullspace_mod` returns, up to the order of the other keys.
    """
    pivots = {}  # col -> reduced row with pivot 1 there
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        for c, prow in pivots.items():
            coef = row.pop(c, 0)
            for cc, vv in prow.items():
                if cc != c:
                    row[cc] = row.get(cc, 0) - coef * vv
        row = {c: v for c, v in row.items() if v}
        if row:
            c = min(row)
            inv = 1 / row[c]
            row = {cc: vv * inv for cc, vv in row.items()}
            for other in pivots.values():
                coef = other.pop(c, 0)
                for cc, vv in row.items():
                    if cc != c:
                        other[cc] = other.get(cc, 0) - coef * vv
                for cc in [cc for cc, vv in other.items() if not vv]:
                    del other[cc]
            pivots[c] = row
    basis = []
    for f in range(ncols):
        if f not in pivots:
            vec = {f: 1}
            for c in sorted(pivots):
                v = pivots[c].get(f, 0)
                if v:
                    vec[c] = -v.numerator * pow(v.denominator, -1, p) % p
            basis.append(vec)
    return basis


def coefficient_rows(polys):
    """Integer coefficient rows of polynomials over one monomial numbering."""
    cols = {}
    return [{cols.setdefault(exp, len(cols)): c for exp, c in f.items()} for f in polys]


def span_dimension(polys):
    """Dimension of the linear span of polynomials, by exact rank."""
    return rank_exact(coefficient_rows(polys))


def quadrics_by_products(ctx, variant):
    """The 2x2 minors or permanents, each built as a sum of two products.

    x[i1,j1]*x[i2,j2] plus x[i1,j2]*x[i2,j1], the second negated for the
    minors, each product of single-variable monomials taken by poly_mul;
    index pairs strict for the minors and weak for the permanents.  The
    quadrics come keyed by exponent tuples.
    """
    strict, sign = {"minors": (1, -1), "permanents": (0, 1)}[variant]

    def x(i, j, c=1):
        exp = [0] * ctx.num_vars
        exp[i * ctx.n + j] = 1
        return {pack(exp): c}

    out = []
    for i1 in range(ctx.m):
        for i2 in range(i1 + strict, ctx.m):
            for j1 in range(ctx.n):
                for j2 in range(j1 + strict, ctx.n):
                    f = poly_mul(ctx, x(i1, j1), x(i2, j2))
                    for exp, c in poly_mul(ctx, x(i1, j2), x(i2, j1, sign)).items():
                        f[exp] = f.get(exp, 0) + c
                    out.append(unpacked(f, ctx.num_vars))
    return out


def weyl_dim_weight(w):
    """Weyl dimension formula for an arbitrary integer weight sequence.

    For dominant weights this is dim S_w(C^len(w)); for arbitrary sequences it
    equals the signed Euler characteristic produced by the dotted Weyl action
    (zero when the shifted weight has a repeated entry).
    """
    n = len(w)
    val = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            val *= Fraction(w[i] - w[j] + j - i, j - i)
    assert val.denominator == 1
    return int(val)


def contains(mu, lam):
    """True iff the diagram of mu contains the diagram of lam."""
    return all(m >= l for m, l in zip_longest(mu, lam, fillvalue=0))


@lru_cache(maxsize=None)
def lr_coefficient(nu, lam, mu):
    """c^nu_{lam,mu}: number of LR skew tableaux of shape nu/lam and content mu.

    Cells are filled in reverse reading order (rows top to bottom, each row
    right to left), which turns the lattice-word condition into a running
    prefix check on the entry counts.
    """
    nu, lam, mu = canon(nu), canon(lam), canon(mu)
    if sum(nu) != sum(lam) + sum(mu) or not contains(nu, lam) or not contains(nu, mu):
        return 0
    cells = []
    for i in range(len(nu)):
        lo = lam[i] if i < len(lam) else 0
        for j in range(nu[i] - 1, lo - 1, -1):
            cells.append((i, j))
    counts = [0] * (len(mu) + 1)
    grid = {}
    nmu = len(mu)

    def rec(idx):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        total = 0
        right = grid.get((i, j + 1))
        above = grid.get((i - 1, j))
        hi = right if right is not None else nmu
        for e in range(1, hi + 1):
            if counts[e] >= mu[e - 1]:
                continue
            if above is not None and e <= above:
                continue
            if e > 1 and counts[e] + 1 > counts[e - 1]:
                continue
            counts[e] += 1
            grid[(i, j)] = e
            total += rec(idx + 1)
            counts[e] -= 1
        grid.pop((i, j), None)
        return total

    return rec(0)


def is_horizontal_strip(mu, lam):
    """True iff mu/lam is a horizontal strip: mu_i >= lam_i >= mu_{i+1}."""
    for i in range(max(len(mu), len(lam))):
        mi = mu[i] if i < len(mu) else 0
        li = lam[i] if i < len(lam) else 0
        mnext = mu[i + 1] if i + 1 < len(mu) else 0
        if not (mi >= li >= mnext):
            return False
    return True


def bounded_partitions(n, max_parts, max_part):
    """Partitions of n with at most max_parts parts, each at most max_part."""
    if n == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in bounded_partitions(n - first, max_parts - 1, first):
            yield (first,) + rest


def pieri(lam, d, kind="row"):
    """Pieri rule: s_lam * h_d for kind "row", s_lam * e_d for kind "column"."""
    lam = canon(lam)
    if kind == "column":
        return {conjugate(k): v for k, v in pieri(conjugate(lam), d, "row").items()}
    if kind != "row":
        raise ValueError(f"unknown Pieri kind {kind!r}")
    return {
        mu: 1
        for mu in bounded_partitions(sum(lam) + d, len(lam) + 1, sum(lam) + d)
        if is_horizontal_strip(mu, lam)
    }


# ---------------------------------------------------------------------------
# Plethysm through the power-sum basis (Murnaghan-Nakayama)


def _border_strip_height(lam, nu):
    """Height of the border strip lam/nu, or None if it is not one.

    A border strip is a connected skew shape containing no 2x2 square:
    consecutive occupied rows must overlap in exactly one column.
    """
    if not contains(lam, nu):
        return None
    rows = []
    for i in range(len(lam)):
        lo = nu[i] if i < len(nu) else 0
        if lam[i] > lo:
            rows.append((i, lo, lam[i] - 1))
    if not rows:
        return None
    for (i1, a1, _b1), (i2, _a2, b2) in zip(rows, rows[1:]):
        if i2 != i1 + 1 or b2 != a1:
            return None
    return len(rows) - 1


def _border_strips(lam, length):
    """All (nu, height) with lam/nu a border strip of the given length."""
    rest = sum(lam) - length
    if rest < 0 or not lam:
        return []
    out = []
    for nu in bounded_partitions(rest, len(lam), lam[0]):
        h = _border_strip_height(lam, nu)
        if h is not None:
            out.append((nu, h))
    return out


@lru_cache(maxsize=None)
def sn_character(lam, rho):
    """Symmetric group character chi^lam(rho) via Murnaghan-Nakayama."""
    lam, rho = canon(lam), canon(rho)
    if sum(lam) != sum(rho):
        raise ValueError("size mismatch")
    if not rho:
        return 1
    total = 0
    for nu, height in _border_strips(lam, rho[0]):
        total += (-1) ** height * sn_character(nu, rho[1:])
    return total


def z_rho(rho):
    """Order of the centralizer of a permutation of cycle type rho."""
    z = 1
    for part, m in Counter(rho).items():
        z *= part**m * factorial(m)
    return z


def _nonzero(f):
    return {k: v for k, v in f.items() if v}


def to_power_basis(f):
    """Schur basis -> power-sum basis: s_lam = sum_rho chi^lam(rho) / z_rho p_rho."""
    out = {}
    for lam, c in f.items():
        for rho in partitions_of(sum(lam)):
            out[rho] = out.get(rho, 0) + c * Fraction(sn_character(lam, rho), z_rho(rho))
    return _nonzero(out)


def from_power_basis(f):
    """Power-sum basis -> Schur basis: p_rho = sum_lam chi^lam(rho) s_lam."""
    out = {}
    for rho, c in f.items():
        for lam in partitions_of(sum(rho)):
            out[lam] = out.get(lam, 0) + c * sn_character(lam, rho)
    return _nonzero(out)


def _power_multiply(f, g):
    out = {}
    for r1, c1 in f.items():
        for r2, c2 in g.items():
            key = tuple(sorted(r1 + r2, reverse=True))
            out[key] = out.get(key, 0) + c1 * c2
    return out


@lru_cache(maxsize=None)
def plethysm_power_sum(outer, inner):
    """s_outer[s_inner] by power-sum substitution p_k[g] = g(p_m -> p_{km}).

    Works for any inner.  Returns a dict partition -> int, and raises
    ArithmeticError unless every coefficient is a nonnegative integer, as
    the plethysm of two Schur functions must be.
    """
    gp = to_power_basis({canon(inner): 1})
    acc = {}
    for sigma, c in to_power_basis({canon(outer): 1}).items():
        term = {(): 1}
        for k in sigma:
            subbed = {tuple(k * m for m in rho): v for rho, v in gp.items()}
            term = _power_multiply(term, subbed)
        for rho, v in term.items():
            acc[rho] = acc.get(rho, 0) + c * v
    result = from_power_basis(acc)
    for lam, v in result.items():
        if v.denominator != 1 or v < 0:
            raise ArithmeticError(f"plethysm gave coefficient {v} at {lam}")
    return {lam: int(v) for lam, v in result.items()}


# ---------------------------------------------------------------------------
# The geometric Tor bound from untruncated symmetric functions


def tor_geometric_untruncated(i, r, m, n):
    """{degree: {(lam, mu): mult}} of bott.tor_geometric, from full expansions.

    H^j of L^{2r} (x) wedge^u(xi_1) (x) wedge^v(xi_2), u + v = i + j, summed
    over the Cauchy summands alpha |- u, beta |- v: S_alpha(S_11 V1) (x)
    S_beta(S_11 R_1) (x) S_alpha'(S_11 R_2) S_beta'(R_2) (x) Q_2^v.  Every
    plethysm and product is expanded in full; a weight too long for its
    bundle is dropped only where Bott reads it, and a GL(V1) term only
    after the trivial factor is folded in.
    """
    out = {}
    for j in range(m + n - 1):
        acc = {}
        for u in range(i + j + 1):
            v = i + j - u
            for alpha in partitions_of(u):
                triv = plethysm_schur(alpha, (1, 1))
                a_right = plethysm_schur(conjugate(alpha), (1, 1))
                for beta in partitions_of(v):
                    r2 = Counter()
                    for lam, c in a_right.items():
                        for mu, c_mu in schur_multiply(lam, conjugate(beta)).items():
                            r2[mu] += c * c_mu
                    for lam, c_lam in plethysm_schur(beta, (1, 1)).items():
                        if len(lam) > m - 1:
                            continue
                        left = bott_projective(m, 2 * r, lam)
                        if left is None:
                            continue
                        a, w1 = left
                        for mu, c_mu in r2.items():
                            if len(mu) > n - 1:
                                continue
                            right = bott_projective(n, 2 * r + v, mu)
                            if right is None or a + right[0] != j:
                                continue
                            for gam, c_gam in triv.items():
                                for nu, c_f in schur_multiply(gam, w1).items():
                                    if len(nu) <= m:
                                        key = (nu, canon(right[1]))
                                        acc[key] = acc.get(key, 0) + (
                                            c_lam * c_mu * c_gam * c_f
                                        )
        acc = {key: c for key, c in acc.items() if c}
        if acc:
            out[r + i + j] = acc
    return out


def cohomology_degrees_untruncated(u, v, r, m, n):
    """The degrees j with H^j(X, L^{2r} (x) wedge^u(xi_1) (x) wedge^v(xi_2)) nonzero.

    The Cauchy summands of tor_geometric_untruncated, from full expansions
    and without the fold: a summand counts when its trivial factor, the
    full S_alpha(S_11) restricted to m rows, is nonzero, and contributes
    degree a + b for every Bott degree a of its V1 side and b of its V2
    side.  Every multiplicity is positive, so no two summands cancel.
    """
    degrees = set()
    for alpha in partitions_of(u):
        if not any(len(gam) <= m for gam in plethysm_schur(alpha, (1, 1))):
            continue
        a_right = plethysm_schur(conjugate(alpha), (1, 1))
        for beta in partitions_of(v):
            r2 = Counter()
            for lam, c in a_right.items():
                for mu, c_mu in schur_multiply(lam, conjugate(beta)).items():
                    r2[mu] += c * c_mu
            left = {
                bott_projective(m, 2 * r, lam)
                for lam in plethysm_schur(beta, (1, 1))
                if len(lam) <= m - 1
            }
            right = {bott_projective(n, 2 * r + v, mu) for mu in r2 if len(mu) <= n - 1}
            degrees |= {
                a[0] + b[0] for a in left if a is not None for b in right if b is not None
            }
    return degrees


# ---------------------------------------------------------------------------
# Koszul homology at every torus weight


def koszul_h1_full_weight(ctx, variant, d, p):
    """{weight: dim H_1} of the Koszul complex of W in degree d, at one prime.

    Builds and ranks the block of every weight, dominant or not; weights
    where H_1 vanishes are left out.  Monomials are exponent tuples here,
    and their sums and weights are taken entry by entry.
    """
    nvars, n = ctx.num_vars, ctx.n
    weight = lambda exp: (
        tuple(sum(exp[i * n : i * n + n]) for i in range(ctx.m)),
        tuple(sum(exp[j::n]) for j in range(n)),
    )
    gens = [unpacked(f, nvars) for f in generators_for(ctx, variant)]
    gw = [weight(next(iter(g))) for g in gens]
    N = len(gens)
    monos = lambda deg: [
        tuple(split.count(v) for v in range(nvars))
        for split in combinations_with_replacement(range(nvars), deg)
    ]
    # basis of W (x) S_{d-2}: (k, monomial); group by weight
    blocks = {}
    for k in range(N):
        for exp in monos(d - 2):
            blocks.setdefault(wadd(gw[k], weight(exp)), []).append((k, exp))
    # boundary d1 images: w_k * x^exp, a polynomial of degree d
    d1rows = {}
    for w, members in blocks.items():
        colmap = {}
        rows = d1rows[w] = []
        for k, exp in members:
            row = {}
            for e2, c in gens[k].items():
                key = tuple(a + b for a, b in zip(e2, exp))
                row[colmap.setdefault(key, len(colmap))] = c
            rows.append(row)
    # boundary d2 images: for k<l and x^m of degree d-4:
    #   (k, w_l * m) with +coeffs and (l, w_k * m) with -coeffs
    d2rows = {}
    if d >= 4:
        pair_index = {w: {kv: i for i, kv in enumerate(members)} for w, members in blocks.items()}
        for k in range(N):
            for l in range(k + 1, N):
                w_kl = wadd(gw[k], gw[l])
                for mexp in monos(d - 4):
                    w = wadd(w_kl, weight(mexp))
                    idx = pair_index.get(w)
                    if idx is None:
                        continue
                    row = {}
                    for e2, c in gens[l].items():
                        row[idx[(k, tuple(a + b for a, b in zip(e2, mexp)))]] = c
                    for e2, c in gens[k].items():
                        row[idx[(l, tuple(a + b for a, b in zip(e2, mexp)))]] = -c
                    d2rows.setdefault(w, []).append(row)
    result = {}
    for w, members in blocks.items():
        h1 = len(members) - rank_mod(d1rows[w], p) - rank_mod(d2rows.get(w, []), p)
        if h1:
            result[w] = h1
    return result


# ---------------------------------------------------------------------------
# Veronese generators by whole-degree span ranks


def module_component(engine, r, D):
    """Spanning polynomials of the degree-D piece of M_r (degree 2D in x), at every weight."""
    out = []
    for c in range(0, min(r, D) + 1):
        gspace = filtration_generator_space(engine.ctx, c)
        for ms in combinations_with_replacement(range(len(engine.gens)), D - c):
            prod = engine.product(ms)
            for g in gspace:
                out.append(poly_mul(engine.ctx, g, prod))
    return out


def veronese_generators_by_span(ctx, r, d_max, p):
    """{D: dim M_{r,D} - dim(M_{r-1,D} + W*M_{r,D-1})} for D <= d_max, at one prime.

    The minimal generator count of N_r = M_r/M_{r-1} in each degree, from
    the explicit spanning polynomials of each whole degree, one matrix each,
    without weight blocks.
    """
    engine = VeroneseEngine(ctx, r, p)
    out = {}
    prev = []
    for D in range(d_max + 1):
        mr = module_component(engine, r, D)
        sub = module_component(engine, r - 1, D)
        sub += [poly_mul(ctx, w, f) for w in engine.gens for f in prev]
        out[D] = rank_mod(coefficient_rows(mr), p) - rank_mod(coefficient_rows(sub), p)
        prev = mr
    return out


# ---------------------------------------------------------------------------
# The graded-kernel engine's sources at every weight, and its blocks
# eliminated and ranked directly


def _weighted_multisets(weights, e):
    """(ms, weight of ms) for each sorted multiset ms of size e over range(len(weights)).

    They come in the order of combinations_with_replacement.  A depth-first
    stack carries the weight of each prefix, so each multiset costs one
    addition.
    """
    stack = [((), tuple((0,) * len(part) for part in weights[0]))]
    while stack:
        ms, w = stack.pop()
        if len(ms) == e:
            yield ms, w
            continue
        for k in range(len(weights) - 1, (ms[-1] if ms else 0) - 1, -1):
            stack.append((ms + (k,), wadd(w, weights[k])))


def _weights(engine, keys):
    """The engine's weight keys as pairs (row sums, column sums)."""
    return [unpack_weight(w, *engine.shape) for w in keys]


def _multisets_by_weight(engine, e):
    """{weight pair: [multiset]} of every sorted multiset of e of the engine's generators."""
    by_ms = {}
    for ms, w in _weighted_multisets(_weights(engine, engine.weights), e):
        by_ms.setdefault(w, []).append(ms)
    return by_ms


@lru_cache(maxsize=16)
def multisets_all_weights(engine, e):
    """{weight key: [multiset]} of every sorted multiset of e of the engine's generators."""
    return {pack_weight(w): group for w, group in _multisets_by_weight(engine, e).items()}


@lru_cache(maxsize=16)
def sources_all_weights(engine, grade):
    """Source basis of the engine's grade, bucketed by weight key, at every weight.

    Lists every multiset of the grade with every factor; the engine builds
    a bucket only where it reads one.  Each bucket comes by factor
    position, then in the order of combinations_with_replacement.
    """
    factors, e = engine.factors(grade)
    fweights = _weights(engine, [fw for _, fw in factors])
    multisets = _multisets_by_weight(engine, e)
    buckets = {}
    for (f, _), fw in zip(factors, fweights):
        for w, group in multisets.items():
            buckets.setdefault(wadd(fw, w), []).extend((f, ms) for ms in group)
    return {pack_weight(w): members for w, members in buckets.items()}


def kernel_block_direct(engine, grade, w):
    """Kernel vectors {source: coeff} of one block of the engine, at its prime.

    Builds and eliminates the block of weight w, dominant or not, modulo the
    engine's `modulo` polynomials; the engine itself eliminates only
    dominant blocks and transports their kernels across the orbit.
    """
    members = sources_all_weights(engine, grade).get(w, [])
    if not members:
        return []
    polys = engine.modulo(grade, w) + [engine.image(s) for s in members]
    skip = len(polys) - len(members)
    rows = {}
    for i, f in enumerate(polys):
        for exp, c in f.items():
            rows.setdefault(exp, {})[i] = c
    vectors = []
    for vec in nullspace_mod(list(rows.values()), len(polys), engine.p):
        vec = {members[i - skip]: c for i, c in vec.items() if i >= skip}
        if vec:
            vectors.append(vec)
    return vectors


def kernel_blocks_direct(engine):
    """kernel(grade, w): kernel_block_direct of the engine, each block eliminated once."""
    cache = {}

    def kernel(grade, w):
        if (grade, w) not in cache:
            cache[(grade, w)] = kernel_block_direct(engine, grade, w)
        return cache[(grade, w)]

    return kernel


def min_gens_full_columns(engine, grade, w, kernel):
    """Kernel dimension at (grade, w) minus the rank of the shifted lower kernels.

    kernel(grade, w) gives the kernel vectors of a block, for the block at w
    and the lower ones.  The rows keep every source column of the block and
    are ranked in full, with no early stop; the engine ranks them on the
    kernel's free sources and stops at the kernel dimension.  Each entry is
    shifted on its own, with none of the engine's row building.
    """
    col = {s: i for i, s in enumerate(sources_all_weights(engine, grade)[w])}
    shifted = []
    pair = unpack_weight(w, *engine.shape)
    for lower, delta, shift in engine.shifts(grade):
        w2 = wsub(pair, unpack_weight(delta, *engine.shape))
        if w2 is None:
            continue
        for vec in kernel(lower, pack_weight(w2)):
            row = {}
            for s, c in vec.items():
                i = col.get(shift(s))
                if i is not None:
                    row[i] = row.get(i, 0) + c
            shifted.append(row)
    return len(kernel(grade, w)) - rank_mod(shifted, engine.p)
