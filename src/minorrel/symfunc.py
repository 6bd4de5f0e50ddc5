"""Symmetric function arithmetic: Schur products, plethysm, Kostka numbers.

Symmetric functions are plain dicts mapping a partition to its integer
coefficient in the Schur basis.  A Littlewood-Richardson product is built
by strip generation: the letters of one factor go onto the other as
horizontal strips kept to the lattice condition, and each completed LR
filling counts once for its shape, so only shapes with a nonzero
coefficient are visited.  Plethysm with inner s_2 or s_{1,1} is
Jacobi-Trudi over the closed forms of h_k[h_2] and h_k[e_2].

Both take an optional row bound `rows` and then return only the s_nu with
at most that many rows.  Dropping every s_nu with more than k rows is
restriction to k variables, a ring homomorphism (Macdonald I.3), so a
truncated product is the product of the truncated factors truncated, and
the Jacobi-Trudi determinant, a polynomial identity, can be expanded with
every factor and every product truncated.  Since c^nu_{lam,mu} with at
most k rows in nu needs at most k rows in lam and in mu, the LR strip
simply places no box below row k.  Independent
oracles (expansion of Schur polynomials in finitely many variables, the
Pieri rule, LR coefficients by tableau count, plethysm through the
power-sum basis) live in the test suite.

Bivariate characters (for pairs of groups acting on a tensor product) are
plain dicts mapping (lam, mu) to an integer multiplicity; the wrapper class
lives in the birep module.
"""

from functools import lru_cache
from math import comb

from .partitions import canon, conjugate, partitions_of


# ---------------------------------------------------------------------------
# Littlewood-Richardson rule


@lru_cache(maxsize=None)
def _schur_multiply_cached(lam, mu, rows=None):
    """s_lam * s_mu as {nu: c^nu_{lam,mu}}, built from the LR fillings alone.

    Letters 1, 2, ... of the factor with fewer rows go onto the other one
    in turn, the copies of each letter as a horizontal strip: row i takes
    at most (old row i-1) - (row i) of them.  The lattice condition on the
    reverse reading word (rows top to bottom, each right to left) says that
    the k's in rows 0..i number at most the (k-1)'s in rows 0..i-1.  Each
    completed filling adds 1 to its shape, so only nu with c > 0 are seen
    (Macdonald I.9; Fulton, Young Tableaux, 5.2).  With a bound `rows` no
    box goes below that row, so only the nu with at most `rows` rows are
    seen, and a factor longer than the bound gives {}.
    """
    if len(lam) < len(mu):
        return _schur_multiply_cached(mu, lam, rows)
    depth = len(lam) + len(mu)
    if rows is not None:
        if rows >= depth:
            return _schur_multiply_cached(lam, mu)
        if len(lam) > rows:
            return {}
        depth = rows
    if not mu:
        return {lam: 1}
    shape = list(lam) + [0] * (depth - len(lam))
    out = {}

    def strip(k, i, left, slack, prev, cur):
        # letter k (from 0), row i: `left` copies still to place, the
        # lattice allows `slack` more in rows 0..i, and prev[j], cur[j] count
        # the letters k - 1 and k in row j
        if not left:
            if k + 1 < len(mu):
                strip(k + 1, 0, mu[k + 1], 0, cur, [0] * depth)
            else:
                nu = tuple(p for p in shape if p)
                out[nu] = out.get(nu, 0) + 1
            return
        if i == 0:
            room = left
        elif i == depth or shape[i - 1] == cur[i - 1]:
            return  # past the bound, or row i-1 was empty: no row from i on takes a box
        else:
            room = shape[i - 1] - cur[i - 1] - shape[i]
        for a in range(min(left, room, slack), -1, -1):
            shape[i] += a
            cur[i] = a
            strip(k, i + 1, left - a, slack - a + prev[i], prev, cur)
            shape[i] -= a
        cur[i] = 0

    # the first letter has no lattice bound: its slack is all its copies
    strip(0, 0, mu[0], mu[0], [0] * depth, [0] * depth)
    return out


def schur_multiply(lam, mu, rows=None):
    """Product s_lam * s_mu in the Schur basis, as a fresh dict.

    With `rows`, only the terms s_nu with at most that many rows.
    """
    return dict(_schur_multiply_cached(canon(lam), canon(mu), rows))


# ---------------------------------------------------------------------------
# Plethysm with inner s_2 = h_2 or s_{1,1} = e_2


@lru_cache(maxsize=None)
def _h_plethysm(k, inner):
    """h_k[s_inner] for inner (2) or (1, 1), as the partitions of its Schur terms.

    h_k[h_2] is the sum of s_{2 lam} and h_k[e_2] the sum of s_{(2 lam)'}
    over lam |- k, each with coefficient 1 (Macdonald, I.8 Ex. 6).
    """
    doubled = [tuple(2 * p for p in lam) for lam in partitions_of(k)]
    if inner == (1, 1):
        return tuple(conjugate(nu) for nu in doubled)
    return tuple(doubled)


@lru_cache(maxsize=None)
def plethysm_schur(outer, inner, rows=None):
    """Cached s_outer[s_inner] as a dict partition -> integer.

    Jacobi-Trudi gives s_alpha[g] = det(h_{alpha_i - i + j}[g]); the
    determinant is expanded by Laplace along its rows, memoised on the set
    of columns still free.  Only inner (2) and (1, 1) are supported.  With
    `rows`, only the terms with at most that many rows: each h_k[g] keeps
    the terms that fit and every product is bounded the same way; an outer
    longer than dim S_inner(C^rows) gives {} without Jacobi-Trudi.
    """
    outer, inner = canon(outer), canon(inner)
    if inner not in ((2,), (1, 1)):
        raise ValueError(f"plethysm needs inner (2) or (1, 1), got {inner}")
    # zero by rank: S_inner(C^rows) has dimension C(rows+1, 2) or C(rows, 2)
    if rows is not None and len(outer) > comb(rows + (inner == (2,)), 2):
        return {}

    @lru_cache(maxsize=None)
    def minor(cols):
        # rows len(outer) - len(cols), ..., len(outer) - 1 on the columns cols
        if not cols:
            return {(): 1}
        i = len(outer) - len(cols)
        acc = {}
        for pos, j in enumerate(cols):
            k = outer[i] - i + j
            if k < 0:
                continue
            sign = -1 if pos % 2 else 1
            rest = minor(cols[:pos] + cols[pos + 1 :])
            for lam in _h_plethysm(k, inner):
                if rows is not None and len(lam) > rows:
                    continue
                for mu, c in rest.items():
                    for nu, lr in _schur_multiply_cached(mu, lam, rows).items():
                        acc[nu] = acc.get(nu, 0) + sign * c * lr
        return {nu: c for nu, c in acc.items() if c}

    return minor(tuple(range(len(outer))))


# ---------------------------------------------------------------------------
# Kostka numbers: products of complete symmetric functions


@lru_cache(maxsize=None)
def _h_product(content):
    """h_{a_1} ... h_{a_k} in the Schur basis, one Pieri step per factor.

    s_lam * h_a is the sum of s_nu over nu/lam a horizontal a-strip, each
    with coefficient 1 (Macdonald I.5.16), so the keys of the LR product
    with (a,) are the next shapes.
    """
    if not content:
        return {(): 1}
    out = {}
    for lam, c in _h_product(content[:-1]).items():
        for nu in _schur_multiply_cached(lam, (content[-1],)):
            out[nu] = out.get(nu, 0) + c
    return out


def kostka(lam, content):
    """Number of semistandard tableaux of shape lam and the given content.

    K_{lam,alpha} is the coefficient of s_lam in h_{alpha_1} ... h_{alpha_k}
    (Macdonald I.6); the h's commute, so the content need not be sorted,
    and a zero part is a factor h_0 = 1.
    """
    return _h_product(tuple(a for a in content if a)).get(canon(lam), 0)


# ---------------------------------------------------------------------------
# Exterior powers of one bivariate summand


def wedge_power(lam, mu, k):
    """Exterior power Λ^k(S_lam(V1) (x) S_mu(V2)) as a bivariate character.

    Cauchy: Λ^k(A (x) B) is the sum over nu |- k of S_nu(A) (x) S_nu'(B)
    (Macdonald I.4.3'), so lam and mu must be inners that plethysm_schur
    supports, (2) or (1, 1).
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    out = {}
    for nu in partitions_of(k):
        right = plethysm_schur(conjugate(nu), mu)
        for a, ca in plethysm_schur(nu, lam).items():
            for b, cb in right.items():
                out[(a, b)] = out.get((a, b), 0) + ca * cb
    return out
