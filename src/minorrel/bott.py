"""Bott's theorem on projective space and the geometric syzygy computations.

Projective spaces here parameterize one-dimensional quotients: on P(V) with
dim V = n the tautological quotient Q is a line bundle and the sub R has rank
n-1.  A GL-weight (a, lam_1, ..., lam_{n-1}) encodes the bundle
Q^a (x) S_lam(R); the dotted Weyl algorithm produces its unique nonzero
cohomology group (or none).

The geometric Tor character reads the cohomology only on partitions with
at most m rows for GL(V1) and n for GL(V2), and Bott reads S_lam(R) only
for lam with at most rank R rows.  So every plethysm and Littlewood-
Richardson product on the way is computed truncated to the rows it is read
on (see symfunc): truncation to k rows is restriction to k variables, a
ring homomorphism, so nothing that is read changes.  Each distinct Bott
result, and each projective factor's table of them, is computed once per
process.
"""

from functools import lru_cache
from math import comb

from .birep import BiRep
from .partitions import canon, conjugate, partitions_of
from .symfunc import _schur_multiply_cached, plethysm_schur, schur_multiply


def bott_weight(w):
    """Dotted-weight algorithm on an arbitrary integer weight sequence.

    Returns (j, dominant_weight) where j is the unique cohomological degree
    with nonzero cohomology, or None when the shifted weight has a repeat.
    """
    n = len(w)
    v = [w[i] + (n - 1 - i) for i in range(n)]
    if len(set(v)) < n:
        return None
    inversions = sum(1 for i in range(n) for k in range(i + 1, n) if v[i] < v[k])
    v.sort(reverse=True)
    dominant = tuple(v[i] - (n - 1 - i) for i in range(n))
    return inversions, dominant


def bott_projective(n, a, lam):
    """Cohomology of Q^a (x) S_lam(R) on the projective space of quotients of C^n.

    Returns (j, weight) for the one degree j with nonzero cohomology (Bott
    dichotomy), or None when every degree vanishes.  The weight may have
    negative entries for very negative twists a; in all uses here it is a
    partition.
    """
    lam = canon(lam)
    if len(lam) > n - 1:
        raise ValueError(f"S_lam(R) needs at most {n - 1} parts, got {lam}")
    return bott_weight((a,) + lam + (0,) * (n - 1 - len(lam)))


@lru_cache(maxsize=None)
def _bott(n, a, lam):
    """bott_projective(n, a, lam), memoised; every route in the package reads Bott here."""
    return bott_projective(n, a, lam)


def _by_degree(n, a, terms):
    """{j: [(weight, multiplicity)]} of Bott on P^{n-1} for Q^a (x) S_lam(R), lam in terms."""
    out = {}
    for lam, c in terms.items():
        res = _bott(n, a, lam)
        if res is not None:
            j, w = res
            out.setdefault(j, []).append((w, c))
    return out


@lru_cache(maxsize=None)
def _left(beta, m, r):
    """Bott on P(V1) of Q_1^{2r} (x) S_beta(S_11 R_1) by degree, on rank R_1 rows."""
    return _by_degree(m, 2 * r, plethysm_schur(beta, (1, 1), rows=m - 1))


@lru_cache(maxsize=None)
def _right(alpha, beta_conj, n, a):
    """Bott on P(V2) of Q_2^a (x) S_alpha'(S_11 R_2) S_beta'(R_2) by degree, on rank R_2 rows."""
    terms = {}
    for lam, c in plethysm_schur(conjugate(alpha), (1, 1), rows=n - 1).items():
        # both factors are canonical and the product is only read: the
        # cached product, called positionally as plethysm_schur calls it
        for mu, c_mu in _schur_multiply_cached(lam, beta_conj, n - 1).items():
            terms[mu] = terms.get(mu, 0) + c * c_mu
    return _by_degree(n, a, terms)


@lru_cache(maxsize=None)
def _cohomology(u, v, r, m, n):
    """H^* of L^{2r} (x) wedge^u(xi_1) (x) wedge^v(xi_2) on X = P(V1) x P(V2).

    xi_1 = wedge^2(V1) (x) wedge^2(R_2) and xi_2 = wedge^2(R_1) (x) (R_2 (x) Q_2),
    so by Cauchy each alpha |- u and beta |- v contribute
    S_alpha(S_11 V1) (x) S_beta(S_11 R_1) (x) S_alpha'(S_11 R_2) S_beta'(R_2) (x) Q_2^v.
    The first factor is trivial on X, and zero by rank, as is the summand,
    when alpha has more than dim wedge^2 V1 = C(m,2) parts.  Kunneth pairs
    the V1 side (`_left`) in degree a with the V2 side (`_right`) in degree
    b.  Returns {j: [(alpha, V1 side, V2 side)]}, each side a list of
    (weight, multiplicity), keyed only by the degrees with cohomology;
    tor_geometric folds in the trivial factor.
    """
    out = {}
    for alpha in partitions_of(u):
        if len(alpha) > comb(m, 2):
            continue
        for beta in partitions_of(v):
            left = _left(beta, m, r)
            if not left:
                continue
            right = _right(alpha, conjugate(beta), n, 2 * r + v)
            for a, ws1 in left.items():
                for b, ws2 in right.items():
                    out.setdefault(a + b, []).append((alpha, ws1, ws2))
    return out


def verify_lemma_4_4(u, v, j, r, m, n):
    """Check H^j(X, L^{2r} (x) wedge^u(xi_1) (x) wedge^v(xi_2)) = 0.

    X = P(V1) x P(V2).  Reads which degrees the table `_cohomology` holds.
    """
    if u < 0 or v < 0 or j < 1 or r < 1:
        raise ValueError("need u,v >= 0 and j,r >= 1")
    return j not in _cohomology(u, v, r, m, n)


def tor_geometric(i, r, m, n):
    """Upper bound for Tor_i of the r-th filtration quotient, graded by degree.

    Uses the identity Tor_i(N_r)_{r+i+j} = H^j(X, wedge^{i+j}(xi) (x) L^{2r})
    together with the filtration of wedge^{i+j}(xi) by
    wedge^u(xi_1) (x) wedge^v(xi_2) with u+v = i+j.  Returns a dict
    degree -> BiRep of the associated-graded cohomology (an upper bound for
    the actual Tor character).
    """
    if i not in (0, 1, 2):
        raise ValueError("only homological indices 0, 1, 2 are supported")
    out = {}
    for j in range(m + n - 1):  # dim X = (m - 1) + (n - 1)
        acc = {}
        for u in range(i + j + 1):
            for alpha, ws1, ws2 in _cohomology(u, i + j - u, r, m, n).get(j, ()):
                # fold in the trivial factor S_alpha(wedge^2 V1) on the m rows read
                triv = plethysm_schur(alpha, (1, 1), rows=m)
                for w1, c_lam in ws1:
                    for gam, c_gam in triv.items():
                        for w1f, c_f in schur_multiply(gam, w1, rows=m).items():
                            for w2, c_mu in ws2:
                                key = (w1f, canon(w2))
                                acc[key] = acc.get(key, 0) + c_lam * c_gam * c_f * c_mu
        if acc:
            out[r + i + j] = BiRep(acc)
    return out


def lemma_4_3_character(r, d, m, n):
    """Degree-(r+d) character of the r-th filtration quotient via Bott.

    Computes H^0 of L^{2r} (x) Sym^d(eta) summand by summand:
    each mu |- d contributes S_{(d+2r, mu)}V1 (x) S_{(d+2r, mu)}V2 when mu
    fits in both tautological subbundles.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    out = {}
    for mu in partitions_of(d):
        if len(mu) > m - 1 or len(mu) > n - 1:
            continue
        h1 = _bott(m, d + 2 * r, mu)
        h2 = _bott(n, d + 2 * r, mu)
        if h1 and h2 and h1[0] == h2[0] == 0:
            out[(h1[1], h2[1])] = 1
    return BiRep(out)
