"""Bivariate GL-characters and the named decompositions of the minor/permanent rings.

A BiRep is a formal nonnegative sum of simple objects S_lam (x) S_mu, indexed
by pairs of partitions.  The transpose duality swaps minors with permanents by
conjugating both indices.  The predicted_character registry stores, as
executable data, the graded characters of the main structural statements the
verifier checks against witness computations, and the seed labels of the
bi-filtration of F_{lam,mu} list the components of its associated graded.
"""

from collections import namedtuple

from .partitions import canon, conjugate, dim_schur, in_M_r, partitions_of
from .symfunc import kostka, plethysm_schur, schur_multiply


class BiRep(namedtuple("BiRep", "terms")):
    __slots__ = ()

    def __new__(cls, terms=None):
        clean = {}
        for (lam, mu), m in (terms or {}).items():
            m = int(m)
            if m < 0:
                raise ValueError(f"negative multiplicity at {(lam, mu)}")
            if m:
                clean[(canon(lam), canon(mu))] = m
        return super().__new__(cls, clean)


def transpose_duality(P):
    """Conjugate both indices: S_lam (x) S_mu -> S_lam' (x) S_mu'.  Involution."""
    return BiRep({(conjugate(lam), conjugate(mu)): m for (lam, mu), m in P.terms.items()})


def dim_at(P, m, n):
    """Dimension of the underlying space when dim V1 = m, dim V2 = n."""
    return sum(
        mult * dim_schur(lam, m) * dim_schur(mu, n) for (lam, mu), mult in P.terms.items()
    )


def character_A(d, variant="minors"):
    """Degree-d character of the coordinate ring of the image of the 2x2-minor map.

    Minors: sum of S_lam (x) S_lam over lam of size 2d with lam_1 <= lam_2 + lam_3 + ...
    Permanents: the transpose dual.
    """
    if d < 0:
        raise ValueError(f"need d >= 0, got {d}")
    out = BiRep({(lam, lam): 1 for lam in partitions_of(2 * d) if in_M_r(lam, 0)})
    if variant == "permanents":
        return transpose_duality(out)
    if variant != "minors":
        raise ValueError(f"unknown variant {variant!r}")
    return out


def _thm_1_1(j):
    if j == 2:
        return BiRep({((1, 1, 1, 1), (2, 2)): 1, ((2, 2), (1, 1, 1, 1)): 1})
    if j == 3:
        return BiRep({((3, 1, 1, 1), (2, 2, 2)): 1, ((2, 2, 2), (3, 1, 1, 1)): 1})
    return BiRep()


def _thm_3_1(d):
    if d == 3:
        return BiRep({((2, 1), (1, 1, 1)): 1, ((1, 1, 1), (2, 1)): 1})
    if d == 4:
        return BiRep(
            {
                ((2, 2), (1, 1, 1, 1)): 1,
                ((1, 1, 1, 1), (2, 2)): 1,
                ((2, 1, 1), (2, 1, 1)): 1,
                ((2, 1, 1), (3, 1)): 1,
                ((3, 1), (2, 1, 1)): 1,
            }
        )
    if d >= 5:
        a = (d - 2, 1, 1)
        b = (d - 1, 1)
        return BiRep({(a, a): 1, (a, b): 1, (b, a): 1})
    return BiRep()


def _lem_4_3(d, r):
    """Degree-2(r+d) slice of the r-th graded piece of the symmetric-power filtration."""
    top = d + 2 * r
    return BiRep({((top,) + mu, (top,) + mu): 1 for mu in partitions_of(d)})


def _eq_tor1_Nr(r):
    a = (2 * r, 1, 1)
    b = (2 * r + 1, 1)
    return BiRep({(a, a): 1, (a, b): 1, (b, a): 1})


def _sec_6_U(m):
    """Character of wedge^m V1 (x) wedge^m(V1 (x) Sym^2 V2)."""
    out = {}
    for nu in partitions_of(m):
        left = schur_multiply((1,) * m, nu)
        right = plethysm_schur(conjugate(nu), (2,))
        for lam, cl in left.items():
            for mu, cr in right.items():
                key = (lam, mu)
                out[key] = out.get(key, 0) + cl * cr
    return BiRep(out)


_REGISTRY = {
    "thm-1.1": _thm_1_1,
    "thm-1.2": lambda j: transpose_duality(_thm_1_1(j)),
    "thm-3.1": _thm_3_1,
    "thm-3.2": lambda d: transpose_duality(_thm_3_1(d)),
    "lem-4.3": _lem_4_3,
    "eq-tor1-Nr": _eq_tor1_Nr,
    "sec-6-U": _sec_6_U,
}
# Section 6's functor T-bar is the transpose dual of Theorem 1.1: Theorem 1.2
_REGISTRY["sec-6-Tbar"] = _REGISTRY["thm-1.2"]


def predicted_character(name, j, r=None):
    """Stated character of the named statement in degree/parameter j.

    For "lem-4.3" j is the strip size d and the filtration index r is required.
    For "eq-tor1-Nr" j is r; for "sec-6-U" j is the matrix row count m.
    """
    if name not in _REGISTRY:
        raise KeyError(f"unknown theorem-id {name!r}")
    if name == "lem-4.3":
        if r is None:
            raise ValueError("lem-4.3 requires the filtration index r")
        return _REGISTRY[name](j, r)
    return _REGISTRY[name](j)


# ---------------------------------------------------------------------------
# Filtration combinatorics for the modules F_lam and F_{lam,mu}


def gr_components_bivariate(lam, mu, cap):
    """Seed labels of the bi-filtration of F_{lam,mu} up to size cap, largest first.

    Each label (alpha, beta) satisfies: alpha/lam and beta/mu horizontal
    strips, |lam| <= |alpha| = |beta| <= cap, and alpha_1 = lam_1 or
    beta_1 = mu_1.  Larger labels obtained by growing both first rows
    equally are implicit.  By Pieri the alpha of size |lam| + k are the
    shapes of s_lam * h_k.  A cap below |lam| would list nothing and is
    refused.
    """
    lam, mu = canon(lam), canon(mu)
    if sum(lam) != sum(mu):
        raise ValueError("expected |lam| = |mu|")
    if cap < sum(lam):
        raise ValueError(f"need a cap of at least |lam| = {sum(lam)}, got {cap}")
    labels = []
    for k in range(cap - sum(lam) + 1):
        betas = schur_multiply(mu, (k,))
        for alpha in schur_multiply(lam, (k,)):
            for beta in betas:
                if alpha[:1] == lam[:1] or beta[:1] == mu[:1]:
                    labels.append((alpha, beta))
    return sorted(labels, reverse=True)


# ---------------------------------------------------------------------------
# Character recovery from torus-weight dimensions


def character_from_weight_dims(weight_dims, m, n):
    """Recover a BiRep from the dimensions of its torus-weight spaces.

    weight_dims maps (w1, w2) to a dimension, where w1 (length m) and w2
    (length n) are weight vectors.  Only dominant weights are consulted:
    multiplicities are peeled off greedily using Kostka numbers, largest
    weights first.
    """
    dominant = {}
    for (w1, w2), dval in weight_dims.items():
        if list(w1) == sorted(w1, reverse=True) and list(w2) == sorted(w2, reverse=True):
            dominant[(canon(w1), canon(w2))] = dval
    result = {}
    for (lam, mu) in sorted(dominant, key=lambda p: (sum(p[0]), p), reverse=True):
        rem = dominant[(lam, mu)]
        for (alam, amu), mult in result.items():
            if sum(alam) == sum(lam) and sum(amu) == sum(mu):
                rem -= mult * kostka(alam, lam) * kostka(amu, mu)
        if rem < 0:
            raise ArithmeticError(f"inconsistent weight multiplicities at {(lam, mu)}")
        if rem:
            result[(lam, mu)] = rem
    return BiRep(result)
