"""Independent oracles for the cross-checks in this directory.

None of this is reached from the minorrel command line; each function is a
second route to a quantity the package computes another way: exact rank
over the rationals (against modular rank), the Weyl dimension formula
(against Bott's algorithm), the Pieri rule (against Littlewood-Richardson)
and span dimensions of explicit polynomials.
"""

from fractions import Fraction

from minorrel.partitions import canon, conjugate, partitions_of
from minorrel.symfunc import SCHUR, SymFunc


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


def span_dimension(polys):
    """Dimension of the linear span of polynomials, by exact rank."""
    cols = {}
    rows = [{cols.setdefault(exp, len(cols)): c for exp, c in f.items()} for f in polys]
    return rank_exact(rows)


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


def is_horizontal_strip(mu, lam):
    """True iff mu/lam is a horizontal strip: mu_i >= lam_i >= mu_{i+1}."""
    for i in range(max(len(mu), len(lam))):
        mi = mu[i] if i < len(mu) else 0
        li = lam[i] if i < len(lam) else 0
        mnext = mu[i + 1] if i + 1 < len(mu) else 0
        if not (mi >= li >= mnext):
            return False
    return True


def pieri(lam, d, kind="row"):
    """Pieri rule: s_lam * h_d for kind "row", s_lam * e_d for kind "column"."""
    lam = canon(lam)
    if kind == "column":
        res = pieri(conjugate(lam), d, "row")
        return SymFunc(SCHUR, {conjugate(k): v for k, v in res.terms.items()})
    if kind != "row":
        raise ValueError(f"unknown Pieri kind {kind!r}")
    out = {}
    for mu in partitions_of(sum(lam) + d, max_parts=len(lam) + 1):
        if is_horizontal_strip(mu, lam):
            out[mu] = Fraction(1)
    return SymFunc(SCHUR, out)
