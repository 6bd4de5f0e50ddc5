"""Buchberger's algorithm with lex, graded reverse lex, and block orders.

Polynomials are the sparse exponent-dict values of minorrel.polyring.
A test-side oracle: small elimination cross-checks of the degreewise linear
algebra in minorrel.witness, which is the route the package itself takes.
"""

from dataclasses import dataclass
from fractions import Fraction


def lex_key(exp):
    return tuple(exp)


def grevlex_key(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


def block_key(blocks):
    """Block order: compare grevlex keys block by block, first block dominant."""

    def key(exp):
        return tuple(grevlex_key(tuple(exp[i] for i in blk)) for blk in blocks)

    return key


def elimination_key(nvars, eliminate_vars):
    """Block order that ranks the eliminated variables above the rest."""
    elim = sorted(eliminate_vars)
    keep = [i for i in range(nvars) if i not in set(elim)]
    return block_key([elim, keep])


def leading(f, key):
    exp = max(f, key=key)
    return exp, f[exp]


def _exp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _exp_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mul_term(f, exp, coeff):
    return {tuple(a + b for a, b in zip(e, exp)): c * coeff for e, c in f.items()}


def _sub(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) - c
        if not out[e]:
            del out[e]
    return out


def normal_form(f, basis, key):
    """Remainder of f on division by the basis (multivariate division)."""
    f = {e: Fraction(c) for e, c in f.items() if c}
    remainder = {}
    leads = [(leading(g, key), g) for g in basis if g]
    while f:
        exp = max(f, key=key)
        coeff = f[exp]
        for (lexp, lc), g in leads:
            if _divides(lexp, exp):
                f = _sub(f, _mul_term(g, _exp_sub(exp, lexp), coeff / lc))
                break
        else:
            remainder[exp] = coeff
            del f[exp]
    return remainder


def s_poly(f, g, key):
    (fe, fc) = leading(f, key)
    (ge, gc) = leading(g, key)
    lcm = _exp_lcm(fe, ge)
    return _sub(
        _mul_term(f, _exp_sub(lcm, fe), Fraction(1, 1) / fc),
        _mul_term(g, _exp_sub(lcm, ge), Fraction(1, 1) / gc),
    )


@dataclass(frozen=True)
class GroebnerBasis:
    generators: tuple
    key_name: str
    reduced: bool = True


def buchberger(gens, key, key_name="custom"):
    """Reduced Groebner basis of the ideal generated by gens."""
    basis = [{e: Fraction(c) for e, c in g.items() if c} for g in gens if g]
    if not basis:
        raise ValueError("need a nonempty generator list")
    leads = [leading(g, key)[0] for g in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    done = set()
    while pairs:
        # normal selection: smallest lcm of leading monomials first
        i, j = min(pairs, key=lambda p: key(_exp_lcm(leads[p[0]], leads[p[1]])))
        pairs.remove((i, j))
        done.add((i, j))
        fe, ge = leads[i], leads[j]
        # coprime leading monomials reduce to zero automatically
        if all(a == 0 or b == 0 for a, b in zip(fe, ge)):
            continue
        lcm = _exp_lcm(fe, ge)
        # chain criterion: skip when a third lead divides the lcm and both
        # companion pairs are already settled
        if any(
            k != i
            and k != j
            and _divides(leads[k], lcm)
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k in range(len(basis))
        ):
            continue
        rem = normal_form(s_poly(basis[i], basis[j], key), basis, key)
        if rem:
            basis.append(rem)
            leads.append(leading(rem, key)[0])
            pairs.update((k, len(basis) - 1) for k in range(len(basis) - 1))
    # minimalize: drop elements whose lead is divisible by another lead
    keep = []
    for i, g in enumerate(basis):
        ge, _ = leading(g, key)
        if any(
            _divides(leading(h, key)[0], ge)
            for k, h in enumerate(basis)
            if k != i and (k in keep or k > i)
        ):
            continue
        keep.append(i)
    minimal = [basis[i] for i in keep]
    # reduce: replace each element by its normal form against the others, monic
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        rem = normal_form(g, others, key) if others else dict(g)
        if not rem:
            continue
        _, lc = leading(rem, key)
        reduced.append({e: c / lc for e, c in rem.items()})
    reduced.sort(key=lambda g: key(leading(g, key)[0]))
    return GroebnerBasis(tuple(tuple(sorted(g.items())) for g in reduced), key_name)


def basis_polys(gb):
    return [dict(g) for g in gb.generators]


def eliminate(gb, key, eliminate_vars):
    """Basis elements free of the eliminated variables.

    Correct when gb was computed with an elimination order ranking
    eliminate_vars above the remaining variables.
    """
    elim = set(eliminate_vars)
    out = []
    for g in basis_polys(gb):
        if all(all(exp[i] == 0 for i in elim) for exp in g):
            out.append(g)
    return out
