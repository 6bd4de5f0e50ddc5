"""Symmetric function arithmetic: Schur products, power sums, plethysm.

Elements are represented by :class:`SymFunc`, a finite linear combination of
basis elements indexed by partitions.  The Littlewood-Richardson rule is
implemented by direct enumeration of LR skew tableaux; independent oracles
(expansion of Schur polynomials in finitely many variables, the Pieri rule)
live in the test suite.  Plethysm and wedge powers refuse outputs above
DEFAULT_DEGREE_CAP with a CapacityError.

Bivariate characters (for pairs of groups acting on a tensor product) are
plain dicts mapping (lam, mu) to an integer multiplicity; the wrapper class
lives in the birep module.
"""

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .modlinalg import CapacityError
from .partitions import canon, conjugate, contains, partitions_of

SCHUR = "schur"
POWER = "power_sum"

DEFAULT_DEGREE_CAP = 16


@dataclass(frozen=True)
class SymFunc:
    basis: str
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {canon(k): Fraction(v) for k, v in self.terms.items() if v}
        object.__setattr__(self, "terms", clean)

    def __add__(self, other):
        if self.basis != other.basis:
            raise ValueError("basis mismatch")
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return SymFunc(self.basis, out)

    def degree(self):
        return max((sum(k) for k in self.terms), default=0)


def schur(lam):
    return SymFunc(SCHUR, {canon(lam): 1})


# ---------------------------------------------------------------------------
# Littlewood-Richardson rule


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


@lru_cache(maxsize=None)
def _schur_multiply_cached(lam, mu):
    n = sum(lam) + sum(mu)
    mp = (lam[0] if lam else 0) + (mu[0] if mu else 0)
    out = {}
    for nu in partitions_of(n, max_parts=len(lam) + len(mu), max_part=mp):
        if not contains(nu, lam):
            continue
        c = lr_coefficient(nu, lam, mu)
        if c:
            out[nu] = c
    return out


def schur_multiply(lam, mu):
    """Product s_lam * s_mu expanded in the Schur basis."""
    return SymFunc(
        SCHUR,
        {k: Fraction(v) for k, v in _schur_multiply_cached(canon(lam), canon(mu)).items()},
    )


def symfunc_multiply(f, g):
    """Product of two SymFunc values in a common basis (schur or power_sum)."""
    if f.basis != g.basis:
        raise ValueError("basis mismatch")
    out = {}
    if f.basis == POWER:
        for r1, c1 in f.terms.items():
            for r2, c2 in g.terms.items():
                key = tuple(sorted(r1 + r2, reverse=True))
                out[key] = out.get(key, 0) + c1 * c2
        return SymFunc(POWER, out)
    if f.basis == SCHUR:
        for l1, c1 in f.terms.items():
            for l2, c2 in g.terms.items():
                for nu, c in _schur_multiply_cached(l1, l2).items():
                    out[nu] = out.get(nu, 0) + c1 * c2 * c
        return SymFunc(SCHUR, out)
    raise ValueError(f"cannot multiply in basis {f.basis}")


# ---------------------------------------------------------------------------
# Power-sum basis change (Murnaghan-Nakayama)


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
    for nu in partitions_of(rest, max_parts=len(lam), max_part=lam[0]):
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


@lru_cache(maxsize=None)
def _schur_to_power_cached(lam):
    d = sum(lam)
    out = {}
    for rho in partitions_of(d):
        chi = sn_character(lam, rho)
        if chi:
            out[rho] = Fraction(chi, z_rho(rho))
    return out


def to_power_basis(f):
    """Schur basis -> power-sum basis."""
    if f.basis != SCHUR:
        raise ValueError("expected schur basis input")
    out = {}
    for lam, c in f.terms.items():
        for rho, v in _schur_to_power_cached(lam).items():
            out[rho] = out.get(rho, 0) + c * v
    return SymFunc(POWER, out)


def from_power_basis(f):
    """Power-sum basis -> Schur basis: p_rho = sum_lam chi^lam(rho) s_lam."""
    if f.basis != POWER:
        raise ValueError("expected power_sum basis input")
    out = {}
    for rho, c in f.terms.items():
        for lam in partitions_of(sum(rho)):
            chi = sn_character(lam, rho)
            if chi:
                out[lam] = out.get(lam, 0) + c * chi
    return SymFunc(SCHUR, out)


# ---------------------------------------------------------------------------
# Plethysm


def plethysm(f, g):
    """Plethysm f o g via power-sum substitution p_k o g = g(p_m -> p_{km})."""
    if f.basis != SCHUR or g.basis != SCHUR:
        raise ValueError("plethysm expects schur-basis inputs")
    out_deg = f.degree() * g.degree()
    if out_deg > DEFAULT_DEGREE_CAP:
        raise CapacityError(
            f"plethysm output degree {out_deg} exceeds cap {DEFAULT_DEGREE_CAP}"
        )
    gp = to_power_basis(g)
    fp = to_power_basis(f)
    acc = {}
    for sigma, c in fp.terms.items():
        term = SymFunc(POWER, {(): Fraction(1)})
        for k in sigma:
            subbed = SymFunc(
                POWER,
                {
                    tuple(sorted((k * m for m in rho), reverse=True)): v
                    for rho, v in gp.terms.items()
                },
            )
            term = symfunc_multiply(term, subbed)
        for rho, v in term.terms.items():
            acc[rho] = acc.get(rho, 0) + c * v
    result = from_power_basis(SymFunc(POWER, acc))
    # integrality and positivity act as a cheap checksum in the common case
    schur_positive = all(v >= 0 and v.denominator == 1 for v in f.terms.values()) and all(
        v >= 0 and v.denominator == 1 for v in g.terms.values()
    )
    if schur_positive:
        for lam, v in result.terms.items():
            if v.denominator != 1 or v < 0:
                raise ArithmeticError(
                    f"plethysm of Schur-positive inputs gave coefficient {v} at {lam}"
                )
    return result


@lru_cache(maxsize=None)
def plethysm_schur(outer, inner):
    """Cached s_outer o s_inner as a dict mapping partition -> integer."""
    res = plethysm(schur(outer), schur(inner))
    return {k: int(v) for k, v in res.terms.items()}


# ---------------------------------------------------------------------------
# Bivariate characters: exterior powers
#
# A bivariate character is a dict {(lam, mu): multiplicity}; it stands for
# the direct sum of S_lam(V1) (x) S_mu(V2) with the given multiplicities.


def _bi_tensor(a, b):
    """Tensor product of two bivariate characters (LR rule on each factor)."""
    out = {}
    for (l1, m1), c1 in a.items():
        for (l2, m2), c2 in b.items():
            left = _schur_multiply_cached(l1, l2)
            right = _schur_multiply_cached(m1, m2)
            for lam, cl in left.items():
                for mu, cm in right.items():
                    key = (lam, mu)
                    out[key] = out.get(key, 0) + c1 * c2 * cl * cm
    return out


def _wedge_of_summand(lam, mu, t):
    """Exterior power Λ^t of the single summand S_lam (x) S_mu."""
    out = {}
    for nu in partitions_of(t):
        left = plethysm_schur(nu, lam)
        right = plethysm_schur(conjugate(nu), mu)
        for a, ca in left.items():
            for b, cb in right.items():
                key = (a, b)
                out[key] = out.get(key, 0) + ca * cb
    return out


def bivariate_wedge_power(U, k):
    """Exterior power Λ^k of a bivariate character U = {(lam, mu): mult}.

    Direct sums expand binomially; each irreducible summand contributes
    Λ^t(S_lam (x) S_mu) = Σ_{nu |- t} S_nu(S_lam) (x) S_{nu'}(S_mu).
    """
    if any(c < 0 for c in U.values()):
        raise ValueError("expected nonnegative multiplicities")
    maxdeg = max((max(sum(l), sum(m)) for l, m in U), default=0)
    if k * maxdeg > DEFAULT_DEGREE_CAP:
        raise CapacityError(
            f"wedge power output degree {k * maxdeg} exceeds cap {DEFAULT_DEGREE_CAP}"
        )
    summands = []
    for key, mult in sorted(U.items()):
        summands.extend([key] * mult)
    state = {0: {((), ()): 1}}
    for lam, mu in summands:
        new = {}
        for j, char in state.items():
            for t in range(0, k - j + 1):
                if t == 0:
                    piece = {((), ()): 1}
                else:
                    piece = _wedge_of_summand(lam, mu, t)
                tgt = new.setdefault(j + t, {})
                for key, c in _bi_tensor(char, piece).items():
                    tgt[key] = tgt.get(key, 0) + c
        state = new
    return {key: c for key, c in state.get(k, {}).items() if c}
