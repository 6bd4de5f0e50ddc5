"""Symmetric function arithmetic: Schur products and plethysm.

Symmetric functions are plain dicts mapping a partition to its integer
coefficient in the Schur basis.  The Littlewood-Richardson rule is
implemented by direct enumeration of LR skew tableaux; plethysm with inner
s_2 or s_{1,1} by Jacobi-Trudi over the closed forms of h_k[h_2] and
h_k[e_2].  Independent oracles (expansion of Schur polynomials in finitely
many variables, the Pieri rule, plethysm through the power-sum basis) live
in the test suite.

Bivariate characters (for pairs of groups acting on a tensor product) are
plain dicts mapping (lam, mu) to an integer multiplicity; the wrapper class
lives in the birep module.
"""

from functools import lru_cache

from .partitions import canon, conjugate, contains, partitions_of


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
    """Product s_lam * s_mu expanded in the Schur basis, as a fresh dict."""
    return dict(_schur_multiply_cached(canon(lam), canon(mu)))


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
def plethysm_schur(outer, inner):
    """Cached s_outer[s_inner] as a dict partition -> integer.

    Jacobi-Trudi gives s_alpha[g] = det(h_{alpha_i - i + j}[g]); the
    determinant is expanded by Laplace along its rows, memoised on the set
    of columns still free.  Only inner (2) and (1, 1) are supported.
    """
    outer, inner = canon(outer), canon(inner)
    if inner not in ((2,), (1, 1)):
        raise ValueError(f"plethysm needs inner (2) or (1, 1), got {inner}")

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
                for mu, c in rest.items():
                    for nu, lr in _schur_multiply_cached(mu, lam).items():
                        acc[nu] = acc.get(nu, 0) + sign * c * lr
        return {nu: c for nu, c in acc.items() if c}

    return minor(tuple(range(len(outer))))


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
    Λ^t(S_lam (x) S_mu) = Σ_{nu |- t} S_nu(S_lam) (x) S_{nu'}(S_mu), so
    lam and mu must be inners that plethysm_schur supports, (2) or (1, 1).
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if any(c < 0 for c in U.values()):
        raise ValueError("expected nonnegative multiplicities")
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
