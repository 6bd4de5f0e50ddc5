from itertools import product
from math import comb, factorial

import pytest

from minorrel.partitions import canon, conjugate, dim_schur, partitions_of
from minorrel.symfunc import plethysm_schur, schur_multiply, wedge_power
from oracles import (
    from_power_basis,
    lr_coefficient,
    pieri,
    plethysm_power_sum,
    sn_character,
    to_power_basis,
    z_rho,
)


def schur_poly(lam, xs):
    """Brute-force Schur polynomial via semistandard tableau monomials.

    Returns a dict exponent-tuple -> coefficient in len(xs) variables.
    """
    n = xs
    lam = canon(lam)
    out = {}
    if not lam:
        return {(0,) * n: 1}
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]

    def fill(idx, grid, expo):
        if idx == len(cells):
            out[tuple(expo)] = out.get(tuple(expo), 0) + 1
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, grid[(i, j - 1)])
        if i > 0:
            lo = max(lo, grid[(i - 1, j)] + 1)
        for v in range(lo, n + 1):
            grid[(i, j)] = v
            expo[v - 1] += 1
            fill(idx + 1, grid, expo)
            expo[v - 1] -= 1
        grid.pop((i, j), None)

    fill(0, {}, [0] * n)
    return out


def poly_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def test_lr_against_polynomial_expansion():
    # products of Schur polynomials expand with LR coefficients
    nvars = 3
    cases = [((2,), (1, 1)), ((2, 1), (2, 1)), ((1, 1), (1, 1)), ((3,), (2, 1))]
    for lam, mu in cases:
        prod = poly_mul(schur_poly(lam, nvars), schur_poly(mu, nvars))
        expanded = {}
        for nu, mult in schur_multiply(lam, mu).items():
            for e, c in schur_poly(nu, nvars).items():
                expanded[e] = expanded.get(e, 0) + mult * c
        expanded = {e: c for e, c in expanded.items() if c}
        prod = {e: c for e, c in prod.items() if c}
        assert prod == expanded


def test_schur_multiply_matches_tableau_count():
    # the strip-built product against a count of LR tableaux for each nu,
    # zeros included, so a nu the product leaves out fails too
    parts = [lam for d in range(6) for lam in partitions_of(d)]
    for lam, mu in product(parts, parts):
        counted = {nu: lr_coefficient(nu, lam, mu) for nu in partitions_of(sum(lam) + sum(mu))}
        assert schur_multiply(lam, mu) == {nu: c for nu, c in counted.items() if c}


def test_schur_multiply_dimensions_at_depth():
    # sum of c^nu dim S_nu(C^k) = dim S_lam(C^k) dim S_mu(C^k), at shapes
    # too large for the tableau count; the last lam has fewer rows than mu
    cases = [
        ((4, 3, 2, 1), (3, 2, 1)),
        ((5, 3, 1), (4, 4)),
        ((3, 3, 3), (2, 2, 2)),
        ((2,), (3, 3, 2, 1)),
    ]
    for lam, mu in cases:
        prod = schur_multiply(lam, mu)
        for k in range(2, 7):
            total = sum(c * dim_schur(nu, k) for nu, c in prod.items())
            assert total == dim_schur(lam, k) * dim_schur(mu, k), (lam, mu, k)


def _within(f, k):
    """The terms s_nu of f with at most k rows."""
    return {nu: c for nu, c in f.items() if len(nu) <= k}


def test_schur_multiply_row_bound_is_the_truncated_product():
    # the strip places no box below row k, and a factor longer than k gives
    # nothing: exactly the full product restricted to k variables
    parts = [lam for d in range(6) for lam in partitions_of(d)]
    for lam, mu in product(parts, parts):
        full = schur_multiply(lam, mu)
        for k in range(5):
            assert schur_multiply(lam, mu, rows=k) == _within(full, k), (lam, mu, k)


def test_plethysm_row_bound_is_the_truncated_plethysm():
    # Jacobi-Trudi with every factor and product truncated, or {} at once
    # when alpha has more parts than s_inner has dimensions on k variables
    # (C(k+1, 2) for (2), C(k, 2) for (1, 1)): the full plethysm restricted
    # to k variables.  k = 0..6 puts outers of every length up to 7 on both
    # sides of each bound
    for d in range(8):
        for alpha in partitions_of(d):
            for inner in [(2,), (1, 1)]:
                full = plethysm_schur(alpha, inner)
                for k in range(7):
                    assert plethysm_schur(alpha, inner, rows=k) == _within(full, k), (
                        alpha,
                        inner,
                        k,
                    )


def test_lr_commutativity_up_to_size_six():
    parts = [lam for d in range(7) for lam in partitions_of(d)]
    for lam, mu in product(parts, parts):
        assert schur_multiply(lam, mu) == schur_multiply(mu, lam)


def multiply(f, g):
    """Product of two Schur expansions, term by term with schur_multiply."""
    out = {}
    for l1, c1 in f.items():
        for l2, c2 in g.items():
            for nu, c in schur_multiply(l1, l2).items():
                out[nu] = out.get(nu, 0) + c1 * c2 * c
    return out


def test_lr_associativity_sample():
    parts = [lam for d in range(4) for lam in partitions_of(d)]
    for a, b, c in product(parts, repeat=3):
        left = multiply(schur_multiply(a, b), {c: 1})
        right = multiply({a: 1}, schur_multiply(b, c))
        assert left == right


def test_pieri_agrees_with_lr():
    for lam in [(2, 1), (3, 2, 1), (2, 2)]:
        for d in range(1, 4):
            assert pieri(lam, d, "row") == schur_multiply(lam, (d,))
            assert pieri(lam, d, "column") == schur_multiply(lam, (1,) * d)


def test_power_basis_round_trip():
    for lam in [(3,), (2, 1), (2, 2), (3, 1, 1)]:
        assert from_power_basis(to_power_basis({lam: 1})) == {lam: 1}


def test_sn_character_values():
    # character table of S_3
    assert sn_character((3,), (1, 1, 1)) == 1
    assert sn_character((3,), (3,)) == 1
    assert sn_character((2, 1), (1, 1, 1)) == 2
    assert sn_character((2, 1), (3,)) == -1
    assert sn_character((2, 1), (2, 1)) == 0
    assert sn_character((1, 1, 1), (2, 1)) == -1


def test_sn_character_orthogonality():
    for d in range(1, 6):
        lams = partitions_of(d)
        for lam in lams:
            for mu in lams:
                total = sum(
                    sn_character(lam, rho) * sn_character(mu, rho) * factorial(d) // z_rho(rho)
                    for rho in partitions_of(d)
                )
                assert total == (factorial(d) if lam == mu else 0)


def test_plethysm_classical_cases():
    assert plethysm_schur((2,), (2,)) == {(4,): 1, (2, 2): 1}
    assert plethysm_schur((1, 1), (2,)) == {(3, 1): 1}
    assert plethysm_schur((2,), (1, 1)) == {(2, 2): 1, (1, 1, 1, 1): 1}
    assert plethysm_schur((1, 1), (1, 1)) == {(2, 1, 1): 1}
    assert plethysm_schur((3,), (2,)) == {(6,): 1, (4, 2): 1, (2, 2, 2): 1}


def test_plethysm_agrees_with_power_sums():
    # Jacobi-Trudi over h_k[h_2] and h_k[e_2] against the power-sum route
    for d in range(8):
        for alpha in partitions_of(d):
            for inner in [(2,), (1, 1)]:
                assert plethysm_schur(alpha, inner) == plethysm_power_sum(alpha, inner)
    with pytest.raises(ValueError):
        plethysm_schur((2,), (2, 1))


def test_plethysm_integrality_and_positivity():
    for outer in [(2,), (1, 1), (3,), (2, 1)]:
        for inner in [(2,), (1, 1), (2, 1)]:
            # the package has no closed form for inner (2, 1); the oracle does it
            pleth = plethysm_power_sum if inner == (2, 1) else plethysm_schur
            out = pleth(outer, inner)
            assert all(isinstance(c, int) and c > 0 for c in out.values())
            total = sum(sum(nu) * 0 + c * dim_schur(nu, 4) for nu, c in out.items())
            # dimension of the composite functor on C^4
            inner_dim = dim_schur(inner, 4)
            assert total == dim_schur(outer, inner_dim)


def test_plethysm_degree_18_dimensions():
    # output degree 18, beyond the power-sum oracle's reach in tier-1 time:
    # the composite functor's dimension on C^N
    for alpha in partitions_of(9):
        for inner in [(2,), (1, 1)]:
            out = plethysm_schur(alpha, inner)
            for N in (5, 6):
                total = sum(c * dim_schur(nu, N) for nu, c in out.items())
                assert total == dim_schur(alpha, dim_schur(inner, N))


def test_cauchy_dimensions():
    for d in range(1, 5):
        m, n = 3, 4
        # Cauchy: Sym^d(V1 (x) V2) = sum of S_lam (x) S_lam, and the exterior
        # power pairs S_lam with S_lam'
        sym_dim = sum(dim_schur(lam, m) * dim_schur(lam, n) for lam in partitions_of(d))
        assert sym_dim == comb(m * n + d - 1, d)
        wedge_dim = sum(
            dim_schur(lam, m) * dim_schur(conjugate(lam), n) for lam in partitions_of(d)
        )
        assert wedge_dim == comb(m * n, d)


def test_wedge_power_binomial_dimensions():
    # Λ^k of the span of the 2x2 minors, or of the permanents, has binomial
    # dimension
    for piece, (m, n, ks) in product(
        [(1, 1), (2,)], [(2, 3, range(4)), (3, 3, range(4)), (3, 4, [9])]
    ):
        dim_W = dim_schur(piece, m) * dim_schur(piece, n)
        for k in ks:
            out = wedge_power(piece, piece, k)
            total = sum(
                mult * dim_schur(lam, m) * dim_schur(mu, n)
                for (lam, mu), mult in out.items()
            )
            assert total == comb(dim_W, k)


def test_wedge_two_of_minor_space():
    assert wedge_power((1, 1), (1, 1), 2) == {
        ((2, 2), (2, 1, 1)): 1,
        ((1, 1, 1, 1), (2, 1, 1)): 1,
        ((2, 1, 1), (2, 2)): 1,
        ((2, 1, 1), (1, 1, 1, 1)): 1,
    }
