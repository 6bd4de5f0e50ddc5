from fractions import Fraction

import pytest

from groebner import (
    GroebnerBasis,
    basis_polys,
    block_key,
    buchberger,
    elimination_key,
    eliminate,
    grevlex_key,
    leading,
    lex_key,
    normal_form,
    s_poly,
)
from minorrel.polyring import RingContext, generators_for
from oracles import at_two_primes, unpacked
from minorrel.witness import relation_dims


def test_order_keys():
    # lex: x > y^5; grevlex: total degree first
    assert lex_key((1, 0)) > lex_key((0, 5))
    assert grevlex_key((0, 5)) > grevlex_key((1, 0))
    assert grevlex_key((2, 1)) > grevlex_key((1, 2))
    key = block_key([[0], [1]])
    assert key((1, 0)) > key((0, 9))


def test_monomial_ideal_basis():
    gb = buchberger([{(2, 0): 1}, {(1, 1): 1}], lex_key, "lex")
    leads = sorted(leading(g, lex_key)[0] for g in basis_polys(gb))
    assert leads == [(1, 1), (2, 0)]


def test_buchberger_closes_under_s_polynomials():
    gens = [{(3, 0): 1, (0, 1): -1}, {(2, 1): 1, (1, 0): -1}]
    gb = buchberger(gens, grevlex_key, "grevlex")
    polys = basis_polys(gb)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            rem = normal_form(s_poly(polys[i], polys[j], grevlex_key), polys, grevlex_key)
            assert rem == {}
    for g in gens:
        assert normal_form(g, polys, grevlex_key) == {}


def test_reduced_basis_is_monic_and_interreduced():
    gens = [{(2, 0): 2, (0, 2): 2}, {(1, 1): 3}]
    gb = buchberger(gens, grevlex_key, "grevlex")
    for g in basis_polys(gb):
        _, lc = leading(g, grevlex_key)
        assert lc == 1


def test_single_minor_is_its_own_basis():
    ctx = RingContext(2, 2)
    gens = [unpacked(f, ctx.num_vars) for f in generators_for(ctx, "minors")]
    gb = buchberger(gens, lex_key, "lex")
    assert len(gb.generators) == 1


def test_plucker_elimination_matches_linear_algebra():
    # embed T_k - (k-th minor) in 8 matrix variables + 6 auxiliary T variables,
    # eliminate the matrix block, and compare with the kernel dimension count
    naux = 6
    mins = [unpacked(f, 8) for f in generators_for(RingContext(2, 4), "minors")]
    gens = []
    for k, f in enumerate(mins):
        g = {e + (0,) * naux: c for e, c in f.items()}
        g[(0,) * 8 + tuple(1 if i == k else 0 for i in range(naux))] = -1
        gens.append(g)
    key = elimination_key(14, range(8))
    gb = buchberger(gens, key, "elim")
    quadrics = eliminate(gb, key, range(8))
    assert len(quadrics) == 1
    (q,) = quadrics
    assert all(sum(e[8:]) == 2 for e in q)
    dims = at_two_primes(relation_dims, RingContext(2, 4), "minors", 2)
    assert dims[2][1] == len(quadrics)
    for g in gens:
        assert normal_form(g, basis_polys(gb), key) == {}


def test_empty_generators_rejected():
    with pytest.raises(ValueError):
        buchberger([], lex_key, "lex")
