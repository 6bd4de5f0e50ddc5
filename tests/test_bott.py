from itertools import product

import pytest

from minorrel.birep import dim_at, predicted_character
from minorrel.bott import (
    bott_projective,
    bott_weight,
    lemma_4_3_character,
    tor_geometric,
    verify_lemma_4_4,
)
from minorrel.partitions import dim_schur, partitions_of
from oracles import weyl_dim_weight


def test_bott_weight_dichotomy_and_euler_characteristic():
    # every weight has at most one cohomology degree, and the signed dimension
    # matches the Weyl dimension formula applied to the raw weight
    for n in (2, 3, 4):
        rng = range(-4, 5)
        for w in product(rng, repeat=n):
            res = bott_weight(w)
            euler = weyl_dim_weight(w)
            if res is None:
                assert euler == 0
            else:
                ell, dom = res
                assert all(a >= b for a, b in zip(dom, dom[1:]))
                assert (-1) ** ell * weyl_dim_weight(dom) == euler


def test_line_bundles_on_projective_space():
    # O(a) on P^{n-1}: global sections Sym^a for a >= 0, top cohomology for a <= -n
    n = 4
    for a in range(0, 4):
        coh = bott_projective(n, a, ())
        assert set(coh) == {0}
        assert weyl_dim_weight(coh[0]) == dim_schur((a,), n) if a else True
    for a in (-4, -5, -6):
        coh = bott_projective(n, a, ())
        assert set(coh) == {n - 1}
    for a in (-1, -2, -3):
        assert bott_projective(n, a, ()) == {}


def test_twisted_bundle_cohomology():
    # Λ^2 R with no twist has no cohomology on P^2; twisting by the quotient
    # line recovers the one-dimensional top exterior power in degree zero
    assert bott_projective(3, 0, (1, 1)) == {}
    coh = bott_projective(3, 1, (1, 1))
    assert set(coh) == {0}
    assert weyl_dim_weight(coh[0]) == 1


def test_bott_projective_rejects_long_weights():
    with pytest.raises(ValueError):
        bott_projective(3, 0, (1, 1, 1))


def test_lemma_4_4_vanishing_sweep_small():
    for j in (1, 2):
        for u in range(0, j + 3):
            for v in range(0, j + 3 - u):
                for r in (1, 2):
                    for m in (2, 3):
                        for n in (2, 3):
                            assert verify_lemma_4_4(u, v, j, r, m, n)


def test_tor_geometric_degree_zero_is_veronese_layer():
    out = tor_geometric(0, 1, 3, 3)
    # degree r slice matches the filtration-layer character with no strip
    layer = predicted_character("lem-4.3", 0, r=1)
    assert 1 in out
    assert out[1].terms == {
        pair: mult
        for pair, mult in layer.terms.items()
        if len(pair[0]) <= 3 and len(pair[1]) <= 3
    }


def test_tor_geometric_first_tor_matches_closed_form():
    out = tor_geometric(1, 1, 3, 3)
    stated = predicted_character("eq-tor1-Nr", 1)
    combined = {}
    for d, ch in out.items():
        for pair, mult in ch.terms.items():
            combined[pair] = combined.get(pair, 0) + mult
    assert combined == dict(stated.terms)


def test_lemma_4_3_character_matches_enumeration():
    for r in (1, 2, 3):
        for d in (0, 1, 2, 3, 4):
            for m in (2, 3, 4, 5):
                for n in range(m, 6):
                    stated = {
                        pair: mult
                        for pair, mult in predicted_character(
                            "lem-4.3", d, r=r
                        ).terms.items()
                        if len(pair[0]) <= m and len(pair[1]) <= n
                    }
                    geo = lemma_4_3_character(r, d, m, n)
                    assert geo.terms == stated, (r, d, m, n)


def test_tor_geometric_respects_size_truncation():
    # on a 2-row space the hook summands with three rows vanish
    out = tor_geometric(1, 1, 2, 2)
    combined = {}
    for d, ch in out.items():
        combined.update(ch.terms)
    assert combined == {}
