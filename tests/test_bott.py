import hashlib
import json
from itertools import product
from math import comb

import pytest

from minorrel import bott, tasks
from minorrel.birep import dim_at, predicted_character
from minorrel.bott import (
    bott_projective,
    bott_weight,
    lemma_4_3_character,
    tor_geometric,
    verify_lemma_4_4,
)
from minorrel.partitions import dim_schur, partitions_of
from minorrel.symfunc import plethysm_schur
from oracles import cohomology_degrees_untruncated, tor_geometric_untruncated, weyl_dim_weight


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
        j, weight = bott_projective(n, a, ())
        assert j == 0
        assert weyl_dim_weight(weight) == dim_schur((a,), n) if a else True
    for a in (-4, -5, -6):
        j, _ = bott_projective(n, a, ())
        assert j == n - 1
    for a in (-1, -2, -3):
        assert bott_projective(n, a, ()) is None


def test_twisted_bundle_cohomology():
    # Λ^2 R with no twist has no cohomology on P^2; twisting by the quotient
    # line recovers the one-dimensional top exterior power in degree zero
    assert bott_projective(3, 0, (1, 1)) is None
    j, weight = bott_projective(3, 1, (1, 1))
    assert j == 0
    assert weyl_dim_weight(weight) == 1


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


def _zero_by_rank(u, v, m, n):
    # wedge^u(xi_1) is zero once u > rank xi_1 = C(m,2) C(n-1,2), and
    # wedge^v(xi_2) once v > rank xi_2 = C(m-1,2) (n-1); such a bundle has no
    # cohomology in any degree.  The rank count reads no plethysm or Bott.
    return u > comb(m, 2) * comb(n - 1, 2) or v > comb(m - 1, 2) * (n - 1)


@pytest.mark.parametrize(
    "u, v, j, r, m, n",
    [
        (4, 1, 1, 1, 3, 3),
        (4, 0, 1, 1, 2, 4),
        (5, 0, 2, 1, 2, 3),
        (4, 0, 1, 1, 3, 4),
        (5, 1, 1, 1, 3, 4),
    ],
)
def test_lemma_4_4_fails_outside_its_range(u, v, j, r, m, n):
    # u + v > j + 2: past the lemma's range the cohomology need not vanish.
    # The first three bundles are zero by rank, so it does vanish there (a
    # walk that kept summands with a zero trivial factor called them
    # nonzero); the last two are not, and there it does not vanish, so a
    # walk that dropped summands would show
    assert u + v > j + 2
    assert verify_lemma_4_4(u, v, j, r, m, n) == _zero_by_rank(u, v, m, n)


def test_lemma_4_4_vanishes_on_bundles_that_are_zero_by_rank():
    zero = [
        (u, v, j, r, m, n)
        for m in range(2, 6)
        for n in range(2, 6)
        for u in range(9)
        for v in range(9)
        if _zero_by_rank(u, v, m, n)
        for j in range(1, 5)
        for r in (1, 2)
    ]
    assert len(zero) == 5776
    assert [case for case in zero if not verify_lemma_4_4(*case)] == []


def test_lemma_4_4_sweep_matches_untruncated_expansion():
    # every case of the lem-4.4 task against the Cauchy summands expanded in
    # full, a trivial factor zero only when it has no term on m rows
    cases = [
        (u, v, j, r, m, n)
        for j in range(1, 5)
        for u in range(j + 3)
        for v in range(j + 3 - u)
        for r in (1, 2)
        for m in range(2, 6)
        for n in range(2, 6)
    ]
    assert len(cases) == 2368
    degrees = {}
    for u, v, j, r, m, n in cases:
        if (u, v, r, m, n) not in degrees:
            degrees[u, v, r, m, n] = cohomology_degrees_untruncated(u, v, r, m, n)
        assert verify_lemma_4_4(u, v, j, r, m, n) == (j not in degrees[u, v, r, m, n]), (
            u, v, j, r, m, n,
        )


def test_wedge2_factor_is_zero_exactly_by_rank():
    # the sweep skips alpha with more than C(m,2) parts without building
    # S_alpha(wedge^2 C^m): that plethysm is zero exactly then
    for d in range(9):
        for alpha in partitions_of(d):
            for m in range(2, 6):
                assert (len(alpha) > comb(m, 2)) == (not plethysm_schur(alpha, (1, 1), rows=m))


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


def _summed_over_degrees(out):
    combined = {}
    for d, ch in out.items():
        for pair, mult in ch.terms.items():
            combined[pair] = combined.get(pair, 0) + mult
    return combined


def test_tor_geometric_first_tor_matches_closed_form():
    out = tor_geometric(1, 1, 3, 3)
    stated = predicted_character("eq-tor1-Nr", 1)
    assert _summed_over_degrees(out) == dict(stated.terms)


@pytest.mark.parametrize("r, m, n", [(r, k, k) for k in (4, 5) for r in (1, 2, 3)])
def test_tor_geometric_first_tor_matches_closed_form_on_its_rows(r, m, n):
    # eq-tor1-Nr restricted to m and n rows; the Bott route computes every
    # plethysm and product on the rows it reads only
    stated = predicted_character("eq-tor1-Nr", r)
    assert _summed_over_degrees(tor_geometric(1, r, m, n)) == {
        (lam, mu): c for (lam, mu), c in stated.terms.items() if len(lam) <= m and len(mu) <= n
    }


@pytest.mark.parametrize(
    "m, n", [(3, 3), (3, 4), (4, 3), (4, 4), (2, 3), (2, 5), (5, 2), (3, 5)]
)
def test_tor_geometric_matches_untruncated_expansion(m, n):
    # Tor_0, Tor_1 and Tor_2 against the same route with every plethysm and
    # Littlewood-Richardson product expanded in full (tests/oracles.py); at
    # m = 2 every S_beta(S_11 R_1) with beta nonempty is zero by rank
    for i in (0, 1, 2):
        for r in (1, 2, 3):
            out = {d: ch.terms for d, ch in tor_geometric(i, r, m, n).items()}
            assert out == tor_geometric_untruncated(i, r, m, n), (i, r)


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


# sha256 of the json (sorted keys) of the predicted and of the witnessed
# table of `verify lem-4.3` on its default window, recorded when
# lemma_4_3_character still called bott_projective without the memo
LEM_4_3_DIGEST = "00fc509b8d0eb7353b35ad61af3473ded9be0e677f59487fe47c8d0d140c6e25"


def test_lemma_4_3_evaluates_each_bott_input_once(monkeypatch):
    # every route reads Bott through the memo _bott, so bott_projective runs
    # once per distinct input (486 calls for 111 inputs without the memo)
    monkeypatch.delenv(tasks.RESULTS_DIR_ENV, raising=False)
    calls = []
    plain = bott.bott_projective

    def counted(*args):
        calls.append(args)
        return plain(*args)

    monkeypatch.setattr(bott, "bott_projective", counted)
    bott._bott.cache_clear()
    report = tasks.run(tasks.VerificationTask("lem-4.3", {}))
    assert len(set(calls)) == 111
    assert len(calls) == 111
    assert report.verdict == "pass"
    assert report.predicted["r2_d3_3x4"] == "S[7,2,1]⊠S[7,2,1] + S[7,3]⊠S[7,3]"
    for table in (report.predicted, report.witnessed):
        assert len(table) == 150
        blob = json.dumps(table, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == LEM_4_3_DIGEST


def test_tor_geometric_respects_size_truncation():
    # on a 2-row space the hook summands with three rows vanish
    out = tor_geometric(1, 1, 2, 2)
    combined = {}
    for d, ch in out.items():
        combined.update(ch.terms)
    assert combined == {}
