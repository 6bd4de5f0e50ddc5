"""Acceptance suite: one test per headline claim, one pass/fail line each.

Every test compares an independent witness computation (rank oracle, Bott
cohomology, or elimination) against fixed expected values.  Expected values
are stated literally; where a witness disagrees the test is left to fail so
the discrepancy stays visible.  An expected value changes only by a decision
recorded in CHANGES.md, and the changed value is then tied, in the same test,
to a check that does not run through the witness.
"""

import os
import time
from itertools import combinations, combinations_with_replacement, product
from math import comb

import pytest

from minorrel import witness
from minorrel.birep import (
    character_A,
    character_from_weight_dims,
    dim_at,
    gr_components_bivariate,
    predicted_character,
    transpose_duality,
)
from minorrel.bott import bott_weight, lemma_4_3_character, verify_lemma_4_4
from minorrel.modlinalg import PRIMES, rank_mod
from minorrel.partitions import dim_schur, partitions_of
from minorrel.polyring import RingContext, generators_for, pack, poly_mul
from minorrel.rees import fiber_type_check, orbit_total
from minorrel.symfunc import plethysm_schur, schur_multiply
from minorrel.witness import (
    koszul_h1_blocks,
    relation_dims,
    subspace_variety_gens,
    veronese_presentation_dims,
)
from oracles import at_two_primes, plethysm_power_sum, weyl_dim_weight


def timed(limit_s):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            if exc[0] is None:
                assert time.perf_counter() - self.t0 < limit_s

    return _Timer()


def _koszul_3x3_by_euler_characteristic(d):
    """(dim H_1, dim H_2) of the Koszul complex on the 3x3 minors in degree d <= 5.

    Uses no code from the witness module.  K_i = wedge^i W (x) S_{d-2i} with
    W the nine minors and S the polynomial ring in nine variables; K_3 starts
    in degree 6, so H_1 = H_0 + H_2 - chi_d.  H_0 = S/I is the coordinate
    ring of the rank-one 3x3 matrices, Sym^d V1 (x) Sym^d V2, of dimension
    C(d+2, 2)^2.  H_2 is the kernel of K_2 -> K_1, found by one modular rank.
    """
    assert 2 <= d <= 5
    ctx = RingContext(3, 3)
    gens = generators_for(ctx, "minors")
    N, nvars = len(gens), ctx.num_vars

    def dim_S(k):
        return comb(k + nvars - 1, nvars - 1) if k >= 0 else 0

    chi = sum((-1) ** i * comb(N, i) * dim_S(d - 2 * i) for i in range(3))
    h0 = comb(d + 2, 2) ** 2
    # e_k ^ e_l (x) x^a  ->  (w_k x^a) e_l - (w_l x^a) e_k; K_2 = 0 below degree 4
    cols, rows = {}, []
    for k, l in combinations(range(N), 2) if d >= 4 else ():
        for a in combinations_with_replacement(range(nvars), d - 4):
            xa = {pack([a.count(i) for i in range(nvars)]): 1}
            row = {}
            for slot, f in ((l, gens[k]), (k, {e: -c for e, c in gens[l].items()})):
                for exp, c in poly_mul(ctx, f, xa).items():
                    row[cols.setdefault((slot, exp), len(cols))] = c
            rows.append(row)
    h2 = len(rows) - rank_mod(rows, PRIMES[0])
    return h0 + h2 - chi, h2


def test_criterion_01_minor_relations_2x4():
    with timed(5):
        dims = at_two_primes(relation_dims, RingContext(2, 4), "minors", 4)
    assert {d: dims[d][1] for d in (2, 3, 4)} == {2: 1, 3: 0, 4: 0}


def test_criterion_02_minor_relations_3x4():
    with timed(600):
        dims = at_two_primes(relation_dims, RingContext(3, 4), "minors", 4)
    assert {d: dims[d][1] for d in (2, 3, 4)} == {2: 6, 3: 10, 4: 0}


def test_criterion_03_minor_relations_3x3_vanish():
    with timed(120):
        dims = at_two_primes(relation_dims, RingContext(3, 3), "minors", 4)
    assert {d: dims[d][1] for d in (2, 3, 4)} == {2: 0, 3: 0, 4: 0}


def test_criterion_04_permanent_relations_3x3():
    with timed(600):
        dims = at_two_primes(relation_dims, RingContext(3, 3), "permanents", 3)
    # the quotient in degree 2: dim Sym^2 of the 36 permanent span is 666
    assert dim_at(character_A(2, "permanents"), 3, 3) == 666 - dims[2][1]
    assert {d: dims[d][1] for d in (2, 3)} == {2: 180, 3: 200}
    # the cubic permanent relations are the transpose dual of the cubic minor
    # relations S[3,1,1,1]⊠S[2,2,2] + S[2,2,2]⊠S[3,1,1,1] (checked at 3x4 by
    # criterion 02), i.e. S[4,1,1]⊠S[3,3] + its swap: 2 * 10 * 10 at 3x3
    cubic = predicted_character("thm-1.2", 3)
    assert cubic.terms == transpose_duality(predicted_character("thm-1.1", 3)).terms
    assert cubic.terms == predicted_character("sec-6-Tbar", 3).terms
    assert dim_at(cubic, 3, 3) == 200
    # the degree-3 kernel of Sym^3 of the 36 permanents onto the image ring
    assert dims[3][0] == comb(38, 3) - dim_at(character_A(3, "permanents"), 3, 3) == 5433


def test_criterion_05_koszul_homology_3x3():
    with timed(900):
        h1 = at_two_primes(koszul_h1_blocks, RingContext(3, 3), "minors", 5)
        witnessed = {d: orbit_total(h1[d]) for d in (2, 3, 4, 5)}
    assert witnessed == {2: 0, 3: 16, 4: 99, 5: 324}
    euler = {d: _koszul_3x3_by_euler_characteristic(d) for d in (2, 3, 4, 5)}
    assert {d: h2 for d, (_, h2) in euler.items()} == {2: 0, 3: 0, 4: 0, 5: 9}
    assert {d: h1 for d, (h1, _) in euler.items()} == witnessed
    # the degree-5 homology is the stated thm-3.1 character, not only its dimension
    recovered = character_from_weight_dims(h1[5], 3, 3)
    stated = {
        pair: mult
        for pair, mult in predicted_character("thm-3.1", 5).terms.items()
        if len(pair[0]) <= 3 and len(pair[1]) <= 3
    }
    assert recovered.terms == stated


def test_criterion_05_catches_h1_read_as_the_kernel_of_d1(monkeypatch):
    # a standing fault: a builder that skips d2 reports dim ker d1 as H_1;
    # criterion 05's Euler-characteristic count must tell the two apart
    monkeypatch.setattr(witness, "_koszul_d2", lambda *args: [])
    h1 = at_two_primes(koszul_h1_blocks, RingContext(3, 3), "minors", 5)
    euler = {d: _koszul_3x3_by_euler_characteristic(d)[0] for d in (2, 3, 4, 5)}
    assert {d: orbit_total(h1[d]) for d in euler} != euler


def test_criterion_06_permanent_koszul_vanishing_3x3():
    with timed(900):
        h1 = at_two_primes(koszul_h1_blocks, RingContext(3, 3), "permanents", 6)
        witnessed = orbit_total(h1[6])
    assert witnessed == 0


def test_criterion_07_cohomology_vanishing_sweep():
    with timed(60):
        for j in range(1, 5):
            for u in range(0, j + 3):
                for v in range(0, j + 3 - u):
                    for r in (1, 2):
                        for m in range(2, 6):
                            for n in range(2, 6):
                                assert verify_lemma_4_4(u, v, j, r, m, n), (
                                    u,
                                    v,
                                    j,
                                    r,
                                    m,
                                    n,
                                )


def test_criterion_08_veronese_layer_presentation_3x3():
    with timed(600):
        out = at_two_primes(veronese_presentation_dims, RingContext(3, 3), 1, 2)
    assert [d for d, v in out["generators"].items() if v] == [1]
    assert [d for d, v in out["relations"].items() if v] == [2]
    bound = dim_at(predicted_character("eq-tor1-Nr", 1), 3, 3)
    assert out["relations"][2] <= bound


def test_criterion_09_filtration_layer_character_identity():
    with timed(10):
        for r in (1, 2, 3):
            for d in (0, 1, 2, 3, 4):
                for m in range(2, 6):
                    for n in range(2, 6):
                        stated = {
                            pair: mult
                            for pair, mult in predicted_character(
                                "lem-4.3", d, r=r
                            ).terms.items()
                            if len(pair[0]) <= m and len(pair[1]) <= n
                        }
                        geo = lemma_4_3_character(r, d, m, n)
                        assert geo.terms == stated, (r, d, m, n)


def test_criterion_10_subspace_variety_generators():
    with timed(300):
        assert at_two_primes(subspace_variety_gens, 2, 2, d_max=3) == {1: 0, 2: 15, 3: 0}
        assert at_two_primes(subspace_variety_gens, 2, 3, d_max=3) == {1: 0, 2: 66, 3: 0}


def test_criterion_11_fiber_type_small_sizes():
    for m, n in [(2, 2), (2, 3), (2, 4), (3, 3)]:
        fiber, table = at_two_primes(fiber_type_check, RingContext(m, n), 3, 3)
        assert fiber, (m, n, table)


@pytest.mark.skipif(
    os.environ.get("MINORREL_PROFILE") != "long",
    reason="long-running case; set MINORREL_PROFILE=long to enable",
)
def test_criterion_11_fiber_type_5x3_long_profile():
    fiber, table = at_two_primes(fiber_type_check, RingContext(5, 3), a_max=3, e_max=3)
    assert fiber, table


def test_criterion_12_character_engine_property_suites():
    with timed(120):
        # product commutativity for all diagram pairs up to size 6
        parts = [lam for d in range(7) for lam in partitions_of(d)]
        for lam, mu in product(parts, parts):
            assert schur_multiply(lam, mu) == schur_multiply(mu, lam)
        # composite functors decompose with positive integer multiplicities
        for outer in [(2,), (1, 1), (3,), (2, 1)]:
            for inner in [(2,), (1, 1), (2, 1)]:
                # the package has no closed form for inner (2, 1); the oracle does it
                pleth = plethysm_power_sum if inner == (2, 1) else plethysm_schur
                out = pleth(outer, inner)
                assert all(isinstance(c, int) and c > 0 for c in out.values())
        # weight cohomology is concentrated in a single degree
        for n in (2, 3):
            for w in product(range(-4, 5), repeat=n):
                res = bott_weight(w)
                euler = weyl_dim_weight(w)
                if res is None:
                    assert euler == 0
                else:
                    ell, dom = res
                    assert (-1) ** ell * weyl_dim_weight(dom) == euler
        # duality is an involution on stated characters
        for name in ("thm-1.1", "thm-3.1"):
            for j in (2, 3, 4):
                P = predicted_character(name, j)
                assert transpose_duality(transpose_duality(P)).terms == P.terms
        # the quadratic slice of the image coordinate ring
        assert character_A(2, "minors").terms == {
            ((1, 1, 1, 1), (1, 1, 1, 1)): 1,
            ((2, 1, 1), (2, 1, 1)): 1,
            ((2, 2), (2, 2)): 1,
        }
        # the eight filtration labels on each side of the degree-3 calculation
        # (the label list, largest first, as `decompose gr` prints it)
        first = gr_components_bivariate((1, 1, 1), (2, 1), 8)
        second = gr_components_bivariate((2, 1), (1, 1, 1), 8)
        assert first == sorted(
            {
                ((1, 1, 1), (2, 1)),
                ((1, 1, 1, 1), (2, 1, 1)),
                ((1, 1, 1, 1), (2, 2)),
                ((1, 1, 1, 1), (3, 1)),
                ((2, 1, 1), (2, 1, 1)),
                ((2, 1, 1), (2, 2)),
                ((2, 1, 1, 1), (2, 2, 1)),
                ((3, 1, 1), (2, 2, 1)),
            },
            reverse=True,
        )
        assert second == sorted(((b, a) for (a, b) in first), reverse=True)
