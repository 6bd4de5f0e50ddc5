import random
from itertools import permutations, product

import pytest

from minorrel import witness
from minorrel.birep import dim_at, predicted_character
from minorrel.modlinalg import PRIMES, NonUnitPivot, rank_mod, two_primes
from minorrel.polyring import RingContext, pack_weight, x_weight
from minorrel.rees import orbit_total
from minorrel.witness import (
    VeroneseEngine,
    filtration_generator_space,
    koszul_h1_blocks,
    relation_dims,
    subspace_parameterization,
    subspace_variety_gens,
    veronese_presentation_dims,
)
from oracles import (
    at_two_primes,
    coefficient_rows,
    is_dominant,
    koszul_h1_full_weight,
    module_component,
    span_dimension,
    unpacked,
    veronese_generators_by_span,
)


def test_relation_dims_2x4_minors():
    dims = at_two_primes(relation_dims, RingContext(2, 4), "minors", 3)
    assert dims[2] == (1, 1)
    assert dims[3] == (6, 0)


def test_relation_dims_3x3_minors_vanish():
    dims = at_two_primes(relation_dims, RingContext(3, 3), "minors", 4)
    assert all(dims[d][1] == 0 for d in range(2, 5))


def test_relation_dims_match_character_predictions():
    for m, n in [(2, 4), (3, 4)]:
        dims = at_two_primes(relation_dims, RingContext(m, n), "minors", 3)
        for d in (2, 3):
            assert dims[d][1] == dim_at(predicted_character("thm-1.1", d), m, n)


def test_relation_dims_3x3_permanents():
    dims = at_two_primes(relation_dims, RingContext(3, 3), "permanents", 3)
    for d in (2, 3):
        assert dims[d][1] == dim_at(predicted_character("thm-1.2", d), m=3, n=3)
    assert dims[2][1] == 180
    assert dims[3][1] == 200


def test_relation_dims_requires_degree_two():
    with pytest.raises(ValueError):
        at_two_primes(relation_dims, RingContext(2, 2), "minors", 1)


def test_koszul_h1_matches_character_predictions():
    h1 = at_two_primes(koszul_h1_blocks, RingContext(3, 3), "minors", 5)
    for d in (2, 3, 4, 5):
        witnessed = orbit_total(h1[d])
        assert witnessed == dim_at(predicted_character("thm-3.1", d), 3, 3)


def test_koszul_h1_blocks_are_weight_graded():
    blocks = at_two_primes(koszul_h1_blocks, RingContext(3, 3), "minors", 3)[3]
    assert orbit_total(blocks) == 16
    for (roww, colw), dim in blocks.items():
        assert sum(roww) == sum(colw) == 3
        assert is_dominant((roww, colw))


def test_koszul_h1_permanents_vanishing_bound():
    # the permanent variant vanishes from degree n + 3 on
    assert orbit_total(at_two_primes(koszul_h1_blocks, RingContext(3, 3), "permanents", 6)[6]) == 0


def test_koszul_h1_blocks_requires_degree_two():
    with pytest.raises(ValueError):
        at_two_primes(koszul_h1_blocks, RingContext(2, 2), "minors", 1)


def test_koszul_h1_does_not_depend_on_the_basis_order(monkeypatch):
    # the (monomial, generator) order of the W (x) S_{d-2} basis numbers d1's
    # rows and d2's columns; it changes the fill-in and nothing else
    cases = [(RingContext(m, n), v) for m, n in ((3, 3), (3, 4)) for v in ("minors", "permanents")]
    expected = [at_two_primes(koszul_h1_blocks, ctx, v, 6) for ctx, v in cases]
    basis, calls = witness._koszul_basis, []

    def reversed_basis(*args):
        calls.append(args)
        return basis(*args)[::-1]

    monkeypatch.setattr(witness, "_koszul_basis", reversed_basis)
    assert [at_two_primes(koszul_h1_blocks, ctx, v, 6) for ctx, v in cases] == expected
    assert calls


def test_koszul_h1_dominant_weights_match_full_weight_oracle():
    # oracle: rank the block of every weight at one prime; H_1 at each weight
    # equals H_1 at its dominant representative, and the orbit sizes add up
    cases = [
        (3, 3, "minors", 5),
        (3, 3, "permanents", 5),
        (2, 4, "minors", 4),
        (3, 4, "minors", 4),
        (4, 2, "permanents", 5),
    ]
    for m, n, variant, d_max in cases:
        ctx = RingContext(m, n)
        # one call serves every degree up to d_max, and each is checked
        h1 = at_two_primes(koszul_h1_blocks, ctx, variant, d_max)
        assert sorted(h1) == list(range(2, d_max + 1)), (m, n, variant)
        for d in range(2, d_max + 1):
            full = koszul_h1_full_weight(ctx, variant, d, PRIMES[0])
            blocks = h1[d]
            orbits = {
                (rows, cols): dim
                for (roww, colw), dim in blocks.items()
                for rows in set(permutations(roww))
                for cols in set(permutations(colw))
            }
            assert full == orbits, (m, n, variant, d)
            assert orbit_total(blocks) == sum(full.values()), (m, n, variant, d)


def test_filtration_generator_space_dimensions():
    ctx = RingContext(3, 3)
    g0 = filtration_generator_space(ctx, 0)
    assert [unpacked(f, ctx.num_vars) for f in g0] == [{(0,) * ctx.num_vars: 1}]
    g1 = filtration_generator_space(ctx, 1)
    # Sym^2 ⊗ Sym^2 at (3,3) spans 36 dimensions in degree 2
    assert span_dimension(g1) == 36


def test_veronese_presentation_r1_3x3():
    out = at_two_primes(veronese_presentation_dims, RingContext(3, 3), 1, 2)
    assert out["generators"] == {0: 0, 1: 36, 2: 0}
    assert out["relations"] == {1: 0, 2: 99}
    bound = dim_at(predicted_character("eq-tor1-Nr", 1), 3, 3)
    assert out["relations"][2] == bound


def test_veronese_presentation_r1_2x3():
    out = at_two_primes(veronese_presentation_dims, RingContext(2, 3), 1, 2)
    gen_degrees = [d for d, v in out["generators"].items() if v]
    assert gen_degrees == [1]
    bound = dim_at(predicted_character("eq-tor1-Nr", 1), 2, 3)
    assert out["relations"].get(2, 0) <= bound


def test_veronese_generators_match_span_oracle():
    # oracle: rank M_{r,D} and M_{r-1,D} + W*M_{r,D-1} as whole-degree matrices,
    # which also checks the zeros off degree r
    for m, n, r, d_max in [(2, 3, 1, 3), (3, 3, 1, 3), (2, 4, 2, 3)]:
        ctx = RingContext(m, n)
        out = at_two_primes(veronese_presentation_dims, ctx, r, d_max)
        assert out["generators"] == veronese_generators_by_span(ctx, r, d_max, PRIMES[0])


def _compositions(total, parts):
    return [c for c in product(range(total + 1), repeat=parts) if sum(c) == total]


def test_veronese_modulo_spans_the_lower_module_at_each_weight():
    # the engine builds M_{r-1,D} at one weight w; it spans the weight-w part
    # of the whole-degree span, at every weight of the degree
    ctx = RingContext(3, 3)
    p = PRIMES[0]
    rank = lambda polys: rank_mod(coefficient_rows(polys), p) if polys else 0
    for r in (1, 2):
        engine = VeroneseEngine(ctx, r)
        for D in (2, 3):
            whole = {}
            for f in module_component(engine, r - 1, D):
                whole.setdefault(x_weight(ctx, next(iter(f))), []).append(f)
            rows, cols = _compositions(2 * D, ctx.m), _compositions(2 * D, ctx.n)
            for w in map(pack_weight, product(rows, cols)):
                part, expected = engine.modulo(D, w), whole.get(w, [])
                dim = rank(expected)
                assert rank(part) == dim == rank(part + expected), (r, D, w)


def test_veronese_image_matches_lemma_4_3():
    # the engine's image in degree D is (M_r/M_{r-1})_D, whose character
    # Lemma 4.3 states in degree D - r
    cases = [
        (2, 3, 1, {1: 18, 2: 45, 3: 81}),
        (3, 3, 1, {1: 36, 2: 225, 3: 829}),
        (2, 4, 2, {2: 175, 3: 700}),
    ]
    for m, n, r, expected in cases:
        engine = VeroneseEngine(RingContext(m, n), r).at(PRIMES[0])
        image = {D: engine.image_dim(D) for D in expected}
        assert image == expected, (m, n, r)
        for D, dim in image.items():
            assert dim == dim_at(predicted_character("lem-4.3", D - r, r=r), m, n)


def test_subspace_parameterization_shapes():
    images, weights, nvars = subspace_parameterization(2, 2)
    assert len(images) == len(weights) == 9  # Sym^2 C^2 (x) Sym^2 C^2


def test_subspace_variety_generator_counts():
    assert at_two_primes(subspace_variety_gens, 2, 2, 3) == {1: 0, 2: 15, 3: 0}
    assert at_two_primes(subspace_variety_gens, 2, 3, 3) == {1: 0, 2: 66, 3: 0}


def test_subspace_generators_match_wedge_character():
    for m, n in [(2, 2), (2, 3)]:
        counts = at_two_primes(subspace_variety_gens, m, n, m + 1)
        assert counts[m] == dim_at(predicted_character("sec-6-U", m), m, n)


def test_subspace_degenerate_single_row():
    # with one row every parameterized tensor vanishes, so all of degree one dies
    assert at_two_primes(subspace_variety_gens, 1, 3, 2) == {1: 6, 2: 0}


def test_two_primes_requires_agreement():
    # the pivot p1 is not a unit mod p1 * p2, so the combined run falls
    # back to one run per prime, where the rank is 0 at p1 and 1 at p2
    p1, p2 = random.Random(3).sample(PRIMES, 2)
    assert two_primes(3, PRIMES, lambda p: p % 2) == 1
    used = []

    def rank(q):
        used.append(q)
        return rank_mod([{0: p1}], q)

    with pytest.raises(ArithmeticError) as exc:
        two_primes(3, PRIMES, rank)
    assert not isinstance(exc.value, NonUnitPivot)
    assert used == [p1 * p2, p1, p2]
    assert str(p1) in str(exc.value) and str(p2) in str(exc.value)

