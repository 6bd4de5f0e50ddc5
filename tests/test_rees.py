from minorrel.polyring import RingContext
from minorrel.rees import ReesEngine, fiber_type_check, orbit_total, rees_ideal
from minorrel.witness import (
    koszul_h1_blocks,
    relation_dims,
    relation_engine,
    subspace_engine,
    veronese_parts,
)


def test_principal_ideal_has_no_relations():
    # one minor: the Rees ideal of a principal ideal is zero
    assert rees_ideal(RingContext(2, 2)) == []


def test_2x3_linear_syzygies():
    assert rees_ideal(RingContext(2, 3)) == [((1, 2), 2)]


def test_2x4_fiber_and_syzygy_generators():
    table = rees_ideal(RingContext(2, 4), a_max=2, e_max=2)
    assert table == [((0, 4), 1), ((1, 2), 8)]
    # the pure-T bidegree reproduces the defining relations of the image
    dims = relation_dims(RingContext(2, 4), "minors", 2)
    assert dict(table)[(0, 4)] == dims[2][1]


def test_3x3_fiber_type_with_sixteen_syzygies():
    fiber, table = fiber_type_check(RingContext(3, 3))
    assert fiber
    assert table == {(1, 2): 16}
    # the linear syzygies agree with the first Koszul homology in degree 3
    assert table[(1, 2)] == orbit_total(koszul_h1_blocks(RingContext(3, 3), "minors", 3))


def test_fiber_type_small_cases():
    for m, n in [(2, 2), (2, 3)]:
        fiber, _ = fiber_type_check(RingContext(m, n))
        assert fiber


def _full_weight_counts(engine, grades):
    """Minimal generator counts by grade, eliminating every weight block.

    Each per-weight count (and kernel dimension) must be constant on its
    S_m x S_n orbit, and the sums over all weights must equal the engine's
    orbit-weighted counts over the dominant weights.
    """
    counts = {}
    for grade in grades:
        at = {w: engine._min_gens_at(grade, w) for w in engine.sources(grade)}
        dims = {w: len(engine.kernel_block(grade, w)) for w in at}
        for (rows, cols), c in at.items():
            dom = (tuple(sorted(rows, reverse=True)), tuple(sorted(cols, reverse=True)))
            assert (at[dom], dims[dom]) == (c, dims[(rows, cols)]), (grade, rows, cols)
        full = sum(at.values())
        assert engine.min_gens(grade) == full, grade
        assert engine.kernel_dim(grade) == sum(dims.values()), grade
        if full:
            counts[grade] = full
    return counts


def test_orbit_weighted_count_matches_full_weight_sum():
    # oracle: eliminate every weight block, not only the dominant ones
    from minorrel.modlinalg import PRIMES

    p = PRIMES[0]
    cases = [
        (2, 3, "minors", 2, 3, {(1, 1): 2}),
        (2, 4, "minors", 2, 2, {(0, 2): 1, (1, 1): 8}),
        (2, 3, "permanents", 1, 2, {(0, 2): 45, (1, 1): 52}),
        (3, 3, "permanents", 1, 2, {(0, 2): 180, (1, 1): 160}),
    ]
    for m, n, variant, a_max, e_max, expected in cases:
        engine = ReesEngine(RingContext(m, n), variant).at(p)
        grades = [(a, e) for a in range(a_max + 1) for e in range(1, e_max + 1)]
        assert _full_weight_counts(engine, grades) == expected, (m, n, variant)
    # the other instances of the engine: relations, subspace variety, Veronese
    others = [
        (relation_engine(RingContext(2, 4), "minors"), [2, 3], {2: 1}),
        (relation_engine(RingContext(3, 3), "minors"), [2, 3], {}),
        (relation_engine(RingContext(2, 3), "permanents"), [2, 3], {2: 45, 3: 10}),
        (subspace_engine(2, 3), [1, 2, 3], {2: 66}),
        (veronese_parts(RingContext(2, 3), 1, 3)[1], [1, 2, 3], {2: 9}),
        (veronese_parts(RingContext(3, 3), 1, 2)[1], [1, 2], {2: 99}),
    ]
    for engine, grades, expected in others:
        assert _full_weight_counts(engine.at(p), grades) == expected, expected


def test_syzygy_bidegrees_match_koszul_shift():
    # J in bidegree (d, 2) consists of syzygies of the quadrics in degree d + 2
    from minorrel.modlinalg import PRIMES

    engine = ReesEngine(RingContext(2, 4)).at(PRIMES[1])
    # total kernel dimension at (a, 1) equals the syzygy space dimension
    total = sum(len(engine.kernel_block((1, 1), w)) for w in engine.sources((1, 1)))
    assert total == 8  # all syzygies here are minimal (none in lower bidegree)
