from minorrel.polyring import RingContext
from minorrel.rees import ReesEngine, fiber_type_check, rees_ideal
from minorrel.witness import koszul_h1_blocks, relation_dims


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
    assert table[(1, 2)] == sum(koszul_h1_blocks(RingContext(3, 3), "minors", 3).values())


def test_fiber_type_small_cases():
    for m, n in [(2, 2), (2, 3)]:
        fiber, _ = fiber_type_check(RingContext(m, n))
        assert fiber


def test_orbit_weighted_count_matches_full_weight_sum():
    # oracle: eliminate every weight block, not only the dominant ones; the
    # per-weight count must be constant on each S_m x S_n orbit, and the sum
    # over all weights must equal the orbit-weighted dominant count
    from minorrel.modlinalg import PRIMES

    cases = [
        (2, 3, "minors", 2, 3, {(1, 1): 2}),
        (2, 4, "minors", 2, 2, {(0, 2): 1, (1, 1): 8}),
        (2, 3, "permanents", 1, 2, {(0, 2): 45, (1, 1): 52}),
        (3, 3, "permanents", 1, 2, {(0, 2): 180, (1, 1): 160}),
    ]
    for m, n, variant, a_max, e_max, expected in cases:
        engine = ReesEngine(RingContext(m, n), PRIMES[0], variant)
        counts = {}
        for a in range(a_max + 1):
            for e in range(1, e_max + 1):
                at = {w: engine._min_gens_at(a, e, w) for w in engine.sources(a, e)}
                for (rows, cols), c in at.items():
                    dom = (tuple(sorted(rows, reverse=True)), tuple(sorted(cols, reverse=True)))
                    assert at[dom] == c, (m, n, variant, a, e, rows, cols)
                full = sum(at.values())
                assert engine.min_gens(a, e) == full, (m, n, variant, a, e)
                if full:
                    counts[(a, e)] = full
        assert counts == expected, (m, n, variant)


def test_syzygy_bidegrees_match_koszul_shift():
    # J in bidegree (d, 2) consists of syzygies of the quadrics in degree d + 2
    from minorrel.modlinalg import PRIMES

    engine = ReesEngine(RingContext(2, 4), PRIMES[1])
    # total kernel dimension at (a, 1) equals the syzygy space dimension
    total = sum(len(engine.kernel_block(1, 1, w)) for w in engine.sources(1, 1))
    assert total == 8  # all syzygies here are minimal (none in lower bidegree)
