from itertools import permutations

import pytest

from minorrel import rees, witness
from minorrel.modlinalg import PRIMES, rank_mod
from minorrel.polyring import RingContext, generators_for, pack, unpack
from minorrel.rees import (
    GradedKernel,
    ReesEngine,
    _is_dominant,
    _weights_of,
    fiber_type_check,
    orbit_total,
    rees_ideal,
)
from minorrel.witness import (
    koszul_h1_blocks,
    presentation_dims,
    relation_dims,
    relation_engine,
    subspace_engine,
    veronese_engine,
    veronese_presentation_dims,
)
from oracles import (
    coefficient_rows,
    kernel_block_direct,
    kernel_blocks_direct,
    min_gens_full_columns,
    multisets_all_weights,
    sources_all_weights,
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
    """Minimal generator counts by grade, eliminating every weight block directly.

    Every block, dominant or not, is eliminated on its own and ranked on all
    its columns, with no transport.  Each per-weight count (and kernel
    dimension) must be constant on its S_m x S_n orbit, and the sums over
    all weights must equal the engine's orbit-weighted counts over the
    dominant weights.
    """
    kernel = kernel_blocks_direct(engine)
    counts = {}
    for grade in grades:
        buckets = sources_all_weights(engine, grade)
        at = {w: min_gens_full_columns(engine, grade, w, kernel) for w in buckets}
        dims = {w: len(kernel(grade, w)) for w in at}
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
    # oracle: eliminate every weight block directly and rank it on all its
    # columns, not only the dominant ones
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
        (veronese_engine(RingContext(2, 3), 1), [1, 2, 3], {2: 9}),
        (veronese_engine(RingContext(3, 3), 1), [1, 2], {2: 99}),
    ]
    for engine, grades, expected in others:
        assert _full_weight_counts(engine.at(p), grades) == expected, expected


def test_syzygy_bidegrees_match_koszul_shift():
    # J in bidegree (d, 2) consists of syzygies of the quadrics in degree d + 2
    engine = ReesEngine(RingContext(2, 4)).at(PRIMES[1])
    # total kernel dimension at (a, 1) equals the syzygy space dimension
    total = sum(len(engine.kernel_block((1, 1), w)) for w in sources_all_weights(engine, (1, 1)))
    assert total == 8  # all syzygies here are minimal (none in lower bidegree)


def _instances():
    """One engine of each kind, at one prime, with the grades checked."""
    p = PRIMES[2]
    rees = [(a, e) for a in range(3) for e in range(1, 4)]
    return [
        ("rees 3x3", ReesEngine(RingContext(3, 3)).at(p), rees),
        ("minors 3x4", relation_engine(RingContext(3, 4), "minors").at(p), [1, 2, 3]),
        ("permanents 3x3", relation_engine(RingContext(3, 3), "permanents").at(p), [1, 2, 3]),
        ("veronese 3x3 r=1", veronese_engine(RingContext(3, 3), 1).at(p), [1, 2, 3]),
        ("subspace 3x3", subspace_engine(3, 3).at(p), [1, 2, 3]),
    ]


def _rank_of(vectors, col, p):
    return rank_mod([{col[s]: c for s, c in vec.items()} for vec in vectors], p)


def _image_lies_in_modulo(engine, grade, w, vec):
    """The image of vec is 0 mod p, or with `modulo` in the span of its polynomials."""
    p = engine.p
    image = {}
    for s, c in vec.items():
        for exp, v in engine.image(s).items():
            image[exp] = (image.get(exp, 0) + c * v) % p
    image = {exp: v for exp, v in image.items() if v}
    sub = engine.modulo(grade, w)
    if not sub:
        return not image
    return rank_mod(coefficient_rows(sub + [image]), p) == rank_mod(coefficient_rows(sub), p)


def test_transported_kernels_match_direct_elimination():
    # at every non-dominant weight, the kernel carried over from the
    # dominant weight spans the kernel of the block eliminated directly
    for name, engine, grades in _instances():
        p = engine.p
        blocks = 0
        for grade in grades:
            for w, members in sources_all_weights(engine, grade).items():
                if _is_dominant(w):
                    continue
                moved = engine.kernel_block(grade, w)
                direct = kernel_block_direct(engine, grade, w)
                col = {s: i for i, s in enumerate(members)}
                dim = len(direct)
                assert len(moved) == dim, (name, grade, w)
                assert _rank_of(moved, col, p) == dim, (name, grade, w)
                assert _rank_of(moved + direct, col, p) == dim, (name, grade, w)
                for vec in moved:
                    assert _image_lies_in_modulo(engine, grade, w, vec), (name, grade, w)
                blocks += 1
        assert blocks, name


def test_one_run_modulo_two_primes_counts_as_each_prime(monkeypatch):
    # the computation each witness hands to two_primes gives the same counts
    # modulo p1 * p2 as at p1 and at p2, on the instances above
    for module in (rees, witness):
        monkeypatch.setattr(module, "two_primes", lambda seed, compute: compute)
    ctx = RingContext(3, 3)
    computes = [
        ("rees 3x3", rees_ideal(ctx, 2, 3)),
        ("minors 3x4", presentation_dims(relation_engine(RingContext(3, 4), "minors"), 3)),
        ("permanents 3x3", presentation_dims(relation_engine(ctx, "permanents"), 3)),
        ("veronese 3x3 r=1", veronese_presentation_dims(ctx, 1, 3)),
        ("subspace 3x3", presentation_dims(subspace_engine(3, 3), 3)),
        ("koszul 3x3 d=6", koszul_h1_blocks(ctx, "minors", 6)),
    ]
    p1, p2 = PRIMES[2], PRIMES[5]
    for name, compute in computes:
        assert compute(p1 * p2) == compute(p1) == compute(p2), name


def test_buckets_match_the_all_weights_enumeration():
    # the engine builds a bucket at a dominant weight from the multisets one
    # size down, and elsewhere carries the dominant one across; each bucket
    # and multiset list it built equals the all-weights enumeration there,
    # order included, and count visits every dominant weight with sources
    for name, engine, grades in _instances():
        for grade in grades:
            visited = []

            def at(g, w):
                visited.append(w)
                return engine._min_gens_at(g, w)

            engine.count(grade, at)
            everywhere = sources_all_weights(engine, grade)
            dominant = [w for w in everywhere if _is_dominant(w)]
            assert sorted(visited) == sorted(dominant), (name, grade)
            for w in everywhere:
                engine.bucket(grade, w)
        for (grade, w), members in engine._buckets.items():
            assert members == sources_all_weights(engine, grade).get(w, []), (name, grade, w)
        for (e, w), found in engine._multisets.items():
            assert found == multisets_all_weights(engine, e).get(w, []), (name, e, w)


def test_free_column_rank_matches_full_column_rank():
    # the engine ranks the shifted lower kernels on K_w's free sources only;
    # ranking them on every source column gives the same count, also for the
    # Veronese instance, whose kernel is taken modulo a subspace; the oracle
    # eliminates the lower blocks directly, with no transport
    for name, engine, grades in _instances():
        kernel = kernel_blocks_direct(engine)
        for grade in grades:
            for w in sources_all_weights(engine, grade):
                if _is_dominant(w):
                    expected = min_gens_full_columns(engine, grade, w, kernel)
                    assert engine._min_gens_at(grade, w) == expected, (name, grade, w)


def test_generator_table_permutes_minors_and_permanents():
    # permuting the matrix variables by (pi, tau) takes each generator to
    # the sign times the generator the engine's table names
    ctx = RingContext(3, 4)
    for variant in ("minors", "permanents"):
        engine = relation_engine(ctx, variant)
        for pi in permutations(range(ctx.m)):
            for tau in permutations(range(ctx.n)):
                gmap, signs, _ = engine._table((pi, tau))
                # x[i, j] -> x[pi(i), tau(j)], listed in the variable order
                to = [pi[i] * ctx.n + tau[j] for i in range(ctx.m) for j in range(ctx.n)]
                for k, g in enumerate(engine.gens):
                    moved = {}
                    for exp, c in g.items():
                        new = [0] * ctx.num_vars
                        for v, e in enumerate(unpack(exp, ctx.num_vars)):
                            new[to[v]] = e
                        moved[pack(new)] = c
                    target = {exp: signs[k] * c for exp, c in engine.gens[gmap[k]].items()}
                    assert moved == target, (variant, pi, tau, k)


def test_moves_that_do_not_permute_the_generators_are_refused():
    # the generator signs are read off the generators, so a variable map
    # that does not carry each generator to +- another one raises
    ctx = RingContext(2, 3)
    gens = generators_for(ctx, "minors")
    engine = GradedKernel(gens, _weights_of(ctx, gens), ctx.num_vars, lambda perms: list(range(6)))
    with pytest.raises(ValueError):
        engine._table(((0, 1), (1, 0, 2)))
