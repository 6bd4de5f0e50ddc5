from itertools import combinations, permutations

import pytest

from minorrel import modlinalg, rees, witness
from minorrel.modlinalg import PRIMES, rank_mod
from minorrel.polyring import RingContext, generators_for, pack, pack_weight, unpack, unpack_weight
from minorrel.rees import (
    GradedKernel,
    ReesEngine,
    _weights_of,
    fiber_type_check,
    orbit_total,
    rees_ideal,
)
from minorrel.tasks import RESULTS_DIR_ENV, VerificationTask, run
from minorrel.witness import (
    VeroneseEngine,
    koszul_h1_blocks,
    presentation_dims,
    relation_dims,
    relation_engine,
    subspace_engine,
    veronese_presentation_dims,
)
from oracles import (
    at_two_primes,
    coefficient_rows,
    is_dominant,
    kernel_block_direct,
    kernel_blocks_direct,
    min_gens_full_columns,
    multisets_all_weights,
    sources_all_weights,
)


def test_principal_ideal_has_no_relations():
    # one minor: the Rees ideal of a principal ideal is zero
    assert at_two_primes(rees_ideal, RingContext(2, 2), 3, 3) == []


def test_2x3_linear_syzygies():
    assert at_two_primes(rees_ideal, RingContext(2, 3), 3, 3) == [((1, 2), 2)]


def test_2x4_fiber_and_syzygy_generators():
    table = at_two_primes(rees_ideal, RingContext(2, 4), a_max=2, e_max=2)
    assert table == [((0, 4), 1), ((1, 2), 8)]
    # the pure-T bidegree reproduces the defining relations of the image
    dims = at_two_primes(relation_dims, RingContext(2, 4), "minors", 2)
    assert dict(table)[(0, 4)] == dims[2][1]


def test_3x3_fiber_type_with_sixteen_syzygies():
    fiber, table = at_two_primes(fiber_type_check, RingContext(3, 3), 3, 3)
    assert fiber
    assert table == {(1, 2): 16}
    # the linear syzygies agree with the first Koszul homology in degree 3
    h1 = at_two_primes(koszul_h1_blocks, RingContext(3, 3), "minors", 3)[3]
    assert table[(1, 2)] == orbit_total(h1)


def test_fiber_type_small_cases():
    for m, n in [(2, 2), (2, 3)]:
        fiber, _ = at_two_primes(fiber_type_check, RingContext(m, n), 3, 3)
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
        for w, c in at.items():
            rows, cols = unpack_weight(w, *engine.shape)
            dom = pack_weight((sorted(rows, reverse=True), sorted(cols, reverse=True)))
            assert (at[dom], dims[dom]) == (c, dims[w]), (grade, rows, cols)
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
        (VeroneseEngine(RingContext(2, 3), 1), [1, 2, 3], {2: 9}),
        (VeroneseEngine(RingContext(3, 3), 1), [1, 2], {2: 99}),
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
        ("veronese 3x3 r=1", VeroneseEngine(RingContext(3, 3), 1).at(p), [1, 2, 3]),
        ("veronese 3x3 r=2", VeroneseEngine(RingContext(3, 3), 2).at(p), [2, 3]),
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


def _is_representative(engine, w):
    return engine._orbit(w)[0] == w


def _transport_mismatches(engine, grades):
    """(blocks checked, [(grade, w)]) of the non-representative blocks whose kernel is wrong.

    A block's transported kernel is right if it has the dimension and the
    rank of the kernel eliminated directly there, lies in it, and maps to
    zero (or into `modulo`).
    """
    p = engine.p
    blocks, wrong = 0, []
    for grade in grades:
        for w, members in sources_all_weights(engine, grade).items():
            if _is_representative(engine, w):
                continue
            moved = engine.kernel_block(grade, w)
            direct = kernel_block_direct(engine, grade, w)
            col = {s: i for i, s in enumerate(members)}
            dim = len(direct)
            if not (
                len(moved) == dim
                and _rank_of(moved, col, p) == dim
                and _rank_of(moved + direct, col, p) == dim
                and all(_image_lies_in_modulo(engine, grade, w, vec) for vec in moved)
            ):
                wrong.append((grade, w))
            blocks += 1
    return blocks, wrong


def test_transported_kernels_match_direct_elimination():
    # at every weight but the engine's representatives, the kernel carried
    # over from the representative spans the kernel of the block eliminated
    # directly; at m = n that includes the transposed blocks, which are
    # S_m x S_n-dominant
    for name, engine, grades in _instances():
        blocks, wrong = _transport_mismatches(engine, grades)
        assert blocks, name
        assert wrong == [], name


def test_transport_with_every_sign_plus_one_is_caught(monkeypatch):
    # a standing fault: a table whose generator signs are all +1 leaves
    # every `suite --profile full` verdict at pass, so the comparison with
    # direct elimination must catch it, at some non-representative weight
    # of the Rees ideal of the 3x3 minors.  The 3x3 minors have no
    # relations of their own, so it is caught on their linear syzygies, in
    # grade (a, e) = (2, 1)
    table = GradedKernel._table

    def all_plus(self, move):
        gmap, signs, fmap = table(self, move)
        return gmap, [1] * len(signs), fmap

    monkeypatch.setattr(GradedKernel, "_table", all_plus)
    engine = ReesEngine(RingContext(3, 3)).at(PRIMES[2])
    blocks, wrong = _transport_mismatches(engine, [(1, 1), (2, 1)])
    assert 0 < len(wrong) < blocks


THM_1_2_3X3 = VerificationTask("thm-1.2", {"m": 3, "n": 3, "d_max": 3})


def test_min_gens_rank_one_pivot_short_is_caught(monkeypatch):
    # a standing fault: the minimal-generator rank stops one pivot before
    # the kernel's dimension, so a block that the shifted lower kernels
    # span counts a generator; the thm-1.2 3x3 verdict must catch it
    monkeypatch.delenv(RESULTS_DIR_ENV, raising=False)
    assert run(THM_1_2_3X3).verdict == "pass"
    rank = rees.rank_mod
    monkeypatch.setattr(rees, "rank_mod", lambda rows, q, stop: rank(rows, q, stop - 1))
    assert run(THM_1_2_3X3).verdict == "fail"


def test_transpose_without_the_swap_is_caught(monkeypatch):
    # a standing fault: the moves that the relation engine binds read a
    # transposed move as the plain one, x[i, j] to x[rows[i], cols[j]];
    # the thm-1.2 3x3 task must not pass.  It fails, or the transport table
    # refuses the move (it does so today: a minor moved without the swap is
    # not +- the generator of its transposed weight)
    monkeypatch.delenv(RESULTS_DIR_ENV, raising=False)
    assert run(THM_1_2_3X3).verdict == "pass"
    moves = witness.matrix_moves

    def no_swap(ctx):
        plain = moves(ctx)
        return lambda move: plain((move[0], move[1], False))

    monkeypatch.setattr(witness, "matrix_moves", no_swap)
    try:
        verdict = run(THM_1_2_3X3).verdict
    except ValueError as exc:
        verdict = str(exc)
    assert verdict != "pass"


def test_one_run_modulo_two_primes_counts_as_each_prime(monkeypatch):
    # each witness eliminates modulo the q it is given, and no other, and
    # gives the same counts modulo p1 * p2 as at p1 and at p2, on the
    # instances above
    moduli = set()

    def eliminate(rows, q, stop=None, run=modlinalg._eliminate_mod):
        moduli.add(q)
        return run(rows, q, stop)

    monkeypatch.setattr(modlinalg, "_eliminate_mod", eliminate)
    ctx, ctx34 = RingContext(3, 3), RingContext(3, 4)
    computes = [
        ("rees 3x3", lambda q: rees_ideal(ctx, 2, 3, q)),
        ("minors 3x4", lambda q: presentation_dims(relation_engine(ctx34, "minors"), 3, q)),
        ("permanents 3x3", lambda q: presentation_dims(relation_engine(ctx, "permanents"), 3, q)),
        ("veronese 3x3 r=1", lambda q: veronese_presentation_dims(ctx, 1, 3, q)),
        ("subspace 3x3", lambda q: presentation_dims(subspace_engine(3, 3), 3, q)),
        ("koszul 3x3 d=6", lambda q: koszul_h1_blocks(ctx, "minors", 6, q)[6]),
    ]
    p1, p2 = PRIMES[2], PRIMES[5]
    for name, compute in computes:
        counts = []
        for q in (p1 * p2, p1, p2):
            moduli.clear()
            counts.append(compute(q))
            assert moduli == {q}, (name, q)
        assert counts[0] == counts[1] == counts[2], name


def test_buckets_match_the_all_weights_enumeration():
    # the engine builds a bucket, at any weight, by pairing each factor with
    # the multisets of the rest of the weight, and a multiset list from the
    # lists one size down; each one it built equals the all-weights
    # enumeration there, order included.  count visits every representative
    # weight with sources once, and builds no other bucket: transport keys
    # the moved kernel vectors by the tuples it makes
    for name, engine, grades in _instances():
        for grade in grades:
            visited = []

            def at(g, w):
                visited.append(w)
                return engine._min_gens_at(g, w)

            engine.count(grade, at)
            everywhere = sources_all_weights(engine, grade)
            reps = [w for w in everywhere if _is_representative(engine, w)]
            assert sorted(visited) == sorted(reps), (name, grade)
        for grade, w in engine._buckets:
            assert _is_representative(engine, w), (name, grade, w)
        for grade in grades:
            for w in sources_all_weights(engine, grade):
                engine.bucket(grade, w)
        for (grade, w), members in engine._buckets.items():
            assert members == sources_all_weights(engine, grade).get(w, []), (name, grade, w)
        for (e, w), found in engine._multisets.items():
            assert found == multisets_all_weights(engine, e).get(w, []), (name, e, w)


def test_orbit_table_weights_every_weight_with_sources_once(monkeypatch):
    # each grade's table lists each representative with sources once, and
    # its orbit weights add up to the number of weights with sources; it is
    # built once per grade, and kernel_dim, min_gens and image_dim share it
    builds = []
    padded = rees._padded_partitions

    def counted(total, parts):
        builds.append((total, parts))
        return padded(total, parts)

    monkeypatch.setattr(rees, "_padded_partitions", counted)
    for name, engine, grades in _instances():
        for grade in grades:
            engine.kernel_dim(grade)
            table, made = engine._rep_tables[grade], len(builds)
            engine.min_gens(grade)
            engine.image_dim(grade)
            assert engine._rep_tables[grade] is table and len(builds) == made, (name, grade)
            reps = [w for w, _ in table]
            assert len(set(reps)) == len(reps), (name, grade)
            assert all(_is_representative(engine, w) for w in reps), (name, grade)
            total = sum(k for _, k in table)
            assert total == len(sources_all_weights(engine, grade)), (name, grade)


def test_orbit_table_without_the_mirrored_weight_is_caught(monkeypatch):
    # a standing fault: at m = n a representative (lam, mu) with lam != mu
    # also stands for its mirror's orbit; a table that drops the mirror's
    # weight must change the Rees 3x3 count and fail the thm-1.2 3x3 verdict
    monkeypatch.delenv(RESULTS_DIR_ENV, raising=False)
    reps = GradedKernel._reps

    def one_side(self, grade):
        out = []
        for w, k in reps(self, grade):
            lam, mu = unpack_weight(w, *self.shape)
            out.append((w, k // 2 if self._transpose and lam != mu else k))
        return out

    monkeypatch.setattr(GradedKernel, "_reps", one_side)
    _, table = at_two_primes(fiber_type_check, RingContext(3, 3), 3, 3)
    assert table != {(1, 2): 16}
    assert run(THM_1_2_3X3).verdict == "fail"


def test_free_column_rank_matches_full_column_rank():
    # the engine ranks the shifted lower kernels on K_w's free sources only;
    # ranking them on every source column gives the same count, also for the
    # Veronese instance, whose kernel is taken modulo a subspace; the oracle
    # eliminates the lower blocks directly, with no transport
    for name, engine, grades in _instances():
        kernel = kernel_blocks_direct(engine)
        for grade in grades:
            for w in sources_all_weights(engine, grade):
                if _is_representative(engine, w):
                    expected = min_gens_full_columns(engine, grade, w, kernel)
                    assert engine._min_gens_at(grade, w) == expected, (name, grade, w)


def _moved(f, to, nvars):
    """The polynomial f with variable v renamed to[v]."""
    out = {}
    for exp, c in f.items():
        new = [0] * nvars
        for v, e in enumerate(unpack(exp, nvars)):
            new[to[v]] = e
        out[pack(new)] = c
    return out


def _matrix_to(m, n):
    """The map of a move to its `moves`, written out for the m x n matrix variables.

    In the variable order, x[i, j] goes to x[pi(i), tau(j)], or transposed
    to x[pi(j), tau(i)].
    """
    cells = [(i, j) for i in range(m) for j in range(n)]

    def to(move):
        pi, tau, transposed = move
        if transposed:
            return [pi[j] * n + tau[i] for i, j in cells]
        return [pi[i] * n + tau[j] for i, j in cells]

    return to


def test_generator_table_permutes_minors_and_permanents():
    # moving the variables by (pi, tau, transposed) takes each generator to
    # the sign times the generator the engine's table names; at 3x3 the
    # transpose x[i, j] -> x[pi(j), tau(i)] is a move too, and on its own it
    # keeps every minor and every permanent with sign +1.  The subspace
    # parameters have no transpose, and move by the engine's own `moves`
    cases = []
    for ctx, flips in [(RingContext(3, 4), (False,)), (RingContext(3, 3), (False, True))]:
        for variant in ("minors", "permanents"):
            engine = relation_engine(ctx, variant)
            assert engine._transpose == (ctx.m == ctx.n), (ctx, variant)
            cases.append((f"{variant} {ctx.m}x{ctx.n}", engine, flips, _matrix_to(ctx.m, ctx.n)))
    subspace = subspace_engine(3, 3)
    cases.append(("subspace 3x3", subspace, (False,), subspace.moves))
    for name, engine, flips, to in cases:
        m, n = engine.shape
        identity = (tuple(range(m)), tuple(range(n)))
        for pi in permutations(range(m)):
            for tau in permutations(range(n)):
                for transposed in flips:
                    move = (pi, tau, transposed)
                    gmap, signs, _ = engine._table(move)
                    for k, g in enumerate(engine.gens):
                        target = engine.gens[gmap[k]]
                        target = {exp: signs[k] * c for exp, c in target.items()}
                        assert _moved(g, to(move), engine.nvars) == target, (name, move, k)
                    if transposed and (pi, tau) == identity:
                        assert signs == [1] * len(signs), name


def test_moves_that_do_not_permute_the_generators_are_refused():
    # the generator signs are read off the generators, so a variable map
    # that does not carry each generator to +- another one raises
    ctx = RingContext(2, 3)
    gens = generators_for(ctx, "minors")
    moves = lambda move: list(range(6))
    engine = GradedKernel(gens, _weights_of(ctx, gens), (ctx.m, ctx.n), ctx.num_vars, moves)
    with pytest.raises(ValueError):
        engine._table(((0, 1), (1, 0, 2), False))
    # a "transpose" that swaps the weights' row and column sums but leaves
    # every variable where it is
    ctx = RingContext(3, 3)
    gens = generators_for(ctx, "minors")
    moves = lambda move: list(range(9))
    engine = GradedKernel(gens, _weights_of(ctx, gens), (ctx.m, ctx.n), ctx.num_vars, moves)
    assert engine._transpose
    with pytest.raises(ValueError):
        engine._table(((0, 1, 2), (0, 1, 2), True))


def test_subspace_engine_has_no_transpose():
    # h acts on the rows only, so the subspace moves refuse the transpose,
    # and at 3x3 the engine's representatives are the dominant weights; the
    # relation engine at 3x3 has the transpose, and fewer representatives
    engine = subspace_engine(3, 3)
    with pytest.raises(ValueError):
        engine.moves(((0, 1, 2), (0, 1, 2), True))
    assert not engine._transpose
    for grade in (1, 2, 3):
        for w in sources_all_weights(engine, grade):
            dominant = is_dominant(unpack_weight(w, 3, 3))
            assert _is_representative(engine, w) == dominant, (grade, w)
    minors = relation_engine(RingContext(3, 3), "minors")
    weights = [w for w in sources_all_weights(minors, 2) if is_dominant(unpack_weight(w, 3, 3))]
    reps = [w for w in weights if _is_representative(minors, w)]
    assert 0 < len(reps) < len(weights)


def test_veronese_factor_map_transposes_the_generator_space():
    # the Veronese instance moves its factors, the polynomials of G_c, by
    # weight alone: every move, transposed or not, must carry each one to
    # +1 times the polynomial the factor map names
    ctx = RingContext(3, 3)
    for r in (1, 2):
        engine = VeroneseEngine(ctx, r)
        for pi in permutations(range(3)):
            for tau in permutations(range(3)):
                for transposed in (False, True):
                    move = (pi, tau, transposed)
                    fmap, to = engine.factor_map(move), engine.moves(move)
                    for gi, g in enumerate(engine.gspace):
                        assert _moved(g, to, ctx.num_vars) == engine.gspace[fmap(gi)], (r, move)


def _koszul_h1_from_rees(ctx, variant, d, q):
    """{dominant weight: H_1} of the Koszul complex of W in degree d, from the Rees engine.

    A syzygy sum T_k f_k with sum w_k f_k = 0 and deg f_k = d - 2 is an
    element of the Rees ideal in bidegree (d - 2, 1), so H_1 at w is the
    dimension of that kernel block K_w minus the rank of the Koszul rows
    e_k ^ e_l (x) x^b -> (x^b w_l, T_k) - (x^b w_k, T_l).  Those rows lie in
    K_w, so they are ranked on K_w's free columns alone.
    """
    engine = ReesEngine(ctx, variant).at(q)
    gens, gw = engine.gens, engine.weights
    pairs = [(k, l, gw[k] + gw[l]) for k, l in combinations(range(len(gens)), 2)]
    monos = list(rees._monomials_of_degree(ctx, d - 4)) if d >= 4 else []
    out = {}
    for lam in rees._padded_partitions(d, ctx.m):
        for mu in rees._padded_partitions(d, ctx.n):
            w = pack_weight((lam, mu))
            kw = engine.kernel_block((d - 2, 1), w)
            col = {next(iter(v)): i for i, v in enumerate(kw)}
            rows = []
            for b, bw in monos:
                for k, l, klw in pairs:
                    if bw + klw != w:
                        continue
                    row = {}
                    for one, other, sign in ((k, l, 1), (l, k, -1)):
                        for exp, c in gens[other].items():
                            i = col.get((exp + b, (one,)))
                            if i is not None:
                                row[i] = row.get(i, 0) + sign * c
                    rows.append(row)
            h1 = len(kw) - rank_mod(rows, q, stop=len(kw))
            if h1:
                out[(lam, mu)] = h1
    return out


@pytest.mark.parametrize(
    "m, n, variant, d_max",
    [(3, 3, "minors", 6), (3, 3, "permanents", 6), (3, 4, "minors", 5)],
)
def test_koszul_h1_is_the_rees_kernel_modulo_koszul_rows(m, n, variant, d_max):
    # two independent routes to H_1 at each dominant weight: the Koszul
    # boundary blocks built by hand, and the Rees engine's kernel in
    # bidegree (d - 2, 1) modulo the images of the Koszul rows
    ctx = RingContext(m, n)
    h1 = at_two_primes(koszul_h1_blocks, ctx, variant, d_max)
    for d in range(2, d_max + 1):
        assert _koszul_h1_from_rees(ctx, variant, d, PRIMES[0]) == h1[d], d
