import random
from fractions import Fraction
from itertools import combinations

import pytest

from minorrel.modlinalg import NonUnitPivot, PRIMES, nullspace_mod, rank_mod, two_primes
from minorrel.polyring import RingContext, pack_weight
from minorrel.rees import ReesEngine
from minorrel.witness import relation_engine
from oracles import nullspace_exact, rank_exact


def random_sparse_rows(rng, nrows, ncols, density=0.3):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                row[j] = rng.randint(-5, 5)
        rows.append({j: c for j, c in row.items() if c})
    return rows


def test_rank_mod_matches_exact_on_random_matrices():
    rng = random.Random(7)
    p = PRIMES[0]
    for _ in range(25):
        rows = random_sparse_rows(rng, 8, 10)
        assert rank_mod(rows, p) == rank_exact(rows)


def test_rank_mod_stop_is_min_of_rank_and_stop():
    rng = random.Random(13)
    p = PRIMES[2]
    matrices = [random_sparse_rows(rng, nrows, 8, 0.4) for nrows in (3, 6, 10, 14)]
    # rank 3 is reached at the third of six rows; the rest are combinations
    base = random_sparse_rows(rng, 3, 8, 0.6)
    extra = [{j: 2 * base[0].get(j, 0) - base[2].get(j, 0) for j in range(8)}, base[1]]
    matrices.append(base + extra + [{}])
    assert rank_mod(matrices[-1], p) == rank_mod(base, p) == 3
    for rows in matrices:
        rank = rank_mod(rows, p)
        assert rank_mod(rows, p, stop=None) == rank
        for k in (0, 1, rank - 1, rank, rank + 3):
            assert rank_mod(rows, p, stop=k) == min(rank, k), (rank, k)


def test_rank_exact_with_fractions():
    rows = [{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: Fraction(3, 2), 1: Fraction(2)}]
    assert rank_exact(rows) == 2
    rows = [{0: Fraction(1, 2), 1: Fraction(1, 3)}, {}]
    rows[1] = {k: 3 * v for k, v in rows[0].items()}
    assert rank_exact(rows) == 1


def test_nullspace_vectors_annihilate_matrix():
    rng = random.Random(11)
    p = PRIMES[1]
    for _ in range(20):
        ncols = 9
        rows = random_sparse_rows(rng, 6, ncols)
        null = nullspace_mod(rows, ncols, p)
        assert len(null) == ncols - rank_mod(rows, p)
        for vec in null:
            for row in rows:
                total = sum(c * vec.get(j, 0) for j, c in row.items()) % p
                assert total == 0


def _engine_block(engine, grade, w):
    """The integer rows the engine eliminates at (grade, w): one per monomial."""
    rows = {}
    for i, s in enumerate(engine.bucket(grade, w)):
        for exp, c in engine.image(s).items():
            rows.setdefault(exp, {})[i] = c
    return list(rows.values()), len(engine.bucket(grade, w))


def _random_and_engine_blocks(rng):
    """Random sparse blocks, then three weight blocks of 3x3 engines, as (rows, ncols)."""
    blocks = [
        (random_sparse_rows(rng, nrows, ncols, density), ncols)
        for nrows, ncols, density in [(6, 9, 0.3), (12, 10, 0.2), (9, 14, 0.15), (20, 12, 0.5)]
    ]
    # the blocks are built over the integers, so the modulus is not read
    ctx, p = RingContext(3, 3), PRIMES[0]
    for engine, grade, w in [
        (relation_engine(ctx, "minors", p), 2, ((2, 1, 1), (2, 1, 1))),
        (relation_engine(ctx, "permanents", p), 3, ((3, 2, 1), (2, 2, 2))),
        (ReesEngine(ctx, "minors", p), (1, 2), ((2, 2, 1), (2, 2, 1))),
    ]:
        blocks.append(_engine_block(engine, grade, pack_weight(w)))
    return blocks


def test_elimination_results_do_not_depend_on_row_order():
    # the rows are taken sparsest first; shuffling them changes neither the
    # kernel basis, which matches the exact reduced echelon form mod p, nor
    # the rank under any early stop
    rng = random.Random(17)
    p = PRIMES[3]
    for rows, ncols in _random_and_engine_blocks(rng):
        expected = nullspace_exact(rows, ncols, p)
        rank = ncols - len(expected)
        for _ in range(6):
            shuffled = rng.sample(rows, len(rows))
            basis = nullspace_mod(shuffled, ncols, p)
            assert basis == expected
            assert [next(iter(v)) for v in basis] == [next(iter(v)) for v in expected]
            for k in {0, 1, max(rank - 1, 0), rank, rank + 2}:
                assert rank_mod(shuffled, p, stop=k) == min(rank, k), (rank, k)


def test_nullspace_of_zero_matrix_is_full():
    p = PRIMES[0]
    null = nullspace_mod([], 4, p)
    assert len(null) == 4


def _ranks_with_primes(rows, seed):
    """Rank by the two-prime driver, and the primes it ran at."""
    used = []

    def rank_at(p):
        used.append(p)
        return rank_mod(rows, p)

    return two_primes(seed, PRIMES, rank_at), used


def test_two_prime_rank_certificate():
    # one run modulo the product of two distinct primes of PRIMES; a pivot
    # that is zero at one of them falls back to a run at each prime
    rng = random.Random(3)
    p1, _ = random.Random(5).sample(PRIMES, 2)
    factors = {p * q: {p, q} for p, q in combinations(PRIMES, 2)}
    for rows, falls_back in [(random_sparse_rows(rng, 6, 6), False), ([{0: p1, 1: 1}], True)]:
        value, used = _ranks_with_primes(rows, 5)
        product, *separate = used
        assert product in factors
        if falls_back:
            assert len(separate) == 2 and set(separate) == factors[product]
        else:
            assert separate == []
        assert value == rank_exact(rows)


def _crt_sparse_rows(rng, nrows, ncols, p1, p2):
    """Sparse rows whose entries include multiples of p1 and of p2."""
    choices = [-3, -2, -1, 1, 2, 3, p1, -p1, 2 * p2, p1 * p2]
    return [
        {j: rng.choice(choices) for j in range(ncols) if rng.random() < 0.35}
        for _ in range(nrows)
    ]


def _assert_matches_each_prime(rows, ncols, p1, p2):
    """The elimination mod p1 * p2 is the elimination at p1 and at p2."""
    q = p1 * p2
    rank = rank_mod(rows, q)
    basis = nullspace_mod(rows, ncols, q)
    assert len(basis) == ncols - rank
    for p in (p1, p2):
        for k in range(rank + 2):
            assert rank_mod(rows, q, stop=k) == rank_mod(rows, p, stop=k), (p, k)
        at_p = nullspace_mod(rows, ncols, p)
        assert [next(iter(v)) for v in basis] == [next(iter(v)) for v in at_p], p
        assert [{c: r for c, v in vec.items() if (r := v % p)} for vec in basis] == at_p, p


def test_one_elimination_modulo_two_primes_is_the_elimination_at_each():
    # Z/p1p2 is Z/p1 x Z/p2: when every pivot is a unit mod p1 * p2, the
    # rank under every stop, the free columns, and the kernel vectors
    # reduced mod either prime are those of the elimination at that prime
    rng = random.Random(29)
    p1, p2 = PRIMES[4], PRIMES[6]
    for rows, ncols in _random_and_engine_blocks(rng):
        _assert_matches_each_prime(rows, ncols, p1, p2)
    # the pivot row's p1 times the row's p2 is 0 mod p1 * p2 in a column
    # where the row has no entry
    _assert_matches_each_prime([{0: 1, 1: p1}, {0: p2, 2: 1}], 3, p1, p2)
    # entries that vanish at one prime: either a pivot is not a unit, or
    # the elimination is still the one at each prime
    outcomes = set()
    for _ in range(60):
        rows = _crt_sparse_rows(rng, rng.randint(3, 9), 8, p1, p2)
        try:
            _assert_matches_each_prime(rows, 8, p1, p2)
            outcomes.add("units")
        except NonUnitPivot:
            outcomes.add("fallback")
    assert outcomes == {"units", "fallback"}


def test_a_pivot_zero_at_one_prime_is_not_a_unit():
    p1, p2 = PRIMES[0], PRIMES[1]
    for rows in ([{0: p1}], [{1: 1}, {0: p2, 1: 5}]):
        with pytest.raises(NonUnitPivot):
            rank_mod(rows, p1 * p2)
        with pytest.raises(NonUnitPivot):
            nullspace_mod(rows, 2, p1 * p2)


def test_deterministic_given_seed():
    rng = random.Random(1)
    rows = random_sparse_rows(rng, 5, 5)
    assert _ranks_with_primes(rows, 42) == _ranks_with_primes(rows, 42)
