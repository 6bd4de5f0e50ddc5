import random
from fractions import Fraction

import pytest

from minorrel.modlinalg import CapacityError, PRIMES, guard_nonzeros, nullspace_mod, rank_mod
from minorrel.polyring import RingContext
from minorrel.rees import ReesEngine
from minorrel.witness import relation_engine, two_primes
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


def test_elimination_results_do_not_depend_on_row_order():
    # the rows are taken sparsest first; shuffling them changes neither the
    # kernel basis, which matches the exact reduced echelon form mod p, nor
    # the rank under any early stop
    rng = random.Random(17)
    p = PRIMES[3]
    blocks = [
        (random_sparse_rows(rng, nrows, ncols, density), ncols)
        for nrows, ncols, density in [(6, 9, 0.3), (12, 10, 0.2), (9, 14, 0.15), (20, 12, 0.5)]
    ]
    ctx = RingContext(3, 3)
    for engine, grade, w in [
        (relation_engine(ctx, "minors"), 2, ((2, 1, 1), (2, 1, 1))),
        (relation_engine(ctx, "permanents"), 3, ((3, 2, 1), (2, 2, 2))),
        (ReesEngine(ctx), (1, 2), ((2, 2, 1), (2, 2, 1))),
    ]:
        blocks.append(_engine_block(engine, grade, w))
    for rows, ncols in blocks:
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

    return two_primes(seed, rank_at), used


def test_two_prime_rank_certificate():
    rng = random.Random(3)
    rows = random_sparse_rows(rng, 6, 6)
    value, primes = _ranks_with_primes(rows, 5)
    assert len(set(primes)) == 2
    assert all(p in PRIMES for p in primes)
    assert value == rank_exact(rows)


def test_deterministic_given_seed():
    rng = random.Random(1)
    rows = random_sparse_rows(rng, 5, 5)
    assert _ranks_with_primes(rows, 42) == _ranks_with_primes(rows, 42)


def test_capacity_guard():
    with pytest.raises(CapacityError):
        guard_nonzeros(10**9, "stress test")
    guard_nonzeros(10, "small")
