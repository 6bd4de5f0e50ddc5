import random
from fractions import Fraction

import pytest

from minorrel.modlinalg import CapacityError, PRIMES, guard_nonzeros, nullspace_mod, rank_mod
from minorrel.witness import two_primes
from oracles import rank_exact


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
