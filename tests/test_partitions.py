from collections import Counter
from itertools import product

import pytest

from minorrel.partitions import (
    canon,
    conjugate,
    dim_schur,
    hook_lengths,
    in_M_r,
    parse_partition,
    partitions_of,
)
from minorrel.symfunc import kostka
from oracles import contains, is_horizontal_strip, weyl_dim_weight


def ssyt_contents(lam, n):
    """Brute-force count of semistandard tableaux of shape lam, entries <= n.

    Returns a Counter keyed by content: (number of 1s, ..., number of ns).
    """
    lam = canon(lam)
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    out = Counter()

    def fill(idx, grid):
        if idx == len(cells):
            entries = Counter(grid.values())
            out[tuple(entries[e] for e in range(1, n + 1))] += 1
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, grid[(i, j - 1)])
        if i > 0:
            lo = max(lo, grid[(i - 1, j)] + 1)
        for v in range(lo, n + 1):
            grid[(i, j)] = v
            fill(idx + 1, grid)
        grid.pop((i, j), None)

    fill(0, {})
    return out


def ssyt_count(lam, n):
    return sum(ssyt_contents(lam, n).values())


def test_parse_format_round_trip():
    for text in ["0", "1", "3,1,1", "2,2"]:
        assert (",".join(map(str, parse_partition(text))) or "0") == text


def test_canon_rejects_increasing():
    with pytest.raises(ValueError):
        canon((1, 2))


def test_conjugate_involution():
    for d in range(0, 8):
        for lam in partitions_of(d):
            assert conjugate(conjugate(lam)) == lam


def test_conjugate_example():
    assert conjugate((3, 1, 1)) == (3, 1, 1)
    assert conjugate((4, 2)) == (2, 2, 1, 1)


def test_containment_and_strips():
    assert contains((3, 2), (2, 1))
    assert not contains((2, 2), (3,))
    assert is_horizontal_strip((3, 1), (2,))
    assert is_horizontal_strip((2, 2), (2, 1))
    assert not is_horizontal_strip((2, 2), (1,))


def test_dim_schur_matches_tableau_count():
    for d in range(0, 7):
        for lam in partitions_of(d):
            for n in range(1, 5):
                assert dim_schur(lam, n) == ssyt_count(lam, n)


def test_dim_schur_vanishes_beyond_row_count():
    assert dim_schur((1, 1, 1), 2) == 0
    assert dim_schur((2, 1, 1, 1), 3) == 0


def test_weyl_dim_weight_agrees_on_partitions():
    for d in range(0, 7):
        for lam in partitions_of(d):
            for n in range(max(1, len(lam)), 5):
                padded = tuple(lam) + (0,) * (n - len(lam))
                assert weyl_dim_weight(padded) == dim_schur(lam, n)


def test_hook_lengths_product():
    hooks = hook_lengths((2, 1))
    flat = sorted(h for row in hooks for h in row)
    assert flat == [1, 1, 3]


def test_kostka_values():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((2, 1), (2, 1)) == 1
    assert kostka((1, 1), (2,)) == 0
    assert kostka((3,), (1, 1, 1)) == 1


def test_kostka_matches_tableau_count_for_every_composition():
    # every content of length <= 4, zero parts and unsorted orders included
    for d in range(7):
        for lam in partitions_of(d):
            counts = ssyt_contents(lam, 4)
            for length in range(5):
                for alpha in product(range(d + 1), repeat=length):
                    if sum(alpha) == d:
                        expected = counts[alpha + (0,) * (4 - length)]
                        assert kostka(lam, alpha) == expected, (lam, alpha)


def test_kostka_row_sums_give_dimension():
    # dim of the GL_n representation = sum over weights of multiplicities
    from itertools import combinations_with_replacement

    for lam in [(2, 1), (2, 2), (3, 1)]:
        n = 3
        total = 0
        d = sum(lam)

        def compositions(total_, parts):
            if parts == 1:
                yield (total_,)
                return
            for first in range(total_ + 1):
                for rest in compositions(total_ - first, parts - 1):
                    yield (first,) + rest

        for w in compositions(d, n):
            mu = canon(tuple(sorted(w, reverse=True)))
            total += kostka(lam, mu)
        assert total == dim_schur(lam, n)


def test_in_M_r_membership():
    assert in_M_r((2, 2), 0)
    assert in_M_r((2, 1, 1), 0)
    assert not in_M_r((4,), 0)
    assert not in_M_r((4,), 1)
    assert in_M_r((4,), 2)
    assert in_M_r((3, 1), 1)
    assert not in_M_r((2, 1), 1)  # odd size
