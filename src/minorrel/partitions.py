"""Integer partitions and the combinatorial predicates used everywhere else.

Partitions are plain tuples of weakly decreasing positive integers, in
canonical form (no trailing zeros).  The empty partition is ``()``.
``partitions_of`` (one shared tuple per n) and ``conjugate`` are memoised.
Products of Schur functions, Kostka numbers among them, are in symfunc.
"""

from functools import lru_cache
from math import prod


def canon(parts):
    """Canonicalize a sequence into a partition tuple.

    Strips trailing zeros and checks that the parts are weakly decreasing
    nonnegative integers.
    """
    parts = tuple(int(p) for p in parts)
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError(f"parts not weakly decreasing: {parts}")
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part in {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def parse_partition(text):
    """Parse the CLI syntax: comma-separated parts, "0" for the empty one."""
    text = text.strip()
    if text in ("", "0"):
        return ()
    return canon(int(p) for p in text.split(","))


@lru_cache(maxsize=None)
def conjugate(lam):
    """Transpose of the Young diagram, memoised."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


@lru_cache(maxsize=None)
def partitions_of(n):
    """All partitions of n as a tuple, in reverse lexicographic order, memoised."""

    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return tuple(rec(n, n))


def hook_lengths(lam):
    conj = conjugate(lam)
    return [
        [lam[i] - j + conj[j] - i - 1 for j in range(lam[i])]
        for i in range(len(lam))
    ]


@lru_cache(maxsize=None)
def dim_schur(lam, n):
    """Dimension of the Schur functor S_lam applied to C^n.

    Hook-content formula, prod(n + j - i) // prod(hooks) over the cells
    (i, j), an exact division; zero exactly when lam has more than n parts.
    """
    lam = canon(lam)
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(lam) > n:
        return 0
    contents = prod(n + j - i for i in range(len(lam)) for j in range(lam[i]))
    return contents // prod(h for row in hook_lengths(lam) for h in row)


def in_M_r(lam, r):
    """Membership in M_r = even-size partitions with 2*lam_1 - |lam| <= 2r."""
    lam = canon(lam)
    size = sum(lam)
    if size % 2 != 0:
        return False
    first = lam[0] if lam else 0
    return 2 * first - size <= 2 * r
