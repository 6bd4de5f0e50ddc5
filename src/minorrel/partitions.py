"""Integer partitions and the combinatorial predicates used everywhere else.

Partitions are plain tuples of weakly decreasing positive integers, in
canonical form (no trailing zeros).  The empty partition is ``()``.
"""

from fractions import Fraction
from functools import lru_cache


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


def conjugate(lam):
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def partitions_of(n):
    """Yield all partitions of n, in reverse lexicographic order."""

    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def hook_lengths(lam):
    conj = conjugate(lam)
    return [
        [lam[i] - j + conj[j] - i - 1 for j in range(lam[i])]
        for i in range(len(lam))
    ]


@lru_cache(maxsize=None)
def dim_schur(lam, n):
    """Dimension of the Schur functor S_lam applied to C^n.

    Hook-content formula; zero exactly when lam has more than n parts.
    """
    lam = canon(lam)
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(lam) > n:
        return 0
    num = Fraction(1)
    hooks = hook_lengths(lam)
    for i in range(len(lam)):
        for j in range(lam[i]):
            num *= Fraction(n + j - i, hooks[i][j])
    assert num.denominator == 1
    return int(num)


def in_M_r(lam, r):
    """Membership in M_r = even-size partitions with 2*lam_1 - |lam| <= 2r."""
    lam = canon(lam)
    size = sum(lam)
    if size % 2 != 0:
        return False
    first = lam[0] if lam else 0
    return 2 * first - size <= 2 * r


@lru_cache(maxsize=None)
def kostka(lam, content):
    """Number of semistandard tableaux of shape lam and given content.

    Computed by peeling off the cells holding the largest entry, which must
    form a horizontal strip.
    """
    lam = canon(lam)
    content = tuple(content)
    while content and content[-1] == 0:
        content = content[:-1]
    if not content:
        return 1 if not lam else 0
    if sum(lam) != sum(content):
        return 0
    last = content[-1]
    total = 0
    for nu in _sub_horizontal_strips(lam, last):
        total += kostka(nu, content[:-1])
    return total


def _sub_horizontal_strips(lam, k):
    """All nu obtained by removing a horizontal strip of size k from lam."""
    out = []

    def rec(i, remaining, prefix):
        if i == len(lam):
            if remaining == 0:
                out.append(canon(prefix))
            return
        below = lam[i + 1] if i + 1 < len(lam) else 0
        lo = max(below, lam[i] - remaining)
        hi = lam[i] if not prefix else min(lam[i], prefix[-1])
        # nu_i ranges so that lam/nu is a horizontal strip: nu_i >= lam_{i+1}
        for nu_i in range(hi, lo - 1, -1):
            if prefix and nu_i > prefix[-1]:
                continue
            rec(i + 1, remaining - (lam[i] - nu_i), prefix + [nu_i])

    rec(0, k, [])
    return out
