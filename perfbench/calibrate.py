"""A fixed pure-Python loop that measures how fast the host runs right now.

On a shared VM the cores run slower while the host is busy, in phases of
about a minute, and that moves every wall time of a run together.  The
benchmark times this loop in a fresh interpreter before its first pass and
after each pass, for at least ``SLOT_LOOPS`` loops and about ``SLOT_SHARE``
of the pass's time, and rescales its time metrics by
``REFERENCE_S / mean(loop times)``, so that they read as seconds on a host
where the loop takes ``REFERENCE_S``.  The host's speed also flips within
seconds, so one loop's time jumps by up to a half; the mean over the whole
run averages that out as a pass of several seconds does.

The loop does what minorrel's hot paths do, with fixed inputs and no
minorrel code: sparse elimination mod a 31-bit prime over dict rows, and a
product of sparse polynomials keyed by exponent tuples.  A change to
minorrel does not change the loop's work.
"""

import random
import time

P = 2147483629
REPS = 8
SLOT_LOOPS = 3
SLOT_SHARE = 0.25
# loop time on the reference host, a 2-core Intel Xeon VM at 2.1 GHz with
# Python 3.11.7; changing it, or the loop, rescales every reported time
REFERENCE_S = 0.30
# what one loop returns; a different value means the loop did other work
CHECKSUM = 237438703


def _eliminate(rng):
    pivots = {}
    for _ in range(240):
        row = {rng.randrange(600): rng.randrange(1, P) for _ in range(6)}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(row[c], P - 2, P)
                pivots[c] = {k: v * inv % P for k, v in row.items()}
                break
            coef = row[c]
            for k, v in piv.items():
                x = (row.get(k, 0) - coef * v) % P
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
    return sum(sum(r.values()) for r in pivots.values()) % P


def _multiply(rng):
    f = {tuple(rng.randrange(4) for _ in range(6)): rng.randrange(1, P) for _ in range(90)}
    g = {tuple(rng.randrange(4) for _ in range(6)): rng.randrange(1, P) for _ in range(90)}
    prod = {}
    for ef, cf in f.items():
        for eg, cg in g.items():
            e = tuple(a + b for a, b in zip(ef, eg))
            prod[e] = (prod.get(e, 0) + cf * cg) % P
    return sum(prod.values()) % P


def loop():
    rng = random.Random(1909)
    acc = 0
    for _ in range(REPS):
        acc = (acc * 31 + _eliminate(rng) + _multiply(rng)) % P
    return acc


def timed():
    """(seconds, checksum) of one loop."""
    t0 = time.perf_counter()
    acc = loop()
    return time.perf_counter() - t0, acc


def slot_loops(pass_s):
    """How many loops to time after a pass that took ``pass_s`` seconds."""
    return max(SLOT_LOOPS, round(SLOT_SHARE * pass_s / REFERENCE_S))


if __name__ == "__main__":
    for _ in range(5):
        print("%.4f %d" % timed())
