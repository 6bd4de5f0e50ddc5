import random
from math import comb

import pytest

from minorrel.polyring import (
    MAX_EXP,
    MAX_WEIGHT,
    RingContext,
    generators_for,
    guard_degree,
    pack,
    pack_weight,
    poly_mul,
    unpack,
    unpack_weight,
    weight_guards,
    weight_sub,
    x_weight,
)
from minorrel.rees import ReesEngine, _monomials_of_degree
from minorrel.witness import relation_engine
from oracles import quadrics_by_products, span_dimension, unpacked, wadd, wsub


def test_ring_context_indexing():
    ctx = RingContext(2, 3)
    assert ctx.num_vars == 6
    assert ctx == RingContext(m=2, n=3) and repr(ctx) == "RingContext(m=2, n=3)"
    with pytest.raises(AttributeError):
        ctx.m = 3
    for m, n in ((0, 2), (2, 0)):
        with pytest.raises(ValueError):
            RingContext(m, n)


def test_generators_match_products_of_variables():
    # item order too: the elimination order follows it
    for m in range(1, 6):
        for n in range(1, 6):
            ctx = RingContext(m, n)
            for variant in ("minors", "permanents"):
                built = [
                    list(unpacked(f, ctx.num_vars).items()) for f in generators_for(ctx, variant)
                ]
                expected = [list(f.items()) for f in quadrics_by_products(ctx, variant)]
                assert built == expected, (m, n, variant)
    with pytest.raises(ValueError):
        generators_for(RingContext(2, 2), "other")


def test_minor_count_and_shape():
    for m, n in [(2, 2), (2, 4), (3, 3)]:
        ctx = RingContext(m, n)
        mins = generators_for(ctx, "minors")
        assert len(mins) == (m * (m - 1) // 2) * (n * (n - 1) // 2)
        for f in mins:
            assert len(f) == 2
            assert sorted(f.values()) == [-1, 1]
            assert all(type(c) is int for c in f.values())


def test_permanent_count_and_degenerate_scaling():
    ctx = RingContext(2, 2)
    perms = generators_for(ctx, "permanents")
    assert len(perms) == 9
    # degenerate index pairs collapse to a single doubled monomial; the fully
    # degenerate ones are the literal formula value 2*x[i,j]^2
    single = [f for f in perms if len(f) == 1]
    assert len(single) == 8
    assert all(list(f.values()) == [2] for f in single)
    squares = [f for f in single if max(unpack(next(iter(f)), ctx.num_vars)) == 2]
    assert len(squares) == 4


def test_x_weight():
    ctx = RingContext(2, 3)
    # x[0,1] * x[1,2], at row-major indices 1 and 5
    f = poly_mul(ctx, {pack((0, 1, 0, 0, 0, 0)): 1}, {pack((0, 0, 0, 0, 0, 1)): 1})
    exp = next(iter(f))
    assert unpack_weight(x_weight(ctx, exp), 2, 3) == ((1, 1), (0, 1, 1))
    assert x_weight(ctx, exp) == pack_weight(((1, 1), (0, 1, 1)))


def test_monomial_weights_match_x_weight():
    # _monomials_of_degree sums the packed weights of a monomial's variables
    ctx = RingContext(3, 4)
    for d in range(5):
        monomials = list(_monomials_of_degree(ctx, d))
        assert len(monomials) == comb(ctx.num_vars + d - 1, d)
        for key, w in monomials:
            assert w == x_weight(ctx, key), (d, unpack(key, ctx.num_vars))


def test_span_dimension_of_minors_and_permanents():
    for m, n in [(2, 3), (3, 3)]:
        ctx = RingContext(m, n)
        assert span_dimension(generators_for(ctx, "minors")) == (m * (m - 1) // 2) * (
            n * (n - 1) // 2
        )
        assert span_dimension(generators_for(ctx, "permanents")) == (m * (m + 1) // 2) * (
            n * (n + 1) // 2
        )


def test_span_dimension_detects_dependence():
    ctx = RingContext(2, 2)
    f = generators_for(ctx, "minors")[0]
    doubled = {e: 2 * c for e, c in f.items()}
    assert span_dimension([f, doubled]) == 1


def test_pack_unpack_round_trip():
    rng = random.Random(5)
    for nvars in (1, 4, 9, 36):
        for _ in range(50):
            exp = tuple(rng.choice((0, 0, 1, 2, 7, MAX_EXP)) for _ in range(nvars))
            assert unpack(pack(exp), nvars) == exp
    assert pack((0,) * 9) == 0
    # a product of monomials is the sum of their keys
    a, b = (1, 0, 3, 2), (0, 5, 1, 2)
    assert pack(a) + pack(b) == pack(tuple(x + y for x, y in zip(a, b)))


def test_packing_guard_raises_before_a_carry():
    with pytest.raises(OverflowError):
        pack((0, MAX_EXP + 1, 0))
    with pytest.raises(OverflowError):
        pack((1, -1))
    guard_degree(MAX_EXP, "fits")
    with pytest.raises(OverflowError):
        guard_degree(MAX_EXP + 1, "too high")
    # the engine guards each grade before it forms a product: 128 quadrics
    # have degree 256
    engine = relation_engine(RingContext(2, 2), "minors")
    with pytest.raises(OverflowError):
        engine.bucket(128, pack_weight(((128, 128), (128, 128))))
    assert engine.products == {(): {0: 1}}  # no product was formed
    assert engine.bucket(127, pack_weight(((127, 127), (127, 127))))
    with pytest.raises(OverflowError):
        ReesEngine(RingContext(2, 2)).bucket((2, 127), pack_weight(((128, 128), (128, 128))))


def _random_weight(rng, m, n, top):
    fields = [rng.randint(0, top) for _ in range(m + n)]
    return tuple(fields[:m]), tuple(fields[m:])


def test_packed_weight_arithmetic_matches_tuples():
    # the key of a sum is the sum of the keys; the guarded difference is the
    # key of the difference, or None where an entry goes negative; every key
    # unpacks to its weight; layouts up to 5x5
    rng = random.Random(13)
    for m in range(1, 6):
        for n in range(1, 6):
            guards = weight_guards(m, n)
            zero = (0,) * m, (0,) * n
            top = ((0,) * m, (0,) * (n - 1) + (1,))  # 1 in the highest field
            low = ((1,) + (0,) * (m - 1), (0,) * n)  # 1 in the lowest field
            full = (MAX_WEIGHT,) * m, (MAX_WEIGHT,) * n
            pairs = [(zero, low), (zero, top), (full, full), (full, zero), (zero, full)]
            pairs += [(full, low), (full, top), (low, top), (top, low)]
            for _ in range(60):
                pairs.append((_random_weight(rng, m, n, 3), _random_weight(rng, m, n, 3)))
                big, small = _random_weight(rng, m, n, MAX_WEIGHT), _random_weight(rng, m, n, 9)
                pairs.append((big, small))
                w = _random_weight(rng, m, n, MAX_WEIGHT)
                pairs.append((w, _random_weight(rng, m, n, MAX_WEIGHT)))
                pairs.append((w, w))
            for w, d in pairs:
                kw, kd = pack_weight(w), pack_weight(d)
                assert unpack_weight(kw, m, n) == w
                diff = wsub(w, d)
                found = weight_sub(kw, kd, guards)
                assert found == (None if diff is None else pack_weight(diff)), (w, d)
                total = wadd(w, d)
                if max(max(total[0]), max(total[1])) <= MAX_WEIGHT:
                    assert kw + kd == pack_weight(total), (w, d)
                    assert weight_sub(kw + kd, kd, guards) == kw
    assert weight_sub(0, pack_weight(((1,), (0,))), weight_guards(1, 1)) is None
    assert weight_sub(0, pack_weight(((0,), (1,))), weight_guards(1, 1)) is None
    for bad in [((MAX_WEIGHT + 1,), (0,)), ((0,), (-1,)), ((0, 0), (0, MAX_WEIGHT + 1))]:
        with pytest.raises(OverflowError):
            pack_weight(bad)
