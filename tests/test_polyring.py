import pytest

from minorrel.polyring import RingContext, generators_for, poly_mul, x_weight
from oracles import quadrics_by_products, span_dimension


def test_ring_context_indexing():
    ctx = RingContext(2, 3)
    assert ctx.num_vars == 6


def test_generators_match_products_of_variables():
    # item order too: the elimination order follows it
    for m in range(1, 6):
        for n in range(1, 6):
            ctx = RingContext(m, n)
            for variant in ("minors", "permanents"):
                built = [list(f.items()) for f in generators_for(ctx, variant)]
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
    squares = [f for f in single if max(next(iter(f))) == 2]
    assert len(squares) == 4


def test_x_weight():
    ctx = RingContext(2, 3)
    # x[0,1] * x[1,2], at row-major indices 1 and 5
    f = poly_mul(ctx, {(0, 1, 0, 0, 0, 0): 1}, {(0, 0, 0, 0, 0, 1): 1})
    exp = next(iter(f))
    assert x_weight(ctx, exp) == ((1, 1), (0, 1, 1))


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
