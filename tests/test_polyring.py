from fractions import Fraction

import pytest

from minorrel.polyring import (
    RingContext,
    minors_basis,
    permanents_basis,
    poly,
    poly_mul,
    poly_scale,
    x_var,
    x_weight,
)
from oracles import span_dimension


def test_ring_context_indexing():
    ctx = RingContext(2, 3)
    assert ctx.num_vars == 6
    assert ctx.x_index(1, 1) == 0
    assert ctx.x_index(2, 3) == 5
    with pytest.raises(IndexError):
        ctx.x_index(3, 1)


def test_minor_count_and_shape():
    for m, n in [(2, 2), (2, 4), (3, 3)]:
        ctx = RingContext(m, n)
        mins = minors_basis(ctx)
        assert len(mins) == (m * (m - 1) // 2) * (n * (n - 1) // 2)
        for f in mins:
            assert len(f) == 2
            assert sorted(f.values()) == [Fraction(-1), Fraction(1)]


def test_permanent_count_and_degenerate_scaling():
    ctx = RingContext(2, 2)
    perms = permanents_basis(ctx)
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
    f = poly_mul(ctx, x_var(ctx, 1, 2), x_var(ctx, 2, 3))
    exp = next(iter(f))
    assert x_weight(ctx, exp) == ((1, 1), (0, 1, 1))


def test_span_dimension_of_minors_and_permanents():
    for m, n in [(2, 3), (3, 3)]:
        ctx = RingContext(m, n)
        assert span_dimension(minors_basis(ctx)) == (m * (m - 1) // 2) * (
            n * (n - 1) // 2
        )
        assert span_dimension(permanents_basis(ctx)) == (m * (m + 1) // 2) * (
            n * (n + 1) // 2
        )


def test_span_dimension_detects_dependence():
    ctx = RingContext(2, 2)
    f = minors_basis(ctx)[0]
    doubled = {e: 2 * c for e, c in f.items()}
    assert span_dimension([f, doubled]) == 1


def test_coefficients_are_integers():
    ctx = RingContext(2, 2)
    f = poly(ctx, {(1, 0, 0, 1): Fraction(6, 3), (0, 1, 1, 0): -1, (2, 0, 0, 0): 0})
    assert f == {(1, 0, 0, 1): 2, (0, 1, 1, 0): -1}
    assert all(type(c) is int for c in f.values())
    assert poly_scale(f, -3) == {(1, 0, 0, 1): -6, (0, 1, 1, 0): 3}
    with pytest.raises(ValueError):
        poly(ctx, {(1, 0, 0, 1): Fraction(1, 2)})
    with pytest.raises(ValueError):
        poly_scale(f, Fraction(1, 3))
