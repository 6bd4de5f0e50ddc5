from fractions import Fraction

import pytest

from minorrel.polyring import (
    RingContext,
    det_lambda,
    det_r,
    is_homogeneous,
    minors_basis,
    monomial,
    permanents_basis,
    poly_add,
    poly_degree,
    poly,
    poly_mul,
    poly_scale,
    poly_text,
    span_dimension,
    x_var,
    x_weight,
)


def test_ring_context_indexing():
    ctx = RingContext(2, 3)
    assert ctx.num_x == 6
    assert ctx.x_index(1, 1) == 0
    assert ctx.x_index(2, 3) == 5
    assert ctx.var_name(0) == "x[1,1]"
    assert ctx.var_name(5) == "x[2,3]"
    with pytest.raises(IndexError):
        ctx.x_index(3, 1)


def test_aux_variables():
    ctx = RingContext(2, 2, aux=("T1", "t"))
    assert ctx.num_vars == 6
    assert ctx.var_name(ctx.aux_index(0)) == "T1"
    assert ctx.var_name(ctx.aux_index(1)) == "t"


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


def test_permanent_text_rendering():
    ctx = RingContext(2, 2)
    f = poly_add(
        ctx,
        poly_mul(ctx, x_var(ctx, 1, 1), x_var(ctx, 2, 2)),
        poly_mul(ctx, x_var(ctx, 1, 2), x_var(ctx, 2, 1)),
    )
    assert poly_text(ctx, f) == "x[1,1]*x[2,2] + x[1,2]*x[2,1]"
    g = poly_mul(ctx, x_var(ctx, 1, 1), x_var(ctx, 1, 1))
    assert poly_text(ctx, {list(g)[0]: 2}) == "2*x[1,1]^2"
    assert poly_text(ctx, {}) == "0"


def test_minor_text_rendering():
    ctx = RingContext(2, 2)
    f = minors_basis(ctx)[0]
    assert poly_text(ctx, f) == "x[1,1]*x[2,2] - x[1,2]*x[2,1]"


def test_x_weight():
    ctx = RingContext(2, 3)
    f = poly_mul(ctx, x_var(ctx, 1, 2), x_var(ctx, 2, 3))
    exp = next(iter(f))
    assert x_weight(ctx, exp) == ((1, 1), (0, 1, 1))


def test_det_r_and_det_lambda():
    ctx = RingContext(3, 3)
    d2 = det_r(ctx, 2)
    assert len(d2) == 2
    d3 = det_r(ctx, 3)
    assert len(d3) == 6
    assert det_r(ctx, 4) == {}
    # det_lambda of a column shape is a product of principal determinants
    f = det_lambda(ctx, (2, 2))
    assert f == poly_mul(ctx, d2, d2)
    # weight of det_lambda is (lam, lam)
    for exp in f:
        assert x_weight(ctx, exp) == ((2, 2, 0), (2, 2, 0))
    assert det_lambda(ctx, (1, 1, 1, 1)) == {}


def test_homogeneity_and_degree():
    ctx = RingContext(2, 2)
    f = minors_basis(ctx)[0]
    assert is_homogeneous(f)
    assert poly_degree(f) == 2
    g = poly_add(ctx, f, monomial(ctx, []))
    assert not is_homogeneous(g)


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


def test_span_dimension_rejects_mixed_degrees():
    ctx = RingContext(2, 2)
    with pytest.raises(ValueError):
        span_dimension([minors_basis(ctx)[0], x_var(ctx, 1, 1)])


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
