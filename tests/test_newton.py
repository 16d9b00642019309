"""Newton iteration against an order-by-order oracle on every algebraic
series, and the two ways a residual can fail to define a series."""

from fractions import Fraction

import pytest

from mapquot import series as S
from mapquot.series import NonContractive, SeriesError, TruncSeries


def order_by_order(residual, order, start):
    """Coefficient n is the value that zeroes coefficient n of the residual.
    The residual is affine in that coefficient, with slope c = F'(start)[0]."""
    coeffs = [Fraction(start)]
    if order == 0:
        return TruncSeries(coeffs)
    c = residual(TruncSeries([start, 1]))[1] - residual(TruncSeries([start, 0]))[1]
    for n in range(1, order + 1):
        coeffs.append(-residual(TruncSeries(coeffs + [0]))[n] / c)
    return TruncSeries(coeffs)


def test_newton_matches_order_by_order_oracle():
    seen = set()
    for order in (0, 1, 2, 3, 7, 30):
        for name, builder in S._ALGEBRAIC.items():
            start, residual = builder(order)
            expected = order_by_order(residual, order, start)
            assert S.algebraic(name, order).series.coeffs == expected.coeffs, (name, order)
            seen.add(name)
    assert len(seen) == 14


def test_derivative_that_is_no_unit_fails():
    x = TruncSeries.x(8)
    with pytest.raises(SeriesError):
        S.newton_solve(lambda s: s * s - x, 8, 0)


def test_start_that_is_no_root_fails():
    _, residual = S._ALGEBRAIC["P_quad"](8)
    with pytest.raises(NonContractive):
        S.newton_solve(residual, 8, 2, "P_quad")
