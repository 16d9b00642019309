"""Newton iteration against an order-by-order oracle on every algebraic
series, `q` and `t` against their factorial formulas and first-order
equations, and the two ways a residual can fail to define a series."""

import math
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
        for name, entry in S.CATALOGUE.items():
            if entry.definition is None:
                continue
            start, residual = entry.definition(order)
            expected = order_by_order(residual, order, start)
            assert S.named(name, order).coeffs == expected.coeffs, (name, order)
            seen.add(name)
    assert len(seen) == 16


def test_q_and_t_to_order_120():
    """The Newton-solved q and t have their factorial coefficients and solve
    the first-order equations x(2q'^2 + 3q' + 2) = q'(1 + q) and
    3x t'^2 + 1 = (1 + t) t', to order 120."""
    order = 120
    fact = math.factorial
    q = S.named("q", order)
    t = S.named("t", order)
    # q counts by total faces m = n + 1, where n is the number of inner faces
    assert q.coeffs[:2] == (0, 0)
    for n in range(1, order):
        assert q[n + 1] == 4 * fact(3 * n) // (fact(n) * fact(2 * n + 2)), n
    assert t[0] == 0
    for n in range(1, order + 1):
        assert t[n] == 2 * fact(4 * n - 3) // (fact(n) * fact(3 * n - 1)), n
    x = TruncSeries.x(order - 1)
    qp, q = q.derivative(), q.truncate(order - 1)
    assert (x * (2 * qp * qp + 3 * qp + 2) - qp * (1 + q)).is_zero()
    tp, t = t.derivative(), t.truncate(order - 1)
    assert (3 * x * tp * tp + 1 - (1 + t) * tp).is_zero()


def test_derivative_that_is_no_unit_fails():
    x = TruncSeries.x(8)
    with pytest.raises(SeriesError):
        S.fixpoint_solve(lambda s: s * s - x, 8, 0)


def test_start_that_is_no_root_fails():
    _, residual = S.CATALOGUE["P_quad"].definition(8)
    with pytest.raises(NonContractive):
        S.fixpoint_solve(residual, 8, 2, "P_quad")
