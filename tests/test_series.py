import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapquot import series as S
from mapquot import verify
from mapquot.series import (
    BadDistance,
    DivisorNotUnit,
    InnerNotNilpotent,
    TruncSeries,
    UnknownName,
)
import two_point_oracle
from verify_pins import wrong_series

GOLDEN_Q = [0, 0, 1, 2, 6, 22, 91, 408, 1938]
GOLDEN_T = [0, 1, 1, 3, 13, 68, 399, 2530, 16965]


def ints(ts):
    return [int(c) for c in ts.coeffs]


def pinned_series():
    """Every catalogue series, every two-point family at i = 1-3 and the
    direct form of d3_tri, each as a function of the order."""
    out = {name: lambda k, name=name: S.named(name, k) for name in S.CATALOGUE}
    out.update(
        {f"{fam}:{i}": lambda k, fam=fam, i=i: S.two_point(fam, i, k)
         for fam in S.TWO_POINT for i in (1, 2, 3)}
    )
    out["d3_closed_form"] = S.d3_closed_form
    return out


DIGEST_ORDERS = (0, 1, 5, 17, 30)
# sha256, first 16 hex digits, of the coefficients at each order in
# DIGEST_ORDERS: one line per order, coefficients as str(ts[n]) joined by
# commas.  Recorded while every coefficient was still a Fraction.
SERIES_DIGESTS = {
    "P_quad": "6f5067c5133b748d",
    "P_tri": "5c83ddafb7851ea8",
    "Q_quad": "dac2d11e97f0c587",
    "Q_tri": "efa5bfeb58a79a19",
    "Qt_tri": "9a6b0638433e325e",
    "R_quad": "f948946d4ce8e269",
    "R_tri": "e9599ae5b2b882c5",
    "Rt_tri": "8a0a8c246749eb66",
    "X_quad": "462c76ecbbb665ee",
    "X_tri": "03e7aa29f321f275",
    "Y_quad": "ef273624fb8ca264",
    "Y_tri": "5f34ad53cd81c75a",
    "Z_quad": "ef09077f3717cd8b",
    "Z_tri": "ef273624fb8ca264",
    "a_edge": "a4fd53c9218f786f",
    "a_vertex": "20e04db63020acda",
    "alpha_quaternary": "7e2f12c5271a99cd",
    "alpha_ternary": "dac2d11e97f0c587",
    "d3_tri": "7d5a448bcc5957d4",
    "d_quad": "f1afb796c43581c5",
    "f_quad": "89bfa247b7b1abc4",
    "f_tri": "5754b73316ef9278",
    "g_quad": "41abc52502f2faf9",
    "g_tri": "1f80f5ba6d330543",
    "q": "5fb7bd8e0764c1a0",
    "s_tri": "7d5a448bcc5957d4",
    "t": "1f80f5ba6d330543",
    "t_edge": "96dcdf667d47bb11",
    "t_rootedge": "9b37bc8412d83c5a",
    "t_vertex": "7d5a448bcc5957d4",
    "u_tri": "a3a8a53dbd2b8f61",
    "v_tri": "bf42af4887000e26",
    "quad:1": "b02076cd401f7ada",
    "quad:2": "ea19f840022e0e84",
    "quad:3": "433fe64dae44c4a0",
    "quad_simple:1": "41abc52502f2faf9",
    "quad_simple:2": "e05f97a878848e8a",
    "quad_simple:3": "6126ab542acd8ed2",
    "quad_irred:1": "2da1f16055cc0128",
    "quad_irred:2": "083e3ed7f560c70e",
    "quad_irred:3": "f216051ec0ab26c7",
    "tri:1": "e7edb61bd0f693ca",
    "tri:2": "fcecbf8abf105177",
    "tri:3": "394d845d355c6401",
    "tri_simple:1": "347581f15f8a07b2",
    "tri_simple:2": "1a901e00d168d5e8",
    "tri_simple:3": "94e86c85ef124811",
    "tri_irred:1": "f7840956e04829f7",
    "tri_irred:2": "41abc52502f2faf9",
    "tri_irred:3": "e05f97a878848e8a",
    "d3_closed_form": "7d5a448bcc5957d4",
}


class TestArithmetic:
    def test_product(self):
        one_plus = TruncSeries([1, 1, 0])
        one_minus = TruncSeries([1, -1, 0])
        assert ints(one_plus * one_minus) == [1, 0, -1]

    def test_power_is_repeated_product_by_square_and_multiply(self, monkeypatch):
        s = TruncSeries([1, 2, -3, Fraction(1, 2), 5, 0, 7])
        power = TruncSeries.const(1, s.order)
        products = []
        for k in range(9):
            mul = TruncSeries.__mul__
            monkeypatch.setattr(TruncSeries, "__mul__",
                                lambda a, b: products.append(k) or mul(a, b))
            assert (s ** k).coeffs == power.coeffs
            monkeypatch.undo()
            power = power * s
            # one squaring a bit below the highest, one product a set bit above the lowest
            assert products.count(k) == max(k.bit_length() - 1, 0) + max(k.bit_count() - 1, 0)
        inverse = TruncSeries.const(1, s.order).divide(s)
        assert (s ** -3).coeffs == (inverse * inverse * inverse).coeffs

    def test_derivative_of_q(self):
        qp = S.named("q", 8).derivative()
        assert ints(qp) == [0, 2, 6, 24, 110, 546, 2856, 15504]

    def test_valuation_shift_division(self):
        y_plus = TruncSeries([0, 1, 2, 0])
        y = TruncSeries.x(3)
        assert ints(y_plus.divide(y)) == [1, 2, 0]

    def test_divide_requires_unit_or_cancellation(self):
        with pytest.raises(DivisorNotUnit):
            TruncSeries([1, 1, 1]).divide(TruncSeries.x(2))

    def test_x_at_order_zero(self):
        x = TruncSeries.x(0)
        assert x.order == 0
        assert x + 1 == TruncSeries.const(1, 0)
        assert ints(TruncSeries.x(2)) == [0, 1, 0]

    def test_low_orders_truncate_order_five(self):
        series = {name: lambda k, name=name: S.named(name, k) for name in S.CATALOGUE}
        series.update(
            {(fam, i): lambda k, fam=fam, i=i: S.two_point(fam, i, k)
             for fam in S.TWO_POINT for i in (1, 2, 3)}
        )
        for make in series.values():
            full = make(5)
            for k in (0, 1, 2):
                low = make(k)
                assert low.order == k
                assert low == full.truncate(k)

    def test_compose_identity(self):
        s = S.named("q", 8)
        x = TruncSeries.x(8)
        assert s.compose(x) == s
        assert x.compose(s) == s

    def test_compose_needs_nilpotent_inner(self):
        with pytest.raises(InnerNotNilpotent):
            TruncSeries.x(4).compose(TruncSeries([1, 1, 0, 0, 0]))

    def test_shift(self):
        s = TruncSeries([0, 0, 3, 1])
        assert ints(s.shift(-2)) == [3, 1]
        with pytest.raises(DivisorNotUnit):
            TruncSeries([0, 1, 0]).shift(-2)

    def test_equality_truncates_so_series_are_unhashable(self):
        # == compares up to the shorter order, which no hash can respect
        short = TruncSeries([1, 2])
        assert short == TruncSeries([1, 2, 3]) and short == TruncSeries([1, 2, 4])
        assert TruncSeries([1, 2, 3]) != TruncSeries([1, 2, 4])
        with pytest.raises(TypeError):
            hash(TruncSeries([1, 2]))

    @given(
        a=st.lists(st.integers(-9, 9), min_size=5, max_size=5),
        b=st.lists(st.integers(-9, 9), min_size=5, max_size=5),
        c=st.lists(st.integers(-9, 9), min_size=5, max_size=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_ring_axioms(self, a, b, c):
        A, B, C = TruncSeries(a), TruncSeries(b), TruncSeries(c)
        assert (A + B) * C == A * C + B * C
        assert A * (B * C) == (A * B) * C
        assert A * B == B * A


class TestExactCoefficients:
    def test_digests_unchanged(self):
        got = {}
        for key, make in pinned_series().items():
            text = "\n".join(
                ",".join(str(make(k)[n]) for n in range(k + 1)) for k in DIGEST_ORDERS
            )
            got[key] = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert got == SERIES_DIGESTS

    def test_integral_coefficients_are_stored_as_ints(self):
        for key, make in pinned_series().items():
            for k in DIGEST_ORDERS:
                assert all(type(c) is int for c in make(k).coeffs), (key, k)
        # each operation keeps integral results as ints and the rest exact
        s = TruncSeries([Fraction(4, 2), Fraction(1, 2), 3])
        assert s.coeffs == (2, Fraction(1, 2), 3)
        assert [type(c) for c in s.coeffs] == [int, Fraction, int]
        assert [type(c) for c in (s * 2).coeffs] == [int, int, int]
        assert (s / 3).coeffs == (Fraction(2, 3), Fraction(1, 6), 1)
        assert [type(c) for c in (s / Fraction(1, 2)).coeffs] == [int, int, int]
        halves = TruncSeries([1, 1, 0]).divide(TruncSeries([2, 0, 0]))
        assert halves.coeffs == (Fraction(1, 2), Fraction(1, 2), 0)
        assert [type(c) for c in (halves * 2).divide(TruncSeries([1, 1, 0])).coeffs] == [int] * 3
        assert TruncSeries([1, 1, 1]).integrate().coeffs == (0, 1, Fraction(1, 2), Fraction(1, 3))

    def test_indexing_returns_fractions(self):
        q = S.named("q", 10)
        assert all(type(q[n]) is Fraction for n in range(-1, 11))
        assert q[3] / 4 == Fraction(1, 2)


class TestSolvers:
    def test_golden_q(self):
        assert ints(S.named("q", 8)) == GOLDEN_Q

    def test_golden_t(self):
        assert ints(S.named("t", 8)) == GOLDEN_T

    def test_P_quad(self):
        assert ints(S.named("P_quad", 3)) == [1, 3, 18, 135]

    def test_ternary_trees_are_fuss_catalan(self):
        import math

        a = S.named("alpha_ternary", 8)
        for n in range(8):
            assert a[n] == math.comb(3 * n, n) // (2 * n + 1)

    def test_X_series_vanish_at_zero(self):
        for name in ("X_quad", "Y_quad", "Z_quad", "X_tri", "Y_tri", "Z_tri"):
            assert S.named(name, 8)[0] == 0

    def test_residuals(self):
        assert all(S.check_residuals(20).values())

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            S.named("nonsense", 5)

    def test_an_alias_reads_the_series_of_its_first_name(self, monkeypatch):
        solved = []
        real = S.fixpoint_solve
        monkeypatch.setattr(S, "fixpoint_solve",
                            lambda residual, order, start, name="": solved.append(name)
                            or real(residual, order, start, name))
        S.named.cache_clear()
        for first, alias in (("Q_quad", "alpha_ternary"), ("s_tri", "t_vertex")):
            assert S.named(alias, 60) is S.named(first, 60)
        # one Newton solve for Q_quad and alpha_ternary, and one for t
        assert solved == ["Q_quad", "t"]
        S.named.cache_clear()

    def test_v_tri_reads_the_cached_u_tri(self, monkeypatch):
        S.named.cache_clear()
        S.named("d3_tri", 60)
        divisions = []
        real = TruncSeries.divide
        monkeypatch.setattr(TruncSeries, "divide",
                            lambda self, other: divisions.append(other) or real(self, other))
        S.named("v_tri", 60)
        # v = (t_vertex + 2x(1 + u)) / (1 - t_edge), with u's linear system not solved again
        assert len(divisions) == 1
        S.named.cache_clear()


class TestDerivedSeries:
    def test_g_quad_shifts_to_q(self):
        y = TruncSeries.x(20)
        assert (y * S.named("g_quad", 20)) == S.named("q", 21).truncate(20)

    def test_g_tri_equals_t(self):
        assert S.named("g_tri", 20) == S.named("t", 20)

    def test_d3_against_closed_form(self):
        assert S.named("d3_tri", 15) == S.d3_closed_form(15)

    def test_d3_is_x_times_one_plus_u(self):
        x = TruncSeries.x(10)
        assert S.named("d3_tri", 10) == x * (1 + S.named("u_tri", 10))

    def test_d_quad_is_q_prime(self):
        assert S.named("d_quad", 12) == S.named("q", 13).derivative()

    def test_frozen_small_series(self):
        assert ints(S.named("f_tri", 4)) == [0, 3, 24, 256, 3168]
        assert ints(S.named("d3_tri", 5)) == [0, 1, 2, 9, 52, 340]
        assert ints(S.named("u_tri", 5)) == [0, 2, 9, 52, 340, 2394]

    def test_t_rootedge(self):
        t = S.named("t", 12)
        x = TruncSeries.x(12)
        tr = S.named("t_rootedge", 12)
        assert tr * t == (t - x)


@pytest.mark.parametrize("name", [name for name in verify.READINGS if isinstance(name, str)])
def test_size_convention_meets_the_census(monkeypatch, name):
    # census_series reads the series against its row of verify.READINGS to the
    # last small size, so one wrong coefficient there fails it, named
    n = verify.READINGS[name].sizes["small"][-1]
    wrong_series(monkeypatch, name, n)
    ok, detail = verify.check_census_series("small")
    assert not ok
    assert f"{name}[{n}] = census" in detail.removeprefix("failed: ").split(", ")


LEMMAS = ["xy_quad", "yz_quad", "xy_triang", "yz_triang"]


class TestChangeOfVariables:
    @pytest.mark.parametrize("lemma", LEMMAS)
    def test_lemma(self, lemma):
        assert S.check_change_of_variables(15)[lemma]

    def test_every_lemma_is_checked_in_order(self):
        assert list(S.check_change_of_variables(8)) == LEMMAS


TWO_POINT_FROZEN = {
    ("quad", 1): [0, 1, 8, 65, 554, 4922, 45218],
    ("quad", 2): [0, 0, 1, 15, 179, 1995, 21684],
    ("quad_simple", 1): [0, 1, 2, 6, 22, 91, 408],
    ("quad_simple", 2): [0, 0, 1, 5, 24, 118, 598],
    ("quad_irred", 2): [0, 0, 1, 1, 2, 4, 10],
    ("tri", 1): [1, 7, 75, 951, 13267, 197055, 3060699],
    ("tri", 2): [0, 1, 20, 358, 6306, 111410, 1983722],
    ("tri_simple", 1): [1, 1, 3, 13, 68, 399, 2530],
    ("tri_simple", 2): [0, 1, 5, 28, 172, 1129, 7782],
    ("tri_irred", 2): [0, 1, 2, 6, 22, 91, 408],
}


class TestTwoPoint:
    @pytest.mark.parametrize("key", sorted(TWO_POINT_FROZEN))
    def test_frozen_values(self, key):
        family, i = key
        assert ints(S.two_point(family, i, 6)) == TWO_POINT_FROZEN[key]

    def test_distance_must_be_positive(self):
        with pytest.raises(BadDistance):
            S.two_point("quad", 0, 5)

    def test_quad_substitution_to_simple(self):
        order = 12
        y_of_x = S.substitution_y_of_x(order)
        f = S.named("f_quad", order)
        for i in (1, 2, 3):
            F = S.two_point("quad", i, order)
            G = S.two_point("quad_simple", i, order)
            assert (F - (1 + f) * G.compose(y_of_x)).is_zero()

    def test_simple_to_irreducible(self):
        order = 10
        g = S.named("g_quad", order)
        for i in (1, 2):
            G = S.two_point("quad_simple", i, order)
            H = S.two_point("quad_irred", i, order)
            assert (G - H.compose(g)).is_zero()

    def test_tri_substitutions(self):
        order = 10
        y3 = S.substitution_y_of_x_tri(order)
        f3 = S.named("f_tri", order)
        g3 = S.named("g_tri", order)
        yv = TruncSeries.x(order)
        for i in (1, 2):
            F = S.two_point("tri", i, order)
            G = S.two_point("tri_simple", i, order)
            H = S.two_point("tri_irred", i, order)
            assert (F - (1 + f3) ** 2 * G.compose(y3)).is_zero()
            assert (G - g3.divide(yv) * H.compose((g3 * g3).divide(yv))).is_zero()

    @pytest.mark.parametrize("family", sorted(S.TWO_POINT))
    def test_closed_form_equals_the_earlier_kernels(self, family):
        # the levels X_i of the quadrangular kernels, and the levels and
        # squared companion A_i^2 of the triangular ones
        for order, distances in ((2, range(1, 6)), (12, range(1, 26)), (30, range(1, 13))):
            for i in distances:
                assert S.two_point(family, i, order) == two_point_oracle.two_point(
                    family, i, order), (order, i)

    def test_counting_coefficients_are_counts(self):
        for family in S.TWO_POINT:
            S.two_point(family, 2, 8).integer_coefficients()

    def test_level_zero_is_zero(self):
        # c_0 = 1, so no level needs a special case at j = 0
        for family, entry in S.TWO_POINT.items():
            assert entry.kernel(6).level(0).is_zero(), family
