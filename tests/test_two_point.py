"""The two-point series against the census.  verify.READINGS pairs each
family with its census; these tests give two_point_census one wrong
coefficient at the last small size and expect exactly that comparison, at
each reading of the family, to fail."""

import pytest

from mapquot import census, verify
from mapquot import series as S
from verify_pins import wrong_two_point


def assert_two_point_census_names(monkeypatch, family, i, n, labels):
    """check_two_point_census at the small tier, with coefficient n of
    two_point(family, i) wrong, fails naming that comparison at each label."""
    wrong_two_point(monkeypatch, family, i, n)
    names = [f"two_point[{label}, i={i}][{n}] = census" for label in labels]
    assert verify.check_two_point_census("small") == (False, "failed: " + ", ".join(names))


class TestQuadAgainstCensus:
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_coefficients_are_census_counts(self, monkeypatch, i):
        assert_two_point_census_names(monkeypatch, "quad", i, 3, ["quad"])

    def test_vanishing_beyond_diameter(self):
        for n in (1, 2, 3):
            for i in range(2 * n + 1, 2 * n + 3):
                assert S.two_point("quad", i, 3)[n] == 0

    def test_telescoping_matches_bucketed_totals(self):
        nmax = 3
        big = 2 * nmax + 1
        total = S.TruncSeries.zero(nmax)
        for i in range(1, big + 1):
            total = total + S.two_point("quad", i, nmax)
        kernel = S.TWO_POINT["quad"].kernel(nmax)
        diff = kernel.level(big + 1) - kernel.level(1)
        assert (total - diff).is_zero()
        for n in range(1, nmax + 1):
            assert total[n] == sum(census.two_point_quad_table(n).values())


class TestTriAgainstCensus:
    @pytest.mark.parametrize("i", [1, 2])
    def test_coefficients_are_pointed_dissection_counts(self, monkeypatch, i):
        assert_two_point_census_names(monkeypatch, "tri", i, 3, ["tri"])

    def test_smallest_dissection(self, monkeypatch):
        # size 0: a single inner triangle inside the outer loop
        assert_two_point_census_names(monkeypatch, "tri", 1, 0, ["tri"])


class TestSimpleFamiliesAgainstCensus:
    # the simple families are read at two rotation orders each
    @pytest.mark.parametrize("i", [1, 2])
    def test_quad_simple_counts_symmetric_census(self, monkeypatch, i):
        assert_two_point_census_names(monkeypatch, "quad_simple", i, 3,
                                      ["quad_simple", "quad_simple, k=3"])

    def test_tri_simple_counts_symmetric_census(self, monkeypatch):
        assert_two_point_census_names(monkeypatch, "tri_simple", 1, 2,
                                      ["tri_simple, k=3", "tri_simple, k=4"])
