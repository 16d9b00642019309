import pytest

from mapquot import census
from mapquot import series as S


class TestQuadAgainstCensus:
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_coefficients_are_census_counts(self, i):
        F = S.two_point("quad", i, 4)
        for n in range(1, 5):
            assert F[n] == census.two_point_quad_table(n).get(i, 0)

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
    def test_coefficients_are_pointed_dissection_counts(self, i):
        F = S.two_point("tri", i, 3)
        for n in range(0, 4):
            assert F[n] == census.count_pointed_dissections(3, 2 * n + 1, distance=i)

    def test_smallest_dissection(self):
        # a single inner triangle inside the outer loop, pointed at distance 1
        assert census.count_pointed_dissections(3, 1, distance=1) == 1
        assert S.two_point("tri", 1, 2)[0] == 1


class TestSimpleFamiliesAgainstCensus:
    @pytest.mark.parametrize("i", [1, 2])
    def test_quad_simple_counts_symmetric_census(self, i):
        G = S.two_point("quad_simple", i, 3)
        for n in range(1, 4):
            assert G[n] == census.count_symmetric(
                4, 4, 2, 2 * n, simple=True, distance=i
            )

    def test_tri_simple_counts_symmetric_census(self):
        G = S.two_point("tri_simple", 1, 1)
        assert G[0] == census.count_symmetric(3, 3, 3, 3, simple=True, distance=1) == 1
        lhs = S.two_point("tri_simple", 1, 1)[1] + S.two_point("tri_simple", 2, 1)[1]
        rhs = census.count_symmetric(3, 3, 3, 9, simple=True)
        assert lhs == rhs == 2
