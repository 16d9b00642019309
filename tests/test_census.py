import sys

import pytest

from mapquot import census
from mapquot.maps import (
    DissectionSpec,
    MapError,
    PlaneMap,
    PointedMap,
    canonical_code,
    distances_from,
    is_irreducible,
    is_quasi_simple,
    is_simple,
    radial_distance,
    unrooted_code,
)

import two_point_oracle

# frozen counts; the golden q/t values also appear in the acceptance suite
Q_SIMPLE = {2: 1, 3: 2, 4: 6, 5: 22, 6: 91, 7: 408}
T_SIMPLE = {2: 1, 4: 1, 6: 3, 8: 13, 10: 68}
F_QUAD = {1: 2, 2: 9, 3: 54, 4: 378}
F_TRI = {2: 3, 4: 24, 6: 256}

TWO_POINT = {
    1: {1: 1},
    2: {1: 8, 2: 1},
    3: {1: 65, 2: 15, 3: 1},
    4: {1: 554, 2: 179, 3: 22, 4: 1},
}


class TestRootedCounts:
    @pytest.mark.parametrize("n,count", sorted(Q_SIMPLE.items()))
    def test_simple_quadrangulations(self, n, count):
        assert len(census.rooted_quadrangulations(n, simple=True)) == count

    @pytest.mark.parametrize("n,count", sorted(T_SIMPLE.items()))
    def test_simple_triangulations(self, n, count):
        assert len(census.rooted_triangulations(n, simple=True)) == count

    @pytest.mark.parametrize("n,count", sorted(F_QUAD.items()))
    def test_sphere_quadrangulations(self, n, count):
        assert len(census.rooted_sphere_quads(n)) == count

    @pytest.mark.parametrize("n,count", sorted(F_TRI.items()))
    def test_simply_rooted_triangulations(self, n, count):
        assert len(census.simply_rooted_sphere_tris(n)) == count

    @pytest.mark.parametrize("n", sorted(F_TRI))
    def test_simply_rooted_filter_matches_loop_test(self, n):
        expect = [m for m in census.rooted_sphere_tris(n) if not m.is_loop_edge(0)]
        assert expect and list(census.simply_rooted_sphere_tris(n)) == expect

    def test_families_are_cached_as_byte_sigmas(self):
        fam = census.rooted_family(4, 4, 3)
        assert census.rooted_family(4, 4, 3) is fam
        assert len(fam) == F_QUAD[4]
        assert all(type(s) is bytes for s in fam.sigmas)
        assert [m.sigma for m in fam] == [tuple(s) for s in fam.sigmas]
        assert fam[5] == PlaneMap(fam.sigmas[5], 0)

    def test_family_is_one_buffer_of_one_byte_per_dart(self):
        sigmas = census.rooted_family(4, 4, 5, outer_simple=True).sigmas
        assert (len(sigmas), sigmas.width) == (7425, 24)
        assert sigmas.buffer.nbytes == 7425 * 24
        # the growing buffer over-allocates by at most an eighth
        assert sys.getsizeof(sigmas.buffer.obj) <= sys.getsizeof(bytearray(7425 * 24 * 9 // 8))

    def test_one_inner_face_quadrangulation_is_unique(self):
        fam = census.rooted_quadrangulations(2, simple=True)
        assert len(fam) == 1
        assert fam[0].n_vertices == 4

    def test_no_duplicates(self):
        for fam in (
            census.rooted_quadrangulations(5, simple=False),
            census.rooted_tri_1_dissections(5),
        ):
            codes = [canonical_code(m) for m in fam]
            assert len(codes) == len(set(codes))

    def test_members_are_valid_dissections(self):
        for m in census.rooted_quadrangulations(4, simple=True):
            assert is_simple(m)
            assert m.outer_degree() == 4
            assert all(len(f) == 4 for f in m.faces)


class TestFilters:
    def test_closure_under_simplicity(self):
        total = len(census.rooted_quadrangulations(5, simple=False))
        simple = len(census.rooted_quadrangulations(5, simple=True))
        non_simple = sum(
            not is_simple(m) for m in census.rooted_quadrangulations(5, simple=False)
        )
        assert simple + non_simple == total

    def test_distance_buckets_partition(self):
        for n in (2, 3):
            per_dist = [
                census.count_pointed_dissections(4, n, distance=i) for i in range(1, 2 * n + 1)
            ]
            assert sum(per_dist) == census.count_pointed_dissections(4, n)


class TestTwoPoint:
    @pytest.mark.parametrize("n", sorted(TWO_POINT))
    def test_two_point_quad_counts(self, n):
        table = census.two_point_quad_table(n)
        for i, count in TWO_POINT[n].items():
            assert table.get(i, 0) == count
        assert table.get(2 * n + 1, 0) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_table_equals_sphere_scan(self, n):
        # opening the marked edge into an outer 2-gon is a bijection onto
        # pointed quadrangular 2-dissections that keeps every distance
        expected = two_point_oracle.two_point_quad_table(n)
        assert expected
        assert census.two_point_quad_table(n) == expected
        if n <= 3:  # and so is the distance filter of the pointed census
            for i in range(1, 2 * n + 2):
                assert census.count_pointed_dissections(4, n, distance=i) == expected.get(i, 0)


def oracle_pointed_classes(inner_deg, n_inner):
    """The first pointed map of each unrooted pointed class, in family order,
    and its distance from one search from the pointed vertex: every inner
    vertex of every map of the family is coded, and no map is skipped."""
    fam = (census.rooted_tri_1_dissections if inner_deg == 3 else census.rooted_quad_2_dissections)(
        n_inner
    )
    seen, out = set(), []
    for m in fam:
        for v in m.inner_vertices():
            code = unrooted_code(m, pointed=v)
            if code not in seen:
                seen.add(code)
                dist = distances_from(m, v)
                out.append((PointedMap(m, v), min(dist[w] for w in m.outer_vertices())))
    return out


class TestPointed:
    # triangular 1-dissections exist for odd inner face counts only
    @pytest.mark.parametrize(
        "inner_deg,n_inner", [(3, n) for n in (1, 3, 5, 7, 9)] + [(4, n) for n in (1, 2, 3, 4)]
    )
    def test_distance_table_matches_oracle(self, inner_deg, n_inner):
        classes = oracle_pointed_classes(inner_deg, n_inner)
        assert classes
        table = census.pointed_distance_table(inner_deg, n_inner)
        expect = {}
        for _, i in classes:
            expect[i] = expect.get(i, 0) + 1
        assert table == expect
        for i in range(1, max(table) + 2):
            assert census.count_pointed_dissections(inner_deg, n_inner, distance=i) == table.get(i, 0)
        assert census.pointed_dissection_classes(inner_deg, n_inner) == [p for p, _ in classes]


@pytest.mark.parametrize(
    "inner_deg,n_inner", [(4, n) for n in range(1, 7)] + [(3, n) for n in range(1, 12, 2)]
)
def test_burnside_table_equals_code_count(inner_deg, n_inner):
    # the oracle: the pointed classes told apart by their marked codes
    codes = {}
    for _, _, i in census._pointed_classes(inner_deg, n_inner, None, False):
        codes[i] = codes.get(i, 0) + 1
    assert census.pointed_distance_table(inner_deg, n_inner) == codes


class TestSymmetric:
    def test_symmetric_equals_marked_edge_quad(self):
        for n in (1, 2, 3):
            lhs = census.count_symmetric(4, 4, 2, 2 * n, simple=True)
            rhs = census.marked_edge_count(
                census.rooted_quadrangulations(n + 1, simple=True)
            )
            assert lhs == rhs

    def test_symmetric_triangulations_need_odd_size(self):
        assert census.count_symmetric(3, 3, 3, 6, simple=True) == 0
        assert census.count_symmetric(3, 3, 3, 3, simple=True) == 1

    def test_symmetric_equals_quasi_simple_pointed(self):
        for n in (1, 2, 3):
            assert census.count_symmetric(4, 4, 2, 2 * n, simple=True) == (
                census.count_pointed_dissections(4, n, quasi_simple=True)
            )
        for n in (1, 3):
            assert census.count_symmetric(3, 3, 3, 3 * n, simple=True) == (
                census.count_pointed_dissections(3, n, quasi_simple=True)
            )

    def test_quotient_sizes_match_pointed_dissections(self):
        # a k-symmetric dissection of the 2k-gon (of the k-gon, triangular) is
        # the k-fold cover of a pointed 2-dissection (1-dissection)
        for k in (2, 3):
            for n in (1, 2, 3):
                count = census.count_pointed_dissections(4, n)
                assert count and census.count_symmetric(4, 2 * k, k, k * n) == count
            for n in (0, 1):
                count = census.count_pointed_dissections(3, 2 * n + 1)
                assert count and census.count_symmetric(3, k, k, (2 * n + 1) * k) == count

    def test_witnesses_are_symmetric(self):
        for sym in census.symmetric_simple_quadrangulations(2):
            assert sym.order_k == 2
            assert radial_distance(PointedMap(sym.plane_map, sym.center)) >= 1


class TestQueries:
    def test_generate_plain(self):
        q = census.CensusQuery(DissectionSpec(4, 4, simple=True), 4)
        assert len(list(census.generate(q))) == Q_SIMPLE[4]

    def test_generate_symmetric(self):
        spec = DissectionSpec(4, 4, simple=True, symmetry_k=2)
        assert len(list(census.generate(census.CensusQuery(spec, 2)))) == 3

    def test_generate_pointed(self):
        spec = DissectionSpec(4, 2, pointed=True, quasi_simple=True)
        assert len(list(census.generate(census.CensusQuery(spec, 2)))) == 3

    @pytest.mark.parametrize("spec", [
        DissectionSpec(4, 4, simple=True, irreducible=True, symmetry_k=2),
        DissectionSpec(4, 2, irreducible=True, pointed=True),
    ])
    def test_generate_rejects_irreducible_symmetric_and_pointed(self, spec):
        with pytest.raises(MapError, match="irreducib"):
            list(census.generate(census.CensusQuery(spec, 3)))

    @pytest.mark.parametrize("degree", [4, 3])
    def test_generate_rejects_irreducible_with_a_short_outer_contour(self, degree):
        # the outer contour is a cycle of length <= d around every inner face,
        # so the family would be empty past its smallest member
        spec = DissectionSpec(degree, degree, simple=True, irreducible=True)
        with pytest.raises(MapError, match="irreducible families need an outer degree above"):
            list(census.generate(census.CensusQuery(spec, 4)))

    def test_generate_irreducible_hexagon_dissections(self):
        spec = DissectionSpec(4, 6, simple=True, irreducible=True)
        counts = {}
        for n in (2, 3, 4, 5):
            members = [PlaneMap(s) for s in census.generate(census.CensusQuery(spec, n))]
            assert all(is_irreducible(m, 4) for m in members)
            counts[n] = len(members)
        assert counts == {2: 3, 3: 2, 4: 3, 5: 6}

    def test_cap_enforced(self, monkeypatch):
        def search(*args):
            pytest.fail("the kernel searched a family past its cap")

        monkeypatch.setattr(census, "run_census", search)
        quads = DissectionSpec(4, 4, simple=True)
        with pytest.raises(census.SizeCapExceeded, match="quad_faces=8 exceeds the default cap 7"):
            list(census.generate(census.CensusQuery(quads, 8)))
        # force lifts the family cap but not the hard edge cap: 31 faces, 62 edges
        with pytest.raises(census.SizeCapExceeded, match="62 edges exceeds the hard cap of 24"):
            list(census.generate(census.CensusQuery(DissectionSpec(4, 4), 31, force=True)))
        # a family searched without the simple prune has a lower hard cap
        with pytest.raises(census.SizeCapExceeded, match="20 edges exceeds the hard cap of 18"):
            list(census.generate(census.CensusQuery(DissectionSpec(4, 4), 10, force=True)))
        with pytest.raises(census.SizeCapExceeded, match="22 edges exceeds the hard cap of 21"):
            list(census.generate(census.CensusQuery(DissectionSpec(3, 2), 14, force=True)))

    def test_cap_override(self):
        query = census.CensusQuery(DissectionSpec(4, 4, simple=True), 8, force=True)
        assert sum(1 for _ in census.generate(query)) == 1938
        # the library takes any size
        assert len(census.rooted_quadrangulations(8, simple=True)) == 1938
