import pytest

from mapquot import census
from mapquot.maps import (
    PointedMap,
    SymmetricMap,
    enclosing_girth,
    is_quasi_simple,
    radial_distance,
    rotation,
    unrooted_code,
)
from mapquot.quotient import (
    MarkedMap,
    NotSymmetricSimpleQuad,
    NotSymmetricSimpleTri,
    classical_quotient,
    phi,
    phi_inverse,
    phi_tri,
    phi_tri_inverse,
    unroll,
    verify_quotient_lemmas,
)

from fixtures import hexagon_wheel, w_fan_pointed
from rotation_oracle import find_rotation_automorphisms, least_rotation


def pointed_code(p):
    return unrooted_code(p.base, pointed=p.pointed_vertex)


def symmetric_code(s):
    return unrooted_code(s.plane_map, pointed=s.center)


def hexagon_wheel_symmetric():
    m = hexagon_wheel()
    center = m.inner_vertices()[0]
    return SymmetricMap(PointedMap(m, center), 3, rotation(m.sigma, m.root_dart, 3, center))


class TestClassicalQuotient:
    def test_hexagonal_dissection_quotient(self):
        # 3-symmetric quadrangular 6-dissection -> pointed quadrangular
        # 2-dissection, radial distance preserved, girth divided by 3
        s = hexagon_wheel_symmetric()
        e = classical_quotient(s)
        assert e.base.outer_degree() == 2
        assert pointed_code(e) == pointed_code(w_fan_pointed())
        assert radial_distance(e) == radial_distance(PointedMap(s.plane_map, s.center)) == 1
        assert enclosing_girth(PointedMap(s.plane_map, s.center)) == 3 * enclosing_girth(e) == 6

    def test_unroll_recovers_hexagon_wheel(self):
        s = unroll(w_fan_pointed(), 3)
        assert symmetric_code(s) == symmetric_code(hexagon_wheel_symmetric())

    @pytest.mark.parametrize("deg,sizes", [(4, (1, 2, 3)), (3, (1, 3, 5))])
    def test_unroll_round_trips(self, deg, sizes):
        for n in sizes:
            for p in census.pointed_dissection_classes(deg, n):
                for k in (2, 3):
                    s = unroll(p, k)
                    assert s.order_k == k
                    assert s.rho == least_rotation(s.plane_map, k, s.center)
                    q = classical_quotient(s)
                    assert pointed_code(q) == pointed_code(p)

    def test_count_relations_on_census(self):
        checked = 0
        for inner, outer, k, n_inner, simple in [
            (4, 4, 2, 4, True),
            (4, 4, 2, 4, False),
            (4, 6, 3, 6, False),
            (3, 3, 3, 3, True),
            (3, 6, 2, 6, False),
        ]:
            for sym in census.symmetric_members(inner, outer, k, n_inner, simple=simple):
                assert all(verify_quotient_lemmas(sym).values())
                checked += 1
        assert checked > 0

    def test_quasi_simple_equivalence_both_directions(self):
        for deg, sizes in ((4, (1, 2, 3)), (3, (1, 3))):
            for n in sizes:
                for p in census.pointed_dissection_classes(deg, n):
                    s = unroll(p, 2)
                    pd = PointedMap(s.plane_map, s.center)
                    assert is_quasi_simple(pd) == is_quasi_simple(p)

    def test_unroll_output_has_rotation(self):
        s = unroll(w_fan_pointed(), 4)
        assert s.order_k == 4
        rots = find_rotation_automorphisms(s.plane_map, center=s.center)
        assert any(k == 4 for k, _ in rots)
        assert s.rho == least_rotation(s.plane_map, 4, s.center)

    def test_enclosing_cycle_length_bounds(self):
        # no cycle shorter than 2k (quadrangular) or k (triangular) strictly
        # encloses the center of a k-symmetric dissection
        from mapquot.maps import cycle_interior, simple_cycles

        suites = [
            (census.symmetric_members(4, 4, 2, 4), 2, 4),
            (census.symmetric_members(4, 6, 3, 6), 3, 6),
            (census.symmetric_members(3, 3, 3, 3), 3, 3),
            (census.symmetric_members(3, 6, 2, 6), 2, 2),
        ]
        for members, k, bound in suites:
            for sym in members:
                m = sym.plane_map
                for cyc in simple_cycles(m, max_length=bound - 1):
                    _, inside = cycle_interior(m, cyc)
                    assert sym.center not in inside
                assert enclosing_girth(PointedMap(m, sym.center)) >= bound


class TestPhi:
    def test_smallest_case_is_square_with_marked_edge(self):
        (sym,) = census.symmetric_simple_quadrangulations(1)
        mm = phi(sym)
        assert mm.map.n_faces == 2
        assert mm.map.n_vertices == 4

    def test_injective_with_theorem_cardinality(self):
        for n in (1, 2, 3):
            members = census.symmetric_simple_quadrangulations(n)
            images = {phi(s).code() for s in members}
            expect = census.marked_edge_count(
                census.rooted_quadrangulations(n + 1, simple=True)
            )
            assert len(images) == len(members) == expect

    def test_round_trips(self):
        for n in (1, 2, 3):
            for sym in census.symmetric_simple_quadrangulations(n):
                mm = phi(sym)
                back = phi_inverse(mm.map, mm.marked_edge)
                assert symmetric_code(back) == symmetric_code(sym)
                assert back.rho == least_rotation(back.plane_map, 2, back.center)

    def test_inverse_from_every_marked_edge(self):
        for n in (1, 2):
            seen = set()
            for m in census.rooted_quadrangulations(n + 1, simple=True):
                for e in range(m.n_edges):
                    code = unrooted_code(m, marked_edge=e)
                    if code in seen:
                        continue
                    seen.add(code)
                    sym = phi_inverse(m, e)
                    assert sym.plane_map.n_faces - 1 == 2 * n
                    assert phi(sym).code() == code

    def test_rejects_wrong_family(self):
        sym = hexagon_wheel_symmetric()  # hexagonal dissection, not a quadrangulation
        with pytest.raises(NotSymmetricSimpleQuad):
            phi(sym)


class TestPhiTri:
    def test_tetrahedron_maps_to_marked_triangle(self):
        (sym,) = census.symmetric_simple_triangulations(1)
        mm = phi_tri(sym)
        assert mm.map.n_faces == 2
        assert mm.map.n_vertices == 3

    def test_even_sizes_are_empty(self):
        assert census.count_symmetric(3, 3, 3, 6, simple=True) == 0
        assert census.marked_edge_count(census.rooted_triangulations(3, simple=True)) == 0

    def test_injective_with_theorem_cardinality(self):
        for n in (1, 3):
            members = census.symmetric_simple_triangulations(n)
            images = {phi_tri(s).code() for s in members}
            expect = census.marked_edge_count(
                census.rooted_triangulations(n + 1, simple=True)
            )
            assert len(images) == len(members) == expect

    def test_round_trips(self):
        for n in (1, 3):
            for sym in census.symmetric_simple_triangulations(n):
                mm = phi_tri(sym)
                back = phi_tri_inverse(mm.map, mm.marked_edge)
                assert symmetric_code(back) == symmetric_code(sym)

    def test_inverse_from_every_marked_edge(self):
        for n in (1, 3):
            seen = set()
            for m in census.rooted_triangulations(n + 1, simple=True):
                for e in range(m.n_edges):
                    code = unrooted_code(m, marked_edge=e)
                    if code in seen:
                        continue
                    seen.add(code)
                    sym = phi_tri_inverse(m, e)
                    assert phi_tri(sym).code() == code

    def test_rejects_wrong_family(self):
        sym = hexagon_wheel_symmetric()  # hexagonal dissection, not a triangulation
        with pytest.raises(NotSymmetricSimpleTri):
            phi_tri(sym)


@pytest.mark.parametrize(
    "quotient,inverse,members_of,rooted,n,expected",
    [
        (phi, phi_inverse, census.symmetric_simple_quadrangulations,
         census.rooted_quadrangulations, 5, 273),
        (phi_tri, phi_tri_inverse, census.symmetric_simple_triangulations,
         census.rooted_triangulations, 5, 9),
        (phi_tri, phi_tri_inverse, census.symmetric_simple_triangulations,
         census.rooted_triangulations, 7, 52),
    ],
    ids=["phi-5", "phi_tri-5", "phi_tri-7"],
)
def test_edge_marking_past_the_verify_sizes(quotient, inverse, members_of, rooted, n, expected):
    """Round trips and the theorem's cardinality one step past the sizes
    that `verify` reaches.  The order-3 triangulations of size 7 have 21
    inner faces and 33 edges, past the caps of a census query, which the
    library does not apply."""
    members = members_of(n)
    images = set()
    for sym in members:
        mm = quotient(sym)
        images.add(mm.code())
        back = inverse(mm.map, mm.marked_edge)
        assert symmetric_code(back) == symmetric_code(sym)
    marked = census.marked_edge_count(rooted(n + 1, simple=True))
    assert len(images) == len(members) == marked == expected


class TestRootedCorollaries:
    def test_marked_face_equals_rooted_quasi_simple_pointed(self):
        for n in (1, 2, 3):
            assert census.rooted_marked_face_quads(n) == (
                census.rooted_quasi_simple_pointed_2d(n)
            )

    def test_marked_edge_equals_quasi_simple_pointed_1d(self):
        for n in (1, 2, 3):
            lhs = census.marked_edge_count(
                census.rooted_triangulations(2 * n, simple=True)
            )
            rhs = len(census.pointed_dissection_classes(3, 2 * n - 1, quasi_simple=True))
            assert lhs == rhs

    def test_marked_edge_counts_match_series(self):
        # simple triangulations with a marked edge carry the n*t_n law
        from mapquot import series as S

        s = S.named("s_tri", 5)
        for n in (1, 2, 3):
            assert census.marked_edge_count(
                census.rooted_triangulations(2 * n, simple=True)
            ) == s[n]
