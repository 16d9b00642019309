import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapquot import census
from mapquot.maps import (
    Disconnected,
    MapError,
    NonPlanar,
    NotAPermutation,
    PlaneMap,
    PointedMap,
    SymmetricMap,
    canonical_code,
    cycle_interior,
    distances_from,
    enclosing_girth,
    is_irreducible,
    is_quasi_simple,
    is_simple,
    quasi_simple_vertices,
    radial_distance,
    rotation,
    simple_cycles,
    unrooted_code,
)

import cycle_oracle
from fixtures import (
    FAMILIES,
    SPHERE_FAMILIES,
    cube,
    face_degrees,
    hexagon_wheel,
    path_sphere_quad,
    relabel,
    ring_quadrangulation,
    square_map,
    tetrahedron,
    torus_sigma,
    w_fan,
    w_fan_pointed,
)
from rotation_oracle import find_rotation_automorphisms


class TestBuildMap:
    def test_square(self):
        m = square_map()
        assert m.n_vertices == 4
        assert m.n_edges == 4
        assert m.n_faces == 2
        assert all(m.face_degree(f) == 4 for f in range(2))
        assert m.face_of[m.root_dart] == m.outer_face

    def test_odd_dart_count_rejected(self):
        with pytest.raises(NotAPermutation):
            PlaneMap([0, 2, 1])

    def test_non_permutation_rejected(self):
        with pytest.raises(NotAPermutation):
            PlaneMap([0, 0, 1, 2])

    def test_empty_rejected(self):
        with pytest.raises(NotAPermutation):
            PlaneMap([])

    def test_disconnected_rejected(self):
        sq = [7, 2, 1, 4, 3, 6, 5, 0]
        two = sq + [d + 8 for d in sq]
        with pytest.raises(Disconnected):
            PlaneMap(two)

    def test_torus_rejected(self):
        with pytest.raises(NonPlanar):
            PlaneMap(torus_sigma())


class TestFaceDegrees:
    def test_square(self):
        assert face_degrees(square_map()) == {"outer": 4, "inner": [4]}

    def test_tetrahedron(self):
        assert face_degrees(tetrahedron()) == {"outer": 3, "inner": [3, 3, 3]}

    def test_cube(self):
        assert face_degrees(cube()) == {"outer": 4, "inner": [4] * 5}


class TestDistances:
    def test_self_distance_zero(self):
        m = cube()
        for v in range(m.n_vertices):
            assert distances_from(m, v)[v] == 0

    def test_square_opposite_corner(self):
        m = square_map()
        d = distances_from(m, 0)
        assert sorted(d) == [0, 1, 1, 2]

    def test_cube_antipodal(self):
        d = distances_from(cube(), 0)
        assert max(d) == 3
        assert d[6] == 3


class TestPointed:
    def test_pointed_must_be_inner(self):
        m = cube()
        outer_v = next(iter(m.outer_vertices()))
        with pytest.raises(MapError):
            PointedMap(m, outer_v)

    def test_radial_distance_adjacent(self):
        m = cube()
        inner = m.inner_vertices()[0]
        assert radial_distance(PointedMap(m, inner)) == 1

    def test_radial_distance_two(self):
        m = ring_quadrangulation(3)
        p = PointedMap(m, 8)
        assert radial_distance(p) == 2

    def test_pointed_triangulation_distance_one(self):
        m = tetrahedron()
        inner = m.inner_vertices()
        assert len(inner) == 1
        assert radial_distance(PointedMap(m, inner[0])) == 1


class TestEnclosingGirth:
    def test_two_gon(self):
        assert enclosing_girth(w_fan_pointed()) == 2

    def test_cube_inner(self):
        m = cube()
        assert enclosing_girth(PointedMap(m, 4)) == 4

    def test_hexagon_wheel_center(self):
        m = hexagon_wheel()
        center = m.inner_vertices()[0]
        assert enclosing_girth(PointedMap(m, center)) == 6


class TestPredicates:
    def test_square_simple_irreducible(self):
        m = square_map()
        assert is_simple(m)
        assert is_irreducible(m, 4)

    def test_w_fan_quasi_simple_not_simple(self):
        p = w_fan_pointed()
        assert not is_simple(p.base)
        assert is_quasi_simple(p)

    @pytest.mark.parametrize("outer,inner,n", [(2, 4, 4), (1, 3, 7), (2, 3, 6)])
    def test_quasi_simple_vertices_are_those_of_the_definition(self, outer, inner, n):
        # vertex by vertex: no vertex has two loops, and the vertex lies
        # strictly inside every 1- or 2-cycle
        for m in census.rooted_family(outer, inner, n):
            loops = [m.vertex_of[2 * e] for e in range(m.n_edges) if m.is_loop_edge(e)]
            expected = {v for v in m.inner_vertices() if len(set(loops)) == len(loops) and all(
                v in cycle_interior(m, cyc)[1] for cyc in simple_cycles(m, max_length=2))}
            assert quasi_simple_vertices(m) == expected

    def test_nested_rings_not_irreducible(self):
        assert not is_irreducible(ring_quadrangulation(3), 4)
        assert not is_irreducible(cube(), 4)

    def test_cycles_of_square(self):
        cycles = simple_cycles(square_map())
        assert len(cycles) == 1
        assert len(cycles[0]) == 4

    def test_cycle_interior_square(self):
        m = square_map()
        cyc = simple_cycles(m)[0]
        faces, inside = cycle_interior(m, cyc)
        assert faces == frozenset({1 - m.outer_face})
        assert inside == frozenset()

    @pytest.mark.parametrize("family", [f[1] for f in FAMILIES + SPHERE_FAMILIES],
                             ids=[f[0] for f in FAMILIES + SPHERE_FAMILIES])
    def test_simple_cycles_match_oracle(self, family):
        fam = family()
        assert fam
        assert not all(is_simple(m) for m in fam), "no loop or multiple edge to cover"
        for m in fam:
            for limit in (None, 0, 1, 2, 3, 4):
                assert simple_cycles(m, limit) == cycle_oracle.simple_cycles(m, limit)


def random_dart_relabeling(rng, n_darts):
    edges = list(range(n_darts // 2))
    rng.shuffle(edges)
    perm = [0] * n_darts
    for j, e in enumerate(edges):
        flip = rng.random() < 0.5
        perm[2 * j] = 2 * e + flip
        perm[2 * j + 1] = 2 * e + (1 - flip)
    inv = [0] * n_darts
    for d, x in enumerate(perm):
        inv[x] = d
    return inv


class TestCanonicalCode:
    def test_square_rotation_roots_agree(self):
        m = square_map()
        codes = {canonical_code(m, root=d) for d in m.faces[m.outer_face]}
        assert len(codes) == 1

    def test_distinct_maps_distinct_codes(self):
        assert canonical_code(square_map()) != canonical_code(w_fan())

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_relabeling_invariance(self, seed):
        rng = random.Random(seed)
        m = cube() if seed % 2 else hexagon_wheel()
        perm = random_dart_relabeling(rng, m.n_darts)
        m2 = relabel(m, perm)
        assert canonical_code(m2, root=perm[m.root_dart]) == canonical_code(m)

    def test_unrooted_code_of_relabels(self):
        rng = random.Random(7)
        m = cube()
        perm = random_dart_relabeling(rng, m.n_darts)
        m2 = relabel(m, perm)
        assert unrooted_code(m) == unrooted_code(m2)


class TestRotationAutomorphisms:
    def test_square_has_none(self):
        m = square_map()
        assert find_rotation_automorphisms(m) == []
        assert all(rotation(m.sigma, m.root_dart, k) is None for k in range(2, 6))

    def test_hexagon_wheel_order_three(self):
        m = hexagon_wheel()
        got = find_rotation_automorphisms(m)
        assert [k for k, _ in got] == [3, 3]
        center = m.inner_vertices()[0]
        assert find_rotation_automorphisms(m, center=center) == got
        sigma, root = m.sigma, m.root_dart
        assert rotation(sigma, root, 3) == rotation(sigma, root, 3, center) == min(rho for _, rho in got)
        assert rotation(sigma, root, 3, min(m.outer_vertices())) is None
        assert rotation(sigma, root, 2) is rotation(sigma, root, 6) is None

    def test_cube_rotations_fix_no_vertex(self):
        m = cube()
        assert find_rotation_automorphisms(m) == []
        assert rotation(m.sigma, m.root_dart, 2) is rotation(m.sigma, m.root_dart, 4) is None


class TestSymmetricMap:
    def test_hexagon_wheel_is_symmetric(self):
        m = hexagon_wheel()
        center = m.inner_vertices()[0]
        s = SymmetricMap(PointedMap(m, center), 3, rotation(m.sigma, m.root_dart, 3, center))
        assert s.center == center

    def test_corrupted_rho_rejected(self):
        m = hexagon_wheel()
        center = m.inner_vertices()[0]
        bad = list(rotation(m.sigma, m.root_dart, 3, center))
        bad[0], bad[2] = bad[2], bad[0]
        with pytest.raises(MapError):
            SymmetricMap(PointedMap(m, center), 3, tuple(bad))


class TestEulerInvariants:
    @pytest.mark.parametrize(
        "factory", [square_map, tetrahedron, cube, w_fan, hexagon_wheel, path_sphere_quad]
    )
    def test_degree_sums(self, factory):
        m = factory()
        assert sum(m.face_degree(f) for f in range(m.n_faces)) == m.n_darts
        assert sum(m.degree(v) for v in range(m.n_vertices)) == m.n_darts
        assert m.n_vertices - m.n_edges + m.n_faces == 2
