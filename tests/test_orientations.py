import pytest

from mapquot import census
from mapquot.kernel import run_census
from mapquot.maps import PointedMap, _orbits, cycle_interior, is_simple
from mapquot.orientations import (
    Orientation,
    OrientationInfeasible,
    PathSelfIntersects,
    WrongFamily,
    check_symmetric_minimal,
    directed_simple_cycles,
    find_d_orientation,
    is_minimal,
    leftmost_path,
    minimal_d_orientation,
    minimize,
    overloaded_vertices,
)

import cycle_oracle
import orientation_oracle
from fixtures import cube, square_map, tetrahedron
from orientation_oracle import has_d_orientation

# (face degree, d, total faces): every family the orientation check reads
ORIENTATION_FAMILIES = [(4, 2, n) for n in range(2, 8)] + [(3, 3, n) for n in (2, 4, 6, 8, 10)]


def rooted_family(deg, n, simple=False):
    rooted = census.rooted_quadrangulations if deg == 4 else census.rooted_triangulations
    return rooted(n, simple=simple)


def first_short_cycle(m):
    """A dart of each edge of the first loop or 2-cycle, scanning edges in order."""
    first = {}
    for e in range(m.n_edges):
        u, v = m.edge_endpoints(e)
        if u == v:
            return [2 * e]
        key = frozenset((u, v))
        if key in first:
            return [2 * first[key], 2 * e]
        first[key] = e
    return None


def non_simple_quadrangulation():
    return next(
        m for m in census.rooted_quadrangulations(3, simple=False) if not is_simple(m)
    )


class TestFindOrientation:
    def test_square_has_empty_orientation(self):
        o = find_d_orientation(square_map(), 2)
        assert all(d is None for d in o.along)
        assert is_minimal(o)

    def test_doubled_edge_is_infeasible(self):
        with pytest.raises(OrientationInfeasible):
            find_d_orientation(non_simple_quadrangulation(), 2)

    def test_tetrahedron_forced(self):
        m = tetrahedron()
        o = find_d_orientation(m, 3)
        center = m.inner_vertices()[0]
        assert o.outdegree(center) == 3
        assert is_minimal(o)

    def test_wrong_family(self):
        with pytest.raises(WrongFamily):
            find_d_orientation(square_map(), 3)
        with pytest.raises(WrongFamily):
            find_d_orientation(tetrahedron(), 2)

    def test_simple_iff_orientable(self):
        """No obstruction on the sigma, simple, and orientable by the flow
        search agree on every map, and every obstruction is a Hall violator."""
        seen = obstructed = 0
        for deg, d, n in ORIENTATION_FAMILIES:
            fam = rooted_family(deg, n)
            for sigma, m in zip(fam.sigmas, fam):
                obstruction = overloaded_vertices(sigma, m.vertex_of)
                assert (obstruction is None) == is_simple(m) == has_d_orientation(m, d)
                if obstruction is not None:
                    inside, touching = obstruction
                    assert inside and touching < d * len(inside), (deg, n, sigma)
                    obstructed += 1
                seen += 1
        assert (seen, obstructed) == (102_445, 101_829)

    def test_kernel_classes_are_the_vertices_and_give_the_oracle_obstruction(self):
        """The kernel's vertex classes are the vertices maps._orbits finds,
        dart by dart, and the obstruction read with them is the oracle's,
        read with the orbits, once its vertices are translated."""
        seen = obstructed = 0
        for deg, _, n in ORIENTATION_FAMILIES:
            darts = deg * n
            records = run_census(deg, deg, n - 1, require_outer_simple=True, classes=True)
            for record in records:
                sigma, classes = record[:darts], record[darts:]
                _, vertex_of = _orbits(sigma)
                vertex = dict(zip(classes, vertex_of))  # class -> vertex
                assert [vertex[c] for c in classes] == vertex_of
                assert len(set(vertex.values())) == len(vertex)
                got = overloaded_vertices(sigma, classes)
                expect = orientation_oracle.overloaded_vertices(sigma)
                if got is None:
                    assert expect is None
                else:
                    inside, touching = got
                    assert (frozenset(vertex[c] for c in inside), touching) == expect
                    obstructed += 1
                seen += 1
        assert (seen, obstructed) == (102_445, 101_829)

    def test_obstruction_is_inside_the_first_short_cycle(self):
        """inside is what cycle_interior finds strictly inside the first loop
        or 2-cycle, and touching counts the edges at those vertices."""
        far_end_only = 0  # inside vertices none of which neighbours the cycle's first vertex
        for deg, _, n in [f for f in ORIENTATION_FAMILIES if f[2] <= (5 if f[0] == 4 else 8)]:
            fam = rooted_family(deg, n)
            for sigma, m in zip(fam.sigmas, fam):
                cycle = first_short_cycle(m)
                obstruction = overloaded_vertices(sigma, m.vertex_of)
                assert (obstruction is None) == (cycle is None)
                if cycle is None:
                    continue
                inside, touching = obstruction
                assert inside == cycle_interior(m, cycle)[1]
                assert touching == len({x >> 1 for v in inside for x in m.vertices[v]})
                first_vertex = m.vertex_of[cycle[-1]]
                far_end_only += not inside & set(m.neighbors(first_vertex))
        assert far_end_only

    def test_outdegree_conservation(self):
        for m in census.rooted_quadrangulations(5, simple=True):
            o = find_d_orientation(m, 2)
            assert len(m.inner_edges()) == 2 * len(m.inner_vertices())
            for v in range(m.n_vertices):
                want = 0 if v in m.outer_vertices() else 2
                assert o.outdegree(v) == want


class TestMinimize:
    def test_cube_initialization_independent(self):
        m = cube()
        o1 = find_d_orientation(m, 2)
        minimal = minimize(o1)
        assert is_minimal(minimal)
        for cyc in directed_simple_cycles(o1):
            alt = minimize(o1.reversed_cycle(cyc))
            assert alt.along == minimal.along

    def test_reversing_a_cycle_breaks_minimality(self):
        minimal = minimal_d_orientation(cube(), 2)
        cycles = directed_simple_cycles(minimal)
        assert cycles, "the cube's minimal orientation has a directed ring"
        assert not is_minimal(minimal.reversed_cycle(cycles[0]))

    def test_minimize_idempotent(self):
        for m in census.rooted_quadrangulations(4, simple=True):
            o = minimal_d_orientation(m, 2)
            assert minimize(o).along == o.along

    def test_uniqueness_over_census(self):
        for m in census.rooted_triangulations(6, simple=True):
            o = find_d_orientation(m, 3)
            minimal = minimize(o)
            for cyc in directed_simple_cycles(o)[:3]:
                assert minimize(o.reversed_cycle(cyc)).along == minimal.along

    def test_directed_cycles_match_oracle(self):
        # the oracle's undirected cycles that o orients, walked the way o
        # points and started at their least dart
        orientations = cycles = 0
        for deg, d, n in ORIENTATION_FAMILIES:
            for m in rooted_family(deg, n, simple=True):
                walks = [
                    w
                    for c in cycle_oracle.simple_cycles(m)
                    for w in (c, tuple(x ^ 1 for x in reversed(c)))
                ]
                for o in (find_d_orientation(m, d), minimal_d_orientation(m, d)):
                    expect = [
                        w[w.index(min(w)):] + w[: w.index(min(w))]
                        for w in walks
                        if all(o.is_outgoing(x) for x in w)
                    ]
                    got = directed_simple_cycles(o)
                    assert got == sorted(expect, key=lambda c: (len(c), c))
                    orientations += 1
                    cycles += len(got)
        # orientable maps are simple, so there is no loop or multiple edge to see
        assert orientations and cycles


class TestLeftmostPaths:
    def test_head_on_boundary_gives_length_one(self):
        m = tetrahedron()
        o = find_d_orientation(m, 3)
        for e, dart in enumerate(o.along):
            if dart is None:
                continue
            assert len(leftmost_path(o, dart)) == 1

    def test_paths_simple_and_end_outside(self):
        for n in (4, 5, 6):
            for m in census.rooted_quadrangulations(n, simple=True):
                o = minimal_d_orientation(m, 2)
                for e, dart in enumerate(o.along):
                    if dart is None:
                        continue
                    path = leftmost_path(o, dart)
                    heads = [m.vertex_of[d] for d in path]
                    assert len(set(heads)) == len(heads)
                    assert m.vertex_of[path[-1] ^ 1] in m.outer_vertices()

    def test_center_paths_meet_only_at_center(self):
        for sym in census.symmetric_simple_quadrangulations(3):
            m = sym.plane_map
            o = minimal_d_orientation(m, 2)
            outgoing = [d for d in m.vertices[sym.center] if o.is_outgoing(d)]
            seen = set()
            for start in outgoing:
                verts = {m.vertex_of[d ^ 1] for d in leftmost_path(o, start)}
                assert not (seen & verts)
                seen |= verts


class TestSymmetricMinimal:
    def test_rotation_invariance_quad(self):
        for n in (1, 2, 3):
            for sym in census.symmetric_simple_quadrangulations(n):
                o = minimal_d_orientation(sym.plane_map, 2)
                assert check_symmetric_minimal(sym, o)

    def test_rotation_invariance_tri(self):
        for n in (1, 3):
            for sym in census.symmetric_simple_triangulations(n):
                o = minimal_d_orientation(sym.plane_map, 3)
                assert check_symmetric_minimal(sym, o)


class TestOrientationRecord:
    def test_validation_rejects_outer_direction(self):
        m = cube()
        o = find_d_orientation(m, 2)
        bad = list(o.along)
        outer_edge = next(iter(m.outer_edges()))
        bad[outer_edge] = 2 * outer_edge
        with pytest.raises(Exception):
            Orientation(m, tuple(bad))
