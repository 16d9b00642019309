"""Hand-built rotation systems used across the test suite."""

from __future__ import annotations

from typing import Sequence

from mapquot import census
from mapquot.maps import MapError, NotAPermutation, PlaneMap, PointedMap

# Plane census families small enough to check against a brute-force oracle:
# (name, family, whether some map has several minimal roots).
FAMILIES = [
    ("plane quadrangulations", lambda: census.rooted_quadrangulations(4, simple=False), True),
    ("quadrangular 2-dissections", lambda: census.rooted_quad_2_dissections(3), False),
    ("triangular 1-dissections", lambda: census.rooted_tri_1_dissections(3), False),
]

# Sphere families, whose loops and multiple edges the cycle search also covers.
SPHERE_FAMILIES = [
    ("sphere quadrangulations", lambda: census.rooted_sphere_quads(3)),
    ("sphere triangulations", lambda: census.rooted_sphere_tris(4)),
]


def from_face_lists(faces: Sequence[Sequence[int]], outer: int = 0) -> PlaneMap:
    """Build a map from its face contours (simple graphs only).

    Each face is a vertex list read so that the face lies on the left of
    every directed contour edge.  Every undirected edge must appear exactly
    once in each direction.  The root is the first contour edge of `outer`.
    """
    darts = []  # (face index, position) -> directed edge (u, v)
    for fi, f in enumerate(faces):
        k = len(f)
        for p in range(k):
            darts.append((fi, p, f[p], f[(p + 1) % k]))
    by_dir = {}
    for idx, (_, _, u, v) in enumerate(darts):
        if (u, v) in by_dir:
            raise MapError(f"directed edge {(u, v)} listed twice")
        by_dir[(u, v)] = idx
    pair = {}
    for (u, v), idx in by_dir.items():
        if (v, u) not in by_dir:
            raise MapError(f"edge {(u, v)} lacks its reverse")
        pair[idx] = by_dir[(v, u)]

    # relabel so alpha(d) = d ^ 1
    new_id = {}
    edges = 0
    for idx in range(len(darts)):
        if idx in new_id:
            continue
        new_id[idx] = 2 * edges
        new_id[pair[idx]] = 2 * edges + 1
        edges += 1

    # phi within each face block, then sigma = phi o alpha
    phi = {}
    pos = 0
    for fi, f in enumerate(faces):
        k = len(f)
        for p in range(k):
            phi[pos + p] = pos + (p + 1) % k
        pos += k
    sigma = [0] * len(darts)
    for idx in range(len(darts)):
        sigma[new_id[pair[idx]]] = new_id[phi[idx]]

    root_old = sum(len(f) for f in faces[:outer])
    return PlaneMap(sigma, new_id[root_old])


def square_map() -> PlaneMap:
    # sigma = (0 7)(1 2)(3 4)(5 6): the 4-cycle with edges {0,1},{2,3},{4,5},{6,7}
    return PlaneMap([7, 2, 1, 4, 3, 6, 5, 0], root_dart=0)


def tetrahedron() -> PlaneMap:
    return from_face_lists(
        [[0, 1, 2], [0, 2, 3], [2, 1, 3], [1, 0, 3]], outer=0
    )


def ring_quadrangulation(levels: int) -> PlaneMap:
    """Nested squares joined by spokes; levels=2 is the cube."""
    faces = [[0, 1, 2, 3]]
    for lv in range(levels - 1):
        a = 4 * lv
        b = 4 * (lv + 1)
        for i in range(4):
            j = (i + 1) % 4
            faces.append([a + i, b + i, b + j, a + j])
    last = 4 * (levels - 1)
    faces.append([last, last + 3, last + 2, last + 1])
    return from_face_lists(faces, outer=0)


def cube() -> PlaneMap:
    return ring_quadrangulation(2)


def path_sphere_quad() -> PlaneMap:
    # two-edge path: the unique quadrangulation of the sphere with one face
    return PlaneMap([0, 2, 1, 3], root_dart=0)


def w_fan() -> PlaneMap:
    """Quadrangular 2-dissection: double edge u-v with a pendant w inside."""
    # darts: e1 = (0,1), e2 = (2,3) both u-v; e3 = (4,5) u-w
    return PlaneMap([4, 3, 0, 1, 2, 5], root_dart=0)


def w_fan_pointed() -> PointedMap:
    m = w_fan()
    return PointedMap(m, m.vertex_of[5])


def hexagon_wheel() -> PlaneMap:
    """3-symmetric quadrangular 6-dissection: hexagon plus center joined to
    alternate rim vertices."""
    return from_face_lists(
        [
            [0, 1, 2, 3, 4, 5],
            [0, 6, 2, 1],
            [2, 6, 4, 3],
            [4, 6, 0, 5],
        ],
        outer=0,
    )


def torus_sigma() -> list[int]:
    # one vertex, two crossing loops: genus 1
    return [2, 3, 1, 0]


def face_degrees(m: PlaneMap) -> dict:
    """Degrees of all faces, with the outer face flagged separately."""
    inner = sorted(len(f) for i, f in enumerate(m.faces) if i != m.outer_face)
    return {"outer": m.outer_degree(), "inner": inner}


def relabel(m: PlaneMap, dart_perm: Sequence[int]) -> PlaneMap:
    """Conjugate the rotation system by a dart permutation respecting alpha."""
    n = m.n_darts
    if sorted(dart_perm) != list(range(n)):
        raise NotAPermutation("relabeling is not a permutation")
    for d in range(n):
        if dart_perm[d ^ 1] != dart_perm[d] ^ 1:
            raise MapError("relabeling must respect the dart pairing")
    sigma = [0] * n
    for d in range(n):
        sigma[dart_perm[d]] = dart_perm[m.sigma[d]]
    return PlaneMap(sigma, dart_perm[m.root_dart])
