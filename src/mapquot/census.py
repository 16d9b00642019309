"""Exhaustive census of small rooted maps: the oracle everything is tested against.

All counts are exact.  Rooted maps are enumerated exactly once by the gluing
kernel; unrooted objects (plain, pointed, or mark-carrying) are counted as
equivalence classes of canonical codes, re-rooting along the outer contour.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from mapquot.kernel import Sigmas, kernel_form, run_census
from mapquot.maps import (
    DissectionSpec,
    MapError,
    PlaneMap,
    PointedMap,
    SymmetricMap,
    distances_from,
    fixed_vertex,
    is_irreducible,
    is_quasi_simple,
    is_simple,
    marked_code,
    minimal_rootings,
    radial_distance,
    rotation,
    unrooted_code,
)


class SizeCapExceeded(MapError):
    pass


#: size caps of a CensusQuery (and so of `mapquot enumerate`), which keep
#: runtimes at desk scale; CensusQuery.force lifts them.  The library
#: functions take any size.
DEFAULT_CAPS = {
    "quad_faces": 7,
    "tri_faces": 10,
    "tri_1d_inner": 9,
    "symmetric_inner": 9,
}

#: hard edge cap of a CensusQuery, which force does not lift
MAX_EDGES = 24

#: lower hard edge caps, by (inner degree, pointed), of the non-simple families,
#: which the kernel searches without the simple prune: about 2 minutes each
UNPRUNED_MAX_EDGES = {(4, False): 18, (4, True): 15, (3, False): 21, (3, True): 21}


def _check_inner(n_inner: int) -> None:
    if n_inner < 0:
        raise MapError(f"a family needs at least 0 inner faces, got {n_inner}")


def _inner_faces(n_faces: int, family: str) -> int:
    """The inner faces of a family sized by its total faces."""
    if n_faces < 1:
        raise MapError(f"{family} have at least 1 face, got size {n_faces}")
    return n_faces - 1


class _Family:
    """A rooted family, read-only.  Its maps are kept as the Sigmas the kernel
    emits, one buffer with one byte per dart of each map (run_census refuses
    families of more than 256 darts), rooted at dart 0, and built into a
    PlaneMap only when they are reached."""

    __slots__ = ("sigmas",)

    def __init__(self, sigmas: Sigmas):
        self.sigmas = sigmas

    def __len__(self) -> int:
        return len(self.sigmas)

    def __iter__(self) -> Iterator[PlaneMap]:
        return map(PlaneMap._trusted, self.sigmas)

    def __getitem__(self, i: int) -> PlaneMap:
        return PlaneMap._trusted(self.sigmas[i])


def _read_family(
    outer_deg: int,
    inner_deg: int,
    n_inner: int,
    simple: bool = False,
    outer_simple: bool = False,
    jobs: int = 1,
) -> _Family:
    """All rooted maps with the given face-degree profile, one per class,
    generated afresh, by a search split over up to `jobs` processes: the
    orientation check and plain queries read their families here, so they are
    not kept once they are done."""
    _check_inner(n_inner)
    return _Family(run_census(outer_deg, inner_deg, n_inner, simple, outer_simple, jobs=jobs))


@lru_cache(maxsize=None)
def rooted_family(
    outer_deg: int,
    inner_deg: int,
    n_inner: int,
    simple: bool = False,
    outer_simple: bool = False,
) -> _Family:
    """All rooted maps with the given face-degree profile, one per class,
    cached for the process."""
    return _read_family(outer_deg, inner_deg, n_inner, simple, outer_simple)


# -- plain rooted families -------------------------------------------------


def rooted_quadrangulations(n_faces: int, simple: bool = True):
    """Rooted quadrangulations (outer face a simple 4-cycle), n_faces total."""
    n_inner = _inner_faces(n_faces, "quadrangulations")
    return rooted_family(4, 4, n_inner, simple=simple, outer_simple=True)


def rooted_triangulations(n_faces: int, simple: bool = True):
    """Rooted triangulations (outer face a simple 3-cycle), n_faces total."""
    n_inner = _inner_faces(n_faces, "triangulations")
    return rooted_family(3, 3, n_inner, simple=simple, outer_simple=True)


def rooted_sphere_quads(n_faces: int):
    """Rooted sphere maps with n_faces quadrangular faces (marked-dart count)."""
    return rooted_family(4, 4, _inner_faces(n_faces, "sphere quadrangulations"))


def rooted_sphere_tris(n_faces: int):
    """Rooted sphere maps with n_faces triangular faces (marked-dart count)."""
    return rooted_family(3, 3, _inner_faces(n_faces, "sphere triangulations"))


def simply_rooted_sphere_tris(n_faces: int) -> _Family:
    """Sphere triangulations rooted at a non-loop dart: edge 0 is a loop
    exactly when dart 1 lies on the sigma-orbit of dart 0."""

    def loop_at_root(sigma: bytes) -> bool:
        d = sigma[0]
        while d and d != 1:
            d = sigma[d]
        return d == 1

    sigmas = rooted_sphere_tris(n_faces).sigmas
    packed = bytearray()
    for s in sigmas:
        if not loop_at_root(s):
            packed += s
    return _Family(Sigmas(packed, sigmas.width))


def rooted_quad_2_dissections(n_inner: int):
    """Rooted quadrangular 2-dissections with n_inner inner faces."""
    return rooted_family(2, 4, n_inner, outer_simple=True)


def rooted_tri_1_dissections(n_inner: int):
    """Rooted triangular 1-dissections with n_inner inner faces."""
    return rooted_family(1, 3, n_inner)


# -- unrooted / marked counts ------------------------------------------------


def unrooted_classes(maps) -> list[PlaneMap]:
    """One representative per unrooted plane-map class (outer face fixed)."""
    seen = {}
    for m in maps:
        code = unrooted_code(m)
        if code not in seen:
            seen[code] = m
    return list(seen.values())


def marked_edge_count(maps) -> int:
    """Number of (map, marked edge) classes, maps taken up to outer-fixing iso."""
    codes = set()
    for m in maps:
        rootings = minimal_rootings(m)
        for e in range(m.n_edges):
            codes.add(marked_code(m, rootings, marked_edge=e))
    return len(codes)


def _pointed_classes(
    inner_deg: int,
    n_inner: int,
    distance: Optional[int],
    quasi_simple: bool,
) -> Iterator[tuple[PlaneMap, int, int]]:
    """The first pointed map of each unrooted pointed class, in family order,
    as (map, pointed vertex, radial distance).

    A map whose unrooted class an earlier map already had holds no new
    pointed class, so it is skipped whole, and the marked codes of a map are
    told apart within it alone (bare codes differ between classes).  One
    breadth-first search from the outer vertices gives every distance."""
    if inner_deg == 4:
        fam = rooted_quad_2_dissections(n_inner)
    elif inner_deg == 3:
        fam = rooted_tri_1_dissections(n_inner)
    else:
        raise MapError("inner degree must be 3 or 4")
    seen = set()
    for m in fam:
        rootings = minimal_rootings(m)
        bare = rootings[0]
        if bare in seen:
            continue
        seen.add(bare)
        dist = distances_from(m, *m.outer_vertices())
        codes = set()
        for v in m.inner_vertices():
            if distance is not None and dist[v] != distance:
                continue
            if quasi_simple and not is_quasi_simple(PointedMap(m, v)):
                continue
            code = marked_code(m, rootings, pointed=v)
            if code not in codes:
                codes.add(code)
                yield m, v, dist[v]


def pointed_dissection_classes(
    inner_deg: int,
    n_inner: int,
    distance: Optional[int] = None,
    quasi_simple: bool = False,
) -> list[PointedMap]:
    """Pointed quadrangular 2-dissections (inner_deg=4) or triangular
    1-dissections (inner_deg=3), one per unrooted pointed class."""
    return [
        PointedMap(m, v)
        for m, v, _ in _pointed_classes(inner_deg, n_inner, distance, quasi_simple)
    ]


def count_pointed_dissections(
    inner_deg: int,
    n_inner: int,
    distance: Optional[int] = None,
    quasi_simple: bool = False,
) -> int:
    """The number of pointed_dissection_classes, keeping no map past its count."""
    return sum(1 for _ in _pointed_classes(inner_deg, n_inner, distance, quasi_simple))


def pointed_distance_table(inner_deg: int, n_inner: int) -> dict[int, int]:
    """count_pointed_dissections at every distance i >= 1, in one pass over
    the family: {i: count}, without the distances that have no class."""
    table: dict[int, int] = {}
    for _, _, i in _pointed_classes(inner_deg, n_inner, None, False):
        table[i] = table.get(i, 0) + 1
    return table


def two_point_quad_table(n: int) -> dict[int, int]:
    """Sphere quadrangulations with n faces, a marked edge and a marked vertex,
    counted by the distance i >= 1 from the vertex to the closer edge end:
    {i: count}.  Opening the marked edge into an outer 2-gon is a bijection
    onto pointed quadrangular 2-dissections with n inner faces, which keeps
    every distance, so these are counted by pointed_distance_table."""
    return pointed_distance_table(4, n)


# -- symmetric families ------------------------------------------------------


def symmetric_members(
    inner_deg: int,
    outer_deg: int,
    k: int,
    n_inner: int,
    simple: bool = False,
    distance: Optional[int] = None,
) -> list[SymmetricMap]:
    """k-symmetric dissections, generated directly by the kernel's search
    over rotation orbits of polygon sides (independent of the quotient
    machinery).

    The rooted maps the search yields are put into census order by
    kernel_form, so they are the rooted family's members with an order-k
    rotation, in family order.  Each is kept with its least such rotation and
    the maps are reduced to unrooted classes.
    """
    _check_inner(n_inner)
    found = run_census(outer_deg, inner_deg, n_inner, simple, True, k) if k > 1 else []
    rotations = {}
    for _, sigma in sorted(kernel_form(s, outer_deg, inner_deg) for s in found):
        rho = rotation(sigma, 0, k)
        if rho is None:
            raise MapError(f"the orbit search yielded a map without an order-{k} rotation")
        rotations[PlaneMap._trusted(sigma)] = rho
    out = []
    for m in unrooted_classes(rotations):
        rho = rotations[m]
        p = PointedMap(m, fixed_vertex(m, rho))
        if distance is not None and radial_distance(p) != distance:
            continue
        out.append(SymmetricMap(p, k, rho))
    return out


def count_symmetric(
    inner_deg: int,
    outer_deg: int,
    k: int,
    n_inner: int,
    simple: bool = False,
    distance: Optional[int] = None,
) -> int:
    return len(symmetric_members(inner_deg, outer_deg, k, n_inner, simple, distance))


def symmetric_simple_quadrangulations(n: int, distance: Optional[int] = None) -> list[SymmetricMap]:
    """Symmetric (order-2) simple quadrangulations with 2n inner faces."""
    return symmetric_members(4, 4, 2, 2 * n, simple=True, distance=distance)


def symmetric_simple_triangulations(n: int, distance: Optional[int] = None) -> list[SymmetricMap]:
    """Symmetric (order-3) simple triangulations with 3n inner faces."""
    return symmetric_members(3, 3, 3, 3 * n, simple=True, distance=distance)


# -- rooted marked counts (both sides of the marked-object identities) -------


def rooted_marked_face_quads(n_inner: int) -> int:
    """Rooted simple quadrangulations with n_inner inner faces and a marked face."""
    fam = rooted_quadrangulations(n_inner + 1, simple=True)
    return sum(m.n_faces for m in fam)


def rooted_quasi_simple_pointed_2d(n_inner: int) -> int:
    """Rooted quasi-simple pointed quadrangular 2-dissections, n_inner inner faces."""
    total = 0
    for m in rooted_quad_2_dissections(n_inner):
        for v in m.inner_vertices():
            if is_quasi_simple(PointedMap(m, v)):
                total += 1
    return total


# -- declarative queries ------------------------------------------------------


@dataclass(frozen=True)
class CensusQuery:
    """Family plus size (and optional radial-distance filter).

    Size conventions: symmetric quadrangular families use kn inner faces and
    triangular ones (2n+1)k inner faces; plain quadrangulations and
    triangulations are sized by total faces; 2- and 1-dissections by inner
    faces.  generate refuses a size past MAX_EDGES (UNPRUNED_MAX_EDGES for a
    non-simple family) always, and past DEFAULT_CAPS unless force.
    """

    spec: DissectionSpec
    size: int
    distance: Optional[int] = None
    force: bool = False


def _guard(q: CensusQuery, cap_key: Optional[str], value: int, n_inner: int) -> None:
    """The size caps, read here and only here: the edges of the family,
    n_inner inner faces, against MAX_EDGES and UNPRUNED_MAX_EDGES, which
    force does not lift, then value against the query's default cap unless
    q.force.  A negative n_inner is left for the library to refuse."""
    s = q.spec
    darts = s.outer_degree + s.inner_face_degree * n_inner
    edges = darts // 2 if n_inner >= 0 and darts % 2 == 0 else 0
    if edges > MAX_EDGES:
        raise SizeCapExceeded(f"{edges} edges exceeds the hard cap of {MAX_EDGES}")
    if not (s.simple or s.symmetry_k):
        cap = UNPRUNED_MAX_EDGES[s.inner_face_degree, s.pointed]
        if edges > cap:
            raise SizeCapExceeded(
                f"{edges} edges exceeds the hard cap of {cap} for a non-simple family")
    if cap_key and not q.force and value > DEFAULT_CAPS[cap_key]:
        raise SizeCapExceeded(
            f"{cap_key}={value} exceeds the default cap "
            f"{DEFAULT_CAPS[cap_key]}; pass force=True (--force) to override"
        )


def generate(q: CensusQuery, jobs: int = 1) -> Iterator[Sequence[int]]:
    """The sigma of each census member, rooted at dart 0: the kernel's buffer
    for plain queries, the plane map of each witness for the others.  A plain
    query's family is searched on up to `jobs` processes, past the
    rooted_family cache; the others run in this process."""
    s = q.spec
    if q.distance is not None and not (s.pointed or s.symmetry_k):
        raise MapError("a distance filter needs a pointed or symmetric family")
    if q.distance is not None and q.distance < 1:
        raise MapError(f"a radial distance is at least 1, got {q.distance}")
    if s.quasi_simple and not s.pointed:
        raise MapError("quasi-simplicity applies to pointed families only")
    if s.pointed and (s.simple or s.symmetry_k):
        raise MapError("pointed families are neither simple nor symmetric")
    if s.irreducible and (s.pointed or s.symmetry_k):
        raise MapError("irreducibility applies to plain families only")
    if s.irreducible and s.outer_degree <= s.inner_face_degree:
        # the outer contour is itself a short cycle around every inner face
        raise MapError("irreducible families need an outer degree above the inner degree")
    if s.pointed and s.outer_degree != s.inner_face_degree - 2:
        raise MapError("pointed families have outer degree 2 (quadrangular) or 1 (triangular)")
    d = s.inner_face_degree
    if s.symmetry_k:
        k = s.symmetry_k
        n_inner = k * q.size if d == 4 else (2 * q.size + 1) * k
        _guard(q, "symmetric_inner", n_inner, n_inner)
        for sm in symmetric_members(d, s.outer_degree, k, n_inner, s.simple, q.distance):
            assert sm.plane_map.root_dart == 0
            yield sm.plane_map.sigma
        return
    if s.pointed:
        # the hard cap of the pointed quadrangular families (size 7) decides alone
        _guard(q, None if d == 4 else "tri_1d_inner", q.size, q.size)
        for m, _, _ in _pointed_classes(d, q.size, q.distance, s.quasi_simple):
            assert m.root_dart == 0
            yield m.sigma
        return
    if d == s.outer_degree:
        _guard(q, "quad_faces" if d == 4 else "tri_faces", q.size, q.size - 1)
        n_inner = _inner_faces(q.size, "quadrangulations" if d == 4 else "triangulations")
    else:
        _guard(q, None, q.size, q.size)
        n_inner = q.size
    fam = _read_family(s.outer_degree, d, n_inner, simple=s.simple, outer_simple=True, jobs=jobs)
    if s.irreducible:
        yield from (m.sigma for m in fam if is_irreducible(m, d))
    else:
        yield from fam.sigmas
