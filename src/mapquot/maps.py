"""Plane maps as dart rotation systems.

A map is stored as a permutation ``sigma`` over an even number of darts
0..n-1 plus a root dart.  The edge pairing is implicit: ``alpha(d) = d ^ 1``,
so edge ``j`` consists of darts ``2j`` and ``2j + 1``.  Faces are the orbits
of ``d -> sigma[d ^ 1]``; the orbit of the root dart is the outer face, which
lies on the left of the root dart.  Genus 0 is enforced at construction;
census kernel output, genus 0 by construction, is built unchecked
(PlaneMap._trusted).

Instances are immutable after validation and safe to share between workers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence


class MapError(ValueError):
    pass


class NotAPermutation(MapError):
    pass


class Disconnected(MapError):
    pass


class NonPlanar(MapError):
    pass


def _orbits(perm: Sequence[int]) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """The cycles of perm, in order of their least element, and the index of
    the cycle through each element."""
    orbit_of = [-1] * len(perm)
    out = []
    for start in range(len(perm)):
        if orbit_of[start] >= 0:
            continue
        i = len(out)
        cyc = []
        d = start
        while orbit_of[d] < 0:
            orbit_of[d] = i
            cyc.append(d)
            d = perm[d]
        out.append(tuple(cyc))
    return tuple(out), orbit_of


class PlaneMap:
    """Rooted combinatorial map of genus 0."""

    __slots__ = (
        "n_darts",
        "sigma",
        "root_dart",
        "faces",
        "face_of",
        "vertices",
        "vertex_of",
        "outer_face",
    )

    def __init__(self, sigma: Sequence[int], root_dart: int = 0):
        sigma = tuple(sigma)
        n = len(sigma)
        if n == 0 or n % 2 != 0:
            raise NotAPermutation("dart count must be even and positive")
        if sorted(sigma) != list(range(n)):
            raise NotAPermutation("sigma is not a permutation of the darts")
        if not 0 <= root_dart < n:
            raise MapError("root dart out of range")

        # connectivity: darts must form one orbit under <sigma, alpha>
        seen = [False] * n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            d = stack.pop()
            for e in (sigma[d], d ^ 1):
                if not seen[e]:
                    seen[e] = True
                    count += 1
                    stack.append(e)
        if count != n:
            raise Disconnected("map is not connected")

        self._fill(sigma, root_dart)
        # Euler relation pins genus 0
        if len(self.vertices) - n // 2 + len(self.faces) != 2:
            raise NonPlanar("Euler count v - e + f != 2")

    @classmethod
    def _trusted(cls, sigma: Sequence[int], root_dart: int = 0) -> "PlaneMap":
        """A map from census kernel output, which is a connected genus-0
        permutation by construction: none of the checks of __init__ run."""
        m = cls.__new__(cls)
        m._fill(tuple(sigma), root_dart)
        return m

    def _fill(self, sigma: tuple[int, ...], root_dart: int) -> None:
        self.n_darts = len(sigma)
        self.sigma = sigma
        self.root_dart = root_dart
        self.faces, face_of = _orbits([sigma[d ^ 1] for d in range(len(sigma))])
        self.vertices, vertex_of = _orbits(sigma)
        self.face_of = tuple(face_of)
        self.vertex_of = tuple(vertex_of)
        self.outer_face = face_of[root_dart]

    # -- basic accessors -------------------------------------------------

    @property
    def n_edges(self) -> int:
        return self.n_darts // 2

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def edge_endpoints(self, edge: int) -> tuple[int, int]:
        return self.vertex_of[2 * edge], self.vertex_of[2 * edge + 1]

    def is_loop_edge(self, edge: int) -> bool:
        u, v = self.edge_endpoints(edge)
        return u == v

    def degree(self, vertex: int) -> int:
        return len(self.vertices[vertex])

    def face_degree(self, face: int) -> int:
        return len(self.faces[face])

    def outer_degree(self) -> int:
        return len(self.faces[self.outer_face])

    def outer_vertices(self) -> frozenset[int]:
        return frozenset(self.vertex_of[d] for d in self.faces[self.outer_face])

    def outer_edges(self) -> frozenset[int]:
        return frozenset(d >> 1 for d in self.faces[self.outer_face])

    def inner_edges(self) -> list[int]:
        outer = self.outer_edges()
        return [e for e in range(self.n_edges) if e not in outer]

    def inner_vertices(self) -> list[int]:
        outer = self.outer_vertices()
        return [v for v in range(self.n_vertices) if v not in outer]

    def neighbors(self, vertex: int) -> list[int]:
        """Vertices adjacent to `vertex`, with multiplicity."""
        return [self.vertex_of[d ^ 1] for d in self.vertices[vertex]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PlaneMap)
            and self.sigma == other.sigma
            and self.root_dart == other.root_dart
        )

    def __hash__(self) -> int:
        return hash((self.sigma, self.root_dart))

    def __repr__(self) -> str:
        return f"PlaneMap(n_darts={self.n_darts}, root={self.root_dart})"


@dataclass(frozen=True)
class PointedMap:
    """Plane map with a marked inner vertex."""

    base: PlaneMap
    pointed_vertex: int

    def __post_init__(self):
        if not 0 <= self.pointed_vertex < self.base.n_vertices:
            raise MapError("pointed vertex out of range")
        if self.pointed_vertex in self.base.outer_vertices():
            raise MapError("pointed vertex must be an inner vertex")


@dataclass(frozen=True)
class SymmetricMap:
    """Pointed map invariant under a rotation of order k about the point."""

    base: PointedMap
    order_k: int
    rho: tuple[int, ...]

    def __post_init__(self):
        m = self.base.base
        k = self.order_k
        rho = self.rho
        n = m.n_darts
        if k < 2:
            raise MapError("symmetry order must be at least 2")
        if sorted(rho) != list(range(n)):
            raise MapError("rho is not a dart permutation")
        for d in range(n):
            if rho[m.sigma[d]] != m.sigma[rho[d]]:
                raise MapError("rho does not commute with sigma")
            if rho[d ^ 1] != rho[d] ^ 1:
                raise MapError("rho does not commute with alpha")
        # rho^k = id, and no smaller positive power is the identity
        power = list(range(n))
        order = 0
        for step in range(1, k + 1):
            power = [rho[d] for d in power]
            if all(power[d] == d for d in range(n)):
                order = step
                break
        if order != k:
            raise MapError("rho does not have order exactly k")
        center = self.base.pointed_vertex
        center_darts = set(m.vertices[center])
        if any(rho[d] not in center_darts for d in center_darts):
            raise MapError("rho does not fix the center vertex")
        outer = set(m.faces[m.outer_face])
        if any(rho[d] not in outer for d in outer):
            raise MapError("rho does not fix the outer face")

    @property
    def center(self) -> int:
        return self.base.pointed_vertex

    @property
    def plane_map(self) -> PlaneMap:
        return self.base.base


@dataclass(frozen=True)
class DissectionSpec:
    """Family description: d-angular dissections of a polygon."""

    inner_face_degree: int
    outer_degree: int
    simple: bool = False
    quasi_simple: bool = False
    irreducible: bool = False
    pointed: bool = False
    symmetry_k: Optional[int] = None

    def __post_init__(self):
        if self.inner_face_degree not in (3, 4):
            raise MapError("inner faces must have degree 3 or 4")
        if self.outer_degree < 1:
            raise MapError("outer degree must be positive")
        if self.inner_face_degree == 4 and self.outer_degree % 2 != 0:
            raise MapError("quadrangular dissections need an even outer degree")
        if self.symmetry_k is not None and self.symmetry_k < 2:
            raise MapError("symmetry order must be at least 2")


# -- metrics -------------------------------------------------------------


def distances_from(m: PlaneMap, *sources: int) -> list[int]:
    """Breadth-first graph distances from the nearest of `sources`
    (unreachable = -1)."""
    dist = [-1] * m.n_vertices
    for v in sources:
        dist[v] = 0
    queue = deque(sources)
    while queue:
        v = queue.popleft()
        for w in m.neighbors(v):
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def radial_distance(p: PointedMap) -> int:
    """Distance between the pointed vertex and the outer face boundary."""
    return distances_from(p.base, *p.base.outer_vertices())[p.pointed_vertex]


# -- cycles and enclosure ------------------------------------------------


def _cycles(m: PlaneMap, usable: Sequence[bool], limit: int) -> list[tuple[int, ...]]:
    """Vertex-simple cycles of at most `limit` darts through usable darts,
    one per edge set, sorted by (len, c).

    Each cycle starts at its least dart and uses no smaller one, and the
    search never steps back along the edge it came in on.  `usable` must be
    closed under reversal or hold at most one dart per edge: then a cycle
    from an odd dart 2e + 1 whose partner 2e is usable is the reversal of one
    already found from 2e, so such starts are skipped.
    """
    vertex_of, vertices = m.vertex_of, m.vertices
    found: dict[frozenset[int], tuple[int, ...]] = {}
    for d0 in range(m.n_darts):
        if not usable[d0] or (d0 & 1 and usable[d0 ^ 1]):
            continue
        v0, w0 = vertex_of[d0], vertex_of[d0 ^ 1]
        if v0 == w0 and limit >= 1:
            found.setdefault(frozenset((d0 >> 1,)), (d0,))
        if v0 == w0 or limit < 2:
            continue
        path, on_path = [d0], {v0, w0}
        stack = [iter(vertices[w0])]
        while stack:
            for d in stack[-1]:
                if d < d0 or not usable[d] or d >> 1 == path[-1] >> 1:
                    continue
                w = vertex_of[d ^ 1]
                if w == v0:
                    cyc = (*path, d)
                    found.setdefault(frozenset(x >> 1 for x in cyc), cyc)
                elif w not in on_path and len(path) < limit - 1:
                    path.append(d)
                    on_path.add(w)
                    stack.append(iter(vertices[w]))
                    break
            else:
                stack.pop()
                on_path.discard(vertex_of[path.pop() ^ 1])
    return sorted(found.values(), key=lambda c: (len(c), c))


def simple_cycles(m: PlaneMap, max_length: Optional[int] = None) -> list[tuple[int, ...]]:
    """All vertex-simple cycles, each as a dart tuple (one orientation each).

    Loops are length-1 cycles and parallel edge pairs length-2 cycles.  The
    two traversal directions of a cycle are identified; the representative
    starts at its smallest dart.
    """
    limit = m.n_edges if max_length is None else max_length
    return _cycles(m, [True] * m.n_darts, limit)


def cycle_interior(m: PlaneMap, cycle_darts: Sequence[int]) -> tuple[frozenset[int], frozenset[int]]:
    """Faces and strictly-inside vertices of a simple cycle.

    The interior is the set of faces not reachable from the outer face in the
    dual graph once the cycle's edges are removed.  Strictly-inside vertices
    are the vertices incident to interior faces only (never on the cycle).
    """
    blocked = {d >> 1 for d in cycle_darts}
    reach = [False] * m.n_faces
    reach[m.outer_face] = True
    queue = deque([m.outer_face])
    while queue:
        f = queue.popleft()
        for d in m.faces[f]:
            if d >> 1 in blocked:
                continue
            g = m.face_of[d ^ 1]
            if not reach[g]:
                reach[g] = True
                queue.append(g)
    interior_faces = frozenset(i for i in range(m.n_faces) if not reach[i])
    on_cycle = {m.vertex_of[d] for d in cycle_darts} | {
        m.vertex_of[d ^ 1] for d in cycle_darts
    }
    inside_vertices = set()
    for f in interior_faces:
        for d in m.faces[f]:
            v = m.vertex_of[d]
            if v not in on_cycle:
                inside_vertices.add(v)
    return interior_faces, frozenset(inside_vertices)


def enclosing_girth(p: PointedMap) -> int:
    """Length of the shortest cycle strictly enclosing the pointed vertex."""
    m = p.base
    for cyc in simple_cycles(m):
        if p.pointed_vertex in cycle_interior(m, cyc)[1]:
            return len(cyc)
    raise MapError("no cycle encloses the pointed vertex")


# -- family predicates ---------------------------------------------------


def is_simple(m: PlaneMap) -> bool:
    """True when the map has no loops and no multiple edges."""
    seen = set()
    for e in range(m.n_edges):
        u, v = m.edge_endpoints(e)
        if u == v:
            return False
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return False
        seen.add(key)
    return True


def is_quasi_simple(p: PointedMap) -> bool:
    """True when the pointed vertex lies strictly inside every 1- or 2-cycle.

    Two nested loops at one vertex count as a 2-cycle whose interior is the
    annulus between them; once every loop must enclose the point, that rules
    out a second loop on the same vertex.
    """
    m = p.base
    loops_at: dict[int, int] = {}
    for e in range(m.n_edges):
        if m.is_loop_edge(e):
            v = m.vertex_of[2 * e]
            loops_at[v] = loops_at.get(v, 0) + 1
    if any(c > 1 for c in loops_at.values()):
        return False
    for cyc in simple_cycles(m, max_length=2):
        _, inside = cycle_interior(m, cyc)
        if p.pointed_vertex not in inside:
            return False
    return True


def is_irreducible(m: PlaneMap, d: int) -> bool:
    """True when the interior of every cycle of length at most d is a face."""
    for cyc in simple_cycles(m, max_length=d):
        faces, _ = cycle_interior(m, cyc)
        if len(faces) != 1:
            return False
    return True


# -- canonical codes and automorphisms ------------------------------------


def _bfs_code(m: PlaneMap, root: int) -> tuple[bytes, list[int]]:
    """Bare breadth-first code from `root`, 4 bytes per dart, and the dart labels."""
    sigma = m.sigma
    label = [-1] * m.n_darts
    label[root] = 0
    order = [root]
    out = bytearray()
    for d in order:
        for e in (sigma[d], d ^ 1):
            if label[e] < 0:
                label[e] = len(order)
                order.append(e)
            out += label[e].to_bytes(2, "little")
    return bytes(out), label


def _marks(m: PlaneMap, label, pointed, marked_edge) -> bytes:
    values = (
        None if pointed is None else min(label[d] for d in m.vertices[pointed]),
        None if marked_edge is None else min(label[2 * marked_edge], label[2 * marked_edge + 1]),
    )
    return b"\xfe" + b"".join(b"\xff\xff" if v is None else v.to_bytes(2, "little") for v in values)


def canonical_code(
    m: PlaneMap,
    root: Optional[int] = None,
    pointed: Optional[int] = None,
    marked_edge: Optional[int] = None,
) -> bytes:
    """Breadth-first code of the rooted map, optionally with marks.

    Two rooted maps have equal codes iff they are isomorphic by a
    root-preserving dart bijection; marks are appended canonically.
    """
    code, label = _bfs_code(m, m.root_dart if root is None else root)
    return code + _marks(m, label, pointed, marked_edge)


def minimal_rootings(m: PlaneMap) -> tuple[bytes, list[list[int]]]:
    """Least bare code over the re-rootings along the outer contour, and the
    dart labels of each root reaching it."""
    best, labels = None, []
    for r in m.faces[m.outer_face]:
        code, label = _bfs_code(m, r)
        if best is None or code < best:
            best, labels = code, [label]
        elif code == best:
            labels.append(label)
    return best, labels


def marked_code(
    m: PlaneMap, rootings: tuple, pointed: Optional[int] = None, marked_edge: Optional[int] = None
) -> bytes:
    """unrooted_code from minimal_rootings(m).  Bare codes all have one length,
    so the least code is the least bare code plus the least marks of its roots."""
    bare, labels = rootings
    return bare + min(_marks(m, label, pointed, marked_edge) for label in labels)


def unrooted_code(
    m: PlaneMap, pointed: Optional[int] = None, marked_edge: Optional[int] = None
) -> bytes:
    """Minimum code over re-rootings along the outer contour."""
    return marked_code(m, minimal_rootings(m), pointed, marked_edge)


def automorphism_from(
    sigma: Sequence[int], root: int, image_of_root: int
) -> Optional[tuple[int, ...]]:
    """Dart bijection commuting with sigma and alpha sending root to the image.

    Returns None when no such map automorphism exists.  Rooted maps are rigid,
    so the image of one dart determines everything.
    """
    n = len(sigma)
    rho = [-1] * n
    rho[root] = image_of_root
    stack = [root]
    while stack:
        d = stack.pop()
        for src, dst in ((sigma[d], sigma[rho[d]]), (d ^ 1, rho[d] ^ 1)):
            if rho[src] < 0:
                rho[src] = dst
                stack.append(src)
            elif rho[src] != dst:
                return None
    if sorted(rho) != list(range(n)):
        return None
    return tuple(rho)


def _fixed_orbit(vertices: Sequence[Sequence[int]], rho: Sequence[int]) -> Optional[int]:
    """Index of the first vertex (a sigma orbit) that rho maps onto itself."""
    for i, v in enumerate(vertices):
        darts = set(v)
        if all(rho[d] in darts for d in darts):
            return i
    return None


def fixed_vertex(m: PlaneMap, rho: Sequence[int]) -> Optional[int]:
    """The vertex fixed setwise by rho, if any."""
    return _fixed_orbit(m.vertices, rho)


def rotation(
    sigma: Sequence[int], root: int, k: int, center: Optional[int] = None
) -> Optional[tuple[int, ...]]:
    """Least automorphism of order k of the map (sigma, root) fixing the outer
    face and an inner vertex (`center`, when given), or None.

    An automorphism fixing the outer face commutes with phi, so it shifts the
    outer contour; the order-k ones are the powers rho^j, j coprime to k, of the
    one shifting the root outer/k steps.  All of them fix the same vertex.
    Vertices are numbered as in PlaneMap(sigma, root).  Only the rotation
    system is read, so the census tests kernel output before it builds a map.
    """
    contour = [root]  # the phi orbit of the root: the outer face
    d = sigma[root ^ 1]
    while d != root:
        contour.append(d)
        d = sigma[d ^ 1]
    outer = len(contour)
    if k < 2 or outer % k:
        return None
    rho = automorphism_from(sigma, root, contour[outer // k])
    if rho is None:
        return None
    vertices, vertex_of = _orbits(sigma)
    fv = _fixed_orbit(vertices, rho)
    if fv is None or fv in {vertex_of[d] for d in contour} or center not in (None, fv):
        return None
    best = power = rho
    for j in range(2, k):
        power = tuple(rho[x] for x in power)
        if gcd(j, k) == 1:
            best = min(best, power)
    return best
