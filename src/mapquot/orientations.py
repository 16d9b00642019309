"""2- and 3-orientations: existence, the minimal one, and leftmost paths.

An orientation assigns a direction to every inner edge; inner vertices must
reach outdegree d and outer vertices outdegree 0.  Minimality means no
directed simple cycle is counterclockwise (enclosed region on its left, per
the chirality fixed in maps.py).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from mapquot.maps import (
    MapError,
    PlaneMap,
    SymmetricMap,
    _cycles,
    cycle_interior,
)


class WrongFamily(MapError):
    pass


class OrientationInfeasible(MapError):
    pass


class PathSelfIntersects(MapError):
    pass


@dataclass(frozen=True)
class Orientation:
    """Direction assignment: along[e] is the tail dart of inner edge e,
    None for outer (unoriented) edges."""

    base: PlaneMap
    along: tuple[Optional[int], ...]

    def __post_init__(self):
        m = self.base
        if len(self.along) != m.n_edges:
            raise MapError("orientation must cover every edge slot")
        outer = m.outer_edges()
        for e, d in enumerate(self.along):
            if (d is None) != (e in outer):
                raise MapError("exactly the inner edges must be oriented")
            if d is not None and d >> 1 != e:
                raise MapError("direction dart does not belong to its edge")

    def is_outgoing(self, dart: int) -> bool:
        return self.along[dart >> 1] == dart

    def outdegree(self, vertex: int) -> int:
        return sum(1 for d in self.base.vertices[vertex] if self.is_outgoing(d))

    def reversed_cycle(self, cycle: Sequence[int]) -> "Orientation":
        along = list(self.along)
        for d in cycle:
            along[d >> 1] = d ^ 1
        return Orientation(self.base, tuple(along))


def _check_family(m: PlaneMap, d: int) -> None:
    if d not in (2, 3):
        raise WrongFamily("only 2- and 3-orientations are supported")
    want = 4 if d == 2 else 3
    if any(len(f) != want for f in m.faces):
        raise WrongFamily(f"faces must all have degree {want} for d={d}")
    contour = [m.vertex_of[x] for x in m.faces[m.outer_face]]
    if len(set(contour)) != len(contour):
        raise WrongFamily("outer face contour must be a simple cycle")


def find_d_orientation(m: PlaneMap, d: int) -> Orientation:
    """A d-orientation when one exists, else OrientationInfeasible.

    Starts from an arbitrary inner-tail assignment and repairs outdegree
    surpluses by reversing directed paths towards deficient vertices.
    """
    _check_family(m, d)
    outer_v = m.outer_vertices()
    inner_edges = m.inner_edges()
    inner_vertices = [v for v in range(m.n_vertices) if v not in outer_v]
    if len(inner_edges) != d * len(inner_vertices):
        raise OrientationInfeasible("edge/vertex count rules out a d-orientation")

    cap = [0 if v in outer_v else d for v in range(m.n_vertices)]
    along: list[Optional[int]] = [None] * m.n_edges
    out = [0] * m.n_vertices
    for e in inner_edges:
        u, v = m.edge_endpoints(e)
        if u in outer_v and v in outer_v:
            raise OrientationInfeasible("inner edge joins two outer vertices")
        tail_dart = 2 * e if u not in outer_v else 2 * e + 1
        along[e] = tail_dart
        out[m.vertex_of[tail_dart]] += 1

    def repair(start: int) -> bool:
        # BFS along current directions; reverse a path into a deficient vertex
        prev: dict[int, int] = {start: -1}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for dart in m.vertices[v]:
                if along[dart >> 1] != dart:
                    continue
                w = m.vertex_of[dart ^ 1]
                if w in prev:
                    continue
                prev[w] = dart
                if out[w] < cap[w]:
                    out[w] += 1
                    out[start] -= 1
                    while w != start:
                        dart = prev[w]
                        along[dart >> 1] = dart ^ 1
                        w = m.vertex_of[dart]
                    return True
                queue.append(w)
        return False

    for v in inner_vertices:
        while out[v] > cap[v]:
            if not repair(v):
                raise OrientationInfeasible("no d-orientation exists")

    o = Orientation(m, tuple(along))
    assert all(o.outdegree(v) == cap[v] for v in range(m.n_vertices))
    return o


def overloaded_vertices(
    sigma: Sequence[int], vertex_of: Sequence[int]
) -> Optional[tuple[frozenset[int], int]]:
    """None when the map (sigma, root 0) has no loop and no multiple edge,
    else (inside, touching) for its first loop or 2-cycle: the one closed by
    the least edge that is a loop or parallel to a smaller edge.

    inside is the set of vertices strictly inside the cycle, on the side that
    holds no outer vertex, and touching the number of edges with an end in
    inside.  A d-orientation gives each vertex of inside d outgoing edges,
    all distinct and all touching inside, so touching < d * len(inside) (a
    Hall violator) proves that the map has none.  vertex_of names the vertex
    of each dart, as PlaneMap(sigma).vertex_of or the census kernel's vertex
    classes, and inside holds those names.  Only the rotation system is read,
    so a non-simple census map is settled before any map is built.
    """
    first: dict[tuple[int, int], int] = {}  # endpoint pair -> its least edge
    for x in range(0, len(sigma), 2):
        u, v = vertex_of[x], vertex_of[x ^ 1]
        if u == v:  # a loop: the two arcs of u between its darts
            cycle = {u}
            sides = (((x, x ^ 1),), ((x ^ 1, x),))
            break
        key = (u, v) if u < v else (v, u)
        if key not in first:
            first[key] = x >> 1
            continue
        # a 2-cycle through y and x at u: the arc from y to x at u and the
        # arc from x ^ 1 to y ^ 1 at v bound the same side
        y = 2 * first[key]
        y = y if vertex_of[y] == u else y ^ 1
        cycle = {u, v}
        sides = (((y, x), (x ^ 1, y ^ 1)), ((x, y), (y ^ 1, x ^ 1)))
        break
    else:
        return None
    outer = set()
    d = 0
    while True:
        outer.add(vertex_of[d])
        d = sigma[d ^ 1]
        if d == 0:
            break
    for arcs in sides:  # the outer face, with its off-cycle vertices, is on one side
        inside: set[int] = set()
        touching: set[int] = set()
        stack = []
        for start, stop in arcs:
            d = sigma[start]
            while d != stop:
                stack.append(d)
                d = sigma[d]
        while stack:
            x = stack.pop() ^ 1
            w = vertex_of[x]
            if w in cycle or w in inside:
                continue
            if w in outer and arcs is sides[0]:
                break  # the outer side: inside is the other
            inside.add(w)
            d = x
            while True:  # the darts around w
                stack.append(d)
                touching.add(d >> 1)
                d = sigma[d]
                if d == x:
                    break
        else:  # walked to its end: inside is this side
            break
    return frozenset(inside), len(touching)


def directed_simple_cycles(o: Orientation) -> list[tuple[int, ...]]:
    """All vertex-simple directed cycles, as dart tuples starting at their
    smallest dart."""
    m = o.base
    return _cycles(m, [o.is_outgoing(d) for d in range(m.n_darts)], m.n_edges)


def is_ccw(m: PlaneMap, cycle: Sequence[int]) -> bool:
    """True when the region enclosed by the directed simple cycle lies on
    its left."""
    interior_faces, _ = cycle_interior(m, cycle)
    return m.face_of[cycle[0]] in interior_faces


def is_minimal(o: Orientation) -> bool:
    return not any(is_ccw(o.base, cyc) for cyc in directed_simple_cycles(o))


def minimize(o: Orientation) -> Orientation:
    """The unique minimal d-orientation, by reversing counterclockwise cycles
    (lexicographically smallest first) until none remain."""
    guard = 4 * o.base.n_edges * o.base.n_faces + 64
    for _ in range(guard):
        ccw = [c for c in directed_simple_cycles(o) if is_ccw(o.base, c)]
        if not ccw:
            return o
        o = o.reversed_cycle(min(ccw))
    raise MapError("cycle reversal did not terminate; minimality is broken")


def minimal_d_orientation(m: PlaneMap, d: int) -> Orientation:
    return minimize(find_d_orientation(m, d))


def leftmost_path(o: Orientation, start_dart: int) -> list[int]:
    """Maximal oriented path from start_dart taking, at each vertex, the
    first outgoing edge clockwise after the arrival edge.

    For a minimal orientation this is a simple path ending at an outer
    vertex; anything else raises PathSelfIntersects.
    """
    m = o.base
    if not o.is_outgoing(start_dart):
        raise MapError("start dart is not oriented outward")
    path = [start_dart]
    seen_vertices = {m.vertex_of[start_dart]}
    while True:
        head = path[-1] ^ 1
        v = m.vertex_of[head]
        if v in seen_vertices:
            raise PathSelfIntersects("leftmost path revisits a vertex")
        seen_vertices.add(v)
        if o.outdegree(v) == 0:
            break
        # first outgoing edge after the arrival edge, scanning with sigma
        # (the scan direction is pinned by the requirement that paths from a
        # minimal orientation stay simple, tested over the census)
        dart = m.sigma[head]
        while not o.is_outgoing(dart):
            dart = m.sigma[dart]
        path.append(dart)
    if m.vertex_of[path[-1] ^ 1] not in m.outer_vertices():
        raise PathSelfIntersects("leftmost path stopped at an inner vertex")
    return path


def check_symmetric_minimal(s: SymmetricMap, o: Orientation) -> bool:
    """True when the rotation maps the orientation to itself."""
    rho = s.rho
    for e, dart in enumerate(o.along):
        if dart is None:
            continue
        if o.along[rho[dart] >> 1] != rho[dart]:
            return False
    return True
