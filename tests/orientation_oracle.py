"""Oracles for orientations.overloaded_vertices: the flow search on the built
map (a map has a d-orientation exactly when find_d_orientation finds one),
and the Hall obstruction read with the vertex partition rebuilt from sigma."""

from __future__ import annotations

from typing import Optional, Sequence

from mapquot.maps import PlaneMap, _orbits
from mapquot.orientations import OrientationInfeasible, find_d_orientation


def has_d_orientation(m: PlaneMap, d: int) -> bool:
    try:
        find_d_orientation(m, d)
        return True
    except OrientationInfeasible:
        return False


def overloaded_vertices(sigma: Sequence[int]) -> Optional[tuple[frozenset[int], int]]:
    """orientations.overloaded_vertices(sigma, PlaneMap(sigma).vertex_of),
    with the vertices of sigma rebuilt by maps._orbits and each inside vertex
    read through its list of darts."""
    vertices, vertex_of = _orbits(sigma)
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
        stack = []
        for start, stop in arcs:
            d = sigma[start]
            while d != stop:
                stack.append(d)
                d = sigma[d]
        while stack:
            w = vertex_of[stack.pop() ^ 1]
            if w not in cycle and w not in inside:
                inside.add(w)
                stack.extend(vertices[w])
        if not inside & outer:
            break
    touching = {d >> 1 for w in inside for d in vertices[w]}
    return frozenset(inside), len(touching)
