"""Depth-first search over every start dart in both directions, kept as the
oracle for maps.simple_cycles and orientations.directed_simple_cycles: it
finds each cycle from every dart of its edges and keeps the first one found
per edge set."""

from __future__ import annotations

from typing import Optional

from mapquot.maps import PlaneMap


def simple_cycles(m: PlaneMap, max_length: Optional[int] = None) -> list[tuple[int, ...]]:
    """All vertex-simple cycles, one dart tuple per edge set, starting at its
    smallest dart and sorted by (len, c)."""
    n = m.n_darts
    limit = max_length if max_length is not None else m.n_edges
    found: dict[frozenset[int], tuple[int, ...]] = {}

    # loops, cycles of length 1
    for e in range(m.n_edges if limit >= 1 else 0):
        if m.is_loop_edge(e):
            found[frozenset([e])] = (2 * e,)

    def extend(path: list[int], visited: set[int], start_v: int):
        last = path[-1]
        v = m.vertex_of[last ^ 1]
        for d in m.vertices[v]:
            e = d >> 1
            if e == last >> 1:
                continue
            w = m.vertex_of[d ^ 1]
            if w == start_v and len(path) + 1 >= 2:
                cyc = tuple(path) + (d,)
                key = frozenset(x >> 1 for x in cyc)
                if len(key) == len(cyc) and key not in found:
                    found[key] = cyc
                continue
            if w == v:
                continue  # loop edge, not part of longer simple cycles here
            if w in visited or w == start_v:
                continue
            if len(path) + 1 >= limit:
                continue
            visited.add(w)
            path.append(d)
            extend(path, visited, start_v)
            path.pop()
            visited.remove(w)

    if limit >= 2:
        for d0 in range(n):
            v0 = m.vertex_of[d0]
            w0 = m.vertex_of[d0 ^ 1]
            if w0 == v0:
                continue
            extend([d0], {v0, w0}, v0)

    return sorted(found.values(), key=lambda c: (len(c), c))
