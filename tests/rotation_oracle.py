"""Rotation search over every outer dart, kept as the oracle for maps.rotation.

Every dart of the outer contour other than the root is tried as the image of
the root; each automorphism found is kept when it fixes an inner vertex
(`center`, when given), together with its order computed from its cycles.
"""

from __future__ import annotations

from math import lcm
from typing import Optional

from mapquot.maps import PlaneMap, automorphism_from, fixed_vertex


def _order(perm) -> int:
    order, seen = 1, set()
    for start in range(len(perm)):
        length, d = 0, start
        while d not in seen:
            seen.add(d)
            d = perm[d]
            length += 1
        if length:
            order = lcm(order, length)
    return order


def find_rotation_automorphisms(
    m: PlaneMap, center: Optional[int] = None
) -> list[tuple[int, tuple[int, ...]]]:
    """Nontrivial automorphisms fixing the outer face and an inner vertex, as
    (order, rho) pairs sorted by order then by rho."""
    out = []
    outer_set = m.outer_vertices()
    for r in m.faces[m.outer_face]:
        if r == m.root_dart:
            continue
        rho = automorphism_from(m.sigma, m.root_dart, r)
        if rho is None:
            continue
        fv = fixed_vertex(m, rho)
        if fv is None or fv in outer_set:
            continue
        if center is not None and fv != center:
            continue
        out.append((_order(rho), rho))
    out.sort()
    return out


def least_rotation(m: PlaneMap, k: int, center: Optional[int] = None):
    """The least order-k rotation found by the search, or None."""
    rots = find_rotation_automorphisms(m, center)
    return min((rho for kk, rho in rots if kk == k), default=None)
