"""Quotient constructions on symmetric dissections.

The classical k-quotient collapses rotation orbits; its inverse (unroll)
slits the map from the pointed vertex to the outer boundary.  The
edge-marking quotients cut a symmetric simple quadrangulation or
triangulation along the leftmost paths of the center's outgoing edges, keep
one sector, and fold its boundary; their inverses slit along the marked
edge's leftmost path.  Every inverse ends in one k-fold cyclic cover
(_cyclic_cover): k copies of the slit sector sewn in a cycle, returned with
its least order-k rotation (maps.rotation).

Surgery happens on a mutable rotation system with explicit edge pairing
(_Surgeon); results are frozen back into validated PlaneMaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from mapquot.maps import (
    MapError,
    PlaneMap,
    PointedMap,
    SymmetricMap,
    distances_from,
    enclosing_girth,
    is_quasi_simple,
    is_simple,
    radial_distance,
    rotation,
    unrooted_code,
)
from mapquot.orientations import (
    check_symmetric_minimal,
    leftmost_path,
    minimal_d_orientation,
)


class NotSymmetricSimpleQuad(MapError):
    pass


class NotSymmetricSimpleTri(MapError):
    pass


class ReconstructionFailed(MapError):
    pass


class _Surgeon:
    """Rotation system under surgery: dicts for sigma and an explicit alpha."""

    __slots__ = ("sigma", "alpha")

    def __init__(self, sigma: dict, alpha: dict):
        self.sigma = sigma
        self.alpha = alpha

    @classmethod
    def from_map(cls, m: PlaneMap) -> "_Surgeon":
        return cls(dict(enumerate(m.sigma)), {d: d ^ 1 for d in range(m.n_darts)})

    def phi(self, d: int) -> int:
        return self.sigma[self.alpha[d]]

    def sigma_prev(self, d: int) -> int:
        x = d
        while self.sigma[x] != d:
            x = self.sigma[x]
        return x

    def vertex_cycle(self, d: int) -> list[int]:
        out = [d]
        x = self.sigma[d]
        while x != d:
            out.append(x)
            x = self.sigma[x]
        return out

    def face_cycle(self, d: int) -> list[int]:
        out = [d]
        x = self.phi(d)
        while x != d:
            out.append(x)
            x = self.phi(x)
        return out

    def set_cycle(self, darts: Sequence[int]) -> None:
        for i, d in enumerate(darts):
            self.sigma[d] = darts[(i + 1) % len(darts)]

    def edge_key(self, d: int) -> tuple[int, int]:
        a = self.alpha[d]
        return (d, a) if d < a else (a, d)

    def component(self, d: int) -> frozenset[int]:
        seen = {d}
        stack = [d]
        while stack:
            x = stack.pop()
            for y in (self.sigma[x], self.alpha[x]):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return frozenset(seen)

    def freeze(self, root: int) -> tuple[PlaneMap, dict[int, int]]:
        """Validate the component of `root` as a PlaneMap (old->new mapping
        returned); the root keeps its face on the left."""
        comp = sorted(self.component(root))
        new: dict[int, int] = {}
        edge = 0
        for d in comp:
            if d in new:
                continue
            new[d] = 2 * edge
            new[self.alpha[d]] = 2 * edge + 1
            edge += 1
        sigma = [0] * len(comp)
        for d in comp:
            sigma[new[d]] = new[self.sigma[d]]
        return PlaneMap(sigma, new[root]), new

    # -- surgery primitives -------------------------------------------------

    def slit(
        self,
        path: Sequence[int],
        split_tail: bool,
        fresh: int,
        outer_darts: frozenset[int],
    ) -> list[tuple[int, int]]:
        """Cut along a vertex-simple dart path ending on the outer face.

        Every path edge is doubled; the copies are returned as (dart,
        alpha-dart) pairs in path order.  With split_tail the tail vertex
        splits too (full boundary-to-boundary cut, which disconnects a
        disk); otherwise the tail is the slit tip and stays whole.
        `outer_darts` is the outer face orbit before surgery.
        """
        L = len(path)
        twins = []
        for j in range(L):
            b, ba = fresh + 2 * j, fresh + 2 * j + 1
            self.alpha[b] = ba
            self.alpha[ba] = b
            twins.append((b, ba))

        def outer_corner_index(cycle: list[int]) -> int:
            # position whose following corner opens into the outer face
            for i, d in enumerate(cycle):
                nxt = cycle[(i + 1) % len(cycle)]
                if nxt in outer_darts:
                    return i
            raise MapError("vertex is not on the outer face")

        writes: list[list[int]] = []

        for j in range(L - 1):
            c_in, c_out = path[j], path[j + 1]
            R = self.vertex_cycle(c_out)
            idx = R.index(self.alpha[c_in])
            writes.append(R[: idx + 1])
            writes.append([twins[j][1]] + R[idx + 1 :] + [twins[j + 1][0]])

        R = self.vertex_cycle(path[0])
        if not split_tail:
            writes.append(R + [twins[0][0]])
        else:
            idx = outer_corner_index(R)
            writes.append(R[: idx + 1])
            writes.append(R[idx + 1 :] + [twins[0][0]])

        last = self.alpha[path[-1]]
        R = self.vertex_cycle(last)
        idx = outer_corner_index(R)
        writes.append(R[idx + 1 :] + [last])
        writes.append([twins[-1][1]] + R[1 : idx + 1])

        for cyc in writes:
            self.set_cycle(cyc)
        return twins

    def zip_fold(self, t: int) -> None:
        """Fold edge(t) onto the boundary-consecutive edge(phi(t)); tail(t)
        merges with the head of the surviving edge, and edge(t) dies."""
        s = self.phi(t)
        ta = self.alpha[t]
        sa = self.alpha[s]
        if self.edge_key(t) == self.edge_key(s):
            raise MapError("cannot fold an edge onto itself")
        hinge = self.vertex_cycle(ta)
        if len(hinge) < 2:
            raise MapError("hinge vertex too small to fold")
        hinge.remove(ta)
        self.set_cycle(hinge)
        t_cycle = self.vertex_cycle(t)
        sa_cycle = self.vertex_cycle(sa)
        if set(t_cycle) & set(sa_cycle):
            raise MapError("fold would merge a vertex with itself")
        self.set_cycle([sa] + t_cycle[1:] + sa_cycle[1:])
        for d in (t, ta):
            del self.sigma[d]
            del self.alpha[d]

    def join(self, x: int, y: int) -> None:
        """Glue boundary edge(x) onto boundary edge(y) of another component,
        anti-aligned (tail(x) merges with head(y)).  edge(y) dies."""
        xa, ya = self.alpha[x], self.alpha[y]
        x_cycle = self.vertex_cycle(x)
        ya_cycle = self.vertex_cycle(ya)
        self.set_cycle([x] + x_cycle[1:] + ya_cycle[1:])
        xa_cycle = self.vertex_cycle(xa)
        y_cycle = self.vertex_cycle(y)
        self.set_cycle([xa] + y_cycle[1:] + xa_cycle[1:])
        for d in (y, ya):
            del self.sigma[d]
            del self.alpha[d]

    def glue_path(self, arc1: Sequence[int], arc2: Sequence[int]) -> None:
        """Sew two boundary arcs (contour-ordered, equal length), pairing
        arc1[i] with arc2[len-1-i].  Across components the first pair is a
        join and the arc2 side dies in the remaining zips; within one
        component the sewing starts at the slit tip, where arc1[-1] is
        followed on the contour by arc2[0], and the arc1 side dies."""
        L = len(arc1)
        if len(arc2) != L:
            raise MapError("arcs of different lengths cannot be sewn")
        pairs = [(arc1[i], arc2[L - 1 - i]) for i in range(L)]
        if self.component(arc1[0]) != self.component(arc2[-1]):
            self.join(*pairs[0])
            zips = [(y, x) for x, y in pairs[1:]]
        else:
            zips = pairs[::-1]
        for t, s in zips:
            if self.phi(t) != s:
                raise ReconstructionFailed("boundary sewing lost adjacency")
            self.zip_fold(t)


# -- classical quotient and unrolling -----------------------------------------


def classical_quotient(s: SymmetricMap) -> PointedMap:
    """Identify rotation orbits of darts; the result is pointed at the image
    of the center."""
    m = s.plane_map
    rho = s.rho
    k = s.order_k
    rep = list(range(m.n_darts))
    for d in range(m.n_darts):
        orbit = [d]
        x = rho[d]
        while x != d:
            orbit.append(x)
            x = rho[x]
        if len(orbit) != k:
            raise MapError("rotation orbit of unexpected size")
        r = min(orbit)
        for o in orbit:
            rep[o] = r
    reps = sorted(set(rep))
    sigma = {r: rep[m.sigma[r]] for r in reps}
    alpha = {r: rep[r ^ 1] for r in reps}
    for r in reps:
        if alpha[r] == r:
            raise MapError("quotient would collapse an edge onto itself")
    surgeon = _Surgeon(sigma, alpha)
    q, new = surgeon.freeze(rep[m.root_dart])
    center_dart = new[rep[m.vertices[s.center][0]]]
    return PointedMap(q, q.vertex_of[center_dart])


def _canonical_path_to_outer(m: PlaneMap, start: int) -> list[int]:
    """Lexicographically smallest shortest dart path from `start` to the
    outer boundary."""
    dist = distances_from(m, *m.outer_vertices())
    path = []
    v = start
    while dist[v] > 0:
        dart = min(
            d for d in m.vertices[v] if dist[m.vertex_of[d ^ 1]] == dist[v] - 1
        )
        path.append(dart)
        v = m.vertex_of[dart ^ 1]
    return path


def _cyclic_cover(sector: _Surgeon, arc_a, arc_b, k: int, root: int, center: int) -> SymmetricMap:
    """k offset copies of a slit sector, arc_b of copy j sewn to arc_a of copy
    j+1 in a cycle; rooted at `root` of copy 0 and pointed at the vertex of its
    dart `center`, with the least order-k rotation about it."""
    block = max(sector.sigma) + 1
    big = _Surgeon({}, {})
    for j in range(k):
        off = j * block
        big.sigma.update((x + off, y + off) for x, y in sector.sigma.items())
        big.alpha.update((x + off, y + off) for x, y in sector.alpha.items())
    for j in range(k):
        b_off, a_off = j * block, (j + 1) % k * block
        big.glue_path([x + b_off for x in arc_b], [x + a_off for x in arc_a])
    cover, new = big.freeze(root)
    c = cover.vertex_of[new[center]]
    rho = rotation(cover.sigma, cover.root_dart, k, c)
    if rho is None:
        raise ReconstructionFailed("the cyclic cover is not k-symmetric")
    return SymmetricMap(PointedMap(cover, c), k, rho)


def unroll(p: PointedMap, k: int) -> SymmetricMap:
    """k-fold cover branched at the pointed vertex and the outer face."""
    if k < 2:
        raise MapError("unroll needs k >= 2")
    m = p.base
    path = _canonical_path_to_outer(m, p.pointed_vertex)
    sector = _Surgeon.from_map(m)
    twins = sector.slit(
        path, split_tail=False, fresh=m.n_darts, outer_darts=frozenset(m.faces[m.outer_face])
    )
    contour = sector.face_cycle(m.root_dart)
    bank_a = {sector.edge_key(d) for d in path}
    bank_b = {sector.edge_key(t) for t, _ in twins}
    arc_a = [d for d in contour if sector.edge_key(d) in bank_a]
    arc_b = [d for d in contour if sector.edge_key(d) in bank_b]
    return _cyclic_cover(sector, arc_a, arc_b, k, m.root_dart, m.vertices[p.pointed_vertex][0])


def verify_quotient_lemmas(s: SymmetricMap) -> dict[str, bool]:
    """Count, distance and quasi-simplicity relations between a symmetric
    dissection and its classical quotient."""
    m = s.plane_map
    e = classical_quotient(s)
    q = e.base
    k = s.order_k
    pd = PointedMap(m, s.center)
    return {
        "vertices": m.n_vertices - 1 == k * (q.n_vertices - 1),
        "edges": m.n_edges == k * q.n_edges,
        "faces": m.n_faces - 1 == k * (q.n_faces - 1),
        "outer_degree": m.outer_degree() == k * q.outer_degree(),
        "radial_distance": radial_distance(pd) == radial_distance(e),
        "enclosing_girth": enclosing_girth(pd) == k * enclosing_girth(e),
        "quasi_simple": is_quasi_simple(pd) == is_quasi_simple(e),
    }


# -- the edge-marking quotients ------------------------------------------------


@dataclass(frozen=True)
class MarkedMap:
    """A plane map with a marked edge (image of an edge-marking quotient)."""

    map: PlaneMap
    marked_edge: int

    def code(self) -> bytes:
        return unrooted_code(self.map, marked_edge=self.marked_edge)


def _sector_split(s: SymmetricMap, d: int):
    """Cut along the leftmost paths of the center's outgoing edges and
    return (surgeon, contour dart center->v1 of the primary sector, p)."""
    m = s.plane_map
    k = s.order_k
    o = minimal_d_orientation(m, d)
    if not check_symmetric_minimal(s, o):
        raise MapError("minimal orientation is not rotation invariant")
    center_out = sorted(x for x in m.vertices[s.center] if o.is_outgoing(x))
    if len(center_out) != d:
        raise MapError("center outdegree differs from d")
    base = leftmost_path(o, center_out[0])
    paths = [base]
    for _ in range(k - 1):
        paths.append([s.rho[x] for x in paths[-1]])
    seen: set[int] = {s.center}
    for pt in paths:
        verts = {m.vertex_of[x ^ 1] for x in pt}
        if seen & verts:
            raise MapError("leftmost path sectors intersect")
        seen |= verts
    p = len(base)
    outer = frozenset(m.faces[m.outer_face])

    surgeon = _Surgeon.from_map(m)
    cut1 = [x ^ 1 for x in reversed(paths[1])] + list(base)
    surgeon.slit(cut1, split_tail=True, fresh=m.n_darts, outer_darts=outer)
    fresh = m.n_darts + 2 * len(cut1)
    if k == 3:
        third = paths[2]
        comp = surgeon.component(third[0])
        if any(x not in comp for x in third):
            raise MapError("third path was separated by the first cut")
        boundary_now = frozenset(
            surgeon.face_cycle(next(x for x in m.faces[m.outer_face] if x in comp))
        )
        surgeon.slit(third, split_tail=True, fresh=fresh, outer_darts=boundary_now)

    # primary sector: the face of the center -> first path vertex dart, with
    # both banks of the sector and its share of the original outer darts
    contour = surgeon.face_cycle(base[0])
    if len(contour) != 2 * p + m.outer_degree() // k or not any(x in outer for x in contour):
        raise MapError("could not identify the primary sector")
    return surgeon, base[0], p


def _fold(surgeon: _Surgeon, d0: int, p: int) -> int:
    """Fold the sector boundary at the corner after d0, p-1 times; returns
    the surviving contour dart of the marked edge.

    With the sector contour reading (center, v1, ..., vp, arc, wp, ..., w1)
    from d0, the folds identify v_{i+2} with w_i, merging the path edges
    pairwise with a shift of two.
    """
    if p == 1:
        return d0
    s_list = surgeon.face_cycle(d0)[1:p]  # (v1->v2), ..., (v_{p-1}->v_p)
    for s_dart in s_list:
        t = surgeon.alpha[surgeon.sigma_prev(s_dart)]
        surgeon.zip_fold(t)
    return s_list[0]


def _phi_generic(s: SymmetricMap, d: int, family_error) -> MarkedMap:
    m = s.plane_map
    want = 4 if d == 2 else 3
    if s.order_k != d or m.outer_degree() != want or not is_simple(m):
        raise family_error("input is not a symmetric simple map of the family")
    if any(len(f) != want for f in m.faces):
        raise family_error("faces of the wrong degree")

    surgeon, d0, p = _sector_split(s, d)
    mark_dart = _fold(surgeon, d0, p)

    comp = surgeon.component(mark_dart)
    root = next(x for x in m.faces[m.outer_face] if x in comp)
    out, new = surgeon.freeze(root)
    marked_edge = new[mark_dart] >> 1
    result = MarkedMap(out, marked_edge)

    n_inner_expected = (m.n_faces - 1) // d
    if out.n_faces - 1 != n_inner_expected:
        raise ReconstructionFailed("folded sector has the wrong size")
    if out.outer_degree() != want or any(len(f) != want for f in out.faces):
        raise ReconstructionFailed("folded sector has a bad face")
    if not is_simple(out):
        raise ReconstructionFailed("folded sector is not simple")
    if marked_edge not in out.outer_edges():
        o2 = minimal_d_orientation(out, d)
        leftmost_path(o2, o2.along[marked_edge])  # must be simple, end outside
    return result


def phi(s: SymmetricMap) -> MarkedMap:
    """Edge-marking quotient of a symmetric simple quadrangulation."""
    return _phi_generic(s, 2, NotSymmetricSimpleQuad)


def phi_tri(s: SymmetricMap) -> MarkedMap:
    """Edge-marking quotient of a symmetric simple triangulation."""
    return _phi_generic(s, 3, NotSymmetricSimpleTri)


def _phi_inverse_generic(m: PlaneMap, e: int, d: int) -> SymmetricMap:
    """Rebuild the k = d symmetric map from its sector, and check the round trip."""
    want = 4 if d == 2 else 3
    if m.outer_degree() != want or not is_simple(m):
        raise MapError("marked map is not a simple map of the family")
    if any(len(f) != want for f in m.faces):
        raise MapError("marked map has faces of the wrong degree")

    sector = _Surgeon.from_map(m)
    if e in m.outer_edges():
        d0 = next(x for x in m.faces[m.outer_face] if x >> 1 == e)
        p = 1
    else:
        o = minimal_d_orientation(m, d)
        s0 = o.along[e]
        lpath = leftmost_path(o, s0)
        p = len(lpath) + 1
        outer = frozenset(m.faces[m.outer_face])
        sector.slit(lpath, split_tail=False, fresh=m.n_darts, outer_darts=outer)
        # the contour leaves the slit tip through s0, preceded by the
        # center->v1 dart
        d0 = sector.alpha[sector.sigma_prev(s0)]

    contour = sector.face_cycle(d0)
    oq = m.outer_degree() // d
    if len(contour) != 2 * p + oq:
        raise ReconstructionFailed("could not locate the sector boundary")
    # the outer-arc darts between the banks always stay on the boundary
    sym = _cyclic_cover(sector, contour[:p], contour[p + oq :], d, contour[p], d0)
    if (phi if d == 2 else phi_tri)(sym).code() != unrooted_code(m, marked_edge=e):
        raise ReconstructionFailed("round trip through the quotient failed")
    return sym


def phi_inverse(m: PlaneMap, marked_edge: int) -> SymmetricMap:
    return _phi_inverse_generic(m, marked_edge, 2)


def phi_tri_inverse(m: PlaneMap, marked_edge: int) -> SymmetricMap:
    return _phi_inverse_generic(m, marked_edge, 3)
