"""Whole-state census kernel, kept as the oracle for mapquot.kernel.

It tries the gluings in the same order as the package kernel, but keeps
vertex classes in a parent-pointer union-find and, after every gluing,
rescans every glued edge and every outer corner.  It prunes on glued edges
only, not on the unglued sides the package kernel also judges, so it gives
the same maps in the same order from more search nodes.
tests/test_kernels.py requires both kernels to return the same sigma arrays
in the same order.  emit keeps the list form in which the package kernel
once wrote each record, as the oracle for its byte translations.

It keeps the end-only parity cut: a side whose boundary cycle is odd is cut
only once every polygon is open, when no gluing can change the parity of
its cycle.  The package kernel also cuts it earlier, while a fresh polygon
of even degree cannot change that parity either, and glues a side only at
odd distances, so this kernel is the oracle for that cut.

Enumerates rooted genus-0 maps with one face of degree ``outer_deg`` (the
root face, on the left of dart 0) and ``n_inner`` faces of degree
``inner_deg``, by gluing polygon sides.  The smallest unglued side is glued
either to a side on its own boundary cycle (which keeps the surface planar)
or to the first side of a fresh polygon.  Every rooted map of the family is
produced from exactly one gluing sequence, so the output is duplicate-free
by construction.

Family constraints (no loops, no multiple edges, outer contour simple) are
pruned during the search: once two corners have been identified they stay
identified, so an edge whose endpoints currently coincide is a loop in every
completion, and two edges with the same endpoint pair now are parallel in
every completion.
"""

from __future__ import annotations


def run_census(
    outer_deg: int,
    inner_deg: int,
    n_inner: int,
    require_simple: bool = False,
    require_outer_simple: bool = False,
) -> list[list[int]]:
    """All rooted maps of the family, as sigma arrays (alpha = xor 1, root 0)."""
    n_blocks = 1 + n_inner
    total = outer_deg + n_inner * inner_deg
    if total % 2 != 0:
        return []

    # polygon structure
    offsets = [0] * (n_blocks + 1)
    offsets[0] = 0
    for b in range(1, n_blocks + 1):
        offsets[b] = outer_deg + (b - 1) * inner_deg
    phi_next = [0] * total
    for b in range(n_blocks):
        start, deg = offsets[b], (outer_deg if b == 0 else inner_deg)
        for i in range(deg):
            phi_next[start + i] = start + (i + 1) % deg

    partner = [-1] * total
    parent = list(range(total))
    size = [1] * total
    uf_trail: list[int] = []
    edges: list[int] = []  # flat pairs a0,b0,a1,b1,...
    results: list[list[int]] = []

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx == ry:
            uf_trail.append(-1)
            return
        if size[rx] < size[ry]:
            rx, ry = ry, rx
        parent[ry] = rx
        size[rx] += size[ry]
        uf_trail.append(ry)

    def undo_union() -> None:
        ry = uf_trail.pop()
        if ry >= 0:
            size[find(ry)] -= size[ry]
            parent[ry] = ry

    def family_ok() -> bool:
        if require_outer_simple:
            roots = {find(c) for c in range(outer_deg)}
            if len(roots) != outer_deg:
                return False
        if require_simple:
            seen = set()
            for j in range(0, len(edges), 2):
                ra, rb = find(edges[j]), find(edges[j + 1])
                if ra == rb:
                    return False
                key = (ra, rb) if ra < rb else (rb, ra)
                if key in seen:
                    return False
                seen.add(key)
        return True

    def bnext(s: int) -> int:
        t = phi_next[s]
        while partner[t] >= 0:
            t = phi_next[partner[t]]
        return t

    def emit() -> list[int]:
        new = [0] * total
        for j in range(0, len(edges), 2):
            new[edges[j]] = j
            new[edges[j + 1]] = j + 1
        sigma = [0] * total
        for t in range(total):
            sigma[new[t]] = new[phi_next[partner[t]]]
        return sigma

    def glue(d: int, b: int) -> None:
        partner[d] = b
        partner[b] = d
        edges.append(d)
        edges.append(b)
        union(d, phi_next[b])
        union(b, phi_next[d])

    def unglue(d: int, b: int) -> None:
        undo_union()
        undo_union()
        edges.pop()
        edges.pop()
        partner[d] = -1
        partner[b] = -1

    def rec(scan_from: int, opened: int) -> None:
        opened_end = offsets[opened]
        d = scan_from
        while d < opened_end and partner[d] >= 0:
            d += 1
        if d == opened_end:
            if opened == n_blocks:
                results.append(emit())
            return
        # candidates on the boundary cycle through d
        cands = []
        c = bnext(d)
        while c != d:
            cands.append(c)
            c = bnext(c)
        if opened == n_blocks and len(cands) % 2 == 0:
            return  # odd cycle cannot close without fresh faces
        for b in cands:
            glue(d, b)
            if family_ok():
                rec(d + 1, opened)
            unglue(d, b)
        if opened < n_blocks:
            b = opened_end
            glue(d, b)
            if family_ok():
                rec(d + 1, opened + 1)
            unglue(d, b)

    rec(0, 1)
    return results


def emit(edges: list[int], phi_next: list[int], partner: list[int], pos: list[int],
         label: list[int] | None = None) -> bytes:
    """The record of a finished gluing: its sigma, one byte per dart, edge j
    being the j-th glued pair (the sides in edges order, side t being dart
    pos[t]), then, given label, the vertex class of each dart."""
    record = [pos[phi_next[partner[t]]] for t in edges]
    if label is not None:
        record += [label[t] for t in edges]
    return bytes(record)
