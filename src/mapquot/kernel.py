"""The census kernel, in pure Python.

Enumerates rooted genus-0 maps with one face of degree ``outer_deg`` (the
root face, on the left of dart 0) and ``n_inner`` faces of degree
``inner_deg``, by gluing polygon sides.  The smallest unglued side is glued
either to a side on its own boundary cycle (which keeps the surface planar)
or to the first side of a fresh polygon.  Every rooted map of the family is
produced from exactly one gluing sequence, so the output is duplicate-free
by construction.

Gluing a side to the side j places on along its boundary cycle of L sides
leaves gaps of j - 1 and L - 1 - j sides, and opening a fresh polygon adds
inner_deg - 2 sides, so while inner_deg is even, or once every polygon is
open, an odd cycle always leaves an odd cycle and never closes.  In those
states the search abandons a side whose cycle is odd and glues a side only
at odd distances j; the branches it cuts emit nothing, so the maps and
their order are unchanged.

Family constraints (no loops, no multiple edges, outer contour simple) are
pruned during the search: once two corners have been identified they stay
identified, so an edge whose endpoints currently coincide is a loop in every
completion, and two edges with the same endpoint pair now are parallel in
every completion.  An unglued side becomes an edge between the classes of
its two ends, so it too is a loop in every completion when its ends
coincide, and parallel to a glued edge with the same end pair.  Two unglued
sides with one end pair pass: they may still be glued to each other.

Side t runs from corner t to corner phi_next[t].  Corner t is in vertex
class label[t]; class r lists its corners in members[r] and keeps one of its
outer corners, or -1, in outer[r].  A union relabels the smaller class.
Gluing d to b adds an edge between, and merges corners only into, the
classes of d and b, so a new loop, multiple edge or pair of identified outer
corners lies in label[d] or label[b].  The root state has no edges and
distinct outer corners, and the search descends only from states that pass,
so glue refuses a union of two classes that both keep an outer corner and
judges the glued edges and unglued sides at the corners of those two classes.

With a rotation order k > 1 the search runs over orbits of sides under a
rotation rho, and yields exactly the maps that rho turns.  rho shifts the
outer sides by outer_deg/k; inner polygons come in orbits of k copies,
polygon 1 + o*k + j being copy j of orbit o, and rho takes side i of copy j
to side i of copy j+1 mod k.  Every gluing d-b forces rho^j d - rho^j b for
j = 1..k-1, and a fresh polygon opens a whole orbit.  A branch dies when b
lies in d's own orbit (an edge midpoint would be fixed) or when a forced side
has left its partner's boundary cycle (the gluing would add a handle).  The
glued sides stay a union of orbits, so the smallest unglued side is read the
same way, and each rooted map that rho turns is reached exactly once.

run_census returns a family as Sigmas: every sigma, one byte per dart, laid
end to end in one read-only buffer, so a family holds at most 256 darts and
costs one byte per dart and map.  A family without the simple or outer-simple
constraint merges no corner classes, since nothing reads them.

With jobs > 1, run_census splits a search with k = 1 over forked processes.
Every map is a leaf at depth total/2 gluings; the search is cut SPLIT_CUT
gluings above that, and the nodes at the cut, the frontier, are numbered in
search order.  Process w searches below the frontier nodes whose index is w
mod jobs and walks the few nodes above the cut itself, so no search state is
shipped.  This process searches share 0 and forks one worker per other share,
with a bare os.fork and a pipe, so no process pool is imported; each worker
sends back its sigmas and where each of its frontier nodes starts in them, and
the chunks are interleaved by frontier index: the sigmas and their order are
those of the serial search.  A first walk counts the frontier nodes, and with
fewer than SPLIT_MIN_NODES the search runs in this process alone: on two
cores every family measured with 14 or more frontier nodes ran faster split,
while simple quadrangulations with 5 or 6 inner faces (2 and 8 nodes) ran
slower by the few milliseconds a fork costs.  With k > 1 a gluing glues a
whole orbit, so the depth does not step by one edge, and the search is not
split.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator, Sequence

# perfbench/run.py records this flag, and perfbench/compare.py refuses to
# compare runs where it differs.
COMPILED = False

#: gluings above the leaves at which a split search cuts its tree
SPLIT_CUT = 10

#: the fewest frontier nodes at which a split search forks its workers
SPLIT_MIN_NODES = 12


class WorkerDied(RuntimeError):
    """A worker process of a split search died or returned a broken share."""


def _polygons(outer_deg: int, inner_deg: int, n_inner: int) -> tuple[list[int], list[int]]:
    """Side offsets of the polygons (outer first) and the next side around each."""
    offsets = [0] + [outer_deg + b * inner_deg for b in range(n_inner + 1)]
    phi_next = [0] * offsets[-1]
    for b in range(1 + n_inner):
        start, deg = offsets[b], (outer_deg if b == 0 else inner_deg)
        for i in range(deg):
            phi_next[start + i] = start + (i + 1) % deg
    return offsets, phi_next


def _boundary(d: int, phi_next: list[int], partner: list[int]) -> list[int]:
    """The other unglued sides on the boundary cycle through side d, in order."""
    cycle = []
    t = d
    while True:
        t = phi_next[t]
        while partner[t] >= 0:
            t = phi_next[partner[t]]
        if t == d:
            return cycle
        cycle.append(t)


class Sigmas(Sequence[bytes]):
    """Sigmas of one positive width, packed end to end in one read-only
    buffer; [i] and iteration give each as bytes."""

    __slots__ = ("buffer", "width")

    def __init__(self, packed: bytearray, width: int):
        self.buffer = memoryview(packed).toreadonly()
        self.width = width

    def __len__(self) -> int:
        return len(self.buffer) // self.width

    def __getitem__(self, i: int) -> bytes:
        n = len(self)
        if not -n <= i < n:
            raise IndexError("sigma index out of range")
        start = (i % n) * self.width
        return self.buffer[start:start + self.width].tobytes()

    def __iter__(self) -> Iterator[bytes]:
        buf, w = self.buffer, self.width
        for start in range(0, len(buf), w):
            yield buf[start:start + w].tobytes()


def _emit(edges: list[int], phi_next: list[int], partner: list[int], out: bytearray) -> None:
    """Append the sigma of a finished gluing to out, one byte per dart, edge j
    being the j-th glued pair (the sides in edges order)."""
    new = [0] * len(edges)
    for j, t in enumerate(edges):
        new[t] = j
    out += bytes([new[phi_next[partner[t]]] for t in edges])


def _write_share(fd: int, packed: bytearray, starts: list[int]) -> None:
    """Send one share down a pipe: how many frontier nodes it searched and
    where each starts in its sigmas, 8 bytes each, then the sigmas."""
    with open(fd, "wb") as out:
        out.write(b"".join(n.to_bytes(8, "little") for n in [len(starts), *starts]))
        out.write(packed)


def _read_share(data: bytes) -> tuple[memoryview, list[int]]:
    """The sigmas and frontier offsets that _write_share sent."""
    end = 8 + 8 * int.from_bytes(data[:8], "little")
    return memoryview(data)[end:], [int.from_bytes(data[i:i + 8], "little")
                                    for i in range(8, end, 8)]


def _split(search: Callable[[int], tuple[bytearray, list[int]]], jobs: int, nodes: int) -> bytearray:
    """The sigmas of a search split in `jobs` shares of its `nodes` frontier
    nodes, in search order.  search(w) runs share w from the root and returns
    its sigmas and where each of its frontier nodes starts in them.  Share 0
    runs in this process and every other share in a forked worker, which
    sends it back down a pipe; the chunks are then interleaved by frontier
    index."""
    workers = []  # (pid, read end of its pipe) of each worker
    sent = []
    try:
        for w in range(1, jobs):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker: its share down the pipe, then out
                status = 1
                try:
                    os.close(read_fd)
                    _write_share(write_fd, *search(w))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            workers.append((pid, read_fd))
        packed, starts = search(0)
        for _, read_fd in workers:
            with open(read_fd, "rb", closefd=False) as pipe:
                sent.append(pipe.read())
    finally:
        statuses = []
        for pid, read_fd in workers:
            os.close(read_fd)  # a worker still writing stops on the closed pipe
            statuses.append(os.waitpid(pid, 0)[1])
    for status in statuses:
        code = os.waitstatus_to_exitcode(status)
        if code:
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise WorkerDied(f"a census worker process died ({how})")
    shares = [(memoryview(packed), starts)] + [_read_share(data) for data in sent]
    for w, (packed, starts) in enumerate(shares):
        if len(starts) != len(range(w, nodes, jobs)):
            raise WorkerDied(f"share {w} of a split census searched {len(starts)} "
                             f"frontier nodes, not {len(range(w, nodes, jobs))}")
        starts.append(len(packed))
    out = bytearray()
    for i in range(nodes):
        packed, starts = shares[i % jobs]
        j = i // jobs
        out += packed[starts[j]:starts[j + 1]]
    return out


def run_census(
    outer_deg: int,
    inner_deg: int,
    n_inner: int,
    require_simple: bool = False,
    require_outer_simple: bool = False,
    k: int = 1,
    jobs: int = 1,
) -> Sigmas:
    """All rooted maps of the family that the rotation of order k turns (every
    map when k = 1), as Sigmas: one buffer holding each map's sigma, one byte
    per dart (alpha = xor 1, root 0), so a family of more than 256 darts is
    refused.  The root face needs outer_deg >= 1.

    jobs > 1 splits a search with k = 1 and at least SPLIT_MIN_NODES
    frontier nodes over that many processes, with the same sigmas in the same
    order; WorkerDied says that one of them failed."""
    n_blocks = 1 + n_inner
    total = outer_deg + n_inner * inner_deg
    results = bytearray()  # the finished sigmas, end to end
    if total % 2 != 0 or outer_deg % k or n_inner % k:
        return Sigmas(results, total)
    if total > 256:
        raise ValueError(f"a family of {total} darts exceeds the kernel's limit of 256 darts")
    offsets, phi_next = _polygons(outer_deg, inner_deg, n_inner)
    # images[s] = [rho s, rho^2 s, ..., rho^(k-1) s]
    images: list[list[int]] = [[] for _ in range(total)]
    for s in range(total):
        t = s
        for _ in range(k - 1):
            if t < outer_deg:
                t = (t + outer_deg // k) % outer_deg
            else:
                b, i = divmod(t - outer_deg, inner_deg)
                t = outer_deg + (b - b % k + (b + 1) % k) * inner_deg + i
            images[s].append(t)

    partner = [-1] * total
    label = list(range(total))  # vertex class of each corner
    members = [[t] for t in range(total)]  # corners of each class
    outer = [t if t < outer_deg else -1 for t in range(total)]  # an outer corner of each class
    phi_prev = [0] * total
    for t in range(total):
        phi_prev[phi_next[t]] = t
    trail: list[tuple[int, int] | None] = []
    edges: list[int] = []  # flat pairs a0,b0,a1,b1,...
    constrained = require_simple or require_outer_simple
    # A split search stops at len(edges) == cut, at its frontier nodes, and
    # searches below the ones of its share, frontier % jobs == share; the
    # others (all of them, with share -1) it only counts.
    cut = share = -1
    frontier = 0
    starts: list[int] = []  # where each frontier node of the share starts in results

    def glue(d: int, b: int) -> bool:
        """Glue d to b and merge the corners it identifies; False if the
        state breaks the family in every completion.  unglue undoes it all."""
        partner[d] = b
        partner[b] = d
        edges.append(d)
        edges.append(b)
        if not constrained:  # no class is read, so none is merged
            trail.append(None)
            trail.append(None)
            return True
        ok = True
        for x, y in ((d, phi_next[b]), (b, phi_next[d])):
            rx, ry = label[x], label[y]
            if rx == ry:
                trail.append(None)
                continue
            if len(members[rx]) < len(members[ry]):
                rx, ry = ry, rx
            if outer[ry] >= 0:
                if outer[rx] < 0:
                    outer[rx] = outer[ry]
                elif require_outer_simple:
                    ok = False
            moved = members[ry]
            for t in moved:
                label[t] = rx
            members[rx].extend(moved)
            trail.append((rx, ry))
        if not (ok and require_simple):
            return ok
        for r in {label[d], label[b]}:
            corners = members[r]
            ends = {r}  # r and its neighbours through glued edges
            for t in corners:
                if partner[t] >= 0:
                    n = label[partner[t]]
                    if n in ends:
                        return False
                    ends.add(n)
            for t in corners:
                s = phi_prev[t]
                if partner[t] < 0 and label[phi_next[t]] in ends or partner[s] < 0 and label[s] in ends:
                    return False
        return True

    def unglue() -> None:
        for _ in range(2):
            merged = trail.pop()
            if merged is not None:
                rx, ry = merged
                if outer[rx] == outer[ry]:  # rx took the outer corner of ry
                    outer[rx] = -1
                moved = members[ry]
                del members[rx][-len(moved):]
                for t in moved:
                    label[t] = ry
        partner[edges.pop()] = -1
        partner[edges.pop()] = -1

    def glue_images(d: int, b: int, fresh: bool) -> bool:
        """Glue rho^j d - rho^j b for j = 1..k-1 after d-b.  False at the first
        that would add a handle or that glue refuses, with what was glued
        left on the trail."""
        for dj, bj in zip(images[d], images[b]):
            if not fresh and bj not in _boundary(dj, phi_next, partner):
                return False
            if not glue(dj, bj):
                return False
        return True

    def rec(scan_from: int, opened: int) -> None:
        nonlocal frontier
        if len(edges) == cut:  # a frontier node, searched by its share alone
            frontier += 1
            if (frontier - 1) % jobs != share:
                return
            starts.append(len(results))
        opened_end = offsets[opened]
        d = scan_from
        while d < opened_end and partner[d] >= 0:
            d += 1
        if d == opened_end:
            if opened == n_blocks:
                _emit(edges, phi_next, partner, results)
            return
        cands = _boundary(d, phi_next, partner)
        if opened == n_blocks or inner_deg % 2 == 0:
            if len(cands) % 2 == 0:
                return
            cands = cands[::2]
        if k > 1:
            own = images[d]
            cands = [b for b in cands if b not in own]
        depth = len(edges)
        for b in cands:
            if glue(d, b) and (k == 1 or glue_images(d, b, False)):
                rec(d + 1, opened)
            while len(edges) > depth:
                unglue()
        if opened < n_blocks:
            b = opened_end
            if glue(d, b) and (k == 1 or glue_images(d, b, True)):
                rec(d + 1, opened + k)
            while len(edges) > depth:
                unglue()

    def search(w: int) -> tuple[bytearray, list[int]]:
        """Share w of the split search, from the root: (its sigmas, the
        offset in them of each of its frontier nodes)."""
        nonlocal share, frontier
        share, frontier = w, 0
        rec(0, 1)
        return results, starts

    if k == 1 and jobs > 1 and total // 2 > SPLIT_CUT:
        cut = 2 * (total // 2 - SPLIT_CUT)
        search(-1)  # count the frontier nodes; below them nothing is emitted
        if frontier >= SPLIT_MIN_NODES:
            return Sigmas(_split(search, jobs, frontier), total)
        cut = -1
    rec(0, 1)
    return Sigmas(results, total)


def kernel_form(
    sigma: Sequence[int], outer_deg: int, inner_deg: int
) -> tuple[tuple[int, ...], bytes]:
    """Replay the rooted map (sigma, root 0, outer face of degree outer_deg on
    the left of dart 0) through the search with k = 1.

    Returns the choice made at each gluing, the index of the partner among
    the candidates or len(candidates) for a fresh polygon, and the sigma the
    search emits for this map.  The search tries choices in increasing order,
    so sorting maps of one family by this key puts them in census order.
    """
    total = len(sigma)
    offsets, phi_next = _polygons(outer_deg, inner_deg, (total - outer_deg) // inner_deg)
    dart = [0] * total  # the map dart on each side
    side = [-1] * total  # the side of each map dart, once its polygon is open
    partner = [-1] * total
    edges: list[int] = []
    choices = []

    def place(x: int, start: int, deg: int) -> None:
        for s in range(start, start + deg):
            dart[s], side[x] = x, s
            x = sigma[x ^ 1]  # phi

    place(0, 0, outer_deg)
    opened = 1
    for d in range(total):
        if partner[d] >= 0:
            continue
        cands = _boundary(d, phi_next, partner)
        b = side[dart[d] ^ 1]
        if b < 0:
            b = offsets[opened]
            place(dart[d] ^ 1, b, inner_deg)
            opened += 1
            choices.append(len(cands))
        else:
            choices.append(cands.index(b))
        partner[d], partner[b] = b, d
        edges += (d, b)
    sigma = bytearray()
    _emit(edges, phi_next, partner, sigma)
    return tuple(choices), bytes(sigma)
