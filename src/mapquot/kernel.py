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

Side t is glued as dart pos[t] of the emitted sigma, its index in edges, the
flat bytes of glued pairs: glue records pos[d] and pos[b] as it appends them.
Once all are glued, the dart after pos[t] around its vertex is
pos[phi_next[partner[t]]], and edges[j ^ 1] is the partner of edges[j], so
_emit swaps each pair in edges and translates the bytes by phi_next and pos.
A search node is a call of rec; with k = 1 the node with one pair left glues
it, if the two share a cycle, and emits its map, so no map is a node itself.

run_census returns a family as Sigmas: every sigma, one byte per dart, laid
end to end in one read-only buffer, so a family holds at most 256 darts and
costs one byte per dart and map.  A family without the simple or outer-simple
constraint merges no corner classes, since nothing reads them.  With classes
set, which needs one of those constraints, each record is the sigma followed
by the vertex class of each dart, label[t] of its side t in edges order, one
byte per dart: two darts share a class exactly when they share a vertex, and
each class is named by one of its corners, not numbered from 0.  len() still
counts the maps.

With jobs > 1, run_census splits a search with k = 1 over forked processes.
Every map is a leaf at depth total/2 gluings; the search is cut SPLIT_CUT
gluings above that, and the nodes at the cut, the frontier, are numbered in
search order.  Share w searches below the frontier nodes whose index is w
mod jobs and walks the few nodes above the cut itself, so no search state is
shipped.  run_forked runs the shares on jobs forked workers, the same runner
that spreads verify's checks; each share comes back as the sigmas below each
of its frontier nodes, one chunk per node, and the chunks are interleaved by
frontier index: the sigmas and their order are those of the serial search.
A first walk counts the frontier nodes, and with fewer than SPLIT_MIN_NODES
the search runs in this process alone: on two cores every family measured
with 14 or more frontier nodes ran faster split, while simple
quadrangulations with 5 or 6 inner faces (2 and 8 nodes) ran slower by the
few milliseconds a fork costs.  With k > 1 a gluing glues a whole orbit, so
the depth does not step by one edge, and the search is not split.
"""

from __future__ import annotations

import contextlib
import marshal
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
    """A forked worker process died or returned a broken census share."""


def run_forked(tasks: Sequence[Callable[[], object]], jobs: int) -> tuple[list, str | None]:
    """Each task's result, in task order, from min(jobs, len(tasks)) forked
    workers, and how a worker died ("exit status N" or "signal N"), or None.

    This process runs no task and must run no thread.  A free worker takes the
    next task number from one queue pipe and sends each result, never None,
    down its own pipe, marshalled, once it has it: a dead worker loses only its
    task, whose result reads None, as do those no worker was left to take.  A
    worker keeps this process's caches and patched names."""
    if len(tasks) > 2048:  # the queue pipe holds every task number, in 4096 bytes at least
        raise ValueError(f"run_forked takes at most 2048 tasks, not {len(tasks)}")
    queue, feed = os.pipe()
    with open(feed, "wb") as numbers:
        numbers.write(b"".join(i.to_bytes(2, "little") for i in range(len(tasks))))
    results: list = [None] * len(tasks)
    workers = []  # (pid, read end of its pipe) of each worker
    try:
        for _ in range(min(jobs, len(tasks))):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker: results down its pipe until the queue is empty
                status = 1
                try:
                    for fd in [read_fd] + [fd for _, fd in workers]:
                        os.close(fd)
                    with open(write_fd, "wb") as out:
                        while number := os.read(queue, 2):
                            i = int.from_bytes(number, "little")
                            marshal.dump((i, tasks[i]()), out)
                            out.flush()
                    status = 0
                finally:
                    os._exit(status)  # never flushes the stdio it inherited
            os.close(write_fd)
            workers.append((pid, read_fd))
        for _, read_fd in workers:
            # EOFError: the end of the pipe, or of a result cut short by a death
            with open(read_fd, "rb", closefd=False) as pipe, contextlib.suppress(EOFError):
                while True:
                    i, result = marshal.load(pipe)
                    results[i] = result
    finally:
        os.close(queue)
        for _, read_fd in workers:
            os.close(read_fd)  # a worker still writing stops on the closed pipe
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in workers]
    died = next((f"signal {-c}" if c < 0 else f"exit status {c}" for c in codes if c), None)
    return results, died


def _polygons(outer_deg: int, inner_deg: int, n_inner: int) -> tuple[list[int], list[int], bytes]:
    """Polygon side offsets (outer first) and the next side around each, also as a byte table."""
    offsets = [0] + [outer_deg + b * inner_deg for b in range(n_inner + 1)]
    phi_next = [0] * offsets[-1]
    for b in range(1 + n_inner):
        start, deg = offsets[b], (outer_deg if b == 0 else inner_deg)
        for i in range(deg):
            phi_next[start + i] = start + (i + 1) % deg
    return offsets, phi_next, bytes(phi_next).ljust(256)


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
    """Records of one positive width, packed end to end in one read-only
    buffer; [i] and iteration give each as bytes.  A record is one map's
    sigma, or its sigma and vertex classes (run_census with classes)."""

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


def _emit(edges: bytearray, phi_next: bytes, pos: bytearray, out: bytearray,
          label: list[int] | None = None) -> None:
    """Append the sigma of a finished gluing to out, one byte per dart, edge j
    being the j-th glued pair (the sides in edges order, side t being dart
    pos[t]), then, given label, the vertex class of each dart.  phi_next, pos
    and label (padded here) are read as 256-byte translation tables."""
    partners = edges[:]
    partners[::2], partners[1::2] = edges[1::2], edges[::2]
    out += partners.translate(phi_next).translate(pos)
    if label is not None:
        out += edges.translate(bytes(label).ljust(256))


def _split(search: Callable[[int], list[bytearray]], jobs: int, nodes: int) -> bytearray:
    """The sigmas of a search split in `jobs` shares of its `nodes` frontier
    nodes, in search order.  search(w) runs share w from the root and returns
    the sigmas below each of its frontier nodes, one chunk per node.  Each
    share runs in a forked worker, and the chunks are interleaved by frontier
    index."""
    shares, died = run_forked([lambda w=w: search(w) for w in range(jobs)], jobs)
    if died:
        raise WorkerDied(f"a census worker process died ({died})")
    for w, chunks in enumerate(shares):
        if len(chunks) != len(range(w, nodes, jobs)):
            raise WorkerDied(f"share {w} of a split census searched {len(chunks)} "
                             f"frontier nodes, not {len(range(w, nodes, jobs))}")
    return bytearray().join(shares[i % jobs][i // jobs] for i in range(nodes))


def run_census(
    outer_deg: int,
    inner_deg: int,
    n_inner: int,
    require_simple: bool = False,
    require_outer_simple: bool = False,
    k: int = 1,
    jobs: int = 1,
    classes: bool = False,
) -> Sigmas:
    """All rooted maps of the family that the rotation of order k turns (every
    map when k = 1), as Sigmas: one buffer holding each map's sigma, one byte
    per dart (alpha = xor 1, root 0), so a family of more than 256 darts is
    refused.  The root face needs outer_deg >= 1.

    jobs > 1 splits a search with k = 1 and at least SPLIT_MIN_NODES
    frontier nodes over that many processes, with the same sigmas in the same
    order; WorkerDied says that one of them failed.

    classes appends each map's vertex classes to its sigma, so each record is
    twice as wide; only a simple or outer-simple family keeps them."""
    constrained = require_simple or require_outer_simple
    if classes and not constrained:
        raise ValueError("vertex classes need the simple or outer-simple constraint")
    n_blocks = 1 + n_inner
    total = outer_deg + n_inner * inner_deg
    width = 2 * total if classes else total
    results = bytearray()  # the finished records, end to end
    if total % 2 != 0 or outer_deg % k or n_inner % k:
        return Sigmas(results, width)
    if total > 256:
        raise ValueError(f"a family of {total} darts exceeds the kernel's limit of 256 darts")
    offsets, phi_next, phi_table = _polygons(outer_deg, inner_deg, n_inner)
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
    edges = bytearray()  # flat pairs a0,b0,a1,b1,...
    pos = bytearray(256)  # the index of each glued side in edges
    last = total - 2 if k == 1 and inner_deg > 1 else -1  # len(edges) with one open pair left
    appended = label if classes else None  # what _emit appends after each sigma
    # A split search stops at len(edges) == cut, at its frontier nodes, and
    # searches below the ones of its share, frontier % jobs == share; the
    # others (all of them, with share -1) it only counts.
    cut = share = -1
    frontier = 0
    starts: list[int] = []  # where each frontier node of the share starts in results

    def glue(d: int, b: int) -> bool:
        """Glue d to b and merge the corners it identifies; False if the
        state breaks the family in every completion.  unglue undoes it all."""
        partner[d], partner[b] = b, d
        pos[d] = len(edges)
        edges.append(d)
        pos[b] = len(edges)
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
            if opened == n_blocks:  # a leaf, reached only where no last pair is forced
                _emit(edges, phi_table, pos, results, appended)
            return
        if len(edges) == last:  # d can only be glued to the other side left
            b = phi_next[d]
            while partner[b] >= 0:
                b = phi_next[partner[b]]
            if b != d:  # else d is alone on its cycle
                if glue(d, b):
                    _emit(edges, phi_table, pos, results, appended)
                unglue()
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

    def search(w: int) -> list[bytearray]:
        """Share w of the split search, from the root: the sigmas below each
        of its frontier nodes, one chunk per node."""
        nonlocal share, frontier, results, starts
        share, frontier, results, starts = w, 0, bytearray(), []  # one worker may run two shares
        rec(0, 1)
        return [results[a:b] for a, b in zip(starts, starts[1:] + [len(results)])]

    if k == 1 and jobs > 1 and total // 2 > SPLIT_CUT:
        cut = 2 * (total // 2 - SPLIT_CUT)
        search(-1)  # count the frontier nodes; below them nothing is emitted
        if frontier >= SPLIT_MIN_NODES:
            return Sigmas(_split(search, jobs, frontier), width)
        cut = -1
    rec(0, 1)
    return Sigmas(results, width)


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
    offsets, phi_next, phi_table = _polygons(outer_deg, inner_deg, (total - outer_deg) // inner_deg)
    dart = [0] * total  # the map dart on each side
    side = [-1] * total  # the side of each map dart, once its polygon is open
    partner = [-1] * total
    pos = bytearray(256)
    edges = bytearray()
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
        pos[d], pos[b] = len(edges), len(edges) + 1
        edges += bytes((d, b))
    sigma = bytearray()
    _emit(edges, phi_table, pos, sigma)
    return tuple(choices), bytes(sigma)
