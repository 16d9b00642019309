"""The two-point quadrangulation table by its definition: every sphere
quadrangulation with n faces, every marked edge and every marked vertex,
told apart by the least marked code over re-rootings at every dart (on the
sphere any face may be taken as the outer face)."""

from mapquot import census
from mapquot.maps import _bfs_code, distances_from, marked_code


def sphere_rootings(m):
    """minimal_rootings(m) over every dart instead of the outer contour."""
    best, labels = None, []
    for r in range(m.n_darts):
        code, label = _bfs_code(m, r)
        if best is None or code < best:
            best, labels = code, [label]
        elif code == best:
            labels.append(label)
    return best, labels


def two_point_quad_table(n):
    """{i: the (map, marked edge, marked vertex) classes of the sphere
    quadrangulations with n faces whose vertex lies at distance i >= 1 from
    the closer end of the edge}."""
    table = {}
    for m in census.rooted_sphere_quads(n):
        rootings = sphere_rootings(m)
        dist = [distances_from(m, v) for v in range(m.n_vertices)]
        for e in range(m.n_edges):
            a, b = m.edge_endpoints(e)
            for v in range(m.n_vertices):
                i = min(dist[v][a], dist[v][b])
                if i >= 1:
                    table.setdefault(i, set()).add(
                        marked_code(m, rootings, pointed=v, marked_edge=e))
    return {i: len(codes) for i, codes in table.items()}
