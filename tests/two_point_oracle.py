"""Oracles for the two-point side.  The two-point quadrangulation table by
its definition: every sphere quadrangulation with n faces, every marked edge
and every marked vertex, told apart by the least marked code over re-rootings
at every dart (on the sphere any face may be taken as the outer face).  And
the two-point series by their earlier kernels: level series for the
quadrangular families, and levels with a squared companion for the
triangular ones."""

from typing import NamedTuple

from mapquot import census
from mapquot.maps import _bfs_code, distances_from, marked_code
from mapquot.series import TruncSeries, named


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


# -- the two-point series in their two earlier shapes --------------------------
#
# The quadrangular families as differences of the level series X_i; the
# triangular ones with BDG's squared companion A_i^2 beside them.  series.py
# writes all six as differences of one closed form; these are its oracle.


def _ratio(X, i, j):
    """(1 - X^i)(1 - X^j) expanded."""
    return (1 - X**i) * (1 - X**j)


class QuadKernel(NamedTuple):
    """The distance variable X and the limit Xinf of the levels X_i."""

    X: TruncSeries
    Xinf: TruncSeries

    def level(self, i):
        X = self.X
        return self.Xinf * _ratio(X, i, i + 3).divide(_ratio(X, i + 1, i + 2))

    def two_point(self, i):
        return self.level(i + 1) - self.level(i)


class TriKernel(NamedTuple):
    """The distance variable X, the limits of the levels X_i and of the
    squared companion A_i^2, and the w of A_i^2's correction."""

    X: TruncSeries
    Xinf: TruncSeries
    Ainf2: TruncSeries
    w: TruncSeries

    def level(self, i):
        X = self.X
        return self.Xinf * _ratio(X, i, i + 2).divide((1 - X ** (i + 1)) ** 2)

    def squared_companion(self, i):
        X = self.X
        # four times the correction c in A_i^2 = A_inf^2 (1 - c)^2
        c4 = (self.w + 1) * (X**i) * _ratio(X, 1, 2).divide(_ratio(X, i + 1, i + 2))
        return self.Ainf2 * (4 - c4) ** 2 / 16

    def two_point(self, i):
        return (self.level(i + 1) - self.level(i - 1)
                + self.squared_companion(i) - self.squared_companion(i - 1))


def _tri(order):
    P = named("P_tri", order)
    return TriKernel(named("X_tri", order), P, (2 * P * (P - 1)).divide(1 + P), P)


def _tri_simple(order):
    Q, Qt = named("Q_tri", order), named("Qt_tri", order)
    return TriKernel(named("Y_tri", order), 1 / (Qt * (1 - Q) ** 2),
                     (16 * Q).divide(Qt * (1 + Qt) ** 2 * (1 - Q) ** 2), Qt)


def _tri_irred(order):
    R, Rt = named("R_tri", order), named("Rt_tri", order)
    return TriKernel(named("Z_tri", order), 1 / (Rt * (1 - R)),
                     (16 * R).divide((Rt + 1) ** 2 * Rt * (1 - R * R)), Rt)


#: family -> order -> its kernel in the earlier shape
KERNELS = {
    "quad": lambda n: QuadKernel(named("X_quad", n), named("P_quad", n)),
    "quad_simple": lambda n: QuadKernel(named("Y_quad", n), named("Q_quad", n)),
    "quad_irred": lambda n: QuadKernel(named("Z_quad", n), named("R_quad", n) + 1),
    "tri": _tri,
    "tri_simple": _tri_simple,
    "tri_irred": _tri_irred,
}


def two_point(family, i, order):
    """series.two_point(family, i, order) from the earlier kernels."""
    return KERNELS[family](order).two_point(i)
