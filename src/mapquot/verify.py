"""Acceptance checks: every headline statement the package makes, runnable as
one suite.  Each check returns (ok, detail); run_suite gathers them with
timings.  The CLI `verify` subcommand and the acceptance tests both call
into this module so there is a single source of truth.

run_suite runs a suite as work items, on forked worker processes
(kernel.run_forked) when asked for more than one job.  A check is one item,
except the orientation check, which is split into one item per census
family and merged back in family order, so a result does not depend on how
the suite ran.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from typing import Callable, Iterable, NamedTuple

from mapquot import census
from mapquot import series as S
from mapquot.kernel import run_census, run_forked
from mapquot.maps import (
    PlaneMap,
    is_simple,
    quasi_simple_vertices,
    radial_distance,
    simple_cycles,
    unrooted_code,
)
from mapquot.orientations import (
    OrientationInfeasible,
    PathSelfIntersects,
    check_symmetric_minimal,
    directed_simple_cycles,
    find_d_orientation,
    is_minimal,
    leftmost_path,
    minimal_d_orientation,
    minimize,
    overloaded_vertices,
)
from mapquot.quotient import (
    classical_quotient,
    phi,
    phi_inverse,
    phi_tri,
    phi_tri_inverse,
    unroll,
    verify_quotient_lemmas,
)


class _Item(NamedTuple):
    """One unit of work of a check: fn(*args).  darts is the size of the
    census family it walks, if any; forked workers start the largest first."""

    fn: Callable
    args: tuple
    darts: int = 0


# How far each check goes, by --max-size tier: series orders, and the sizes or the
# largest size of each census family walked.  A size no tier changes stays in its check,
# and the sizes of each census reading stay in its row of READINGS.
SIZES = {
    "default": {"closed_forms": 50, "phi": 4, "symmetric_quads": (2, 4, 6, 8),
                "symmetric_tris": (3, 9), "orientation_quads": 7, "orientation_tris": 10,
                "orientation_symmetric": 3, "residuals": 30, "substitutions": 15,
                "integrality": 20, "telescoping": 4},
    "small": {"closed_forms": 25, "phi": 3, "symmetric_quads": (2, 4, 6),
              "symmetric_tris": (3,), "orientation_quads": 5, "orientation_tris": 6,
              "orientation_symmetric": 2, "residuals": 15, "substitutions": 12,
              "integrality": 12, "telescoping": 3},
}


class Reading(NamedTuple):
    """How the census reads one series: count, n -> the census count at size
    n (for a two-point family, its census by distance, {i: count}); the sizes
    n read, by --max-size tier; and the noun that names the family when it
    is empty."""

    count: Callable[[int], int | dict[int, int]]
    sizes: dict[str, range]
    noun: str = "census members"


def _sizes(first: int, default: int, small: int) -> dict[str, range]:
    """The sizes first..default at the default tier, first..small at the small one."""
    return {"default": range(first, default + 1), "small": range(first, small + 1)}


def _simple_tris(n: int):
    """Rooted simple triangulations with 2n faces."""
    return census.rooted_triangulations(2 * n, simple=True)


def _one_2_cycle(n: int) -> list[PlaneMap]:
    """The rooted quadrangular 2-dissections with n inner faces (all of
    rooted_family(2, 4, n), which is bipartite) with no loop and no 2-cycle
    but the outer one."""
    return [m for m in census.rooted_quad_2_dissections(n) if len(simple_cycles(m, 2)) == 1]


def _symmetric_distances(inner_deg: int, k: int, n: int) -> Counter:
    """The simple k-symmetric dissections of size n, by the two-point size
    conventions (kn inner faces in the 2k-gon, quadrangular; (2n+1)k in the
    k-gon, triangular), counted by the distance from the center to the outer
    boundary."""
    outer, n_inner = (2 * k, k * n) if inner_deg == 4 else (k, (2 * n + 1) * k)
    members = census.symmetric_members(inner_deg, outer, k, n_inner, simple=True)
    return Counter(radial_distance(sm.base) for sm in members)


#: every series the census reads, each once: a catalogue series by its name, and a
#: two-point family by (family, k), read on the k-symmetric dissections, at k = 1 on
#: the pointed ones.  Each row calls the census through the module, at every call.
READINGS: dict[str | tuple[str, int], Reading] = {
    "q": Reading(lambda n: len(census.rooted_quadrangulations(n, simple=True)),
                 _sizes(2, 6, 5), "simple quadrangulations"),
    "t": Reading(lambda n: len(_simple_tris(n)), _sizes(1, 4, 3), "simple triangulations"),
    "f_quad": Reading(lambda n: len(census.rooted_sphere_quads(n)), _sizes(1, 6, 3),
                      "sphere quadrangulations"),
    "f_tri": Reading(lambda n: len(census.simply_rooted_sphere_tris(2 * n)), _sizes(1, 3, 3),
                     "simply rooted sphere triangulations"),
    "d_quad": Reading(lambda n: census.rooted_quasi_simple_pointed_2d(n), _sizes(1, 4, 3),
                      "rooted quasi-simple pointed quadrangular 2-dissections"),
    "d3_tri": Reading(lambda n: census.count_pointed_dissections(3, 2 * n - 1, quasi_simple=True),
                      _sizes(1, 4, 3), "quasi-simple pointed triangular 1-dissections"),
    "v_tri": Reading(lambda n: sum(len(quasi_simple_vertices(m))
                                   for m in census.rooted_family(2, 3, 2 * n)),
                     _sizes(1, 3, 2), "rooted quasi-simple pointed triangular 2-dissections"),
    "s_tri": Reading(lambda n: census.marked_edge_count(_simple_tris(n)), _sizes(1, 4, 3),
                     "simple triangulations with a marked edge"),
    "t_vertex": Reading(lambda n: sum(m.n_vertices - 2 for m in _simple_tris(n)),
                        _sizes(1, 5, 4), "rooted simple triangulations with a marked vertex"),
    "t_edge": Reading(lambda n: sum(m.n_edges - 1 for m in _simple_tris(n)),
                      _sizes(1, 5, 4), "rooted simple triangulations with a marked edge"),
    "t_rootedge": Reading(lambda n: sum(m.degree(m.vertex_of[m.root_dart]) - 1
                                        for m in _simple_tris(n)), _sizes(1, 5, 4),
                          "rooted simple triangulations with a marked edge at the root vertex"),
    "a_vertex": Reading(lambda n: sum(len(m.inner_vertices()) for m in _one_2_cycle(n)),
                        _sizes(1, 4, 3), "2-dissections with one 2-cycle and a marked vertex"),
    "a_edge": Reading(lambda n: sum(len(m.inner_edges()) for m in _one_2_cycle(n)),
                      _sizes(1, 4, 3), "2-dissections with one 2-cycle and a marked edge"),
    ("quad", 1): Reading(lambda n: census.two_point_quad_table(n), _sizes(1, 4, 3)),
    ("tri", 1): Reading(lambda n: census.pointed_distance_table(3, 2 * n + 1), _sizes(0, 4, 3)),
    ("quad_simple", 2): Reading(lambda n: _symmetric_distances(4, 2, n), _sizes(1, 3, 3)),
    ("quad_simple", 3): Reading(lambda n: _symmetric_distances(4, 3, n), _sizes(1, 3, 3)),
    ("tri_simple", 3): Reading(lambda n: _symmetric_distances(3, 3, n), _sizes(0, 2, 2)),
    ("tri_simple", 4): Reading(lambda n: _symmetric_distances(3, 4, n), _sizes(0, 2, 2)),
}

GOLDEN_Q = [0, 0, 1, 2, 6, 22, 91, 408, 1938]
GOLDEN_T = [0, 1, 1, 3, 13, 68, 399, 2530, 16965]


def _named_result(results, detail: str, failed: str = "failed") -> tuple[bool, str]:
    """(ok, detail) from named sub-results; a failure lists, once each, every
    name that broke."""
    broken = list(dict.fromkeys(name for name, ok in results if not ok))
    return not broken, f"{failed}: " + ", ".join(broken) if broken else detail


def check_series_golden(tier: str = "default") -> tuple[bool, str]:
    """q and t reproduce their printed developments; order 30 within 1s,
    timed cold: built past the named cache, which the builders of q and t
    do not read, so the series built before stay cached."""
    t0 = time.perf_counter()
    q = S.named.__wrapped__("q", 30)
    t = S.named.__wrapped__("t", 30)
    elapsed = time.perf_counter() - t0
    return _named_result([("q golden", [int(c) for c in q.coeffs[:9]] == GOLDEN_Q),
                          ("t golden", [int(c) for c in t.coeffs[:9]] == GOLDEN_T),
                          ("within 1 s", elapsed < 1.0)], f"q,t to order 30 in {elapsed:.3f}s")


def check_closed_forms(tier: str = "default") -> tuple[bool, str]:
    """Ternary/quaternary-tree closed forms to the tier's order and the factorial
    formulas (q indexed by total faces, formula argument = inner faces)."""
    order = SIZES[tier]["closed_forms"]
    x = S.TruncSeries.x(order)
    q = S.named("q", order)
    t = S.named("t", order)
    a3 = S.named("alpha_ternary", order)
    a4 = S.named("alpha_quaternary", order)
    checks = [
        ("q = x(a3 - 2)(1 - a3)", (q - x * (a3 - 2) * (1 - a3)).is_zero()),
        # cleared form of t = (a-2)(1-a)/a^2 avoids a costly series division
        ("t a4^2 = (a4 - 2)(1 - a4)", (t * a4 * a4 - (a4 - 2) * (1 - a4)).is_zero()),
    ]
    fact = math.factorial
    checks += [(f"t[{n}] factorial", t[n] == 2 * fact(4 * n - 3) // (fact(n) * fact(3 * n - 1)))
               for n in range(1, 21)]
    # the q formula counts by inner faces, n = m - 1 for q[m]
    checks += [(f"q[{n + 1}] factorial", q[n + 1] == 4 * fact(3 * n) // (fact(n) * fact(2 * n + 2)))
               for n in range(1, 20)]
    return _named_result(checks, f"closed forms to order {order}, factorial formulas to 20")


def check_cross_series(tier: str = "default") -> tuple[bool, str]:
    """Derived-series identities and the direct-solution equations."""
    x = S.TruncSeries.x(20)
    r = S.named("q", 22).derivative()  # order 21
    rt = S.named("t", 21).derivative()  # order 20
    a3 = S.named("alpha_ternary", 20)
    a4 = S.named("alpha_quaternary", 20)
    identities = [
        ("x g_quad = q", (x * S.named("g_quad", 20) - S.named("q", 21).truncate(20)).is_zero()),
        ("g_tri = t", (S.named("g_tri", 20) - S.named("t", 20)).is_zero()),
        ("d3_tri closed form", (S.named("d3_tri", 15) - S.d3_closed_form(15)).is_zero()),
        # the rooted pointed 2-dissection series coincides with q'
        ("d_quad = q'", (S.named("d_quad", 15) - S.named("q", 16).derivative()).is_zero()),
        # direct-solution identities
        ("q' equation", ((r + 1) * (r * (r + 2) + 2 * x * r.derivative() * (r - 1)))
         .truncate(20).is_zero()),
        ("conserved 4q - 2xq' + xq'^2", (4 * S.named("q", 20) - 2 * x * r + x * r * r).is_zero()),
        ("t' equation", ((x * rt * rt + 1) ** 2 - rt).is_zero()),
        # tree-substitution identities from the direct proofs
        ("x = (a3 - 1)/a3^3", (x - (a3 - 1) / a3**3).is_zero()),
        ("q' = 2 a3 - 2", (r - (2 * a3 - 2)).is_zero()),
        ("t' = a4^2", (rt - a4 * a4).is_zero()),
    ]
    # the link of part 1 to part 2: the rooted series from the two-point
    # kernels' level series, at order 30, with L_B read at B past the order
    link = 30
    tl = S.named("t", link + 1).derivative()
    quad = S.TWO_POINT["quad_simple"].kernel(link)
    tri = S.TWO_POINT["tri_simple"].kernel(link)
    B = link + 1
    identities += [
        ("d3_tri = x t'", (S.named("d3_tri", link) - S.TruncSeries.x(link) * tl).is_zero()),
        ("2(Q_quad - level_1) = q'", (2 * (S.named("Q_quad", link) - quad.level(1))
                                      - S.named("q", link + 1).derivative()).is_zero()),
        ("L_B - L_0 = t'", (tri.level(B) - tri.level(0) - tl).is_zero()),
        # v_tri against the direct form of d3_tri, which does not read u_tri
        ("v_tri (1 - t_edge) = t_vertex + 2 d3", (
            S.named("v_tri", 15) * (1 - S.named("t_edge", 15))
            - S.named("t_vertex", 15) - 2 * S.d3_closed_form(15)).is_zero()),
    ]
    # Bouttier, Di Francesco and Guitter's recursions, which the levels R_i of
    # the plain quadrangular kernel solve, and for triangulations the levels
    # T_i = P u_i u_{i+2} / u_{i+1}^2, with u_i = 1 - X^i, and the
    # S_i = T_i + T_{i+1} + A_i^2 that the plain triangular kernel's levels give
    R = [S.TWO_POINT["quad"].kernel(20).level(i) for i in range(12)]
    plain = S.TWO_POINT["tri"].kernel(20)
    P, u = S.named("P_tri", 20), [1 - plain.X**i for i in range(14)]
    T = [P * (u[i] * u[i + 2]).divide(u[i + 1] ** 2) for i in range(12)]
    gap = (4 * P * P).divide(1 + P) - plain.C  # S_inf - L_inf
    Si = [plain.level(i) + gap for i in range(11)]
    identities += [identity for i in range(1, 11) for identity in (
        (f"BDG quad, i={i}", (R[i] - 1 - x * R[i] * (R[i - 1] + R[i] + R[i + 1])).is_zero()),
        (f"BDG tri S_i, i={i}", (x * Si[i] * Si[i] - (Si[i] - T[i] - T[i + 1])).is_zero()),
        (f"BDG tri R_i, i={i}", (T[i] - 1 - x * T[i] * (Si[i] + Si[i - 1])).is_zero()))]
    return _named_result(
        identities, "g/q/t, d3, and direct-solution identities", "failed identities"
    )


def check_census_series(tier: str = "default") -> tuple[bool, str]:
    """Exhaustive counts match the coefficients of every catalogue series
    that READINGS reads."""
    checks = []
    counts = {}
    for name, reading in READINGS.items():
        if isinstance(name, tuple):
            continue
        sizes = reading.sizes[tier]
        coeffs = S.named(name, sizes[-1])
        for n in sizes:
            c = reading.count(n)
            if not c:
                return False, f"no {reading.noun} for {name}[{n}]"
            checks.append((f"{name}[{n}] = census", c == coeffs[n]))
            counts.setdefault(name, []).append(c)
    return _named_result(checks, f"q counts {counts['q']}, t and sphere families match")


def check_bijections(tier: str = "default") -> tuple[bool, str]:
    """Edge-marking quotients: cardinalities, injectivity and round trips,
    named by quotient and size, and the rooted corollaries.  The members of
    phi of size n are also counted as (n+1) q[n+1]/2, the coefficient of
    q'/2: the census form of 2(Q_quad - level_1) = q' in check_cross_series."""
    qmax = SIZES[tier]["phi"]
    q = S.named("q", qmax + 1)
    quotients = [  # name, quotient, inverse, symmetric members of size n, their image family
        ("phi", phi, phi_inverse, census.symmetric_simple_quadrangulations, "quadrangulations",
         census.rooted_quadrangulations, range(1, qmax + 1)),
        ("phi_tri", phi_tri, phi_tri_inverse, census.symmetric_simple_triangulations,
         "triangulations", census.rooted_triangulations, (1, 3)),
    ]
    checks = []
    for name, quotient, inverse, members_of, noun, rooted, sizes in quotients:
        for n in sizes:
            members = members_of(n)
            if not members:
                return False, f"no symmetric simple {noun} of size {n}"
            expect = census.marked_edge_count(rooted(n + 1, simple=True))
            images = set()
            for sym in members:
                mm = quotient(sym)
                images.add(mm.code())
                back = inverse(mm.map, mm.marked_edge)
                checks.append((f"round trip {name}, size {n}",
                               unrooted_code(back.plane_map, pointed=back.center)
                               == unrooted_code(sym.plane_map, pointed=sym.center)))
            checks.append((f"cardinality {name}, size {n}", len(images) == len(members) == expect))
            if name == "phi":
                checks.append((f"phi members, size {n} = (n+1) q[n+1]/2",
                               len(members) == (n + 1) * q[n + 1] / 2))
    # even sizes have no symmetric triangulations
    checks.append(("no symmetric simple triangulations, size 2",
                   census.count_symmetric(3, 3, 3, 6, simple=True) == 0))
    # rooted corollaries: marked face <-> rooted quasi-simple pointed
    checks += [(f"marked face == quasi-simple pointed, size {n}",
                census.rooted_marked_face_quads(n) == census.rooted_quasi_simple_pointed_2d(n))
               for n in range(1, 4)]
    # triangular corollary: marked edge <-> quasi-simple pointed 1-dissections
    checks += [(f"marked edge == quasi-simple pointed 1-dissection, size {n}",
                census.marked_edge_count(census.rooted_triangulations(2 * n, simple=True))
                == census.count_pointed_dissections(3, 2 * n - 1, quasi_simple=True))
               for n in (1, 2, 3)]
    return _named_result(checks, f"theorem cardinalities and round trips to n={qmax}")


def _symmetric_suite(tier: str):
    sizes = [
        (4, 4, 2, SIZES[tier]["symmetric_quads"], True),
        (4, 4, 2, (2, 4), False),
        (4, 6, 3, (3, 6), False),
        (3, 3, 3, SIZES[tier]["symmetric_tris"], True),
        (3, 6, 2, (6,), False),
    ]
    for inner, outer, k, n_inners, simple in sizes:
        for n_inner in n_inners:
            members = census.symmetric_members(inner, outer, k, n_inner, simple=simple)
            yield (inner, outer, k, n_inner, simple), members


def check_quotient_lemmas(tier: str = "default") -> tuple[bool, str]:
    """Count/distance/quasi-simplicity relations for every symmetric census
    member and every unroll output, named by lemma and family."""
    checks = []
    count = 0
    for family, members in _symmetric_suite(tier):
        if not members:
            return False, f"no symmetric members for (inner, outer, k, n_inner, simple)={family}"
        for sym in members:
            checks += [(f"lemma {lemma} on {family}", ok)
                       for lemma, ok in verify_quotient_lemmas(sym).items()]
            count += 1
    # unroll outputs round-trip and satisfy the lemmas
    for deg, noun, sizes in ((4, "quadrangular 2-dissections", (1, 2, 3)),
                             (3, "triangular 1-dissections", (1, 3))):
        for n in sizes:
            pointed = census.pointed_dissection_classes(deg, n)
            if not pointed:
                return False, f"no pointed {noun} of size {n}"
            for p in pointed:
                for k in (2, 3):
                    where = f"unroll k={k} (degree {deg}, size {n})"
                    sym = unroll(p, k)
                    checks += [(f"lemma {lemma} on {where}", ok)
                               for lemma, ok in verify_quotient_lemmas(sym).items()]
                    q = classical_quotient(sym)
                    checks.append((f"quotient round trip on {where}",
                                   unrooted_code(q.base, pointed=q.pointed_vertex)
                                   == unrooted_code(p.base, pointed=p.pointed_vertex)))
                    count += 1
    return _named_result(checks, f"{count} symmetric maps checked")


def _orientation_family(deg: int, d: int, n: int) -> tuple[dict[str, bool], int, str | None]:
    """The d-orientation statements on the outer-simple maps of one family:
    (named results, leftmost paths traced, the failure when no map is
    d-orientable).

    The kernel emits each map's sigma with the vertex class of each dart,
    and a non-simple map is proved non-orientable by the Hall violator that
    overloaded_vertices reads from the two; only the simple maps are built
    into a PlaneMap and given the flow search.  No other check reads these
    families, so they are searched past the rooted_family cache and freed
    once walked."""
    where = f"degree {deg}, size {n}"
    orientable_iff_simple = f"{d}-orientable == simple, {where}"
    checks: dict[str, bool] = {}

    def note(name: str, ok: bool) -> None:
        checks[name] = checks.get(name, True) and ok

    paths = feasible = 0
    darts = deg * n
    records = run_census(deg, deg, n - 1, require_outer_simple=True, classes=True)
    for record in records:
        sigma = record[:darts]
        obstruction = overloaded_vertices(sigma, record[darts:])
        if obstruction is not None:
            inside, touching = obstruction
            note(orientable_iff_simple, bool(inside) and touching < d * len(inside))
            continue
        m = PlaneMap._trusted(sigma)
        note(orientable_iff_simple, is_simple(m))
        try:
            o = find_d_orientation(m, d)
        except OrientationInfeasible:
            note(orientable_iff_simple, False)
            continue
        feasible += 1
        mo = minimize(o)
        note(f"minimal, {where}", is_minimal(mo))
        note(f"{d} inner edges per inner vertex, {where}",
             len(m.inner_edges()) == d * len(m.inner_vertices()))
        cycles = directed_simple_cycles(o)
        if cycles:
            note(f"minimal after a cycle reversal, {where}",
                 minimize(o.reversed_cycle(cycles[0])).along == mo.along)
        for dart in mo.along:
            if dart is None:
                continue
            try:
                leftmost_path(mo, dart)  # simple, and ends at an outer vertex
                paths += 1
            except PathSelfIntersects:
                note(f"leftmost paths, {where}", False)
    if not feasible:
        return checks, paths, f"no {d}-orientable maps among {len(records)} of {where}"
    return checks, paths, None


def _orientation_symmetric(tier: str) -> tuple[dict[str, bool], int, str | None]:
    """Minimal orientations of symmetric members are rotation invariant."""
    symmetric = [(2, 2, n, "quadrangulations", census.symmetric_simple_quadrangulations)
                 for n in range(1, SIZES[tier]["orientation_symmetric"] + 1)]
    symmetric.append((3, 3, 1, "triangulations", census.symmetric_simple_triangulations))
    checks: dict[str, bool] = {}
    for k, d, n, noun, members_of in symmetric:
        members = members_of(n)
        if not members:
            return checks, 0, f"no symmetric simple {noun} of size {n}"
        name = f"symmetric minimal, k={k}, size {n}"
        checks[name] = all([check_symmetric_minimal(sym, minimal_d_orientation(sym.plane_map, d))
                            for sym in members])
    return checks, 0, None


def _orientation_items(tier: str) -> list[_Item]:
    """One item per (deg, d, n) family, in family order, then the symmetric
    members."""
    families = [(4, 2, range(2, SIZES[tier]["orientation_quads"] + 1)),
                (3, 3, range(2, SIZES[tier]["orientation_tris"] + 1, 2))]
    items = [_Item(_orientation_family, (deg, d, n), darts=deg * n)
             for deg, d, sizes in families for n in sizes]
    return items + [_Item(_orientation_symmetric, (tier,))]


def _merge_orientations(values) -> tuple[bool, str]:
    """(ok, detail) of the orientation items' values, in item order: the
    first family with no d-orientable map, else every broken statement.
    No statement is named by two items."""
    checks = []
    paths = 0
    for named, traced, failure in values:
        if failure:
            return False, failure
        checks += named.items()
        paths += traced
    return _named_result(checks, f"{paths} leftmost paths traced")


def check_orientations(tier: str = "default") -> tuple[bool, str]:
    """d-orientation suite over every quadrangulation/triangulation under cap,
    walking each family once; failures are named by statement and family."""
    return _merge_orientations([item.fn(*item.args) for item in _orientation_items(tier)])


def check_two_point_census(tier: str = "default") -> tuple[bool, str]:
    """Distance-refined series coefficients equal census counts, for every
    two-point family that READINGS reads, named by the family alone at k <= 2
    and by the family and k above."""
    checks = []
    for key, reading in READINGS.items():
        if isinstance(key, str):
            continue
        family, k = key
        label = family if k <= 2 else f"{family}, k={k}"
        sizes = reading.sizes[tier]
        tables = {n: reading.count(n) for n in sizes}
        for n, table in tables.items():
            if not table:
                return False, f"no {reading.noun} for two_point[{label}] at size {n}"
        # every distance some table holds, and one past them all, which reads 0
        distances = range(1, max(max(table) for table in tables.values()) + 2)
        F = {i: S.two_point(family, i, sizes[-1]) for i in distances}
        checks += [(f"two_point[{label}, i={i}][{n}] = census", F[i][n] == table.get(i, 0))
                   for n, table in tables.items() for i in distances]
    nmax, ntri = (READINGS[family, 1].sizes[tier][-1] for family in ("quad", "tri"))
    return _named_result(checks, f"two-point tables to size {nmax} (quad), {2*ntri+1} inner (tri)")


def check_residuals_substitutions(tier: str = "default") -> tuple[bool, str]:
    """Defining-equation residuals and all substitution identities."""
    order, sub = SIZES[tier]["residuals"], SIZES[tier]["substitutions"]
    checks = [(f"residual {name}", ok) for name, ok in S.check_residuals(order).items()]
    checks += [(f"lemma {lemma}", ok) for lemma, ok in S.check_change_of_variables(sub).items()]
    # F from G by edge substitution; G from H by face substitution
    y_of_x = S.substitution_y_of_x(sub)
    f = S.named("f_quad", sub)
    g = S.named("g_quad", sub)
    for i in range(1, 5):
        F = S.two_point("quad", i, sub)
        G = S.two_point("quad_simple", i, sub)
        H = S.two_point("quad_irred", i, sub)
        checks += [
            (f"quad F = (1+f) G(y), i={i}", (F - (1 + f) * G.compose(y_of_x)).is_zero()),
            (f"quad G = H(g), i={i}", (G - H.compose(g)).is_zero()),
        ]
    y3 = S.substitution_y_of_x_tri(sub)
    f3 = S.named("f_tri", sub)
    g3 = S.named("g_tri", sub)
    yv = S.TruncSeries.x(sub)
    z_of_y = S.substitution_z_of_y_tri(sub)
    for i in range(1, 5):
        F = S.two_point("tri", i, sub)
        G = S.two_point("tri_simple", i, sub)
        H = S.two_point("tri_irred", i, sub)
        checks += [
            (f"tri F = (1+f)^2 G(y), i={i}", (F - (1 + f3) ** 2 * G.compose(y3)).is_zero()),
            (f"tri G = (g/y) H(g^2/y), i={i}", (G - g3.divide(yv) * H.compose(z_of_y)).is_zero()),
        ]
    return _named_result(checks, f"residuals to {order}, substitutions to {sub}")


def _integral(ts: S.TruncSeries) -> bool:
    try:
        ts.integer_coefficients()
    except S.SeriesError:
        return False
    return True


def check_positivity(tier: str = "default") -> tuple[bool, str]:
    """Counting coefficients are non-negative integers; telescoped two-point
    sums match bucketed census totals."""
    order, nmax = SIZES[tier]["integrality"], SIZES[tier]["telescoping"]
    # the counting series: every catalogue entry but the algebraic kernels
    checks = [(f"integrality {name}", _integral(S.named(name, order)))
              for name, entry in S.CATALOGUE.items() if entry.definition is None]
    checks += [(f"integrality two_point[{family}, i={i}]", _integral(S.two_point(family, i, 10)))
               for family in S.TWO_POINT for i in (1, 2, 3)]
    # telescoping: sum of F_i equals the level difference and the census total
    big = 2 * nmax + 1
    total = S.TruncSeries.zero(nmax)
    for i in range(1, big + 1):
        total = total + S.two_point("quad", i, nmax)
    kernel = S.TWO_POINT["quad"].kernel(nmax)
    levels = kernel.level(big + 1) - kernel.level(1)
    checks.append((f"telescoping to level {big + 1}", (total - levels).is_zero()))
    for n in range(1, nmax + 1):
        table = census.two_point_quad_table(n)
        beyond = range(2 * n + 1, 2 * n + 3)
        checks += [
            (f"telescoped total[{n}] = census", total[n] == sum(table.values())),
            # coefficients vanish beyond the maximal distance
            (f"two_point[quad, i>{2 * n}][{n}] = 0",
             all(S.two_point("quad", i, nmax)[n] == 0 for i in beyond)),
        ]
    return _named_result(checks, f"integrality to order {order}; telescoping to size {nmax}")


CHECKS: dict[str, Callable[[str], tuple[bool, str]]] = {
    "series_golden": check_series_golden,
    "closed_forms": check_closed_forms,
    "cross_series": check_cross_series,
    "census_series": check_census_series,
    "bijections": check_bijections,
    "quotient_lemmas": check_quotient_lemmas,
    "orientations": check_orientations,
    "two_point_census": check_two_point_census,
    "residuals_substitutions": check_residuals_substitutions,
    "positivity": check_positivity,
}


def _work(name: str, tier: str):
    """(items, merge) of the named check at the tier, the merge folding the items'
    values, in item order, into (ok, detail); only the orientation check is split."""
    if name == "orientations":
        return _orientation_items(tier), _merge_orientations
    return [_Item(CHECKS[name], (tier,))], lambda values: values[0]


def _run_item(item: _Item) -> tuple[object, str | None, float]:
    """item.fn(*item.args), timed: (value, None, seconds), or (None, where it
    crashed, seconds).  The crash is described in the process that ran it,
    because a traceback does not marshal."""
    t0 = time.perf_counter()
    try:
        return item.fn(*item.args), None, time.perf_counter() - t0
    except Exception as exc:  # a crash is a failure, not an abort
        import traceback  # imported on a crash only, to keep it out of CLI start-up
        where = traceback.extract_tb(exc.__traceback__)[-1]
        at = f"{os.path.basename(where.filename)}:{where.lineno} in {where.name}"
        return None, f"{type(exc).__name__}: {exc} ({at})", time.perf_counter() - t0


def _run_pool(items: list[_Item], jobs: int) -> list[tuple[object, str | None, float]]:
    """_run_item of every item on `jobs` forked workers, the largest families
    first.  An item lost with its worker comes back as a crash saying so."""
    order = sorted(range(len(items)), key=lambda i: -items[i].darts)
    outcomes, died = run_forked([lambda item=items[i]: _run_item(item) for i in order], jobs)
    lost = (None, f"WorkerDied: its worker process died ({died})", 0.0)
    return [outcomes[order.index(i)] or lost for i in range(len(items))]


def run_suite(
    names: Iterable[str] | None = None, tier: str = "default", jobs: int = 1
) -> list[dict]:
    """Run the named checks (all by default) to the sizes of SIZES[tier], as
    work items on up to `jobs` processes; one item, or jobs=1, runs in this
    process.  Each result is the same whichever way it ran, apart from
    `seconds`, which for a split check is the sum of its items' times."""
    names = list(names or CHECKS)
    work = [_work(name, tier) for name in names]
    items = [item for check_items, _ in work for item in check_items]
    if min(jobs, len(items)) > 1:
        outcomes = _run_pool(items, jobs)
    else:
        outcomes = [_run_item(item) for item in items]
    results = []
    for name, (check_items, merge) in zip(names, work):
        mine, outcomes = outcomes[:len(check_items)], outcomes[len(check_items):]
        crash = next((crash for _, crash, _ in mine if crash), None)
        ok, detail = (False, crash) if crash else merge([value for value, _, _ in mine])
        results.append(
            {
                "check": name,
                "ok": bool(ok),
                "detail": detail,
                "seconds": round(sum(seconds for _, _, seconds in mine), 3),
            }
        )
    return results
