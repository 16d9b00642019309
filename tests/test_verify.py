"""Failure reports of the verify checks: an empty census family, a broken
series or series identity and a crashing check each say what failed and
where."""

import os
import signal
from fractions import Fraction

import pytest

from mapquot import census, verify
from mapquot.kernel import Sigmas
from mapquot import series as S
from mapquot.orientations import OrientationInfeasible
from verify_pins import PINS, pin, record_names, untimed, wrong_series, wrong_two_point


def _empty_at(monkeypatch, module, name, lead, empty):
    """Patch module.name to return empty when its leading arguments are lead."""
    real = getattr(module, name)
    monkeypatch.setattr(
        module, name, lambda *a, **kw: empty if a[:len(lead)] == lead else real(*a, **kw)
    )


@pytest.mark.parametrize(
    "check,patched,lead,empty,expected",
    [
        ("bijections", "symmetric_simple_quadrangulations", (2,), [],
         "no symmetric simple quadrangulations of size 2"),
        ("bijections", "symmetric_simple_triangulations", (3,), [],
         "no symmetric simple triangulations of size 3"),
        # the size-4 triangulations: outer and inner degree 3, 3 inner faces,
        # 12 darts, so 24 bytes a record with the vertex classes
        ("orientations", "run_census", (3, 3, 3), Sigmas(bytearray(), 24),
         "no 3-orientable maps among 0 of degree 3, size 4"),
        ("orientations", "symmetric_simple_quadrangulations", (2,), [],
         "no symmetric simple quadrangulations of size 2"),
        ("quotient_lemmas", "pointed_dissection_classes", (4, 2), [],
         "no pointed quadrangular 2-dissections of size 2"),
        ("census_series", "rooted_sphere_quads", (2,), [],
         "no sphere quadrangulations for f_quad[2]"),
        ("census_series", "simply_rooted_sphere_tris", (4,), [],
         "no simply rooted sphere triangulations for f_tri[2]"),
        ("two_point_census", "two_point_quad_table", (2,), {},
         "no census members for two_point[quad] at size 2"),
        # size 2: 5 inner triangles
        ("two_point_census", "pointed_distance_table", (3, 5), {},
         "no census members for two_point[tri] at size 2"),
        # size 2: 4 inner faces, 2 in each orbit of the rotation
        ("two_point_census", "symmetric_members", (4, 4, 2, 4), [],
         "no census members for two_point[quad_simple] at size 2"),
    ],
    ids=["bijections-quad", "bijections-tri", "orientations", "orientations-symmetric",
         "quotient-lemmas-unroll", "census-sphere-quad", "census-sphere-tri", "two-point",
         "two-point-tri", "two-point-quad-simple"],
)
def test_empty_census_family_fails_with_its_name_and_size(
    monkeypatch, check, patched, lead, empty, expected
):
    # the orientation check runs the kernel itself
    _empty_at(monkeypatch, verify if patched == "run_census" else census, patched, lead, empty)
    ok, detail = verify.CHECKS[check]("small")
    assert not ok
    assert detail == expected


def test_orientations_fail_when_no_map_is_orientable(monkeypatch):
    def infeasible(m, d):
        raise OrientationInfeasible("no d-orientation exists")

    monkeypatch.setattr(verify, "find_d_orientation", infeasible)
    ok, detail = verify.check_orientations("small")
    assert not ok
    n_maps = len(census.rooted_quadrangulations(2, simple=False))
    assert detail == f"no 2-orientable maps among {n_maps} of degree 4, size 2"
    assert n_maps > 0


def test_orientations_fail_on_an_obstruction_that_is_no_hall_violator(monkeypatch):
    real = verify.overloaded_vertices

    def overloaded(sigma, vertex_of):
        # 12 darts: the quadrangulations of size 3 and the triangulations of
        # size 4; two edges per inside vertex fail the count for d = 2 only
        found = real(sigma, vertex_of)
        if found is None or len(sigma) != 12:
            return found
        inside, _ = found
        return inside, 2 * len(inside)

    monkeypatch.setattr(verify, "overloaded_vertices", overloaded)
    ok, detail = verify.check_orientations("small")
    assert not ok
    assert detail == "failed: 2-orientable == simple, degree 4, size 3"


def test_orientation_families_are_not_cached():
    # only the orientation check reads the non-simple families, so they are
    # freed once it has walked them
    census.rooted_family.cache_clear()
    ok, _ = verify.check_orientations("small")
    assert ok
    assert census.rooted_family.cache_info().currsize == 0


def test_cross_series_names_the_broken_identity(monkeypatch):
    monkeypatch.setattr(S, "d3_closed_form", lambda order: S.TruncSeries.zero(order))
    ok, detail = verify.check_cross_series()
    assert not ok
    # both identities that read the direct form of d3_tri
    assert detail == "failed identities: d3_tri closed form, v_tri (1 - t_edge) = t_vertex + 2 d3"


def _break_d3_tri(monkeypatch):
    real = S.named
    monkeypatch.setattr(S, "named", lambda name, order: real(name, order) + (
        S.TruncSeries.x(order) ** 5 if (name, order) == ("d3_tri", 30) else 0))


def _break_level_limit(family):
    """A patch that adds x^5 to the limit of the family kernel's levels."""
    def patch(monkeypatch):
        entry = S.TWO_POINT[family]

        def kernel(order):
            k = entry.kernel(order)
            return k._replace(C=k.C + S.TruncSeries.x(order) ** 5)

        monkeypatch.setitem(S.TWO_POINT, family, entry._replace(kernel=kernel))
    return patch


@pytest.mark.parametrize("patch,name", [
    (_break_d3_tri, "d3_tri = x t'"),
    (_break_level_limit("quad_simple"), "2(Q_quad - level_1) = q'"),
    (_break_level_limit("tri_simple"), "L_B - L_0 = t'"),
], ids=["d3_tri", "quad_simple", "tri_simple"])
def test_cross_series_names_the_broken_link_of_the_two_parts(monkeypatch, patch, name):
    patch(monkeypatch)
    assert verify.check_cross_series() == (False, f"failed identities: {name}")
    monkeypatch.undo()
    assert verify.check_cross_series() == (True, "g/q/t, d3, and direct-solution identities")


def _wrong_level_3(monkeypatch, family):
    """Have the family's kernel add x^5 to its level at j = 3."""
    entry = S.TWO_POINT[family]

    class WrongLevel3(S._Kernel):
        def level(self, j):
            return super().level(j) + (S.TruncSeries.x(20) ** 5 if j == 3 else 0)

    monkeypatch.setitem(S.TWO_POINT, family,
                        entry._replace(kernel=lambda order: WrongLevel3(*entry.kernel(order))))


def test_cross_series_names_the_broken_bdg_recursion(monkeypatch):
    _wrong_level_3(monkeypatch, "quad")
    # R_3 enters the recursions at i = 2, 3 and 4
    assert verify.check_cross_series() == (
        False, "failed identities: BDG quad, i=2, BDG quad, i=3, BDG quad, i=4")


def test_cross_series_names_the_broken_triangular_bdg_recursion(monkeypatch):
    _wrong_level_3(monkeypatch, "tri")
    # S_3 enters the S-row at i = 3 and the R-rows at i = 3 and 4
    assert verify.check_cross_series() == (
        False, "failed identities: BDG tri S_i, i=3, BDG tri R_i, i=3, BDG tri R_i, i=4")


def test_cross_series_reads_v_tri_past_its_census(monkeypatch):
    # no census reading reaches v_tri[12]
    wrong_series(monkeypatch, "v_tri", 12)
    assert verify.check_cross_series() == (
        False, "failed identities: v_tri (1 - t_edge) = t_vertex + 2 d3")


@pytest.fixture
def cold_series_caches():
    """The series cache emptied before and after, so that a patched series
    reaches the series built from it and is forgotten afterwards."""
    named = S.named  # the cache itself, which a test may patch over
    named.cache_clear()
    yield
    named.cache_clear()


def test_residuals_name_the_broken_series(monkeypatch, cold_series_caches):
    real = S.named

    def named(name, order):
        ts = real(name, order)
        return ts + S.TruncSeries.x(order) ** 5 if name == "Y_tri" else ts

    monkeypatch.setattr(S, "named", named)
    ok, detail = verify.check_residuals_substitutions("small")
    assert not ok
    assert detail.startswith("failed: residual Y_tri")
    assert "residual" not in detail[len("failed: residual Y_tri"):]


@pytest.mark.parametrize("family,identities", [
    ("quad_simple", ["quad F = (1+f) G(y)", "quad G = H(g)"]),
    ("quad_irred", ["quad G = H(g)"]),
    ("tri_simple", ["tri F = (1+f)^2 G(y)", "tri G = (g/y) H(g^2/y)"]),
    ("tri_irred", ["tri G = (g/y) H(g^2/y)"]),
])
def test_substitutions_name_the_broken_two_point_series(monkeypatch, family, identities):
    # each identity the wrong series enters fails at i = 3, and nothing else
    wrong_two_point(monkeypatch, family, 3, 2)
    assert verify.check_residuals_substitutions("small") == (
        False, "failed: " + ", ".join(f"{identity}, i=3" for identity in identities))


def test_positivity_names_the_broken_series(monkeypatch):
    real = S.two_point

    def two_point(family, i, order):
        ts = real(family, i, order)
        return ts + Fraction(1, 2) if (family, i) == ("tri_irred", 2) else ts

    monkeypatch.setattr(S, "two_point", two_point)
    ok, detail = verify.check_positivity("small")
    assert not ok
    assert detail == "failed: integrality two_point[tri_irred, i=2]"


def test_closed_forms_name_the_broken_coefficient(monkeypatch):
    real = S.named

    def named(name, order):
        ts = real(name, order)
        return ts + S.TruncSeries.x(order) ** 7 if name == "t" else ts

    monkeypatch.setattr(S, "named", named)
    ok, detail = verify.check_closed_forms("small")
    assert not ok
    assert detail == "failed: t a4^2 = (a4 - 2)(1 - a4), t[7] factorial"


def test_series_golden_is_timed_from_a_cold_cache(monkeypatch):
    # the check builds q and t afresh, past the named cache, and leaves the
    # cache as it was, even when q is already in it
    S.named("q", 30)
    before = S.named.cache_info()
    built = []
    for name in ("q", "t"):
        entry = S.CATALOGUE[name]
        monkeypatch.setitem(S.CATALOGUE, name, entry._replace(
            build=lambda order, real=entry.build, name=name: built.append(name) or real(order)))
    ok, _ = verify.check_series_golden()
    assert ok
    assert S.named.cache_info() == before
    assert built == ["q", "t"]


def test_series_golden_names_the_broken_series(monkeypatch):
    entry = S.CATALOGUE["q"]
    monkeypatch.setitem(S.CATALOGUE, "q", entry._replace(
        build=lambda order: entry.build(order) + S.TruncSeries.x(order) ** 5))
    ok, detail = verify.check_series_golden()
    assert not ok
    assert detail == "failed: q golden"


def test_a_killed_worker_fails_only_its_check(monkeypatch):
    monkeypatch.setitem(verify.CHECKS, "killed", lambda tier: os.kill(os.getpid(), signal.SIGKILL))
    killed, golden = verify.run_suite(["killed", "series_golden"], jobs=2)
    assert (killed["ok"], killed["detail"]) == (False, "WorkerDied: its worker process died (signal 9)")
    assert golden["ok"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_suite_reports_where_a_check_crashed(monkeypatch, jobs):
    def crashes(tier):
        raise ValueError("boom")

    monkeypatch.setitem(verify.CHECKS, "crashes", crashes)
    # two items, so that with jobs=2 the crash is described in a worker
    result, golden = verify.run_suite(["crashes", "series_golden"], jobs=jobs)
    line = crashes.__code__.co_firstlineno + 1
    assert not result["ok"]
    assert result["detail"] == f"ValueError: boom (test_verify.py:{line} in crashes)"
    assert golden["ok"]


def _untimed(results):
    """results without their timings: `seconds`, and the time in the
    series_golden detail."""
    return [{**r, "seconds": None, "detail": untimed(r["detail"])} for r in results]


def test_a_suite_gives_the_same_results_in_one_process_and_on_two(monkeypatch):
    seen = record_names(monkeypatch)
    serial = verify.run_suite(list(verify.CHECKS), "small", jobs=1)
    assert all(r["ok"] for r in serial)
    # a size moved, or a map dropped or doubled by the census, moves these pins
    assert {r["check"]: pin(seen, r) for r in serial} == PINS["small"]
    assert _untimed(verify.run_suite(list(verify.CHECKS), "small", jobs=2)) == _untimed(serial)


def test_a_split_check_names_its_broken_families_in_family_order(monkeypatch):
    real = verify.overloaded_vertices

    def overloaded(sigma, vertex_of):
        # 16 darts: the quadrangulations of size 4, 18: the triangulations of
        # size 6; three edges per inside vertex fail the count for d = 2 and 3
        found = real(sigma, vertex_of)
        if found is None or len(sigma) not in (16, 18):
            return found
        inside, _ = found
        return inside, 3 * len(inside)

    monkeypatch.setattr(verify, "overloaded_vertices", overloaded)
    # the workers start the triangulations of size 6 before the quadrangulations of size 4
    expected = ("failed: 2-orientable == simple, degree 4, size 4, "
                "3-orientable == simple, degree 3, size 6")
    for jobs in (1, 2):
        (result,) = verify.run_suite(["orientations"], "small", jobs=jobs)
        assert not result["ok"]
        assert result["detail"] == expected


def test_quotient_lemmas_name_the_broken_lemma_and_family(monkeypatch):
    def lemmas(sym):
        return {"vertices": True, "enclosing_girth": sym.order_k != 3}

    monkeypatch.setattr(verify, "verify_quotient_lemmas", lemmas)
    ok, detail = verify.check_quotient_lemmas("small")
    assert not ok
    assert detail == "failed: " + ", ".join(
        [f"lemma enclosing_girth on {family}"
         for family in ((4, 6, 3, 3, False), (4, 6, 3, 6, False), (3, 3, 3, 3, True))]
        + [f"lemma enclosing_girth on unroll k=3 (degree {deg}, size {n})"
           for deg, n in ((4, 1), (4, 2), (4, 3), (3, 1), (3, 3))]
    )


def test_bijections_name_the_broken_round_trip(monkeypatch):
    from mapquot import quotient

    (tetrahedron,) = census.symmetric_simple_triangulations(1)

    def inverse(m, marked_edge):  # every size-3 image comes back as the tetrahedron
        back = quotient.phi_tri_inverse(m, marked_edge)
        return tetrahedron if m.n_faces == 4 else back

    monkeypatch.setattr(verify, "phi_tri_inverse", inverse)
    ok, detail = verify.check_bijections("small")
    assert not ok
    assert detail == "failed: round trip phi_tri, size 3"


def test_bijections_name_the_broken_census_form_of_phi(monkeypatch):
    real = S.named

    def named(name, order):  # q[3] = 2 + 1
        ts = real(name, order)
        return ts + S.TruncSeries.x(order) ** 3 if name == "q" else ts

    monkeypatch.setattr(S, "named", named)
    ok, detail = verify.check_bijections("small")
    assert not ok
    assert detail == "failed: phi members, size 2 = (n+1) q[n+1]/2"


def test_orientations_name_the_broken_statement_and_family(monkeypatch):
    real = verify.is_minimal
    monkeypatch.setattr(verify, "is_minimal", lambda o: real(o) and o.base.n_faces != 6)
    ok, detail = verify.check_orientations("small")
    assert not ok
    assert detail == "failed: minimal, degree 3, size 6"


def test_orientations_name_the_broken_symmetric_member(monkeypatch):
    monkeypatch.setattr(verify, "check_symmetric_minimal", lambda sym, o: sym.order_k != 3)
    ok, detail = verify.check_orientations("small")
    assert not ok
    assert detail == "failed: symmetric minimal, k=3, size 1"


def test_census_series_names_the_broken_coefficient(monkeypatch):
    real = census.rooted_quadrangulations
    monkeypatch.setattr(census, "rooted_quadrangulations",
                        lambda n, **kw: list(real(n, **kw))[1:] if n == 5 else real(n, **kw))
    ok, detail = verify.check_census_series("small")
    assert not ok
    assert detail == "failed: q[5] = census"


def test_two_point_census_names_the_broken_coefficient(monkeypatch):
    real = census.two_point_quad_table

    def table(n):
        t = real(n)
        return {**t, 2: t[2] + 1} if n == 3 else t

    monkeypatch.setattr(census, "two_point_quad_table", table)
    ok, detail = verify.check_two_point_census("small")
    assert not ok
    assert detail == "failed: two_point[quad, i=2][3] = census"


@pytest.mark.parametrize("patched,args,distance,name", [
    # beyond every distance the quad tables hold
    ("two_point_quad_table", (3,), 4, "two_point[quad, i=4][3]"),
    # 5 inner triangles
    ("pointed_distance_table", (3, 5), 3, "two_point[tri, i=3][2]"),
], ids=["quad-beyond", "tri"])
def test_two_point_census_compares_every_distance(monkeypatch, patched, args, distance, name):
    real = getattr(census, patched)

    def table(*a):
        t = real(*a)
        return {**t, distance: t.get(distance, 0) + 1} if a == args else t

    monkeypatch.setattr(census, patched, table)
    ok, detail = verify.check_two_point_census("small")
    assert not ok
    assert detail == f"failed: {name} = census"


def test_a_dropped_census_member_fails_the_checks_that_count_it(monkeypatch):
    # the last simple quadrangulation with 4 inner faces in a square and a
    # rotation of order 2 goes missing; quotient_lemmas checks one map fewer
    # and does not notice
    real = census.symmetric_members

    def members(inner_deg, outer_deg, k, n_inner, simple=False, distance=None):
        found = real(inner_deg, outer_deg, k, n_inner, simple, distance)
        dropped = (inner_deg, outer_deg, k, n_inner, simple, distance) == (4, 4, 2, 4, True, None)
        return found[:-1] if dropped else found

    monkeypatch.setattr(census, "symmetric_members", members)
    failed = {r["check"]: r["detail"]
              for r in verify.run_suite(list(verify.CHECKS), "small", jobs=1) if not r["ok"]}
    assert failed == {
        "bijections": "failed: cardinality phi, size 2, phi members, size 2 = (n+1) q[n+1]/2",
        "two_point_census": "failed: two_point[quad_simple, i=1][2] = census",
    }
