"""The census fast paths against the brute-force versions they replace.

Census maps are built unchecked from their kernel sigmas, symmetric members
come from the kernel's search over rotation orbits of sides, rotations are
found from one image of the root, unrooted codes root each map once for all
of its marks, and the orientation check builds only the maps it orients.
The oracles are the direct definitions: the validating PlaneMap constructor,
the whole family filtered by rotation and reduced to unrooted classes, the
rotation search over every outer dart (rotation_oracle), and the least
marked code over every root.
"""

import random

import pytest

from mapquot import census, verify
from mapquot.kernel import kernel_form, run_census
from mapquot.maps import (
    DissectionSpec,
    PlaneMap,
    PointedMap,
    SymmetricMap,
    canonical_code,
    fixed_vertex,
    is_simple,
    marked_code,
    minimal_rootings,
    radial_distance,
    rotation,
    unrooted_code,
)

from fixtures import FAMILIES, relabel
from rotation_oracle import find_rotation_automorphisms, least_rotation


def oracle_unrooted_code(m, pointed=None, marked_edge=None):
    return min(
        canonical_code(m, root=r, pointed=pointed, marked_edge=marked_edge)
        for r in m.faces[m.outer_face]
    )


def oracle_symmetric_members(inner, outer, k, n_inner, simple=False, distance=None):
    fam = census.rooted_family(outer, inner, n_inner, simple=simple, outer_simple=True)
    classes = {}
    for m in fam:
        classes.setdefault(oracle_unrooted_code(m), m)
    out = []
    for m in classes.values():
        rho = least_rotation(m, k)
        if rho is None:
            continue
        p = PointedMap(m, fixed_vertex(m, rho))
        if distance is not None and radial_distance(p) != distance:
            continue
        out.append(SymmetricMap(p, k, rho))
    return out


# (inner degree, outer degree, k, inner faces, simple)
SYMMETRIC_CASES = [
    (4, 4, 2, 4, True),
    (4, 4, 2, 6, True),
    (4, 4, 2, 4, False),
    (4, 6, 3, 3, False),
    (4, 6, 3, 6, True),
    (3, 3, 3, 9, True),
    (4, 8, 4, 4, False),
    (4, 8, 2, 4, False),
    (3, 6, 2, 6, False),
]


@pytest.mark.parametrize("inner,outer,k,n_inner,simple", SYMMETRIC_CASES)
def test_symmetric_members_match_oracle(inner, outer, k, n_inner, simple):
    expect = oracle_symmetric_members(inner, outer, k, n_inner, simple)
    assert expect
    assert census.symmetric_members(inner, outer, k, n_inner, simple=simple) == expect
    for i in (1, 2, 3):
        got = census.symmetric_members(inner, outer, k, n_inner, simple=simple, distance=i)
        assert got == oracle_symmetric_members(inner, outer, k, n_inner, simple, distance=i)


@pytest.mark.parametrize("inner,outer,k,n_inner", [(4, 4, 3, 3), (3, 4, 3, 4)])
def test_order_not_dividing_outer_degree_has_no_members(inner, outer, k, n_inner):
    assert census.rooted_family(outer, inner, n_inner, outer_simple=True)
    assert oracle_symmetric_members(inner, outer, k, n_inner) == []
    assert census.symmetric_members(inner, outer, k, n_inner) == []


# (outer degree, inner degree, inner faces): trees, non-outer-simple and
# non-simple maps, and rotations of orders 2, 3, 4 and 5
ROTATION_FAMILIES = [(8, 4, 0), (4, 4, 2), (6, 3, 2), (6, 4, 3), (4, 3, 4), (5, 3, 5)]


def shuffled(m, rng):
    """m with its edges renumbered and reversed at random, so that the least
    rotation is not always the one shifting the root outer/k steps."""
    edges = list(range(m.n_edges))
    rng.shuffle(edges)
    flips = [rng.randrange(2) for _ in edges]
    return relabel(m, [2 * edges[d >> 1] + (d & 1 ^ flips[d >> 1]) for d in range(m.n_darts)])


@pytest.mark.parametrize("outer,inner,n_inner", ROTATION_FAMILIES)
def test_rotation_matches_every_outer_dart_search(outer, inner, n_inner):
    fam = census.rooted_family(outer, inner, n_inner)
    assert fam
    rng = random.Random(0)
    found = 0
    for m in (x for base in fam for x in (base, shuffled(base, rng))):
        for c in (None, *range(m.n_vertices)):
            rots = find_rotation_automorphisms(m, c)
            for k in range(2, outer + 2):
                expect = min((rho for kk, rho in rots if kk == k), default=None)
                assert rotation(m.sigma, m.root_dart, k, c) == expect, (m.sigma, k, c)
                found += expect is not None
    if (outer, n_inner) == (8, 0):
        assert found == 0  # a tree has no inner vertex to turn about
    else:
        assert found


def test_rotation_skips_powers_of_smaller_order():
    (wheel,) = [m for m in census.rooted_family(4, 3, 4) if rotation(m.sigma, 0, 4)]
    rng = random.Random(1)
    square_smaller = 0  # relabellings where the order-2 square is the least power
    for _ in range(20):
        m = shuffled(wheel, rng)
        rho = rotation(m.sigma, m.root_dart, 4)
        assert rho == least_rotation(m, 4)
        square_smaller += tuple(rho[x] for x in rho) < rho
    assert square_smaller


def test_symmetric_members_builds_only_rotating_maps(monkeypatch):
    sigmas = census.rooted_family(6, 4, 6, outer_simple=True).sigmas
    rotating = sum(rotation(s, 0, 3) is not None for s in sigmas)
    built = []
    fill = PlaneMap._fill
    monkeypatch.setattr(PlaneMap, "_fill", lambda m, *a: built.append(m) or fill(m, *a))

    def no_family(*args, **kwargs):
        raise AssertionError("symmetric_members read a rooted family")

    def orbit_search(*args):
        assert args[5] > 1, args  # never the whole (k = 1) census
        return run_census(*args)

    monkeypatch.setattr(census, "rooted_family", no_family)
    monkeypatch.setattr(census, "run_census", orbit_search)
    members = census.symmetric_members(4, 6, 3, 6)
    assert members
    assert len(sigmas) > 100_000 and 0 < len(built) <= rotating < 100


def test_orientation_check_builds_only_simple_and_symmetric_maps(monkeypatch):
    assert all(type(s) is bytes for s in run_census(4, 4, 4, False, True))
    families = [census.rooted_quadrangulations(n, simple=False) for n in range(2, 6)]
    families += [census.rooted_triangulations(n, simple=False) for n in (2, 4, 6)]
    simple = sum(is_simple(m) for fam in families for m in fam)
    built = []
    fill = PlaneMap._fill
    monkeypatch.setattr(PlaneMap, "_fill", lambda m, *a: built.append(m) or fill(m, *a))
    census.symmetric_simple_quadrangulations(1)
    census.symmetric_simple_quadrangulations(2)
    census.symmetric_simple_triangulations(1)
    symmetric = len(built)
    built.clear()
    ok, _ = verify.check_orientations(small=True)
    assert ok
    total = sum(map(len, families))
    assert 0 < len(built) <= simple + symmetric and 20 * len(built) < total


def orbit_sigmas(inner, outer, k, n_inner, simple):
    """The orbit search's output, put into census order by kernel_form."""
    found = run_census(outer, inner, n_inner, simple, True, k)
    return [bytes(s) for _, s in sorted(kernel_form(s, outer, inner) for s in found)]


def filtered_sigmas(inner, outer, k, n_inner, simple):
    """The full census filtered by rotation: the oracle for orbit_sigmas."""
    fam = census.rooted_family(outer, inner, n_inner, simple=simple, outer_simple=True)
    return [s for s in fam.sigmas if rotation(s, 0, k)]


# every size from 0 up to a top size, for k = 2, 3 and 4, on small profiles:
# (inner degree, outer degree, simple, k, top), the top being the symmetric
# cap wherever the full census stays small
ORBIT_SWEEPS = [(3, 3, True, 3, 9), (3, 4, True, 2, 9), (3, 4, True, 4, 9), (3, 6, True, 2, 9),
                (3, 6, True, 3, 9), (3, 3, False, 3, 9), (4, 4, False, 2, 6), (4, 8, False, 4, 5)]


def test_orbit_search_equals_filtered_census():
    suite = [family for family, _ in verify._symmetric_suite(small=False)]
    cases = suite + SYMMETRIC_CASES + [(3, 3, 3, 15, True)]
    for inner, outer, simple, k, top in ORBIT_SWEEPS:
        cases += [(inner, outer, k, n, simple) for n in range(top + 1)]
    seen = nonempty = 0
    for inner, outer, k, n_inner, simple in cases:
        expect = filtered_sigmas(inner, outer, k, n_inner, simple)
        assert orbit_sigmas(inner, outer, k, n_inner, simple) == expect, (inner, outer, k, n_inner)
        seen += len(expect)
        nonempty += bool(expect)
    assert (nonempty, seen) == (34, 493)


# Families with their sizes:
# (outer degree, inner degree, inner faces, simple, outer simple): maps.
# The 37 families that `mapquot verify --suite all` reads:
VERIFY_FAMILIES = {
    (4, 4, 0, False, False): 2, (4, 4, 1, False, False): 9, (4, 4, 2, False, False): 54,
    (4, 4, 3, False, False): 378, (4, 4, 4, False, False): 2916,
    (4, 4, 5, False, False): 24057, (3, 3, 1, False, False): 4,
    (3, 3, 3, False, False): 32, (3, 3, 5, False, False): 336,
    (4, 4, 1, True, True): 1, (4, 4, 2, True, True): 2, (4, 4, 3, True, True): 6,
    (4, 4, 4, True, True): 22, (4, 4, 5, True, True): 91,
    (3, 3, 1, True, True): 1, (3, 3, 3, True, True): 1,
    (3, 3, 5, True, True): 3, (3, 3, 7, True, True): 13,
    (4, 4, 1, False, True): 1, (4, 4, 2, False, True): 10, (4, 4, 3, False, True): 90,
    (4, 4, 4, False, True): 810, (4, 4, 5, False, True): 7425,
    (4, 4, 6, False, True): 69498, (3, 3, 1, False, True): 1, (3, 3, 3, False, True): 10,
    (3, 3, 5, False, True): 120, (3, 3, 7, False, True): 1600,
    (3, 3, 9, False, True): 22880,
    (2, 4, 1, False, True): 2, (2, 4, 2, False, True): 9, (2, 4, 3, False, True): 54,
    (1, 3, 1, False, False): 1, (1, 3, 3, False, False): 4, (1, 3, 5, False, False): 32,
    (1, 3, 7, False, False): 336, (1, 3, 9, False, False): 4096,
}
# The 7 that it does not read: simple quadrangulations of 7 and 9 faces,
# simple triangulations of 7 and 10 faces, and three hexagonal families.
OTHER_FAMILIES = {
    (4, 4, 6, True, True): 408, (4, 4, 8, True, True): 9614,
    (3, 3, 6, True, True): 0, (3, 3, 9, True, True): 68,
    (6, 4, 3, False, True): 56, (6, 4, 6, False, True): 103194, (6, 3, 6, False, True): 462,
}


def test_trusted_maps_equal_validated_maps():
    seen = 0
    families = {**VERIFY_FAMILIES, **OTHER_FAMILIES}
    for family, size in families.items():
        fam = census.rooted_family(*family)
        assert len(fam) == size, family
        for sigma, m in zip(fam.sigmas, fam):
            checked = PlaneMap(sigma, 0)
            for field in PlaneMap.__slots__:
                assert getattr(m, field) == getattr(checked, field), (family, sigma, field)
            seen += 1
    assert (len(families), seen) == (44, sum(families.values()))


def test_size_cap_still_fires():
    def members(spec, size, force=False):
        return list(census.generate(census.CensusQuery(spec, size, force=force)))

    # 5 orbits of 2 quadrangles: 10 inner faces
    with pytest.raises(census.SizeCapExceeded, match="symmetric_inner=10 exceeds"):
        members(DissectionSpec(4, 4, symmetry_k=2), 5)
    # 4 orbits of 3 quadrangles in an octagon: 12 inner faces, 28 edges
    with pytest.raises(census.SizeCapExceeded, match="28 edges exceeds the hard cap"):
        members(DissectionSpec(4, 8, symmetry_k=3), 4, force=True)


@pytest.mark.parametrize("name,family,ties", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_unrooted_code_matches_oracle(name, family, ties):
    fam = family()
    assert fam
    tied = 0  # maps with several minimal roots, where the marks break the tie
    for m in fam:
        rootings = minimal_rootings(m)
        tied += len(rootings[1]) > 1
        for v in (None, *range(m.n_vertices)):
            for e in (None, *range(m.n_edges)):
                expect = oracle_unrooted_code(m, pointed=v, marked_edge=e)
                assert unrooted_code(m, pointed=v, marked_edge=e) == expect
                assert marked_code(m, rootings, pointed=v, marked_edge=e) == expect
    assert bool(tied) == ties
