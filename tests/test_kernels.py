import pytest

import kernel_oracle
from mapquot import _census_py
from mapquot.maps import PlaneMap, canonical_code

try:
    from mapquot import _census_c
except ImportError:
    _census_c = None

CASES = [
    dict(outer_deg=4, inner_deg=4, n_inner=3),
    dict(outer_deg=4, inner_deg=4, n_inner=4, require_simple=True, require_outer_simple=True),
    dict(outer_deg=3, inner_deg=3, n_inner=5),
    dict(outer_deg=3, inner_deg=3, n_inner=5, require_simple=True, require_outer_simple=True),
    dict(outer_deg=2, inner_deg=4, n_inner=3),
    dict(outer_deg=1, inner_deg=3, n_inner=5),
    dict(outer_deg=6, inner_deg=4, n_inner=3, require_outer_simple=True),
    dict(outer_deg=4, inner_deg=4, n_inner=2, require_loopless=True),
]


@pytest.mark.parametrize("case", CASES)
def test_pure_kernel_output_is_valid_and_duplicate_free(case):
    sigmas = _census_py.run_census(**case)
    codes = set()
    for s in sigmas:
        m = PlaneMap(s, 0)
        codes.add(canonical_code(m))
    assert len(codes) == len(sigmas)


@pytest.mark.skipif(_census_c is None, reason="compiled kernel not built")
@pytest.mark.parametrize("case", CASES)
def test_kernels_agree(case):
    assert _census_py.run_census(**case) == _census_c.run_census(**case)


ORACLE_PROFILES = [
    (4, 4, 5), (3, 3, 7), (6, 4, 4), (8, 4, 3), (2, 4, 4),
    (1, 3, 7), (6, 3, 4), (3, 3, 2), (4, 4, 0),
]
ORACLE_FLAGS = [
    {},
    dict(require_outer_simple=True),
    dict(require_simple=True),
    dict(require_loopless=True),
    dict(require_simple=True, require_outer_simple=True),
    dict(require_loopless=True, require_outer_simple=True),
]


def test_pure_kernel_matches_whole_state_oracle():
    maps = nonempty = 0
    for profile in ORACLE_PROFILES:
        for flags in ORACLE_FLAGS:
            got = _census_py.run_census(*profile, **flags)
            assert got == kernel_oracle.run_census(*profile, **flags), (profile, flags)
            maps += len(got)
            nonempty += bool(got)
    assert (maps, nonempty) == (134801, 39)


def test_odd_dart_count_yields_nothing():
    assert _census_py.run_census(3, 3, 2) == []


def test_kernel_selection():
    from mapquot import kernel

    assert callable(kernel.run_census)
