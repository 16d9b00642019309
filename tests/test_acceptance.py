"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s` or through
the CLI (`mapquot verify --suite all`)."""

import pytest

from mapquot.verify import CHECKS, run_suite
from verify_pins import PINS, pin, record_names

CRITERIA = [
    ("1 series golden values", "series_golden"),
    ("2 closed forms", "closed_forms"),
    ("3 cross-series identities", "cross_series"),
    ("4 census-series agreement", "census_series"),
    ("5 bijection cardinalities and round trips", "bijections"),
    ("6 classical quotient lemmas", "quotient_lemmas"),
    ("7 orientation suite", "orientations"),
    ("8 two-point census agreement", "two_point_census"),
    ("9 residuals and substitutions", "residuals_substitutions"),
    ("10 positivity and telescoping", "positivity"),
]


@pytest.mark.parametrize("label,check", CRITERIA, ids=[c for _, c in CRITERIA])
def test_acceptance_criterion(label, check, monkeypatch):
    seen = record_names(monkeypatch)
    (result,) = run_suite([check])
    status = "PASS" if result["ok"] else "FAIL"
    print(f"{status}  criterion {label}: {result['detail']} ({result['seconds']}s)")
    assert result["ok"], f"criterion {label} failed: {result['detail']}"
    assert pin(seen, result) == PINS["default"][check]


def test_every_check_is_covered():
    assert {c for _, c in CRITERIA} == set(CHECKS)
