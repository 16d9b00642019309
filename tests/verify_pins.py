"""What each verify check looks at, pinned per --max-size tier: the number of
named sub-results it judged, the first 16 hex digits of the sha256 of their
names (one a line, in order, repeats included), and its success detail, with
the series_golden time written as T.  A change that moves a size, or drops or
adds a sub-result, moves a pin."""

import hashlib
import re

from mapquot import verify

PINS = {
    "default": {
        "series_golden": (3, "f1d8a0a124714944", "q,t to order 30 in Ts"),
        "closed_forms": (41, "2e7b824698482c41",
                         "closed forms to order 50, factorial formulas to 20"),
        "cross_series": (43, "91110f64c2403933", "g/q/t, d3, and direct-solution identities"),
        "census_series": (18, "c1bdeff8711123f7",
                          "q counts [1, 2, 6, 22, 91], t and sphere families match"),
        "bijections": (91, "6c89a83c81204208", "theorem cardinalities and round trips to n=4"),
        "quotient_lemmas": (2286, "b2d570e6d8512803", "298 symmetric maps checked"),
        "orientations": (41, "79bf7958bf045479", "5922 leftmost paths traced"),
        "two_point_census": (28, "3d4eed47405395ac",
                             "two-point tables to size 4 (quad), 9 inner (tri)"),
        "residuals_substitutions": (28, "cfe6584bb698e528",
                                    "residuals to 30, substitutions to 15"),
        "positivity": (43, "e06ec00e111325ec", "integrality to order 20; telescoping to size 4"),
    },
    "small": {
        "series_golden": (3, "f1d8a0a124714944", "q,t to order 30 in Ts"),
        "closed_forms": (41, "2e7b824698482c41",
                         "closed forms to order 25, factorial formulas to 20"),
        "cross_series": (43, "91110f64c2403933", "g/q/t, d3, and direct-solution identities"),
        "census_series": (13, "878b908e63ac8360",
                          "q counts [1, 2, 6, 22], t and sphere families match"),
        "bijections": (34, "2a6129464fb083e6", "theorem cardinalities and round trips to n=3"),
        "quotient_lemmas": (1887, "73bf6212a79114d6", "241 symmetric maps checked"),
        "orientations": (24, "7f877150661569ff", "181 leftmost paths traced"),
        "two_point_census": (23, "a30d3d5709151ab2",
                             "two-point tables to size 3 (quad), 7 inner (tri)"),
        "residuals_substitutions": (28, "cfe6584bb698e528",
                                    "residuals to 15, substitutions to 12"),
        "positivity": (41, "05aa7120f383d9f9", "integrality to order 12; telescoping to size 3"),
    },
}


def untimed(detail: str) -> str:
    """detail with the series_golden time written as T."""
    return re.sub(r" in [0-9.]+s$", " in Ts", detail)


def record_names(monkeypatch) -> dict[str, list[str]]:
    """Have verify._named_result keep the names it judges, under the detail
    it returns.  It sees only the checks merged in this process."""
    seen = {}
    real = verify._named_result

    def named_result(results, *args):
        ok, detail = real(results, *args)
        seen[detail] = [name for name, _ in results]
        return ok, detail

    monkeypatch.setattr(verify, "_named_result", named_result)
    return seen


def pin(seen: dict[str, list[str]], result: dict) -> tuple[int, str, str]:
    """The pin of one run_suite result, from the names record_names kept."""
    names = seen[result["detail"]]
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()[:16]
    return len(names), digest, untimed(result["detail"])
