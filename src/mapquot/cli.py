"""Command-line interface.

Subcommands: series, enumerate, two-point, quotient {classic,new,unroll},
orient, verify, render.  All output is JSON (or SVG for render) on stdout;
diagnostics go to stderr.  Exit codes: 0 success, 1 verification failure
or a dead worker process, 2 usage error.  Everything is deterministic: no
randomness, lexicographic tie-breaks throughout.

Each subcommand loads only its own modules, and `main` adds only its
arguments to the parser: `enumerate` loads no series, `--help` no census.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from mapquot import jsonio
from mapquot.kernel import WorkerDied
from mapquot.maps import DissectionSpec, MapError


def _emit(obj, args=None) -> None:
    text = jsonio.dumps(obj) + "\n"
    if args is not None and getattr(args, "output", None) not in (None, "-"):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _usage_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit_series(name: str, entry, solve, **fields) -> int:
    """Print the series solve() returns as JSON; a SeriesError is a usage error."""
    from mapquot.series import SeriesError

    try:
        ts = solve()
    except SeriesError as exc:
        return _usage_error(exc)
    coeffs = [str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
              for c in ts.coeffs]
    _emit({"name": name, "variable": entry.variable, "size_convention": entry.convention,
           "order": ts.order, "coeffs": coeffs, **fields})
    return 0


def cmd_series(args) -> int:
    from mapquot import series as S

    return _emit_series(args.name, S.CATALOGUE[args.name], lambda: S.named(args.name, args.order))


def cmd_two_point(args) -> int:
    from mapquot import series as S

    return _emit_series(f"two_point[{args.family}, i={args.i}]", S.TWO_POINT[args.family],
                        lambda: S.two_point(args.family, args.i, args.order),
                        family=args.family, distance=args.i)


def cmd_enumerate(args) -> int:
    from mapquot import census

    spec = DissectionSpec(
        inner_face_degree=args.inner_degree,
        outer_degree=args.outer_degree,
        simple=args.simple,
        quasi_simple=args.quasi_simple,
        irreducible=args.irreducible,
        pointed=args.pointed,
        symmetry_k=args.symmetric,
    )
    query = census.CensusQuery(spec, args.size, distance=args.distance, force=args.force)
    count = 0
    for sigma in census.generate(query, jobs=_usable_cores()):
        count += 1
        if not args.count_only:
            sys.stdout.write(jsonio.bare_record(sigma) + "\n")
    _emit({"count": count, "size": args.size})
    return 0


def _read_record(args) -> dict:
    data = sys.stdin.read() if args.input in (None, "-") else Path(args.input).read_text()
    return jsonio.parse_map(json.loads(data))


def cmd_quotient(args) -> int:
    from mapquot.quotient import classical_quotient, phi, phi_tri, unroll

    rec = _read_record(args)
    if args.mode == "classic":
        sym = rec["symmetric"]
        if sym is None:
            raise MapError("classic quotient needs a symmetric map record")
        _emit(jsonio.pointed_record(classical_quotient(sym)), args)
    elif args.mode == "new":
        sym = rec["symmetric"]
        if sym is None:
            raise MapError("the edge-marking quotient needs a symmetric map record")
        result = (phi if sym.order_k == 2 else phi_tri)(sym)
        _emit(jsonio.map_record(result.map, marked_edge=result.marked_edge), args)
    else:  # unroll
        pointed = rec["pointed"]
        if pointed is None:
            raise MapError("unroll needs a pointed map record")
        _emit(jsonio.symmetric_record(unroll(pointed, args.k)), args)
    return 0


def cmd_orient(args) -> int:
    from mapquot.orientations import minimal_d_orientation

    m = _read_record(args)["map"]
    d = 2 if m.face_degree(m.outer_face) == 4 else 3
    _emit(jsonio.map_record(m, orientation=minimal_d_orientation(m, d)), args)
    return 0


def cmd_verify(args) -> int:
    from mapquot.verify import CHECKS, run_suite

    if args.jobs < 1:
        return _usage_error(f"--jobs must be at least 1, got {args.jobs}")
    names = list(CHECKS) if args.suite == "all" else args.suite.split(",")
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        return _usage_error(f"unknown checks: {', '.join(map(repr, unknown))}")
    results = run_suite(names, args.max_size, args.jobs)
    ok = all(r["ok"] for r in results)
    _emit({"ok": ok, "results": results})
    return 0 if ok else 1


def cmd_render(args) -> int:
    from mapquot import render

    sys.stdout.write(render.render_svg(_read_record(args)["map"]) + "\n")
    return 0


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _series_arguments(p) -> None:
    from mapquot import series as S

    p.add_argument("--name", required=True, choices=sorted(S.CATALOGUE))
    p.add_argument("--order", type=int, default=12)
    p.set_defaults(fn=cmd_series)


def _two_point_arguments(p) -> None:
    from mapquot import series as S

    p.add_argument("--family", required=True, choices=list(S.TWO_POINT))
    p.add_argument("--i", type=int, required=True, help="radial distance (>= 1)")
    p.add_argument("--order", type=int, default=10)
    p.set_defaults(fn=cmd_two_point)


def _enumerate_arguments(p) -> None:
    p.add_argument("--inner-degree", type=int, required=True, choices=(3, 4))
    p.add_argument("--outer-degree", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--simple", action="store_true")
    p.add_argument("--quasi-simple", action="store_true")
    p.add_argument("--irreducible", action="store_true")
    p.add_argument("--pointed", action="store_true")
    p.add_argument("--symmetric", type=int, default=None, metavar="K")
    p.add_argument("--distance", type=int, default=None, metavar="I")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--force", action="store_true", help="override size caps")
    p.set_defaults(fn=cmd_enumerate)


def _quotient_arguments(p) -> None:
    p.add_argument("mode", choices=("classic", "new", "unroll"))
    p.add_argument("--input", default="-")
    p.add_argument("--output", default="-")
    p.add_argument("--k", type=int, default=2, help="unroll order")
    p.set_defaults(fn=cmd_quotient)


def _orient_arguments(p) -> None:
    p.add_argument("--input", default="-")
    p.add_argument("--output", default="-")
    p.set_defaults(fn=cmd_orient)


def _verify_arguments(p) -> None:
    from mapquot.verify import SIZES

    p.add_argument("--suite", default="all")
    p.add_argument("--max-size", choices=list(SIZES), default="default")
    p.add_argument("--jobs", type=int, default=_usable_cores(),
                   help="processes to run the checks on (default: the usable cores)")
    p.set_defaults(fn=cmd_verify)


def _render_arguments(p) -> None:
    p.add_argument("--input", default="-")
    p.set_defaults(fn=cmd_render)


SUBCOMMANDS = {  # name: (help line, the function that adds its arguments)
    "series": ("print a catalogue series as JSON", _series_arguments),
    "two-point": ("distance-refined generating series", _two_point_arguments),
    "enumerate": ("stream a census as JSON lines", _enumerate_arguments),
    "quotient": ("quotient operations on map records", _quotient_arguments),
    "orient": ("minimal d-orientation of a map record", _orient_arguments),
    "verify": ("run the acceptance checks", _verify_arguments),
    "render": ("SVG drawing of a map record", _render_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or one that adds the arguments of `command` only."""
    ap = argparse.ArgumentParser(
        prog="mapquot",
        description="Exact census, orientations, quotients and counting series "
        "for planar dissections.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if command in (None, name):
            add_arguments(p)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the first word that is no option: the subcommand (none for a bare --help)
    command = next((word for word in argv if not word.startswith("-")), "")
    args = build_parser(command).parse_args(argv)
    if getattr(args, "order", 0) < 0:  # series and two-point
        return _usage_error("--order must be at least 0")
    try:
        return args.fn(args)
    except (MapError, OSError) as exc:
        return _usage_error(exc)
    except json.JSONDecodeError as exc:
        return _usage_error(f"bad JSON input: {exc}")
    except WorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
