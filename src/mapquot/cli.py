"""Command-line interface.

Subcommands: series, enumerate, two-point, quotient {classic,new,unroll},
orient, verify, render.  All output is JSON (or SVG for render) on stdout;
diagnostics go to stderr.  Exit codes: 0 success, 1 verification failure
or a dead worker process, 2 usage error.  Everything is deterministic: no
randomness, lexicographic tie-breaks throughout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from mapquot import census, jsonio, render
from mapquot import series as S
from mapquot.kernel import WorkerDied
from mapquot.maps import DissectionSpec, MapError
from mapquot.orientations import minimal_d_orientation
from mapquot.quotient import classical_quotient, phi, phi_tri, unroll
from mapquot.verify import CHECKS, SIZES, run_suite


def _emit(obj, args=None) -> None:
    text = jsonio.dumps(obj) + "\n"
    if args is not None and getattr(args, "output", None) not in (None, "-"):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _series_payload(name: str, variable: str, convention: str, ts: S.TruncSeries) -> dict:
    return {
        "name": name,
        "variable": variable,
        "size_convention": convention,
        "order": ts.order,
        "coeffs": [
            str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            for c in ts.coeffs
        ],
    }


def cmd_series(args) -> int:
    ts = S.named(args.name, args.order)
    entry = S.CATALOGUE[args.name]
    _emit(_series_payload(args.name, entry.variable, entry.convention, ts))
    return 0


def cmd_two_point(args) -> int:
    ts = S.two_point(args.family, args.i, args.order)
    entry = S.TWO_POINT[args.family]
    payload = _series_payload(f"two_point[{args.family}, i={args.i}]", entry.variable,
                              entry.convention, ts)
    payload["family"] = args.family
    payload["distance"] = args.i
    _emit(payload)
    return 0


def cmd_enumerate(args) -> int:
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
    rec = _read_record(args)
    if args.mode == "classic":
        sym = rec["symmetric"]
        if sym is None:
            raise MapError("classic quotient needs a symmetric map record")
        p = classical_quotient(sym)
        _emit(jsonio.pointed_record(p), args)
    elif args.mode == "new":
        sym = rec["symmetric"]
        if sym is None:
            raise MapError("the edge-marking quotient needs a symmetric map record")
        result = (phi if sym.order_k == 2 else phi_tri)(sym)
        out = jsonio.map_record(result.map, marked_edge=result.marked_edge)
        _emit(out, args)
    else:  # unroll
        pointed = rec["pointed"]
        if pointed is None:
            raise MapError("unroll needs a pointed map record")
        sym = unroll(pointed, args.k)
        _emit(jsonio.symmetric_record(sym), args)
    return 0


def cmd_orient(args) -> int:
    rec = _read_record(args)
    m = rec["map"]
    d = 2 if m.face_degree(m.outer_face) == 4 else 3
    o = minimal_d_orientation(m, d)
    _emit(jsonio.map_record(m, orientation=o), args)
    return 0


def cmd_verify(args) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    names = list(CHECKS) if args.suite == "all" else args.suite.split(",")
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        print(f"error: unknown checks: {', '.join(map(repr, unknown))}", file=sys.stderr)
        return 2
    results = run_suite(names, args.max_size, args.jobs)
    ok = all(r["ok"] for r in results)
    _emit({"ok": ok, "results": results})
    return 0 if ok else 1


def cmd_render(args) -> int:
    rec = _read_record(args)
    sys.stdout.write(render.render_svg(rec["map"]) + "\n")
    return 0


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mapquot",
        description="Exact census, orientations, quotients and counting series "
        "for planar dissections.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="print a catalogue series as JSON")
    p.add_argument("--name", required=True, choices=sorted(S.CATALOGUE))
    p.add_argument("--order", type=int, default=12)
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("two-point", help="distance-refined generating series")
    p.add_argument("--family", required=True, choices=list(S.TWO_POINT))
    p.add_argument("--i", type=int, required=True, help="radial distance (>= 1)")
    p.add_argument("--order", type=int, default=10)
    p.set_defaults(fn=cmd_two_point)

    p = sub.add_parser("enumerate", help="stream a census as JSON lines")
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

    p = sub.add_parser("quotient", help="quotient operations on map records")
    p.add_argument("mode", choices=("classic", "new", "unroll"))
    p.add_argument("--input", default="-")
    p.add_argument("--output", default="-")
    p.add_argument("--k", type=int, default=2, help="unroll order")
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("orient", help="minimal d-orientation of a map record")
    p.add_argument("--input", default="-")
    p.add_argument("--output", default="-")
    p.set_defaults(fn=cmd_orient)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--suite", default="all")
    p.add_argument("--max-size", choices=list(SIZES), default="default")
    p.add_argument("--jobs", type=int, default=_usable_cores(),
                   help="processes to run the checks on (default: the usable cores)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("render", help="SVG drawing of a map record")
    p.add_argument("--input", default="-")
    p.set_defaults(fn=cmd_render)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "order", 0) < 0:  # series and two-point
        print("error: --order must be at least 0", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (MapError, S.SeriesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: bad JSON input: {exc}", file=sys.stderr)
        return 2
    except WorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
