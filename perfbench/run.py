"""The mapquot benchmark: cold CLI workloads end to end, and a traced run per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of `python -m mapquot.cli ...` commands with
`PYTHONPATH=src`; the seed only permutes their order. One benchmark process
runs them one child at a time, so the load stays within two cores. A pass
runs every command once; passes repeat while another fits in `--seconds`,
and there is always at least one.

With `--trace 0` the result holds the end-to-end metrics. With `--trace 1`
the untraced passes are followed by one pass under `traced_cli.py`, which
times each layer from outside the package, and the result holds the
per-layer metrics. Metric names and units come from BENCHMARK.json. Every
command's output is checked; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A run stops its children at this age, so it always ends within 180 s.
DEADLINE_S = 170.0
SETUP_REPS = 5

VERIFY_CHECKS = (
    "series_golden",
    "closed_forms",
    "cross_series",
    "census_series",
    "bijections",
    "quotient_lemmas",
    "orientations",
    "two_point_census",
    "residuals_substitutions",
    "positivity",
)
SERIES_ORDERS = (30, 60, 120)
SERIES_JOBS = {
    "q": ["series", "--name", "q"],
    "P_tri": ["series", "--name", "P_tri"],
    "two_point": ["two-point", "--family", "tri_simple", "--i", "2"],
}
# sha256 of the "\n"-joined coefficient strings, recorded at the commit that
# added this benchmark. Only the coefficients are digested, so a payload
# field such as `size_convention` may change without counting as a failure.
SERIES_DIGESTS = {
    "q.o30": "0774d9815c1dc7e2",
    "q.o60": "0ea3d5287cfc411f",
    "q.o120": "1f6ae8b5389b1826",
    "P_tri.o30": "cd2c9fad7dee4347",
    "P_tri.o60": "af9a4ec64026c76e",
    "P_tri.o120": "1557d48a33cb9b29",
    "two_point.o30": "9e8faeb5d3e9ccbe",
    "two_point.o60": "a8297426ed7dd329",
    "two_point.o120": "892b9ad626322109",
}
LAYERS = ("kernel", "census", "maps", "orientations", "quotient", "series", "verify", "jsonio", "cli")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Job:
    name: str
    args: list[str]
    # stdout -> (correct, digest of the normalised output, extra figures)
    check: Callable[[str], tuple[bool, str, dict]]


@dataclass
class Outcome:
    job: str
    wall_s: float
    rss_mb: float
    ok: bool
    digest: str = ""
    extra: dict = field(default_factory=dict)
    stats: dict | None = None


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- expected outputs ---------------------------------------------------------


def q_formula(m: int) -> int:
    """Rooted simple quadrangulations with m faces: 4(3n)!/(n!(2n+2)!), n = m-1."""
    if m < 2:
        return 0
    n = m - 1
    return 4 * math.factorial(3 * n) // (math.factorial(n) * math.factorial(2 * n + 2))


def tri_simple_symmetric_count(n: int) -> int:
    """Sum over distances i of two_point("tri_simple", i)[n]: every 3-symmetric
    simple triangulation with (2n+1)*3 inner faces, by the series layer."""
    sys.path.insert(0, str(SRC))
    from mapquot import series

    return int(sum(series.two_point("tri_simple", i, n)[n] for i in range(1, 2 * n + 3)))


def check_verify(stdout: str, names: list[str]) -> tuple[bool, str, dict]:
    out = json.loads(stdout)
    results = out["results"]
    ok = (
        out["ok"] is True
        and [r["check"] for r in results] == names
        and all(r["ok"] is True for r in results)
    )
    verdicts = sorted((r["check"], r["ok"]) for r in results)
    return ok, sha(json.dumps(verdicts)), {r["check"]: r["seconds"] for r in results}


def check_enumerate(stdout: str, size: int, expected: int, streamed: bool) -> tuple[bool, str, dict]:
    records = [json.loads(line) for line in stdout.splitlines()]
    maps, tail = records[:-1], records[-1]
    ok = tail == {"count": expected, "size": size}
    ok &= len(maps) == (expected if streamed else 0)
    ok &= all(isinstance(m, dict) and "sigma" in m for m in maps)
    return ok, sha(stdout), {}


def check_series(stdout: str, key: str, order: int) -> tuple[bool, str, dict]:
    (line,) = stdout.splitlines()
    coeffs = json.loads(line)["coeffs"]
    digest = sha("\n".join(coeffs))
    ok = len(coeffs) == order + 1 and digest == SERIES_DIGESTS[key]
    if key.startswith("q."):
        ok &= coeffs == [str(q_formula(m)) for m in range(order + 1)]
    return ok, digest, {}


def check_help(stdout: str) -> tuple[bool, str, dict]:
    return stdout.startswith("usage: mapquot"), sha(stdout), {}


# -- workloads ----------------------------------------------------------------


def verify_all(rng: random.Random) -> list[Job]:
    names = list(VERIFY_CHECKS)
    rng.shuffle(names)
    args = ["verify", "--suite", ",".join(names)]
    return [Job("verify", args, lambda out: check_verify(out, names))]


def census_sweep(rng: random.Random) -> list[Job]:
    sym = tri_simple_symmetric_count(2)
    jobs = [
        Job(
            "quad_simple_9",
            ["enumerate", "--inner-degree", "4", "--outer-degree", "4", "--size", "9", "--simple", "--force"],
            lambda out: check_enumerate(out, 9, q_formula(9), streamed=True),
        ),
        Job(
            "tri_simple_sym3_2",
            ["enumerate", "--inner-degree", "3", "--outer-degree", "3", "--size", "2",
             "--simple", "--symmetric", "3", "--force", "--count-only"],
            lambda out: check_enumerate(out, 2, sym, streamed=False),
        ),
    ]
    rng.shuffle(jobs)
    return jobs


def series_high_order(rng: random.Random) -> list[Job]:
    jobs = []
    for key, args in SERIES_JOBS.items():
        for order in SERIES_ORDERS:
            name = f"{key}.o{order}"
            jobs.append(
                Job(name, [*args, "--order", str(order)],
                    lambda out, name=name, order=order: check_series(out, name, order))
            )
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {w.__name__: w for w in (verify_all, census_sweep, series_high_order)}


# -- running children ---------------------------------------------------------


class Runner:
    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env

    def run(self, job: Job, traced: bool = False) -> Outcome:
        """One cold child process: wall time, its own peak RSS, checked output."""
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        stats_path = self.workdir / "stats.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(stats_path), *job.args]
        else:
            argv = [sys.executable, "-m", "mapquot.cli", *job.args]
        self.attempted += 1
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            killer.start()
            try:
                # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
                # be the running maximum over every child so far.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        outcome = Outcome(job.name, wall, usage.ru_maxrss / 1024, ok=False)
        stderr = err_path.read_text(errors="replace")
        if proc.returncode == 0 and "Traceback" not in stderr:
            try:
                outcome.ok, outcome.digest, outcome.extra = job.check(out_path.read_text())
            except (ValueError, KeyError, TypeError, IndexError):
                outcome.ok = False
        if traced and stats_path.exists():
            outcome.stats = json.loads(stats_path.read_text())
            stats_path.unlink()
        if not outcome.ok:
            self.failed += 1
            print(f"FAILED {job.name}: exit {proc.returncode}; {stderr.strip()[-400:]}", file=sys.stderr)
        return outcome

    def passes(self, jobs: list[Job], seconds: float) -> list[list[Outcome]]:
        """Whole passes over `jobs`, while another one fits in `seconds`."""
        done = []
        start = time.monotonic()
        while True:
            done.append([self.run(job) for job in jobs])
            elapsed = time.monotonic() - start
            if elapsed * (len(done) + 1) / len(done) > seconds:
                return done


def probe_env(runner: Runner) -> dict:
    """Interpreter and kernel of the children; also byte-compiles the package
    once, so that no timed process pays for it."""
    code = (
        "import json, sys, mapquot.cli, mapquot.kernel as k; "
        "print(json.dumps({'python': sys.version.split()[0], 'compiled': k.COMPILED}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=runner.env, cwd=ROOT,
        capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import mapquot from {SRC}: {proc.stderr.strip()[-400:]}")
    env = json.loads(proc.stdout)
    env["nproc"] = len(os.sched_getaffinity(0))
    env["commit"] = git_commit()
    return env


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


# -- metrics ------------------------------------------------------------------


def end_to_end(runs: list[list[Outcome]], setup: list[Outcome]) -> dict:
    return {
        "wall_s": statistics.median(sum(o.wall_s for o in run) for run in runs),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in run) for run in runs),
        "setup_s": statistics.median(o.wall_s for o in setup),
    }


def merge_traces(traced: list[Outcome]) -> tuple[dict, Counter, dict]:
    """Sum the tracer snapshots of a pass's processes."""
    stats: dict[str, list] = {}
    counters: Counter = Counter()
    caches: dict[str, Counter] = {}
    for o in traced:
        if o.stats is None:
            continue
        for name, values in o.stats["stats"].items():
            stats[name] = [a + b for a, b in zip(stats.get(name, [0, 0.0, 0.0]), values)]
        counters.update(o.stats["counters"])
        for name, info in o.stats["caches"].items():
            caches.setdefault(name, Counter()).update(info)
    return stats, counters, caches


STAT_FIELDS = {"calls": 0, "total_s": 1, "self_s": 2}


def per_layer(names: list[str], runs: list[list[Outcome]], traced: list[Outcome]) -> dict:
    """The derived figures below by name; any other name is
    `<wrapped function>.<calls|total_s|self_s>` or `<cached function>.<hits|misses>`."""
    stats, counters, caches = merge_traces(traced)

    def stat(fn, kind):
        try:
            return caches[fn][kind] if kind in ("hits", "misses") else stats[fn][STAT_FIELDS[kind]]
        except KeyError:
            raise BenchError(f"the traced pass recorded no {kind} for {fn}") from None

    def ratio(a, b):
        return a / b if b else 0.0

    def self_s(fns):
        return sum(stat(fn, "self_s") for fn in fns)

    untraced = statistics.median(sum(o.wall_s for o in run) for run in runs)
    traced_wall = sum(o.wall_s for o in traced)
    edge_marking = ("quotient.phi", "quotient.phi_tri", "quotient.phi_inverse", "quotient.phi_tri_inverse")
    m = {
        "kernel.maps_emitted": counters["kernel.maps_emitted"],
        "kernel.maps_per_s": ratio(counters["kernel.maps_emitted"], self_s(["kernel.run_census"])),
        "census.rooted_family.cached_maps": counters["census.rooted_family.cached_maps"],
        "census.symmetric_yield": ratio(counters["census.symmetric_kept"], counters["census.symmetric_scanned"]),
        "quotient.edge_marking.self_s": self_s(edge_marking),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced,
        "trace.coverage": ratio(self_s(stats), traced_wall),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = self_s([n for n in stats if n.split(".")[0] == layer])
    check_s: dict[str, list[float]] = {}
    for run in runs:
        for o in run:
            for check, seconds in o.extra.items():
                check_s.setdefault(check, []).append(seconds)
    for check in VERIFY_CHECKS:
        m[f"verify.{check}.s"] = statistics.median(check_s.get(check, [0.0]))
    for name in names:
        if name in m:
            continue
        fn, kind = name.rsplit(".", 1)
        m[name] = stat(fn, kind)
    return m


# -- main ---------------------------------------------------------------------


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None, help="also write the full record here")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "mapquot" / "cli.py").is_file():
        raise BenchError(f"no mapquot package under {SRC}")
    units = declared_metrics(bool(args.trace))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp), deadline)
        env = probe_env(runner)
        jobs = WORKLOADS[args.workload](random.Random(args.seed))
        print("env " + json.dumps(env, sort_keys=True))
        print(f"workload {args.workload} seed {args.seed} jobs {[j.name for j in jobs]}")
        setup = [] if args.trace else [
            runner.run(Job("help", ["--help"], check_help)) for _ in range(SETUP_REPS)
        ]
        runs = runner.passes(jobs, args.seconds)
        traced = [runner.run(job, traced=True) for job in jobs] if args.trace else []

    values = per_layer(list(units), runs, traced) if args.trace else end_to_end(runs, setup)
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    outputs = sha(json.dumps(sorted({(o.job, o.digest) for run in runs for o in run})))
    print(f"passes {len(runs)} outputs {outputs}")
    for job in jobs:
        wall = statistics.median(o.wall_s for run in runs for o in run if o.job == job.name)
        print(f"job {job.name:44} {wall:>16.6g} s")
    for name, unit in units.items():
        print(f"{name:48} {values[name]:>16.6g} {unit}")
    print(f"{'fail_rate':48} {runner.failed / runner.attempted:>16.6g} ratio "
          f"({runner.failed} of {runner.attempted} operations)")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    if args.out is not None:
        record = {
            "env": env,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "outputs": outputs,
            "jobs": [[o.job, o.wall_s, o.rss_mb, o.ok] for run in runs for o in run],
            "spans": {o.job: o.stats["spans"] for o in traced if o.stats},
            "result": result,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
