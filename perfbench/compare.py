"""Compare two sets of benchmark records written by `run.py --out`.

    python3 perfbench/compare.py --before a1.json a2.json ... --after b1.json b2.json ...

Prints, per workload and metric, each side's median and quartiles and the
change of the medians as a share of the before median, and flags a metric
whose median got worse by more than its bound in BENCHMARK.json. Refuses
(exit 2) to compare records whose Python version or compiled-kernel flag
differ, because those change every timing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME_ENV = ("python", "compiled")


def load(paths: list[Path]) -> list[dict]:
    return [json.loads(p.read_text()) for p in paths]


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", nargs="+", type=Path, required=True)
    ap.add_argument("--after", nargs="+", type=Path, required=True)
    args = ap.parse_args(argv)
    before, after = load(args.before), load(args.after)
    envs = {tuple(r["env"][k] for k in SAME_ENV) for r in before + after}
    if len(envs) > 1:
        print(f"refusing to compare: ({', '.join(SAME_ENV)}) differ across records: "
              f"{sorted(envs, key=str)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = 0
    for workload in sorted({r["workload"] for r in before + after}):
        print(f"== {workload}")
        sides = []
        for records in (before, after):
            values: dict[str, list[float]] = {}
            for r in records:
                if r["workload"] == workload:
                    for name, m in r["result"]["metrics"].items():
                        values.setdefault(name, []).append(m["value"])
            sides.append(values)
        for name in [n for n in metrics if n in sides[0] and n in sides[1]]:
            b, a = statistics.median(sides[0][name]), statistics.median(sides[1][name])
            change = (a - b) / b if b else 0.0
            sign = 1 if metrics[name]["better"] == "lower" else -1
            bound = metrics[name].get("bound")
            flag = ""
            if bound is not None and sign * change > bound:
                flag = "  WORSE THAN BOUND"
                worse += 1
            print(f"  {name:44} {summary(sides[0][name]):>34} -> {summary(sides[1][name]):>34}"
                  f" {change:+8.1%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
