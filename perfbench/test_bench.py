"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest perfbench -q          # about 4 minutes on 2 cores

The workload test runs every workload twice, with two seeds.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def traced(tmp_path, *cli_args):
    stats = tmp_path / "stats.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "traced_cli.py"), str(stats), *cli_args],
        env=ENV, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(stats.read_text())


def test_tracer_counts_calls_through_imported_names(tmp_path):
    out, snap = traced(tmp_path, "enumerate", "--inner-degree", "4", "--outer-degree", "4",
                       "--size", "4", "--simple", "--symmetric", "2", "--force", "--count-only")
    stats, counters = snap["stats"], snap["counters"]
    # census calls run_census and unrooted_code through `from ... import` names
    assert stats["kernel.run_census"][0] == 1
    assert stats["maps.unrooted_code"][0] == counters["kernel.maps_emitted"] > 0
    assert counters["census.symmetric_kept"] == json.loads(out)["count"]
    assert snap["caches"]["census.rooted_family"] == {"hits": 0, "misses": 1}
    assert {s[0] for s in snap["spans"]} >= {"cli.main", "census.symmetric_members"}
    for calls, total, self_s in stats.values():
        assert 0 <= self_s <= total + 1e-9


def test_tracer_reaches_checks_registered_in_a_dict(tmp_path):
    out, snap = traced(tmp_path, "verify", "--suite", "series_golden")
    assert json.loads(out)["ok"] is True
    assert snap["stats"]["verify.check_series_golden"][0] == 1
    assert snap["caches"]["series.named"]["misses"] >= 2


@pytest.mark.parametrize("workload", ["census_sweep", "series_high_order", "verify_all"])
def test_two_seeds_same_outputs_and_no_failures(workload):
    seen = []
    for seed in (1, 2):
        proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0, proc.stderr
        outputs = next(line for line in lines if line.startswith("passes "))
        seen.append((outputs, result["attempted"]))
    assert seen[0] == seen[1]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "series_high_order", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_refuses_different_kernels(tmp_path):
    def record(name, compiled):
        path = tmp_path / name
        path.write_text(json.dumps({
            "env": {"python": "3.11.7", "compiled": compiled},
            "workload": "census_sweep",
            "result": {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}},
        }))
        return str(path)

    cmd = [sys.executable, str(HERE / "compare.py"), "--before", record("a.json", False)]
    same = subprocess.run(cmd + ["--after", record("b.json", False)], capture_output=True, text=True)
    assert same.returncode == 0, same.stderr
    mixed = subprocess.run(cmd + ["--after", record("c.json", True)], capture_output=True, text=True)
    assert mixed.returncode == 2
    assert "refusing" in mixed.stderr
