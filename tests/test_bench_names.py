"""The traced benchmark (`perfbench/run.py --trace 1`) reads its per-layer
figures by the names that BENCHMARK.json declares, and stops when a name has
no traced function behind it.  Each such name must resolve in `mapquot`, so
that a rename which would break the traced run fails here first."""

import importlib
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAT_KINDS = ("calls", "total_s", "self_s", "hits", "misses")
CACHE_KINDS = ("hits", "misses")
# derived figures that sum the self time of several functions or of a layer
EDGE_MARKING = ("phi", "phi_tri", "phi_inverse", "phi_tri_inverse")


def traced_names() -> dict[str, set[str]]:
    """`<module>.<name>` -> the stat kinds BENCHMARK.json reads for it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names: dict[str, set[str]] = {}
    for metric in spec["per_layer"]:
        base, kind = metric["name"].rsplit(".", 1)
        if kind in STAT_KINDS:
            names.setdefault(base, set()).add(kind)
    return names


def module(short: str):
    return importlib.import_module(f"mapquot.{short}")


def test_every_traced_name_resolves():
    names = traced_names()
    assert "series.fixpoint_solve" in names and "maps.PlaneMap" in names
    for base, kinds in sorted(names.items()):
        short, _, attr = base.partition(".")
        if short == "layer":
            module(attr)
            continue
        mod = module(short)
        if base == "quotient.edge_marking":
            for fn in EDGE_MARKING:
                assert inspect.isfunction(getattr(mod, fn)), fn
            continue
        head, _, method = attr.partition(".")
        obj = getattr(mod, head, None)
        if inspect.isclass(obj):
            assert obj.__module__ == mod.__name__, base
            assert base in ("maps.PlaneMap", f"series.TruncSeries.{method}"), base
            if method:
                assert hasattr(obj, method) or hasattr(obj, f"__{method}__"), base
            continue
        assert not attr.startswith("_") and callable(obj), base
        assert obj.__module__ == mod.__name__, base
        if kinds & set(CACHE_KINDS):
            assert hasattr(obj, "cache_info"), base


def test_environment_probe_reads_compiled_flag():
    assert isinstance(module("kernel").COMPILED, bool)
