"""Layer timing for mapquot, applied from outside the package.

`Tracer.install()` wraps the public functions of every `mapquot` module,
plus a few named methods, and rebinds each wrapper wherever the original is
bound: in every `mapquot.*` namespace (the `from mapquot.maps import ...`
copies included), in module-level dicts such as `verify.CHECKS`, and under
class-level aliases such as `TruncSeries.__rmul__`.

Every wrapped call updates an aggregate counter: calls, inclusive time and
self time (inclusive time minus the time of wrapped calls nested in it).
Only boundary functions, which run a few hundred times per process at most,
also record a span; hot leaves such as `canonical_code` (over a million calls
in `verify --suite all`) keep to counters so that tracing stays cheap in time
and memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = (
    "maps",
    "kernel",
    "census",
    "orientations",
    "quotient",
    "series",
    "jsonio",
    "render",
    "verify",
    "cli",
)

# Methods are wrapped only where a layer metric names them.
METHODS = {
    ("maps", "PlaneMap"): {"__init__": "PlaneMap"},
    ("series", "TruncSeries"): {"__mul__": "TruncSeries.mul", "divide": "TruncSeries.divide"},
}

BOUNDARY_MODULES = ("cli", "verify")
BOUNDARY = {
    "kernel.run_census",
    "census.rooted_family",
    "census.symmetric_members",
    "census.two_point_quad_table",
    "series.named",
    "series.two_point",
}

CACHED = ("census.rooted_family", "series.named")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters = {
            "kernel.maps_emitted": 0,
            "census.rooted_family.cached_maps": 0,
            "census.symmetric_scanned": 0,
            "census.symmetric_kept": 0,
        }
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[list] = []  # [name, nested wrapped time]
        self._span_stack: list[int] = []
        self._caches = {}
        self._misses_seen = 0

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        span = name in BOUNDARY or name.split(".")[0] in BOUNDARY_MODULES
        spans, span_stack = self.spans, self._span_stack

        def timed(call):
            frame = [name, 0.0]
            stack.append(frame)
            if span:
                sid = len(spans)
                spans.append([name, 0.0, 0.0, span_stack[-1] if span_stack else None])
                span_stack.append(sid)
            t0 = clock()
            try:
                return call()
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                stat[1] += dt
                stat[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if span:
                    spans[sid][1:3] = t0, t1
                    span_stack.pop()

        if inspect.isgeneratorfunction(fn):
            # Time each resumption, so the body's work is charged here and
            # not to whoever iterates.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stat[0] += 1
                it = fn(*args, **kwargs)
                done = object()
                while True:
                    item = timed(lambda: next(it, done))
                    if item is done:
                        return
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            result = timed(lambda: fn(*args, **kwargs))
            if after is not None:
                after(result)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _after_run_census(self, sigmas):
        self.counters["kernel.maps_emitted"] += len(sigmas)

    def _after_rooted_family(self, fam):
        misses = self._caches["census.rooted_family"].cache_info().misses
        if misses > self._misses_seen:
            self.counters["census.rooted_family.cached_maps"] += len(fam)
            self._misses_seen = misses
        if any(frame[0] == "census.symmetric_members" for frame in self._stack):
            self.counters["census.symmetric_scanned"] += len(fam)

    def _after_symmetric_members(self, members):
        self.counters["census.symmetric_kept"] += len(members)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap and rebind; call before `mapquot.cli.main`."""
        mods = {m: importlib.import_module(f"mapquot.{m}") for m in MODULES}
        after = {
            "kernel.run_census": self._after_run_census,
            "census.rooted_family": self._after_rooted_family,
            "census.symmetric_members": self._after_symmetric_members,
        }
        originals = {}  # id(original) -> wrapper
        # The kernel's run_census is defined in the private kernel module the
        # selector imported, so it is taken from `mapquot.kernel` by name.
        fn = mods["kernel"].run_census
        originals[id(fn)] = self._wrap("kernel.run_census", fn, after["kernel.run_census"])
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in CACHED:
                    self._caches[name] = obj
                originals[id(obj)] = self._wrap(name, obj, after.get(name))
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(mods[short], cls_name)
            for attr, label in methods.items():
                fn = cls.__dict__[attr]
                originals[id(fn)] = self._wrap(f"{short}.{label}", fn)
        self._rebind(originals)

    @staticmethod
    def _rebind(originals) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "mapquot" and not modname.startswith("mapquot."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    setattr(mod, attr, originals[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in originals:
                            obj[key] = originals[id(val)]
                elif inspect.isclass(obj) and obj.__module__ == modname:
                    for cattr, cval in list(vars(obj).items()):
                        if id(cval) in originals:
                            setattr(obj, cattr, originals[id(cval)])

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict:
        caches = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        return {
            "stats": self.stats,
            "counters": self.counters,
            "caches": caches,
            "spans": self.spans,
        }
