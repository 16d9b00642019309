"""Census kernel selection: compiled extension when available, else pure Python.

Set MAPQUOT_PURE_PYTHON=1 to force the fallback (used by the benchmark and by
tests that compare the two implementations).
"""

from __future__ import annotations

import os

if os.environ.get("MAPQUOT_PURE_PYTHON"):
    from mapquot._census_py import run_census

    COMPILED = False
else:
    try:
        from mapquot._census_c import run_census  # type: ignore[no-redef]

        COMPILED = True
    except ImportError:
        from mapquot._census_py import run_census  # type: ignore[no-redef]

        COMPILED = False

__all__ = ["run_census", "COMPILED"]
