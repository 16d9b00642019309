"""JSON map records.

Format: {"n_darts": int, "sigma": [int...], "root": int, "pointed": int|null,
"marked_edge": int|null, "marked_face": int|null, "rho": [int...]|null,
"k": int|null, "orient": [0|1|null ...]|null}.  Darts are 0-based and the
edge pairing is implicit (alpha(d) = d xor 1, edge id = d >> 1).  The
"orient" array holds one entry per edge: 0 directs edge j along dart 2j,
1 along dart 2j+1, null marks an unoriented (outer) edge.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional

from mapquot.maps import MapError, PlaneMap, PointedMap, SymmetricMap

if TYPE_CHECKING:
    from mapquot.orientations import Orientation


def map_record(
    m: PlaneMap,
    pointed: Optional[int] = None,
    marked_edge: Optional[int] = None,
    marked_face: Optional[int] = None,
    rho=None,
    k: Optional[int] = None,
    orientation: Optional[Orientation] = None,
) -> dict:
    orient = None
    if orientation is not None:
        orient = [
            None if d is None else d & 1 for d in orientation.along
        ]
    return {
        "n_darts": m.n_darts,
        "sigma": list(m.sigma),
        "root": m.root_dart,
        "pointed": pointed,
        "marked_edge": marked_edge,
        "marked_face": marked_face,
        "rho": None if rho is None else list(rho),
        "k": k,
        "orient": orient,
    }


#: dumps(map_record(m)) of a map rooted at dart 0 with no other field set,
#: and the text of each dart of a census map, which has at most 256 darts
_BARE_RECORD = ('{"k":null,"marked_edge":null,"marked_face":null,"n_darts":%d,'
                '"orient":null,"pointed":null,"rho":null,"root":0,"sigma":[%s]}')
_DART_TEXT = [str(d) for d in range(256)]


def bare_record(sigma) -> str:
    """dumps(map_record(PlaneMap(sigma, 0))), written straight from a census sigma."""
    return _BARE_RECORD % (len(sigma), ",".join([_DART_TEXT[d] for d in sigma]))


def symmetric_record(s: SymmetricMap) -> dict:
    return map_record(
        s.plane_map, pointed=s.center, rho=s.rho, k=s.order_k
    )


def pointed_record(p: PointedMap) -> dict:
    return map_record(p.base, pointed=p.pointed_vertex)


def _check_types(record) -> None:
    """Every field of the format above must be null or of its JSON type (and
    sigma and root present); true, false and floats are not ints."""
    if not isinstance(record, dict):
        raise MapError("a map record must be a JSON object")
    for key in ("n_darts", "root", "pointed", "marked_edge", "marked_face", "k"):
        if record.get(key) is not None and type(record[key]) is not int:
            raise MapError(f"{key} in a map record must be an int or null")
    for key in ("sigma", "rho", "orient"):
        items = [] if record.get(key) is None else record[key]
        if not isinstance(items, list) or any(
            type(x) is not int and not (x is None and key == "orient") for x in items
        ):
            raise MapError(f"{key} in a map record must be a list of ints or null")
    if record.get("sigma") is None or record.get("root", 0) is None:
        raise MapError("a map record needs a sigma array and an int root")


def parse_map(record: dict) -> dict:
    """Validate a JSON record; returns a dict with typed objects under the
    keys map / pointed / symmetric / orientation (absent parts are None)."""
    _check_types(record)
    sigma = record["sigma"]
    if record.get("n_darts") not in (None, len(sigma)):
        raise MapError("n_darts does not match sigma")
    m = PlaneMap(sigma, record.get("root", 0))
    out = {"map": m, "pointed": None, "symmetric": None, "orientation": None,
           "marked_edge": record.get("marked_edge"),
           "marked_face": record.get("marked_face")}
    if record.get("pointed") is not None:
        out["pointed"] = PointedMap(m, record["pointed"])
    if record.get("rho") is not None:
        if record.get("k") is None or out["pointed"] is None:
            raise MapError("rho requires both k and a pointed vertex")
        out["symmetric"] = SymmetricMap(out["pointed"], record["k"], tuple(record["rho"]))
    if record.get("orient") is not None:
        from mapquot.orientations import Orientation

        bits = record["orient"]
        if len(bits) != m.n_edges:
            raise MapError("orient array must have one entry per edge")
        along = tuple(
            None if b is None else 2 * e + b for e, b in enumerate(bits)
        )
        out["orientation"] = Orientation(m, along)
    return out


def dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))
