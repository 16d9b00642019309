"""Flow search on the built map, kept as the oracle for
orientations.overloaded_vertices: a map has a d-orientation exactly when
find_d_orientation finds one."""

from __future__ import annotations

from mapquot.maps import PlaneMap
from mapquot.orientations import OrientationInfeasible, find_d_orientation


def has_d_orientation(m: PlaneMap, d: int) -> bool:
    try:
        find_d_orientation(m, d)
        return True
    except OrientationInfeasible:
        return False
