"""Exact workbench for planar dissections.

Plane maps are dart rotation systems (maps.py); an exhaustive census of
small rooted maps (census.py, over the kernel in kernel.py) serves as the
oracle for the orientation machinery (orientations.py), the quotient
constructions (quotient.py) and the exact counting series (series.py).
"""

from mapquot.maps import (
    DissectionSpec,
    Disconnected,
    MapError,
    NonPlanar,
    NotAPermutation,
    PlaneMap,
    PointedMap,
    SymmetricMap,
    canonical_code,
    distances_from,
    enclosing_girth,
    is_irreducible,
    is_quasi_simple,
    is_simple,
    radial_distance,
)

__all__ = [
    "DissectionSpec",
    "Disconnected",
    "MapError",
    "NonPlanar",
    "NotAPermutation",
    "PlaneMap",
    "PointedMap",
    "SymmetricMap",
    "canonical_code",
    "distances_from",
    "enclosing_girth",
    "is_irreducible",
    "is_quasi_simple",
    "is_simple",
    "radial_distance",
]

__version__ = "0.1.0"
