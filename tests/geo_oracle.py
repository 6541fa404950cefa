"""The great-circle distances the tests check geographic searches against:
``geo_distance`` is the haversine of one pair of points, written
independently of the package's index; ``distances_to_all`` is the full
vectorized scan the index's query replaces, the reference for its bits.
"""

from __future__ import annotations

import math

import numpy as np

from ran_topo.candidate import EARTH_RADIUS_KM


def geo_distance(a, b) -> float:
    """Haversine distance in km, on a sphere of radius 6371 km, between two
    (lat, lon) points in degrees."""
    lat1, lon1, lat2, lon2 = map(math.radians, (a[0], a[1], b[0], b[1]))
    s = (
        math.sin((lat2 - lat1) / 2) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def distances_to_all(coords: np.ndarray, point) -> np.ndarray:
    """Vectorized distances from one (lat, lon) point to every row of coords."""
    lat1 = math.radians(point[0])
    lon1 = math.radians(point[1])
    lat2 = np.radians(coords[:, 0])
    lon2 = np.radians(coords[:, 1])
    s = (
        np.sin((lat2 - lat1) / 2) ** 2
        + math.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))
