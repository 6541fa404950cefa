"""The scalar great-circle distance the tests check geographic searches
against: ``geo_distance`` is the haversine of one pair of points, written
independently of the package's vectorized distance scan.
"""

from __future__ import annotations

import math

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
