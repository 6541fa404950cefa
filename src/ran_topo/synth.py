"""Seeded synthetic mobile-network generator with a ground-truth edge oracle.

Sites are placed uniformly in a bounding box; every cell of a site shares
the site's coordinates (as in real exports, where cell locations reflect the
managing hardware). Each cell carries 8 features:

    lat, lon, band, azimuth, tx_power, antenna_height, capacity, nuisance

Oracle edges, rule "band" (default):
    (a) every intra-site cell pair;
    (b) inter-site pairs with haversine distance <= radius_km and band ids
        equal or adjacent (|delta band| <= 1).

Rule "site_mean" replaces the band condition for inter-site pairs with a
neighbor-aggregate condition: the pair is related iff the sum of the two
cells' site-mate mean tx_power values reaches a threshold. A cell's own
features say nothing about its site-mates' mean, so this rule rewards
models that can aggregate over the graph.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .candidate import CandidateConfig, candidate_indices
from .data_io import write_cells_csv, write_edges_csv
from .errors import BadConfig
from .graph import FeatureMatrix, RanGraph, build_graph

FEATURE_COLUMNS = (
    "lat",
    "lon",
    "band",
    "azimuth",
    "tx_power",
    "antenna_height",
    "capacity",
    "nuisance",
)

BAND_RULE = "band"
SITE_MEAN_RULE = "site_mean"

TX_POWER_RANGE = (10.0, 50.0)
ANTENNA_HEIGHT_RANGE = (10.0, 60.0)
CAPACITY_RANGE = (50.0, 500.0)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_list_of(value, length: int, ok) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == length and all(map(ok, value))


# SynthConfig field -> (JSON type check, what the message says it must be)
_FIELD_TYPES = {
    "sites": (_is_int, "an integer"),
    "bands": (_is_int, "an integer"),
    "seed": (_is_int, "an integer"),
    "cells_per_site": (lambda v: _is_list_of(v, 2, _is_int), "two integers"),
    "bbox": (lambda v: _is_list_of(v, 4, _is_number), "four numbers"),
    "radius_km": (_is_number, "a number"),
    "feature_noise": (_is_number, "a number"),
    "site_mean_threshold": (_is_number, "a number"),
}


@dataclass(frozen=True)
class SynthConfig:
    sites: int = 300
    cells_per_site: tuple[int, int] = (3, 7)
    bbox: tuple[float, float, float, float] = (56.8, 57.8, 11.0, 13.0)  # lat min/max, lon min/max
    radius_km: float = 4.0
    bands: int = 6
    feature_noise: float = 1.0
    seed: int = 0
    edge_rule: str = BAND_RULE
    # site_mean rule only; default = twice the tx_power midpoint, so roughly
    # half of the close pairs qualify
    site_mean_threshold: float = TX_POWER_RANGE[0] + TX_POWER_RANGE[1]

    def validate(self) -> None:
        lat_min, lat_max, lon_min, lon_max = self.bbox
        if self.sites < 2:
            raise BadConfig("sites must be >= 2")
        lo, hi = self.cells_per_site
        if not 1 <= lo <= hi:
            raise BadConfig("cells_per_site must be a range with 1 <= lo <= hi")
        if not self.radius_km > 0:
            raise BadConfig("radius_km must be > 0")
        if self.bands < 1:
            raise BadConfig("bands must be >= 1")
        if not 0 <= self.feature_noise < math.inf:
            raise BadConfig("feature_noise must be finite and >= 0")
        if not (lat_min < lat_max and lon_min < lon_max):
            raise BadConfig("bbox must have positive extent")
        if max(abs(lat_min), abs(lat_max)) > 60 or max(abs(lon_min), abs(lon_max)) > 180:
            raise BadConfig("bbox must lie within |lat| <= 60, |lon| <= 180")
        if self.seed < 0:
            raise BadConfig("seed must be >= 0")
        if self.edge_rule not in (BAND_RULE, SITE_MEAN_RULE):
            raise BadConfig(f"unknown edge rule {self.edge_rule!r}")

    @classmethod
    def from_dict(cls, obj: dict) -> "SynthConfig":
        """From a JSON object; a field of the wrong JSON type raises BadConfig."""
        if not isinstance(obj, dict):
            raise BadConfig(f"synthetic config must be a JSON object, not {type(obj).__name__}")
        for name, (ok, what) in _FIELD_TYPES.items():
            if name in obj and not ok(obj[name]):
                raise BadConfig(f"{name} must be {what}, got {obj[name]!r}")
        kwargs = dict(obj)
        if "cells_per_site" in kwargs:
            kwargs["cells_per_site"] = tuple(kwargs["cells_per_site"])
        if "bbox" in kwargs:
            kwargs["bbox"] = tuple(kwargs["bbox"])
        try:
            cfg = cls(**kwargs)
        except TypeError as exc:
            raise BadConfig(str(exc)) from None
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return {
            "sites": self.sites,
            "cells_per_site": list(self.cells_per_site),
            "bbox": list(self.bbox),
            "radius_km": self.radius_km,
            "bands": self.bands,
            "feature_noise": self.feature_noise,
            "seed": self.seed,
            "edge_rule": self.edge_rule,
            "site_mean_threshold": self.site_mean_threshold,
        }


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Generated graph plus the oracle rule parameters that produced it."""

    graph: RanGraph
    config: SynthConfig
    site_of: tuple[int, ...] = field(repr=False)  # site index per cell


def _site_mate_mean_tx(tx: np.ndarray, site_of: np.ndarray) -> np.ndarray:
    """Per cell: mean tx_power over same-site cells excluding itself (0 for
    a cell alone at its site)."""
    total = np.bincount(site_of, weights=tx)[site_of]
    mates = np.bincount(site_of)[site_of] - 1
    return np.where(mates > 0, (total - tx) / np.maximum(mates, 1), 0.0)


def generate(cfg: SynthConfig) -> GroundTruth:
    """Deterministically generate a synthetic network for the config seed."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    lat_min, lat_max, lon_min, lon_max = cfg.bbox

    site_lat = rng.uniform(lat_min, lat_max, size=cfg.sites)
    site_lon = rng.uniform(lon_min, lon_max, size=cfg.sites)
    lo, hi = cfg.cells_per_site
    cells_per_site = rng.integers(lo, hi + 1, size=cfg.sites)

    n = int(cells_per_site.sum())
    site_of = np.repeat(np.arange(cfg.sites), cells_per_site)
    first_cell = np.cumsum(cells_per_site) - cells_per_site  # a site's cells are contiguous
    cell_no = np.arange(n) - first_cell[site_of]
    ids = [f"S{s:04d}C{c}" for s, c in zip(site_of.tolist(), cell_no.tolist())]

    x = np.empty((n, len(FEATURE_COLUMNS)))
    x[:, 0] = site_lat[site_of]
    x[:, 1] = site_lon[site_of]
    x[:, 2] = rng.integers(0, cfg.bands, size=n)
    x[:, 3] = rng.uniform(0.0, 360.0, size=n)
    x[:, 4] = rng.uniform(*TX_POWER_RANGE, size=n)
    x[:, 5] = rng.uniform(*ANTENNA_HEIGHT_RANGE, size=n)
    x[:, 6] = rng.uniform(*CAPACITY_RANGE, size=n)
    x[:, 7] = rng.normal(0.0, cfg.feature_noise, size=n)

    # site pairs (s, t), s <= t, within the radius: one scan per site over
    # sites s.., so the scan stays at S^2 and not N^2
    site_coords = np.column_stack([site_lat, site_lon])
    near = CandidateConfig(k=cfg.sites, max_dist=cfg.radius_km)
    site_t = [
        s + candidate_indices(site_coords[s:], site_coords[s], near)[0] for s in range(cfg.sites)
    ]
    site_s = np.repeat(np.arange(cfg.sites), [len(t) for t in site_t])
    site_t = np.concatenate(site_t)

    # every cell pair (a, b) those site pairs span, a < b
    width = cells_per_site[site_t]
    spans = cells_per_site[site_s] * width
    pair = np.repeat(np.arange(len(spans)), spans)
    within = np.arange(spans.sum()) - np.repeat(np.cumsum(spans) - spans, spans)
    a = first_cell[site_s][pair] + within // width[pair]
    b = first_cell[site_t][pair] + within % width[pair]

    if cfg.edge_rule == BAND_RULE:
        related = np.abs(x[a, 2] - x[b, 2]) <= 1
    else:
        mate_mean = _site_mate_mean_tx(x[:, 4], site_of)
        related = mate_mean[a] + mate_mean[b] >= cfg.site_mean_threshold
    keep = (a < b) & ((site_of[a] == site_of[b]) | related)

    id_of = np.array(ids, dtype=object)
    edges = zip(id_of[a[keep]].tolist(), id_of[b[keep]].tolist())
    graph = build_graph(ids, edges, FeatureMatrix(FEATURE_COLUMNS, x))
    return GroundTruth(graph=graph, config=cfg, site_of=tuple(site_of.tolist()))


def export(gt: GroundTruth, out_dir) -> tuple[str, str]:
    """Write cells.csv and edges.csv; re-ingestion reproduces the graph."""
    cells_path = os.path.join(out_dir, "cells.csv")
    edges_path = os.path.join(out_dir, "edges.csv")
    write_cells_csv(cells_path, gt.graph.ids, gt.graph.features)
    write_edges_csv(edges_path, gt.graph.edge_list())
    return cells_path, edges_path
