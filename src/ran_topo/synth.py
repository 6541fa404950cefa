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

import os
from dataclasses import dataclass, field

import numpy as np

from .candidate import CandidateConfig, GeoIndex
from .config import BAND_RULE, SITE_MEAN_RULE, TX_POWER_RANGE, SynthConfig
from .data_io import write_cells_csv, write_edges_csv
from .graph import FeatureMatrix, RanGraph, key_pairs, pair_keys, unique_keys

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

ANTENNA_HEIGHT_RANGE = (10.0, 60.0)
CAPACITY_RANGE = (50.0, 500.0)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Generated graph plus each cell's site, which the oracle rule reads."""

    graph: RanGraph
    site_of: tuple[int, ...] = field(repr=False)  # site index per cell


def _site_mate_mean_tx(tx: np.ndarray, site_of: np.ndarray) -> np.ndarray:
    """Per cell: mean tx_power over same-site cells excluding itself (0 for
    a cell alone at its site)."""
    total = np.bincount(site_of, weights=tx)[site_of]
    mates = np.bincount(site_of)[site_of] - 1
    return np.where(mates > 0, (total - tx) / np.maximum(mates, 1), 0.0)


def generate(cfg: SynthConfig) -> GroundTruth:
    """Deterministically generate a synthetic network for the config seed."""
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

    # site pairs (s, t), s <= t, within the radius, from an index over the
    # sites, not the cells; unique_keys below sorts the edges they give
    sites = GeoIndex(np.column_stack([site_lat, site_lon]))
    near = CandidateConfig(k=cfg.sites, max_dist=cfg.radius_km)
    site_s, site_t = sites.query_rows(np.arange(cfg.sites), near)
    above = site_t > site_s
    site_s = np.concatenate([site_s[above], np.arange(cfg.sites)])
    site_t = np.concatenate([site_t[above], np.arange(cfg.sites)])

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

    edges = key_pairs(unique_keys(pair_keys(a[keep], b[keep], n)), n)
    graph = RanGraph(tuple(ids), edges, FeatureMatrix(FEATURE_COLUMNS, x))
    return GroundTruth(graph=graph, site_of=tuple(site_of.tolist()))


def export(gt: GroundTruth, out_dir) -> None:
    """Write cells.csv and edges.csv; re-ingestion reproduces the graph."""
    cells_path = os.path.join(out_dir, "cells.csv")
    edges_path = os.path.join(out_dir, "edges.csv")
    write_cells_csv(cells_path, gt.graph.ids, gt.graph.features)
    write_edges_csv(edges_path, gt.graph.edge_list())
