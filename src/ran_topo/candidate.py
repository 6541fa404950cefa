"""Geographic candidate algorithm.

For a query cell, return the K nearest cells within a maximum distance m,
using only the raw (unnormalized) latitude/longitude columns. Serves both
as a baseline predictor and as a pre-filter for the learned models.

Every search goes through a ``GeoIndex``, the cells sorted by latitude.
Great-circle distance is at least R times the latitude difference, so the
band of rows within the cap's latitude span, slightly widened, holds every
cell within the cap; with no cap, or one of at least half the globe, the
band is every row. Hits are re-scored with the exact haversine and sorted by
(distance, index), so the results and their distance bits are those of a
full scan. The haversine's per-cell terms (latitude and longitude in
radians, cos of the latitude) are computed once, when the index is built,
and stored in latitude order, so a query slices its band out of them.
"""

from __future__ import annotations

import math

import numpy as np

from .config import CandidateConfig
from .errors import ValidationError
from .graph import CellId, RanGraph
from .report import EvalReport

EARTH_RADIUS_KM = 6371.0
BAD_COORDS = "{} need finite coordinates with latitude in [-90, 90]"


class GeoIndex:
    """Exact K-nearest-within-m search over a fixed set of (lat, lon) rows."""

    def __init__(self, coords: np.ndarray):
        self.coords = np.asarray(coords, dtype=np.float64).reshape(-1, 2)
        if not ((np.abs(self.coords[:, 0]) <= 90.0).all() and np.isfinite(self.coords[:, 1]).all()):
            raise ValidationError(BAD_COORDS.format("indexed cells"))
        self.order = np.argsort(self.coords[:, 0], kind="stable")
        self.sorted_lat = self.coords[self.order, 0]
        # the haversine's per-cell terms, in latitude order like sorted_lat
        self.lat_rad = np.radians(self.sorted_lat)
        self.lon_rad = np.radians(self.coords[self.order, 1])
        self.cos_lat = np.cos(self.lat_rad)

    def query(self, point, cfg: CandidateConfig, exclude: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Indices and distances of the K nearest rows to ``point``.

        Rows farther than the max distance and the ``exclude`` row are
        dropped; the rest are sorted by (distance, index) and truncated to K.
        """
        if not (abs(point[0]) <= 90.0 and math.isfinite(point[1])):
            raise ValidationError(BAD_COORDS.format("candidate queries"))
        # widened past any rounding of the haversine; no cap spans every row
        span = math.degrees(cfg.max_dist / EARTH_RADIUS_KM) * (1 + 1e-9) + 1e-12
        band = slice(
            np.searchsorted(self.sorted_lat, point[0] - span),
            np.searchsorted(self.sorted_lat, point[0] + span, side="right"),
        )
        hits = self.order[band]
        lat1, lon1 = math.radians(point[0]), math.radians(point[1])
        s = (
            np.sin((self.lat_rad[band] - lat1) / 2) ** 2
            + math.cos(lat1) * self.cos_lat[band] * np.sin((self.lon_rad[band] - lon1) / 2) ** 2
        )
        dist = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))
        keep = dist <= cfg.max_dist
        if exclude is not None:
            keep &= hits != exclude
        hits, dist = hits[keep], dist[keep]
        order = np.lexsort((hits, dist))[: cfg.k]
        return hits[order], dist[order]

    def query_rows(self, rows, cfg: CandidateConfig) -> tuple[np.ndarray, np.ndarray]:
        """Every row's candidate list, its own row excluded, as aligned
        (row, candidate) index arrays: each of ``rows`` in turn, its
        candidates in ``query``'s order. The one per-cell query loop."""
        rows = np.asarray(rows, dtype=np.int64)
        found = [self.query(self.coords[r], cfg, exclude=r)[0] for r in rows.tolist()]
        return np.repeat(rows, [len(c) for c in found]), np.concatenate([rows[:0], *found])


def candidates(
    graph: RanGraph, node: CellId, cfg: CandidateConfig
) -> list[tuple[CellId, float]]:
    """K nearest cells to a cell in the graph, within max distance.

    Sorted ascending by distance, ties broken by internal index; the query
    cell itself is excluded.
    """
    i = graph.index_of(node)
    index = graph.geo_index
    idx, dist = index.query(index.coords[i], cfg, exclude=i)
    return [(graph.ids[j], d) for j, d in zip(idx.tolist(), dist.tolist())]


def candidates_for_new(
    graph: RanGraph, coords_point, cfg: CandidateConfig
) -> list[tuple[CellId, float]]:
    """Candidate set for a query point that need not be a graph node."""
    idx, dist = graph.geo_index.query(coords_point, cfg)
    return [(graph.ids[j], d) for j, d in zip(idx.tolist(), dist.tolist())]


def evaluate_candidates(graph: RanGraph, eval_nodes, cfg: CandidateConfig) -> EvalReport:
    """Confusion report treating each node's candidate set as its predicted
    neighbor list, over all (eval node, other node) pairs.

    AUC is omitted: candidate membership is a hard binary prediction.
    """
    eval_idx = graph.rows_of(eval_nodes)
    if not len(eval_idx):
        raise ValidationError("no evaluation nodes given")

    # Each eval node is scored against every other node; pairs between two
    # eval nodes are therefore counted once per direction, since each node
    # has its own candidate list.
    rows, predicted = graph.geo_index.query_rows(eval_idx, cfg)
    tp = int(graph.has_edges(rows, predicted).sum())
    fp = len(predicted) - tp
    fn = int(graph.degree[eval_idx].sum()) - tp
    tn = len(eval_idx) * (graph.n - 1) - tp - fp - fn
    return EvalReport(
        mode=f"candidate(k={cfg.k},m={cfg.max_dist})", cutoff=0.5, tp=tp, fp=fp, tn=tn, fn=fn, auc=None
    )
