"""Geographic candidate algorithm.

For a query cell, return the K nearest cells within a maximum distance m,
using only the raw (unnormalized) latitude/longitude columns. Serves both
as a baseline predictor and as a pre-filter for the learned models.

The search is an exact brute-force scan; networks here are desk-scale and
an index must not change results anyway.
"""

from __future__ import annotations

import math

import numpy as np

from .config import CandidateConfig
from .errors import EmptyEvalSet
from .graph import CellId, RanGraph
from .report import EvalReport

EARTH_RADIUS_KM = 6371.0


def geo_distance(a, b) -> float:
    """Haversine distance in km, on a sphere of radius 6371 km, between two
    (lat, lon) points in degrees."""
    lat1, lon1, lat2, lon2 = map(math.radians, (a[0], a[1], b[0], b[1]))
    s = (
        math.sin((lat2 - lat1) / 2) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def _distances_to_all(coords: np.ndarray, point) -> np.ndarray:
    """Vectorized distances from one (lat, lon) point to every row of coords."""
    if coords.size == 0:
        return np.empty(0)
    lat1 = math.radians(point[0])
    lon1 = math.radians(point[1])
    lat2 = np.radians(coords[:, 0])
    lon2 = np.radians(coords[:, 1])
    s = (
        np.sin((lat2 - lat1) / 2) ** 2
        + math.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def candidate_indices(
    coords: np.ndarray, point, cfg: CandidateConfig, exclude: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the K nearest rows of ``coords`` to ``point``.

    Rows farther than the max distance and the ``exclude`` row are dropped;
    the rest are sorted by (distance, index) and truncated to K.
    """
    dist = _distances_to_all(coords, point)
    keep = dist <= cfg.max_dist
    if exclude is not None:
        keep[exclude] = False
    idx = np.flatnonzero(keep)
    chosen = idx[np.lexsort((idx, dist[idx]))][: cfg.k]
    return chosen, dist[chosen]


def candidates(
    graph: RanGraph, node: CellId, cfg: CandidateConfig
) -> list[tuple[CellId, float]]:
    """K nearest cells to a cell in the graph, within max distance.

    Sorted ascending by distance, ties broken by internal index; the query
    cell itself is excluded.
    """
    i = graph.index_of(node)
    coords = graph.features.coords()
    idx, dist = candidate_indices(coords, coords[i], cfg, exclude=i)
    return [(graph.ids[j], d) for j, d in zip(idx.tolist(), dist.tolist())]


def candidates_for_new(
    graph: RanGraph, coords_point, cfg: CandidateConfig
) -> list[tuple[CellId, float]]:
    """Candidate set for a query point that need not be a graph node."""
    idx, dist = candidate_indices(graph.features.coords(), coords_point, cfg)
    return [(graph.ids[j], d) for j, d in zip(idx.tolist(), dist.tolist())]


def evaluate_candidates(graph: RanGraph, eval_nodes, cfg: CandidateConfig) -> EvalReport:
    """Confusion report treating each node's candidate set as its predicted
    neighbor list, over all (eval node, other node) pairs.

    AUC is omitted: candidate membership is a hard binary prediction.
    """
    eval_idx = sorted(graph.index_of(node) for node in eval_nodes)
    if not eval_idx:
        raise EmptyEvalSet("no evaluation nodes given")

    # Each eval node is scored against every other node; pairs between two
    # eval nodes are therefore counted once per direction, since each node
    # has its own candidate list.
    coords = graph.features.coords()
    tp = fp = fn = 0
    n_pairs = 0
    for i in eval_idx:
        predicted, _ = candidate_indices(coords, coords[i], cfg, exclude=i)
        hits = int(graph.has_edges(i, predicted).sum())
        tp += hits
        fp += len(predicted) - hits
        fn += int(graph.degree[i]) - hits
        n_pairs += graph.n - 1
    tn = n_pairs - tp - fp - fn
    return EvalReport.from_counts(
        mode=f"candidate(k={cfg.k},m={cfg.max_dist})",
        cutoff=0.5,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        auc=None,
    )
