"""Immutable attributed radio-network graph.

Cells are nodes, mobility relations are undirected unweighted edges. A cell
is identified externally by an opaque id (string or integer) and internally
by a dense index in [0, N) assigned in input order.

The topology is stored as arrays: a sorted (E, 2) int64 edge array with
i < j, and CSR arrays (``indptr``, ``indices``, ``degree``) built from it
once per graph; they are the one representation. The id -> index map, the
searchable edge keys and the geographic candidate index are derived on
first use and cached. All operations that look like mutation return a new
graph; instances are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError

CellId = str | int


def pair_keys(i, j, n: int) -> np.ndarray:
    """Canonical key ``min * n + max`` of index pairs (i, j) of an n-node graph."""
    return np.minimum(i, j) * n + np.maximum(i, j)


def key_pairs(keys: np.ndarray, n: int) -> np.ndarray:
    """Inverse of ``pair_keys``: the keys' (min, max) index pairs, shape (K, 2)."""
    return np.column_stack([keys // n, keys % n])


def unique_keys(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of 1-D integer keys by a sort and an adjacent-duplicate mask.

    On int64 keys numpy's ``np.unique`` takes a hash path that is about 20x slower.
    """
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """N x k table of per-cell attributes with named columns.

    The two coordinate columns (latitude, longitude in degrees) are flagged
    by index so geographic code can find them regardless of ordering.
    """

    columns: tuple[str, ...]
    values: np.ndarray  # (N, k) float64
    coord_cols: tuple[int, int] = (0, 1)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValidationError("feature values must be a 2-D matrix")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "columns", tuple(self.columns))
        values.setflags(write=False)
        if len(self.columns) != values.shape[1]:
            raise ValidationError(
                f"{len(self.columns)} column names for {values.shape[1]} columns"
            )
        if len(set(self.columns)) != len(self.columns):
            raise ValidationError("duplicate feature column names")
        if values.shape[1] < 2:
            raise ValidationError("need at least lat and lon columns")
        lat_i, lon_i = self.coord_cols
        if not (0 <= lat_i < values.shape[1] and 0 <= lon_i < values.shape[1]):
            raise ValidationError("coordinate column indices out of range")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def coords(self) -> np.ndarray:
        """Raw (lat, lon) pairs, shape (N, 2)."""
        return self.values[:, list(self.coord_cols)]

    def take_rows(self, rows) -> "FeatureMatrix":
        return FeatureMatrix(self.columns, self.values[np.asarray(rows)], self.coord_cols)


@dataclass(frozen=True, eq=False)
class RanGraph:
    """Undirected attributed graph over cells, immutable after construction.

    ``edge_array`` holds each edge once as an (i, j) index pair with i < j,
    in ascending (i, j) order. The CSR arrays (``indptr``, ``indices``,
    ``degree``) are derived from it in ``__post_init__``; row v of
    ``indices`` lists v's neighbors above v ascending, then those below v
    ascending. That is the order in which summing over the sorted edge list,
    first at i then at j, visits them, and neighbor sums keep it so that
    their floating-point results do not change with the storage.
    """

    ids: tuple[CellId, ...]
    edge_array: np.ndarray  # (E, 2) int64, rows (i, j) with i < j, ascending
    features: FeatureMatrix
    indptr: np.ndarray = field(init=False, repr=False)  # (N + 1,) int64
    indices: np.ndarray = field(init=False, repr=False)  # (2E,) int64
    degree: np.ndarray = field(init=False, repr=False)  # (N,) int64

    def __post_init__(self):
        n = len(self.ids)
        edges = np.asarray(self.edge_array, dtype=np.int64).reshape(-1, 2)
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        # stable: a row's above-neighbors (first half) stay ahead of its
        # below-neighbors (second half), each half already ascending
        order = np.argsort(rows, kind="stable")
        degree = np.bincount(rows, minlength=n).astype(np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degree, out=indptr[1:])
        for name, arr in (
            ("edge_array", edges), ("indptr", indptr),
            ("indices", cols[order]), ("degree", degree),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        return len(self.edge_array)

    @cached_property
    def _index(self) -> dict:
        return {node: i for i, node in enumerate(self.ids)}

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """``pair_keys`` of the edges, ascending: a searchable edge index."""
        keys = pair_keys(self.edge_array[:, 0], self.edge_array[:, 1], self.n)
        keys.setflags(write=False)
        return keys

    @cached_property
    def geo_index(self):
        """``candidate.GeoIndex`` over the cells' (lat, lon): every candidate search's index."""
        from .candidate import GeoIndex  # candidate imports this module
        return GeoIndex(self.features.coords())

    def has_edges(self, i, j) -> np.ndarray:
        """Elementwise: is (i, j) an edge? Either endpoint order."""
        keys = pair_keys(np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64), self.n)
        pos = np.searchsorted(self.edge_keys, keys)
        found = np.zeros(keys.shape, dtype=bool)
        inside = pos < len(self.edge_keys)
        found[inside] = self.edge_keys[pos[inside]] == keys[inside]
        return found

    def index_of(self, node: CellId) -> int:
        """Dense internal index of an external cell id. Only ids resolve: an
        integer that is not an id raises ValidationError, even if in [0, N)."""
        try:
            return self._index[node]
        except (KeyError, TypeError):
            raise ValidationError(f"unknown cell id {node!r}") from None

    def rows_of(self, nodes) -> np.ndarray:
        """``index_of`` each cell id, in order, as an int64 array."""
        return np.array([self.index_of(node) for node in nodes], dtype=np.int64)

    def edge_list(self) -> list[tuple[CellId, CellId]]:
        """Edges as external-id pairs, sorted by index pair."""
        ids = np.array(self.ids, dtype=object)
        return list(zip(ids[self.edge_array[:, 0]].tolist(), ids[self.edge_array[:, 1]].tolist()))


def graph_from_rows(ids: tuple, rows: np.ndarray, features: FeatureMatrix, index: dict) -> RanGraph:
    """The canonical RanGraph of (E, 2) int64 endpoint rows of ``ids``.

    ``index`` maps each id to its row. Whoever maps id pairs to rows adds an
    id that is not among ``ids`` to ``index`` at the next free row (n, n + 1,
    ...), so that the edge can be refused by that name. Duplicate and
    reversed-duplicate edges collapse to one; an unlisted endpoint or a
    self-loop is rejected, the first offending edge named.
    """
    n = len(ids)
    bad = (rows >= n).any(axis=1) | (rows[:, 0] == rows[:, 1])
    if bad.any():
        a, b = rows[int(np.argmax(bad))].tolist()
        names = list(index)
        for row in (a, b):
            if row >= n:
                raise ValidationError(f"edge endpoint {names[row]!r} is not a node")
        raise ValidationError(f"self-loop on node {ids[a]!r}")
    keys = unique_keys(pair_keys(rows[:, 0], rows[:, 1], n))
    graph = RanGraph(ids, key_pairs(keys, n), features)
    graph.__dict__["_index"] = index  # where cached_property keeps it: not built twice
    return graph


def build_graph(
    nodes: list[CellId],
    edges,
    features: FeatureMatrix,
) -> RanGraph:
    """Construct a canonical RanGraph from cell ids and (a, b) id pairs.

    Duplicate and reversed-duplicate edges collapse to one; self-loops and
    unknown endpoints are rejected, the first offending edge named.
    """
    ids = tuple(nodes)
    index = {}
    for i, node_id in enumerate(ids):
        if node_id in index:
            raise ValidationError(f"duplicate node id {node_id!r}")
        index[node_id] = i
    if features.n_rows != len(ids):
        raise ValidationError(
            f"{features.n_rows} feature rows for {len(ids)} nodes"
        )
    flat = []
    for a, b in edges:
        try:
            flat += (index[a], index[b])
        except KeyError:  # an unlisted id, added for graph_from_rows to name
            flat += (index.setdefault(a, len(index)), index.setdefault(b, len(index)))
    return graph_from_rows(ids, np.array(flat, dtype=np.int64).reshape(-1, 2), features, index)


def remove_nodes(graph: RanGraph, removed) -> RanGraph:
    """Graph with the given nodes and all their incident edges removed.

    Surviving nodes keep their relative order and get fresh dense indices;
    the input graph is untouched.
    """
    keep = np.ones(graph.n, dtype=bool)
    keep[graph.rows_of(removed)] = False
    new_index = np.cumsum(keep) - 1
    kept = np.flatnonzero(keep)
    kept_ids = tuple(graph.ids[i] for i in kept.tolist())
    edges = graph.edge_array[keep[graph.edge_array].all(axis=1)]
    # the renumbering is monotone, so kept edges stay canonical and sorted
    return RanGraph(kept_ids, new_index[edges], graph.features.take_rows(kept))


@dataclass(frozen=True)
class NodeSplit:
    """Disjoint train/val/test cell lists, each in graph order."""

    train_nodes: tuple[CellId, ...]
    val_nodes: tuple[CellId, ...]
    test_nodes: tuple[CellId, ...]


def check_ratios(ratios) -> None:
    """Split ratios are three positive numbers (train, val, test) summing to 1."""
    if len(ratios) != 3:
        raise ValidationError(f"need 3 split ratios (train, val, test), got {len(ratios)}")
    if not all(r > 0 for r in ratios):
        raise ValidationError("split ratios must be positive")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValidationError(f"split ratios sum to {sum(ratios)}, not 1")


def split_nodes(graph: RanGraph, ratios, seed: int) -> NodeSplit:
    """Seeded uniform node split.

    Val/test sizes are floor(N * ratio); remainder nodes go to train. A
    split with no validation cell is refused; an empty test set is allowed.
    """
    check_ratios(ratios)
    _, val_r, test_r = ratios
    if graph.n < 3:
        raise ValidationError(f"cannot split a graph with {graph.n} nodes")

    n_val = int(np.floor(graph.n * val_r))
    if n_val == 0:
        raise ValidationError(
            f"a validation ratio of {val_r} leaves no validation cell among {graph.n} cells"
        )
    n_test = int(np.floor(graph.n * test_r))
    n_train = graph.n - n_val - n_test
    order = np.random.default_rng(seed).permutation(graph.n)
    parts = np.split(order, [n_train, n_train + n_val])
    return NodeSplit(*(tuple(graph.ids[i] for i in sorted(part.tolist())) for part in parts))
