"""The network reading and writing the tests check the package's fast paths
against, written the plain way: ``parse_cells`` converts field by field
with the missing-value rule, ``parse_edges`` keeps each edge as a pair of id
strings, ``build_graph`` maps the pairs to rows one tuple at a time and
``write_cells`` formats each value with ``format_float``. ``read_network``
composes them in the package's order of checks, the reference for its
graphs and its errors. Error line numbers are file lines.
"""

from __future__ import annotations

import csv

import numpy as np

from ran_topo.config import DROP_ROW, FILL_COLUMN_MEAN
from ran_topo.data_io import _check_coordinates, _number, fill_column_means, open_input, write_csv
from ran_topo.errors import ValidationError
from ran_topo.graph import FeatureMatrix, RanGraph, key_pairs, pair_keys, remove_nodes, unique_keys


def _blank(row) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def parse_cells(source):
    """(ids, features) of an open cells.csv text file."""
    reader = csv.reader(source)
    header = next(reader, None)
    if not header or header[0].strip() != "cell_id" or len(header) < 3:
        raise ValidationError("cells.csv must start with 'cell_id,lat,lon,...'")
    columns = tuple(name.strip() for name in header[1:])
    if columns[:2] != ("lat", "lon"):
        raise ValidationError("cells.csv columns 2 and 3 must be 'lat,lon'")
    ids, seen, rows = [], set(), []
    for row in reader:
        if _blank(row):
            continue
        line = reader.line_num
        if len(row) != len(header):
            raise ValidationError(f"line {line}: expected {len(header)} fields, got {len(row)}")
        cell_id = row[0].strip()
        if not cell_id:
            raise ValidationError(f"line {line}: empty cell id")
        if cell_id in seen:
            raise ValidationError(f"line {line}: duplicate cell id {cell_id!r}")
        seen.add(cell_id)
        ids.append(cell_id)
        values = np.array([_number(field) for field in row[1:]])
        _check_coordinates(values[0], values[1], f"line {line}: ")
        rows.append(values)
    values = np.array(rows) if rows else np.empty((0, len(columns)))
    return ids, FeatureMatrix(columns, values)


def parse_edges(source) -> list[tuple[str, str]]:
    """The (a, b) id pairs of an open edges.csv text file, in file order."""
    reader = csv.reader(source)
    header = next(reader, None)
    if not header or [h.strip() for h in header] != ["cell_id_a", "cell_id_b"]:
        raise ValidationError("edges.csv must start with 'cell_id_a,cell_id_b'")
    pairs = []
    for row in reader:
        if _blank(row):
            continue
        if len(row) != 2 or not row[0].strip() or not row[1].strip():
            raise ValidationError(f"line {reader.line_num}: expected two cell ids")
        pairs.append((row[0].strip(), row[1].strip()))
    return pairs


def build_graph(nodes, edges, features: FeatureMatrix) -> RanGraph:
    """The canonical graph of cell ids and (a, b) id pairs; the first edge
    that names an unlisted id or is a self-loop is refused."""
    ids = tuple(nodes)
    index = {}
    for i, node_id in enumerate(ids):
        if node_id in index:
            raise ValidationError(f"duplicate node id {node_id!r}")
        index[node_id] = i
    if features.n_rows != len(ids):
        raise ValidationError(f"{features.n_rows} feature rows for {len(ids)} nodes")
    named = [tuple(edge) for edge in edges]
    ends = np.array([(index.get(a, -1), index.get(b, -1)) for a, b in named], dtype=np.int64).reshape(-1, 2)
    bad = (ends < 0).any(axis=1) | (ends[:, 0] == ends[:, 1])
    if bad.any():
        a, b = named[int(np.argmax(bad))]
        for node in (a, b):
            if node not in index:
                raise ValidationError(f"edge endpoint {node!r} is not a node")
        raise ValidationError(f"self-loop on node {a!r}")
    keys = unique_keys(pair_keys(ends[:, 0], ends[:, 1], len(ids)))
    return RanGraph(ids, key_pairs(keys, len(ids)), features)


def read_network(cells_path, edges_path, policy: str | None = None) -> RanGraph:
    """``data_io.read_network`` through the functions above."""
    if policy not in (None, DROP_ROW, FILL_COLUMN_MEAN):
        raise ValidationError(f"unknown missing_policy {policy!r}")
    with open_input(cells_path) as fh:
        ids, features = parse_cells(fh)
    with open_input(edges_path) as fh:
        pairs = parse_edges(fh)
    missing = np.isnan(features.values).any(axis=1)
    if policy is None and missing.any():
        raise ValidationError(
            "input has missing feature values; run them through an experiment "
            "config with a missing_policy instead"
        )
    if policy == FILL_COLUMN_MEAN:
        features = fill_column_means(features)
    graph = build_graph(ids, pairs, features)
    if policy == DROP_ROW:
        graph = remove_nodes(graph, [ids[i] for i in np.flatnonzero(missing)])
    return graph


def format_float(x) -> str:
    # repr gives the shortest decimal that round-trips exactly
    return repr(float(x))


def write_cells(path, ids, features: FeatureMatrix) -> None:
    """cells.csv of ids and features, each value formatted on its own."""
    write_csv(
        path,
        ["cell_id", *features.columns],
        ([cell_id, *map(format_float, row)] for cell_id, row in zip(ids, features.values)),
    )


def edge_list(graph: RanGraph) -> list:
    """The graph's edges as id pairs, sorted by index pair."""
    return [(graph.ids[i], graph.ids[j]) for i, j in graph.edge_array.tolist()]
