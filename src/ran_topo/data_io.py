"""CSV/JSON ingestion of cells and relations, missing-data handling, and
z-score normalization with train-only statistics. ``open_input`` opens
every input file, ``read_network`` is the one reader of a network's files
(``fill_column_means`` fills missing values before it builds the graph,
``remove_nodes`` drops their rows after), ``write_csv`` the one CSV writer
and ``write_text`` the one writer of JSON files.
``decode_json`` decodes every JSON input (configs, ``--new-cell``, params and
norm-params files) and ``finite_vector`` checks its lists of numbers (each
params array's ``data``, the norm params' ``mean`` and ``std``).

File formats:
  cells.csv  header ``cell_id,lat,lon,<feature names...>``, UTF-8, ``.``
             decimal separator; an empty, non-numeric or non-finite
             field is a missing value.
  edges.csv  header ``cell_id_a,cell_id_b``.
  norm_params.json  ``{"columns": [...], "mean": [...], "std": [...]}``.
An error in cells.csv or edges.csv names its file line; a quoted field
that spans lines counts each line it spans.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .config import DROP_ROW, FILL_COLUMN_MEAN
from .errors import ValidationError
from .graph import CellId, FeatureMatrix, RanGraph, graph_from_rows, remove_nodes

# std below this is treated as a constant column and normalizes to zero
DEGENERATE_STD = 1e-12


@contextmanager
def open_input(path):
    """``path`` opened as UTF-8 text, the encoding of every input file, with
    a leading byte-order mark skipped; bytes that are not UTF-8 raise
    ValidationError naming the file."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path} is not UTF-8 text ({exc.reason})") from None


def decode_json(text: str, what: str):
    """The value JSON ``text`` holds; other text raises ValidationError naming ``what``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from None


def finite_vector(value, what: str) -> np.ndarray:
    """A JSON list of numbers as a 1-D finite float64 array; else ValidationError naming ``what``."""
    try:
        vec = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} is not a list of numbers") from None
    if vec.ndim != 1:
        raise ValidationError(f"{what} must be a flat list")
    if not np.isfinite(vec).all():
        raise ValidationError(f"{what} has non-finite values")
    return vec


def _number(value) -> float:
    """float(value), or NaN, a missing value, where that fails, is not finite
    or ``value`` is a boolean (JSON true and false are no numbers)."""
    if isinstance(value, bool):
        return math.nan
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan
    return number if math.isfinite(number) else math.nan


def _check_coordinates(lat: float, lon: float, where: str) -> None:
    """Latitude in [-90, 90], longitude in [-180, 180]; a missing (NaN) one passes."""
    if lat < -90.0 or lat > 90.0:
        raise ValidationError(f"{where}latitude {lat} outside [-90, 90]")
    if lon < -180.0 or lon > 180.0:
        raise ValidationError(f"{where}longitude {lon} outside [-180, 180]")


@contextmanager
def _records(source):
    """``csv.reader`` over an open text file; a ``csv.Error`` (a field over
    the csv module's size limit, say) raises ValidationError naming the file
    and the line."""
    reader = csv.reader(source)
    try:
        yield reader
    except csv.Error as exc:
        name = getattr(source, "name", "input")
        raise ValidationError(f"{name}: line {reader.line_num}: {exc}") from None


def _is_blank(row) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def parse_cells_csv(source) -> tuple[list[CellId], FeatureMatrix]:
    """Read an open cells.csv text file into (ids, features).

    Row order is preserved. A field that is empty, non-numeric or not finite
    (``nan``, ``inf``, ``1e400``) is missing and reads as NaN, the one mark
    of a missing value. Present coordinates must lie in valid ranges. An
    error names its file line.
    """
    with _records(source) as reader:
        header = next(reader, None)
        if not header or header[0].strip() != "cell_id" or len(header) < 3:
            raise ValidationError("cells.csv must start with 'cell_id,lat,lon,...'")
        columns = tuple(name.strip() for name in header[1:])
        if columns[:2] != ("lat", "lon"):
            raise ValidationError("cells.csv columns 2 and 3 must be 'lat,lon'")

        ids: list[CellId] = []
        seen = set()
        flat = array("d")  # the rows' values, row after row
        for row in reader:
            if len(row) != len(header):
                if _is_blank(row):  # at most one field, never a full row
                    continue
                raise ValidationError(
                    f"line {reader.line_num}: expected {len(header)} fields, got {len(row)}"
                )
            cell_id = row[0].strip()
            if not cell_id:
                raise ValidationError(f"line {reader.line_num}: empty cell id")
            if cell_id in seen:
                raise ValidationError(f"line {reader.line_num}: duplicate cell id {cell_id!r}")
            seen.add(cell_id)
            ids.append(cell_id)

            fields = row[1:]
            try:
                values = [*map(float, fields)]
            except ValueError:  # an empty or non-numeric field: the per-field rule
                values = [*map(_number, fields)]
            lat, lon = values[0], values[1]
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                _check_coordinates(_number(lat), _number(lon), f"line {reader.line_num}: ")
            flat.fromlist(values)

    values = np.frombuffer(flat, dtype=np.float64).reshape(-1, len(columns))
    values[~np.isfinite(values)] = np.nan
    return ids, FeatureMatrix(columns, values)


def parse_new_cell(obj, features: FeatureMatrix) -> FeatureMatrix:
    """The raw features of a not-yet-deployed cell, given as a JSON object
    keyed like ``features``' columns, as a one-row matrix in their order.

    Anything but an object holding every column as a finite number (a
    numeric string is one, a JSON boolean is not), with coordinates in
    range, raises ValidationError.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"new cell must be a JSON object, got {type(obj).__name__}")
    missing = [name for name in features.columns if name not in obj]
    if missing:
        raise ValidationError(f"new cell is missing features {missing}")
    row = np.array([_number(obj[name]) for name in features.columns])
    bad = [name for name, value in zip(features.columns, row) if math.isnan(value)]
    if bad:
        raise ValidationError(f"new cell features {bad} are not finite numbers")
    lat, lon = row[list(features.coord_cols)]
    _check_coordinates(lat, lon, "new cell: ")
    return FeatureMatrix(features.columns, row[None, :], features.coord_cols)


def parse_edges_csv(source, index: dict) -> np.ndarray:
    """Read an open edges.csv text file into the (E, 2) int64 rows that
    ``index`` maps its id pairs to, verbatim: dedup and the refusal of an
    unlisted id or a self-loop are ``graph_from_rows``' job.

    ``index`` maps stripped ids, as ``parse_cells_csv`` reads them, to rows.
    An id it lacks is added to it at the next free row, for
    ``graph_from_rows`` to name. An error names its file line.
    """
    with _records(source) as reader:
        header = next(reader, None)
        if not header or [h.strip() for h in header] != ["cell_id_a", "cell_id_b"]:
            raise ValidationError("edges.csv must start with 'cell_id_a,cell_id_b'")
        flat = []
        for row in reader:
            try:  # the common row: two listed ids, written as the cells file has them
                a, b = row
                flat += (index[a], index[b])
            except (ValueError, KeyError):
                if len(row) != 2 or not (a := row[0].strip()) or not (b := row[1].strip()):
                    if _is_blank(row):
                        continue
                    raise ValidationError(f"line {reader.line_num}: expected two cell ids") from None
                flat += (index.setdefault(a, len(index)), index.setdefault(b, len(index)))
    return np.array(flat, dtype=np.int64).reshape(-1, 2)


def write_csv(path, header, rows) -> None:
    """Write ``header`` then ``rows`` to a new UTF-8 CSV file at ``path``, with
    "\n" line endings: the one CSV writer of the package."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_text(path, text: str) -> None:
    """Write ``text`` and a newline to a new UTF-8 file: the one JSON file writer."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_cells_csv(path, ids, features: FeatureMatrix) -> None:
    """Serialize cells to CSV; csv writes each float as its repr, the
    shortest decimal that round-trips exactly."""
    write_csv(
        path,
        ["cell_id", *features.columns],
        ([cell_id, *row.tolist()] for cell_id, row in zip(ids, features.values)),
    )


def write_edges_csv(path, edges) -> None:
    write_csv(path, ["cell_id_a", "cell_id_b"], edges)


def fill_column_means(features: FeatureMatrix) -> FeatureMatrix:
    """``features`` with each missing (NaN) entry replaced by the mean of the
    present entries of its column; present entries keep their bits. A column
    with missing entries and no present one raises ValidationError."""
    values = features.values.copy()
    mask = np.isnan(values)
    for k in np.flatnonzero(mask.any(axis=0)):
        if mask[:, k].all():
            raise ValidationError(f"column {features.columns[k]!r} has no values")
        values[mask[:, k], k] = values[~mask[:, k], k].mean()
    return FeatureMatrix(features.columns, values, features.coord_cols)


def read_network(cells_path, edges_path, policy: str | None = None) -> RanGraph:
    """The network in a cells.csv and an edges.csv file: the one reader.

    Every edge must name two listed cells. With no policy a missing feature
    value raises ValidationError. The ``missing_policy`` ``"fill_column_mean"``
    fills it by ``fill_column_means``; ``"drop_row"`` drops every cell with
    one, and the cell's edges with it, keeping the other cells in file order.
    Any other policy raises ValidationError.
    """
    if policy not in (None, DROP_ROW, FILL_COLUMN_MEAN):
        raise ValidationError(f"unknown missing_policy {policy!r}")
    with open_input(cells_path) as fh:
        ids, features = parse_cells_csv(fh)
    index = dict(zip(ids, range(len(ids))))
    with open_input(edges_path) as fh:
        edges = parse_edges_csv(fh, index)
    missing = np.isnan(features.values).any(axis=1)
    if policy is None and missing.any():
        raise ValidationError(
            "input has missing feature values; run them through an experiment "
            "config with a missing_policy instead"
        )
    if policy == FILL_COLUMN_MEAN:
        features = fill_column_means(features)
    graph = graph_from_rows(tuple(ids), edges, features, index)
    if policy == DROP_ROW:
        graph = remove_nodes(graph, [ids[i] for i in np.flatnonzero(missing)])
    return graph


@dataclass(frozen=True)
class NormParams:
    """Per-column z-score statistics (population std)."""

    columns: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    def to_json(self) -> str:
        return json.dumps(
            {
                "columns": list(self.columns),
                "mean": self.mean.tolist(),
                "std": self.std.tolist(),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "NormParams":
        """Inverse of to_json; a malformed file raises ValidationError.

        Needs string column names and one finite mean and one finite,
        non-negative std per column (zscore_fit writes std 0 for a constant
        column, which zscore_apply maps to zero).
        """
        obj = decode_json(text, "norm params file")
        columns = obj.get("columns") if isinstance(obj, dict) else None
        if not isinstance(columns, list) or not all(isinstance(c, str) for c in columns):
            raise ValidationError("norm params need a list of column names")
        stats = {}
        for name in ("mean", "std"):
            stats[name] = finite_vector(obj.get(name), f"norm params {name!r}")
            if len(stats[name]) != len(columns):
                raise ValidationError(f"norm params {name!r} needs {len(columns)} values, one per column")
        if (stats["std"] < 0).any():
            raise ValidationError("norm params 'std' has negative values")
        return cls(tuple(columns), stats["mean"], stats["std"])


def zscore_fit(features: FeatureMatrix, rows) -> NormParams:
    """Fit per-column mean and population std over the given rows only."""
    rows = sorted(rows)
    if not rows:
        raise ValidationError("cannot fit normalization on an empty row set")
    sub = features.values[rows]
    return NormParams(
        columns=features.columns,
        mean=sub.mean(axis=0),
        std=sub.std(axis=0),  # population (1/N) std
    )


def zscore_apply(params: NormParams, features: FeatureMatrix) -> FeatureMatrix:
    """(x - mean) / std per column; near-constant columns map to zero."""
    if params.columns != features.columns:
        raise ValidationError(
            f"normalization columns {params.columns} != features {features.columns}"
        )
    safe_std = np.where(params.std < DEGENERATE_STD, 1.0, params.std)
    out = (features.values - params.mean) / safe_std
    out[:, params.std < DEGENERATE_STD] = 0.0
    return FeatureMatrix(features.columns, out, features.coord_cols)
