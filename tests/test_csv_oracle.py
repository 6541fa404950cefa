"""The network reader and writers against ``csv_oracle``, their plain
per-field reference: the same ids, feature bits, edge and CSR arrays,
errors and written bytes."""

import json
from pathlib import Path

import numpy as np
import pytest

import csv_oracle
from conftest import make_features
from ran_topo import synth
from ran_topo.config import DROP_ROW, FILL_COLUMN_MEAN, SynthConfig
from ran_topo.data_io import open_input, parse_cells_csv, read_network, write_cells_csv, write_edges_csv
from ran_topo.errors import ValidationError
from ran_topo.graph import FeatureMatrix, build_graph

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
POLICIES = (None, DROP_ROW, FILL_COLUMN_MEAN)
CELLS_HEADER = "cell_id,lat,lon,f1\n"
EDGES_HEADER = "cell_id_a,cell_id_b\n"


def outcome(fn, *args):
    """``fn(*args)``, or the message of the ValidationError it raises."""
    try:
        return fn(*args)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


def assert_same_graph(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got.ids == want.ids
    assert got.features.columns == want.features.columns
    assert got.features.coord_cols == want.features.coord_cols
    assert np.array_equal(got.features.values.view(np.int64), want.features.values.view(np.int64))
    for name in ("edge_array", "indptr", "indices", "degree"):
        assert getattr(got, name).dtype == np.int64, name
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def write_files(tmp_path, cells, edges):
    """(cells.csv, edges.csv) holding the given bytes or UTF-8 texts."""
    paths = tmp_path / "cells.csv", tmp_path / "edges.csv"
    for path, content in zip(paths, (cells, edges)):
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    return paths


def parsed_cells(parse, path):
    """(ids, columns, feature bits) that ``parse`` reads from a cells.csv, or its error."""
    def read():
        with open_input(path) as fh:
            return parse(fh)

    got = outcome(read)
    return got if isinstance(got, str) else (got[0], got[1].columns, got[1].values.view(np.int64).tolist())


def assert_read_like_oracle(paths):
    # the parsed features keep their missing values, so their NaN bits show
    assert parsed_cells(parse_cells_csv, paths[0]) == parsed_cells(csv_oracle.parse_cells, paths[0])
    for policy in POLICIES:
        assert_same_graph(outcome(read_network, *paths, policy), outcome(csv_oracle.read_network, *paths, policy))


@pytest.fixture(scope="module", params=["default.json", "site-mean-variant.json"])
def shipped(request, tmp_path_factory):
    """The synthetic network of a shipped config, exported."""
    obj = json.loads((CONFIGS / request.param).read_text())
    out = tmp_path_factory.mktemp(request.param.split(".")[0])
    synth.export(synth.generate(SynthConfig.from_dict(obj["data"]["synthetic"])), out)
    return out


class TestShippedNetworks:
    def test_read(self, shipped):
        paths = shipped / "cells.csv", shipped / "edges.csv"
        assert_read_like_oracle(paths)
        assert not isinstance(outcome(read_network, *paths), str)

    def test_written_bytes(self, shipped, tmp_path):
        graph = read_network(shipped / "cells.csv", shipped / "edges.csv")
        write_cells_csv(tmp_path / "cells.csv", graph.ids, graph.features)
        csv_oracle.write_cells(tmp_path / "oracle.csv", graph.ids, graph.features)
        assert (tmp_path / "cells.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert (tmp_path / "cells.csv").read_bytes() == (shipped / "cells.csv").read_bytes()
        assert graph.edge_list() == csv_oracle.edge_list(graph)
        write_edges_csv(tmp_path / "edges.csv", graph.edge_list())
        assert (tmp_path / "edges.csv").read_bytes() == (shipped / "edges.csv").read_bytes()


READ_CASES = {
    "crlf_bom_blank_lines": (
        b"\xef\xbb\xbfcell_id,lat,lon,f1\r\na,0,0,1\r\n\r\nb,1,1,2\r\n \r\nc,2,2,3\r\n",
        b"\xef\xbb\xbfcell_id_a,cell_id_b\r\na,b\r\n\r\nc,b\r\nb,a\r\n",
    ),
    "quoted_ids": (
        CELLS_HEADER + '"a,1",0,0,1\n"b\nc",1,1,2\n" d ",2,2,3\n',
        EDGES_HEADER + '"a,1","b\nc"\nd,"a,1"\n"b\nc", d \n',
    ),
    "integer_ids": (CELLS_HEADER + "10,0,0,1\n2,1,1,2\n3,2,2,3\n", EDGES_HEADER + "10,2\n2,10\n3,2\n"),
    "missing_fields": (
        CELLS_HEADER + "a,0,0,\nb,nan,1,2\nc,2,inf,3\nd,3,3,1e400\ne,4,4, 1.5 \nf,5,5,abc\n"
        "g,6,6,-nan\nh,7,7,-inf\ni,8,8,1_5\nj,9,9,7\n",
        EDGES_HEADER + "a,b\nb,c\nc,d\ni,j\ne,f\n",
    ),
    "empty_column": (CELLS_HEADER + "a,0,0,\nb,1,1,x\n", EDGES_HEADER + "a,b\n"),
    "header_only": (CELLS_HEADER, EDGES_HEADER),
    "wrong_field_count": (CELLS_HEADER + "a,0,0,1\nb,1,1\n", EDGES_HEADER),
    "wrong_field_count_after_multiline_id": (CELLS_HEADER + '"a\nb",0,0,1\nc,1,1\n', EDGES_HEADER),
    "duplicate_id": (CELLS_HEADER + "a,0,0,1\nb,1,1,2\n a ,2,2,3\n", EDGES_HEADER),
    "empty_id": (CELLS_HEADER + "a,0,0,1\n ,1,1,2\n", EDGES_HEADER),
    "coordinate_out_of_range": (CELLS_HEADER + "a,0,0,1\nb,95,1,2\nc,1\n", EDGES_HEADER),
    "longitude_out_of_range_beside_infinite_latitude": (CELLS_HEADER + "a,inf,-181,1\n", EDGES_HEADER),
    "infinite_coordinates_are_missing": (CELLS_HEADER + "a,inf,-inf,1\nb,1e400,1,2\n", EDGES_HEADER),
    "bad_header": ("id,lat,lon\na,0,0\n", EDGES_HEADER),
    "bad_edges_header": (CELLS_HEADER + "a,0,0,1\n", "a,b\n"),
    "unknown_endpoint": (CELLS_HEADER + "a,0,0,1\nb,1,1,2\n", EDGES_HEADER + "a,b\nb,x\nx,a\n"),
    "unknown_first_endpoint": (CELLS_HEADER + "a,0,0,1\nb,1,1,2\n", EDGES_HEADER + "x,y\n"),
    "self_loop": (CELLS_HEADER + "a,0,0,1\nb,1,1,2\n", EDGES_HEADER + "a,b\nb,b\n"),
    "self_loop_before_unknown_endpoint": (CELLS_HEADER + "a,0,0,1\nb,1,1,2\n", EDGES_HEADER + "a,a\nb,x\n"),
    "unknown_self_loop": (CELLS_HEADER + "a,0,0,1\n", EDGES_HEADER + "x,x\n"),
    "malformed_line_after_unknown_endpoint": (
        CELLS_HEADER + "a,0,0,1\nb,1,1,2\n", EDGES_HEADER + "a,x\nb,a\na\n",
    ),
    "empty_edge_field": (CELLS_HEADER + "a,0,0,1\nb,1,1,2\n", EDGES_HEADER + "a,b\n , a\n"),
    "missing_value_and_unknown_endpoint": (CELLS_HEADER + "a,0,0,\nb,1,1,2\n", EDGES_HEADER + "a,x\n"),
    "missing_value_and_malformed_line": (CELLS_HEADER + "a,0,0,\nb,1,1,2\n", EDGES_HEADER + "a,b,c\n"),
    "not_utf8": (b"cell_id,lat,lon,f1\n\xff,0,0,1\n", EDGES_HEADER),
}


@pytest.mark.parametrize("case", sorted(READ_CASES))
def test_read_like_oracle(tmp_path, case):
    assert_read_like_oracle(write_files(tmp_path, *READ_CASES[case]))


@pytest.mark.parametrize(
    "case, policy, ids, edges",
    [
        ("crlf_bom_blank_lines", None, ("a", "b", "c"), [("a", "b"), ("b", "c")]),
        ("quoted_ids", None, ("a,1", "b\nc", "d"), [("a,1", "b\nc"), ("a,1", "d"), ("b\nc", "d")]),
        ("integer_ids", None, ("10", "2", "3"), [("10", "2"), ("2", "3")]),
        ("header_only", None, (), []),
        ("infinite_coordinates_are_missing", DROP_ROW, (), []),
    ],
)
def test_case_graphs(tmp_path, case, policy, ids, edges):
    """The cases above that read a graph read the one their names say."""
    graph = read_network(*write_files(tmp_path, *READ_CASES[case]), policy)
    assert (graph.ids, graph.edge_list()) == (ids, edges)


@pytest.mark.parametrize(
    "case, message",
    [
        ("wrong_field_count_after_multiline_id", "line 4: expected 4 fields, got 3"),
        ("coordinate_out_of_range", r"line 3: latitude 95.0 outside \[-90, 90\]"),
        ("longitude_out_of_range_beside_infinite_latitude", r"line 2: longitude -181.0 outside \[-180, 180\]"),
        ("self_loop_before_unknown_endpoint", "self-loop on node 'a'"),
        ("malformed_line_after_unknown_endpoint", "line 4: expected two cell ids"),
        ("missing_value_and_unknown_endpoint", "input has missing feature values"),
    ],
)
def test_case_messages(tmp_path, case, message):
    """The cases above raise what their names say (not only what the oracle does)."""
    with pytest.raises(ValidationError, match=message):
        read_network(*write_files(tmp_path, *READ_CASES[case]))


def test_missing_values_follow_the_policy(tmp_path):
    paths = write_files(tmp_path, *READ_CASES["missing_fields"])
    assert read_network(*paths, DROP_ROW).ids == ("e", "i", "j")
    filled = read_network(*paths, FILL_COLUMN_MEAN)
    assert filled.features.values[[4, 8], 2].tolist() == [1.5, 15.0]


@pytest.mark.parametrize(
    "nodes, edges",
    [
        (["a", "b", "c"], [("a", "b"), ("b", "a"), ("c", "b")]),
        ([10, 20, 30], [(30, 10), (10, 20), [20, 30]]),
        (["a", "b"], [("a", "c"), ("b", "b")]),
        (["a", "b"], [("b", "b"), ("a", "c")]),
        (["a", "b"], [("c", "c")]),
        (["a", "a"], [("a", "b")]),
        (["a", "b", "c"], []),
    ],
)
def test_build_graph_like_oracle(nodes, edges):
    features = make_features([(0.0, float(i)) for i in range(len(nodes))])
    assert_same_graph(outcome(build_graph, nodes, edges, features), outcome(csv_oracle.build_graph, nodes, edges, features))
    assert_same_graph(
        outcome(build_graph, nodes, iter(edges), features), outcome(csv_oracle.build_graph, nodes, edges, features)
    )


def test_written_bytes_like_oracle(tmp_path):
    values = np.array(
        [
            [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324],
            [0.1 + 0.2, 1e300, -1e-300, 2.0**53, np.finfo(float).max, 1.0 / 3.0],
            [57.0, 11.5, 123456789.125, -7.0, 1e16, 1e-5],
        ]
    )
    features = FeatureMatrix(("lat", "lon", "a", "b", "c", "d"), values)
    for ids in (["a", "b,1", 'c "q"\nd'], [1, 2, 3]):
        write_cells_csv(tmp_path / "cells.csv", ids, features)
        csv_oracle.write_cells(tmp_path / "oracle.csv", ids, features)
        assert (tmp_path / "cells.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
