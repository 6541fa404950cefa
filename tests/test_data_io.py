import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import ran_topo
from conftest import edge_set, make_features
from ran_topo import synth
from ran_topo.config import DROP_ROW, FILL_COLUMN_MEAN, SynthConfig
from ran_topo.data_io import (
    NormParams,
    decode_json,
    fill_column_means,
    finite_vector,
    parse_cells_csv,
    parse_edges_csv,
    parse_new_cell,
    read_network,
    write_cells_csv,
    write_edges_csv,
    zscore_apply,
    zscore_fit,
)
from ran_topo.errors import ValidationError
from ran_topo.graph import FeatureMatrix

# population std of [1, 2, 3]: sqrt(((1-2)^2 + 0 + (3-2)^2) / 3)
STD_123 = math.sqrt(2.0 / 3.0)


def write_network(tmp_path, cells_text, edges_text="cell_id_a,cell_id_b\n"):
    """(cells.csv, edges.csv) paths holding the given texts."""
    cells, edges = tmp_path / "cells.csv", tmp_path / "edges.csv"
    cells.write_text(cells_text)
    edges.write_text(edges_text)
    return cells, edges


class TestParseCells:
    def test_single_row(self):
        ids, fm = parse_cells_csv(io.StringIO("cell_id,lat,lon,f1\na,0,0,1.5\n"))
        assert ids == ["a"]
        assert fm.columns == ("lat", "lon", "f1")
        assert fm.values.tolist() == [[0.0, 0.0, 1.5]]
        assert not np.isnan(fm.values).any()

    def test_duplicate_id(self):
        text = "cell_id,lat,lon,f1\na,0,0,1\na,1,1,2\n"
        with pytest.raises(ValidationError, match="line 3: duplicate cell id 'a'"):
            parse_cells_csv(io.StringIO(text))

    @pytest.mark.parametrize("cell_id", ["", "  "], ids=["empty", "whitespace"])
    def test_blank_id(self, cell_id):
        # no edges.csv row can name a blank cell, so the row is refused
        with pytest.raises(ValidationError, match="line 3: empty cell id"):
            parse_cells_csv(io.StringIO(f"cell_id,lat,lon,f1\na,0,0,1\n{cell_id},57.01,12,2\n"))

    def test_bad_coordinate(self):
        with pytest.raises(ValidationError, match=r"line 2: latitude 95.0 outside \[-90, 90\]"):
            parse_cells_csv(io.StringIO("cell_id,lat,lon,f1\na,95,0,1.0\n"))

    def test_missing_header(self):
        with pytest.raises(ValidationError, match="cells.csv must start with 'cell_id,lat,lon"):
            parse_cells_csv(io.StringIO("id,x,y\na,0,0\n"))

    def test_coordinate_columns_come_first(self):
        with pytest.raises(ValidationError, match="cells.csv columns 2 and 3 must be 'lat,lon'"):
            parse_cells_csv(io.StringIO("cell_id,lon,lat,f1\na,0,0,1\n"))

    def test_wrong_field_count(self):
        with pytest.raises(ValidationError, match="line 2: expected 4 fields, got 3"):
            parse_cells_csv(io.StringIO("cell_id,lat,lon,f1\na,0,0\n"))

    def test_line_numbers_are_file_lines(self):
        # the quoted id spans lines 2 and 3, so the short row is on line 4
        with pytest.raises(ValidationError, match="line 4: expected 4 fields, got 3"):
            parse_cells_csv(io.StringIO('cell_id,lat,lon,f1\n"a\nb",0,0,1\nc,0,0\n'))

    def test_blank_lines_skipped(self):
        ids, fm = parse_cells_csv(io.StringIO("cell_id,lat,lon,f1\n\na,0,0,1\n \n"))
        assert ids == ["a"] and fm.values.tolist() == [[0.0, 0.0, 1.0]]

    def test_missing_values_masked(self):
        ids, fm = parse_cells_csv(io.StringIO("cell_id,lat,lon,f1\na,0,0,\nb,1,1,2\n"))
        # NaN is the one mark of a missing value
        assert np.isnan(fm.values).tolist() == [[False, False, True], [False, False, False]]

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf", "1e400", "abc"])
    def test_non_finite_values_masked(self, tmp_path, field):
        text = f"cell_id,lat,lon,f1\na,0,0,{field}\nb,{field},1,2\n"
        ids, fm = parse_cells_csv(io.StringIO(text))
        assert np.isnan(fm.values).tolist() == [[False, False, True], [True, False, False]]
        # a missing value follows the missing-data policy like an empty field
        assert fill_column_means(fm).values.tolist() == [[0.0, 0.0, 2.0], [0.0, 1.0, 2.0]]
        paths = write_network(tmp_path, text)
        filled = read_network(*paths, FILL_COLUMN_MEAN)
        assert filled.features.values.tolist() == [[0.0, 0.0, 2.0], [0.0, 1.0, 2.0]]
        assert read_network(*paths, DROP_ROW).ids == ()


class TestParseNewCell:
    FEATURES = FeatureMatrix(("lat", "lon", "f1"), np.zeros((1, 3)))

    def test_row_in_column_order(self):
        fm = parse_new_cell({"f1": 2, "lon": 11.5, "lat": "57.25", "extra": "ignored"}, self.FEATURES)
        assert fm.columns == ("lat", "lon", "f1")
        assert fm.values.tolist() == [[57.25, 11.5, 2.0]]
        assert fm.coords().tolist() == [[57.25, 11.5]]

    def test_coordinate_range_is_the_csv_check(self):
        with pytest.raises(ValidationError, match="new cell: latitude 95.0 outside"):
            parse_new_cell({"lat": 95.0, "lon": 11.5, "f1": 1.0}, self.FEATURES)


class TestParseEdges:
    def test_single_pair(self):
        rows = parse_edges_csv(io.StringIO("cell_id_a,cell_id_b\na,b\n"), {"a": 0, "b": 1})
        assert rows.dtype == np.int64 and rows.tolist() == [[0, 1]]

    def test_empty_body(self):
        assert parse_edges_csv(io.StringIO("cell_id_a,cell_id_b\n"), {}).shape == (0, 2)

    def test_blank_lines_skipped(self):
        rows = parse_edges_csv(io.StringIO("cell_id_a,cell_id_b\n\na,b\n \n"), {"a": 0, "b": 1})
        assert rows.tolist() == [[0, 1]]

    def test_fields_are_stripped(self):
        rows = parse_edges_csv(io.StringIO('cell_id_a,cell_id_b\n a ,"b "\n'), {"a": 0, "b": 1})
        assert rows.tolist() == [[0, 1]]

    def test_unlisted_ids_join_the_index(self):
        index = {"a": 0, "b": 1}
        rows = parse_edges_csv(io.StringIO("cell_id_a,cell_id_b\na,x\ny,x\nb,a\n"), index)
        assert rows.tolist() == [[0, 2], [3, 2], [1, 0]]
        assert index == {"a": 0, "b": 1, "x": 2, "y": 3}

    def test_malformed_line(self):
        with pytest.raises(ValidationError, match="line 2: expected two cell ids"):
            parse_edges_csv(io.StringIO("cell_id_a,cell_id_b\na\n"), {"a": 0})

    def test_line_numbers_are_file_lines(self):
        with pytest.raises(ValidationError, match="line 4: expected two cell ids"):
            parse_edges_csv(io.StringIO('cell_id_a,cell_id_b\n"a\nb",c\nd\n'), {})

    def test_missing_header(self):
        with pytest.raises(ValidationError, match="edges.csv must start with 'cell_id_a,cell_id_b'"):
            parse_edges_csv(io.StringIO("a,b\nc,d\n"), {})


class TestMissingPolicy:
    # b misses its f0 value; its edges are a-b and b-c
    CELLS = "cell_id,lat,lon,f0\na,0,0,1\nb,0,1,\nc,0,2,3\nd,0,3,5\n"
    EDGES = "cell_id_a,cell_id_b\na,b\nb,c\nc,d\na,d\n"

    def test_fill_column_mean(self, tmp_path):
        fm = make_features([(0, 0), (0, 1), (0, 2)], extra=[[1.0], [math.nan], [3.0]])
        out = fill_column_means(fm)
        # mean of {1, 3} = 2; the rows keep their order
        assert out.values.tolist() == [[0.0, 0.0, 1.0], [0.0, 1.0, 2.0], [0.0, 2.0, 3.0]]
        assert (out.columns, out.coord_cols) == (fm.columns, fm.coord_cols)
        graph = read_network(*write_network(tmp_path, self.CELLS, self.EDGES), FILL_COLUMN_MEAN)
        assert graph.ids == ("a", "b", "c", "d")
        assert graph.features.values[:, 2].tolist() == [1.0, 3.0, 3.0, 5.0]  # mean of {1, 3, 5}
        assert edge_set(graph) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_drop_row(self, tmp_path):
        graph = read_network(*write_network(tmp_path, self.CELLS, self.EDGES), DROP_ROW)
        # b and its edges go; a, c, d keep their order and get fresh indices
        assert graph.ids == ("a", "c", "d")
        assert graph.features.values.tolist() == [[0.0, 0.0, 1.0], [0.0, 2.0, 3.0], [0.0, 3.0, 5.0]]
        assert edge_set(graph) == {(1, 2), (0, 2)}

    def test_no_missing_identity(self, tmp_path):
        paths = write_network(tmp_path, self.CELLS.replace("b,0,1,", "b,0,1,2"), self.EDGES)
        plain = read_network(*paths)
        for policy in (DROP_ROW, FILL_COLUMN_MEAN):
            graph = read_network(*paths, policy)
            assert graph.ids == plain.ids
            assert graph.edge_array.tolist() == plain.edge_array.tolist()
            assert graph.features.values.tolist() == plain.features.values.tolist()

    def test_policy_is_the_config_string(self, tmp_path):
        # the JSON value itself, as a library caller passes it
        paths = write_network(tmp_path, self.CELLS, self.EDGES)
        filled = read_network(*paths, "fill_column_mean")
        assert filled.ids == ("a", "b", "c", "d")
        assert filled.features.values[1].tolist() == [0.0, 1.0, 3.0]
        assert not np.isnan(filled.features.values).any()
        assert read_network(*paths, "drop_row").ids == ("a", "c", "d")

    @pytest.mark.parametrize("policy", ["zap", "DROP_ROW", ""])
    def test_unknown_policy_raises(self, tmp_path, policy):
        paths = write_network(tmp_path, self.CELLS, self.EDGES)
        with pytest.raises(ValidationError, match=f"unknown missing_policy '{policy}'"):
            read_network(*paths, policy)

    def test_read_graph_holds_its_id_map(self, tmp_path):
        paths = write_network(tmp_path, self.CELLS.replace("b,0,1,", "b,0,1,2"), self.EDGES)
        for policy in (None, FILL_COLUMN_MEAN):
            graph = read_network(*paths, policy)
            assert graph.__dict__["_index"] == {"a": 0, "b": 1, "c": 2, "d": 3}

    def test_fill_preserves_non_missing_bits(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(10, 4))
        mask = rng.random((10, 4)) < 0.2
        mask[:, 0] = False  # keep a valid column somewhere
        values[mask] = math.nan
        fm = FeatureMatrix(("lat", "lon", "a", "b"), values)
        out = fill_column_means(fm)
        assert np.array_equal(out.values[~mask], fm.values[~mask])
        assert not np.isnan(out.values).any()

    def test_all_missing_column(self):
        fm = make_features([(0, 0), (0, 1)], extra=[[math.nan], [math.nan]])
        with pytest.raises(ValidationError, match="column 'f0' has no values"):
            fill_column_means(fm)

    def test_zero_rows_not_refused(self):
        fm = FeatureMatrix(("lat", "lon", "f0"), np.empty((0, 3)))
        assert fill_column_means(fm).values.shape == (0, 3)


class TestZScore:
    def test_fit_values(self):
        fm = make_features([(0, 0), (0, 1), (0, 2)], extra=[[1.0], [2.0], [3.0]])
        params = zscore_fit(fm, [0, 1, 2])
        assert params.mean[2] == 2.0
        assert params.std[2] == pytest.approx(STD_123, abs=1e-12)

    def test_constant_column(self):
        fm = make_features([(0, 0), (0, 1), (0, 2)], extra=[[5.0], [5.0], [5.0]])
        params = zscore_fit(fm, [0, 1, 2])
        assert params.mean[2] == 5.0
        assert params.std[2] == 0.0
        out = zscore_apply(params, fm)
        assert np.all(out.values[:, 2] == 0.0)

    def test_single_row(self):
        fm = make_features([(3, 4)], extra=[[7.0]])
        params = zscore_fit(fm, [0])
        assert params.mean.tolist() == [3.0, 4.0, 7.0]
        assert params.std.tolist() == [0.0, 0.0, 0.0]

    def test_apply_values(self):
        fm = make_features([(0, 0), (0, 1), (0, 2)], extra=[[1.0], [2.0], [3.0]])
        params = zscore_fit(fm, [0, 1, 2])
        out = zscore_apply(params, fm)
        expected = [(x - 2.0) / STD_123 for x in (1.0, 2.0, 3.0)]
        assert out.values[:, 2] == pytest.approx(expected, abs=1e-12)
        assert out.values[0, 2] == pytest.approx(-1.22474, abs=1e-5)

    def test_identity_params(self):
        fm = make_features([(0, 0), (0, 1)], extra=[[1.5], [-0.5]])
        params = NormParams(fm.columns, np.zeros(3), np.ones(3))
        out = zscore_apply(params, fm)
        assert np.array_equal(out.values, fm.values)

    def test_column_mismatch(self):
        fm = make_features([(0, 0)], extra=[[1.0]])
        params = NormParams(("lat", "lon", "other"), np.zeros(3), np.ones(3))
        with pytest.raises(ValidationError, match="normalization columns .* != features"):
            zscore_apply(params, fm)

    def test_empty_rows(self):
        fm = make_features([(0, 0)], extra=[[1.0]])
        with pytest.raises(ValidationError, match="cannot fit normalization on an empty row set"):
            zscore_fit(fm, [])

    def test_fit_apply_standardizes(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            values = rng.normal(size=(rng.integers(2, 30), 4)) * rng.uniform(0.1, 50)
            fm = FeatureMatrix(("lat", "lon", "a", "b"), np.clip(values, -89, 89))
            rows = list(range(fm.n_rows))
            out = zscore_apply(zscore_fit(fm, rows), fm)
            nondegenerate = fm.values.std(axis=0) > 1e-12
            assert np.all(np.abs(out.values[:, nondegenerate].mean(axis=0)) < 1e-9)
            assert np.all(np.abs(out.values[:, nondegenerate].std(axis=0) - 1.0) < 1e-9)

    def test_affine_shift(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(20, 3))
        fm = FeatureMatrix(("lat", "lon", "a"), values)
        params = zscore_fit(fm, range(20))
        shift = 3.75
        shifted = FeatureMatrix(fm.columns, values + shift)
        a = zscore_apply(params, shifted).values
        b = zscore_apply(params, fm).values + shift / params.std
        assert np.allclose(a, b, atol=1e-12)

    def test_norm_params_json_round_trip(self):
        params = NormParams(("lat", "lon", "a"), np.array([0.1, -2.0, 3.3333333333333335]), np.array([1.0, 0.5, 7.1]))
        back = NormParams.from_json(params.to_json())
        assert back.columns == params.columns
        assert np.array_equal(back.mean, params.mean)
        assert np.array_equal(back.std, params.std)


class TestJsonRules:
    def test_decode_json_names_what_it_decodes(self):
        assert decode_json('{"a": [1, 2.5]}', "params file") == {"a": [1, 2.5]}
        with pytest.raises(ValidationError, match=r"^norm params file is not valid JSON: Expecting"):
            decode_json("{", "norm params file")

    @pytest.mark.parametrize(
        "value, message",
        [
            (["x", 1.0], "is not a list of numbers"),
            ([[1.0, 2.0], 3.0], "is not a list of numbers"),
            ({"a": 1}, "is not a list of numbers"),
            ([[1.0, 2.0]], "must be a flat list"),
            (5.0, "must be a flat list"),
            (None, "must be a flat list"),
            ([1.0, math.nan], "has non-finite values"),
            ([math.inf], "has non-finite values"),
            ([1e308, -1e309], "has non-finite values"),
        ],
    )
    def test_finite_vector_refuses(self, value, message):
        with pytest.raises(ValidationError, match=rf"^norm params 'mean' {message}$"):
            finite_vector(value, "norm params 'mean'")

    def test_finite_vector_keeps_the_values(self):
        vec = finite_vector([0.1, -2, 3e-300], "data")
        assert vec.dtype == np.float64 and vec.shape == (3,)
        assert vec.tolist() == [0.1, -2.0, 3e-300]
        assert finite_vector([], "data").shape == (0,)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda obj: "[", "norm params file is not valid JSON"),
            (lambda obj: obj.update(mean=[0.0, "x"]), "norm params 'mean' is not a list of numbers"),
            (lambda obj: obj.update(std=[[1.0, 1.0]]), "norm params 'std' must be a flat list"),
            (lambda obj: obj.update(std=[1.0, math.inf]), "norm params 'std' has non-finite values"),
            (lambda obj: obj.update(mean=[0.0]), "norm params 'mean' needs 2 values, one per column"),
        ],
    )
    def test_norm_params_refusals(self, change, message):
        obj = {"columns": ["lat", "lon"], "mean": [0.0, 1.0], "std": [1.0, 2.0]}
        text = change(obj)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            NormParams.from_json(json.dumps(obj) if text is None else text)


class TestRoundTrip:
    def test_cells_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        values = np.hstack(
            [rng.uniform(-60, 60, (15, 1)), rng.uniform(-180, 180, (15, 1)), rng.normal(size=(15, 3))]
        )
        fm = FeatureMatrix(("lat", "lon", "a", "b", "c"), values)
        ids = [f"cell{i}" for i in range(15)]
        write_cells_csv(tmp_path / "cells.csv", ids, fm)
        with open(tmp_path / "cells.csv") as fh:
            ids2, fm2 = parse_cells_csv(fh)
        assert ids2 == ids
        assert fm2.columns == fm.columns
        assert np.array_equal(fm2.values, fm.values)
        assert not np.isnan(fm2.values).any()

    def test_edges_round_trip(self, tmp_path):
        write_edges_csv(tmp_path / "edges.csv", [("a", "b"), ("c", "d")])
        assert (tmp_path / "edges.csv").read_bytes() == b"cell_id_a,cell_id_b\na,b\nc,d\n"
        with open(tmp_path / "edges.csv") as fh:
            assert parse_edges_csv(fh, {"a": 0, "b": 1, "c": 2, "d": 3}).tolist() == [[0, 1], [2, 3]]

    def test_non_ascii_network_round_trips_under_an_ascii_locale(self, tmp_path):
        # the writers write UTF-8, the encoding the reader takes, whatever the
        # locale's: under the C locale with no UTF-8 mode, Python's default is ASCII
        code = """if True:
            import codecs, locale, sys
            import numpy as np
            from ran_topo.data_io import read_network, write_cells_csv, write_edges_csv
            from ran_topo.graph import FeatureMatrix
            assert codecs.lookup(locale.getpreferredencoding(False)).name == "ascii"
            out = sys.argv[1]
            ids = ["Z\\u00fcrich-1", "Z\\u00fcrich-2", "G\\u00f6teborg-1"]
            values = np.array([[47.4, 8.5, 408.0], [47.4, 8.6, 1.5], [57.7, 12.0, 3.0]])
            features = FeatureMatrix(("lat", "lon", "h\\u00f6he_m"), values)
            write_cells_csv(out + "/cells.csv", ids, features)
            write_edges_csv(out + "/edges.csv", [(ids[0], ids[2]), (ids[1], ids[0])])
            graph = read_network(out + "/cells.csv", out + "/edges.csv")
            assert graph.ids == tuple(ids) and graph.features.columns == features.columns
            assert np.array_equal(graph.features.values, values)
            assert graph.edge_list() == [(ids[0], ids[1]), (ids[0], ids[2])]
        """
        src = os.path.dirname(os.path.dirname(ran_topo.__file__))
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        graph = read_network(tmp_path / "cells.csv", tmp_path / "edges.csv")
        assert graph.ids == ("Zürich-1", "Zürich-2", "Göteborg-1")
        assert graph.features.columns == ("lat", "lon", "höhe_m")


class TestReadNetworkLimits:
    @pytest.mark.parametrize("name", ["cells.csv", "edges.csv"])
    def test_oversized_field_names_file_and_line(self, tmp_path, name):
        # over the csv module's 131,072-character field limit
        huge = '"' + "x" * 140_000 + '"'
        texts = {"cells.csv": "cell_id,lat,lon,f1\na,0,0,1\n", "edges.csv": "cell_id_a,cell_id_b\na,a\n"}
        texts[name] += f"{huge},0,0,1\n" if name == "cells.csv" else f"{huge},a\n"
        paths = write_network(tmp_path, texts["cells.csv"], texts["edges.csv"])
        path = tmp_path / name
        with pytest.raises(ValidationError, match=f"^{path}: line 3: field larger than field limit"):
            read_network(*paths)

    def test_peak_memory_on_a_1500_site_network(self, tmp_path):
        """Reading the 7,443-cell, 25,795-edge network allocates no Python
        object per edge or per value: its traced peak stays under 6 MB."""
        gt = synth.generate(SynthConfig(sites=1500, bbox=(56.8, 59.036, 11.0, 15.472)))
        synth.export(gt, tmp_path)
        tracemalloc.start()
        try:
            graph = read_network(tmp_path / "cells.csv", tmp_path / "edges.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (graph.n, graph.num_edges) == (7443, 25795)
        assert peak < 6_000_000, f"read_network peak {peak / 1e6:.2f} MB"
