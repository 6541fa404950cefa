import csv
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import adjacency_sets, csr_neighbors, edge_set
from geo_oracle import geo_distance
from ran_topo.data_io import read_network
from ran_topo.errors import ValidationError
from ran_topo.graph import build_graph
from ran_topo.synth import (
    BAND_RULE,
    FEATURE_COLUMNS,
    SITE_MEAN_RULE,
    GroundTruth,
    SynthConfig,
    export,
    generate,
)


def brute_force_edges(gt: GroundTruth, cfg: SynthConfig) -> set:
    """Independent O(N^2) re-evaluation of the oracle rule ``cfg`` names."""
    g = gt.graph
    x = g.features.values
    coords = g.features.coords()
    band = g.features.values[:, g.features.columns.index("band")]
    tx = g.features.values[:, g.features.columns.index("tx_power")]
    site = np.array(gt.site_of)

    mate_mean = np.zeros(g.n)
    for s in set(gt.site_of):
        members = np.flatnonzero(site == s)
        if len(members) >= 2:
            total = tx[members].sum()
            mate_mean[members] = (total - tx[members]) / (len(members) - 1)

    edges = set()
    for a, b in itertools.combinations(range(g.n), 2):
        if site[a] == site[b]:
            edges.add((a, b))
            continue
        d = geo_distance(coords[a], coords[b])
        if d > cfg.radius_km:
            continue
        if cfg.edge_rule == BAND_RULE:
            if abs(band[a] - band[b]) <= 1:
                edges.add((a, b))
        else:
            if mate_mean[a] + mate_mean[b] >= cfg.site_mean_threshold:
                edges.add((a, b))
    _ = x
    return edges


def small_config(**overrides):
    base = dict(
        sites=12,
        cells_per_site=(2, 4),
        bbox=(57.0, 57.1, 11.5, 11.7),
        radius_km=4.0,
        bands=4,
        feature_noise=1.0,
        seed=3,
    )
    base.update(overrides)
    return SynthConfig(**base)


def _shipped_synthetic(name):
    path = Path(__file__).resolve().parent.parent / "configs" / name
    return SynthConfig.from_dict(json.loads(path.read_text())["data"]["synthetic"])


# SynthConfig fields per case; each brute-force test sets the edge rule
BRUTE_FORCE_CASES = {
    **{f"seed_{seed}": vars(small_config(seed=seed)) for seed in (21, 22, 23, 24)},
    # the site-mate mean of a cell alone at its site is 0
    "one_cell_sites": vars(small_config(cells_per_site=(1, 3), sites=20, seed=25)),
    # every site pair is within the radius
    "all_sites_near": vars(small_config(bbox=(57.0, 57.01, 11.5, 11.51), seed=26)),
    # the criterion-5 network: 60 sites, about 300 cells
    "site_mean_variant": vars(_shipped_synthetic("site-mean-variant.json")),
}


class TestRules:
    def test_far_sites_only_intra_edges(self):
        cfg = small_config(sites=2, bbox=(50.0, 59.0, 5.0, 25.0), radius_km=5.0, seed=8)
        gt = generate(cfg)
        site = np.array(gt.site_of)
        for i, j in gt.graph.edge_array.tolist():
            assert site[i] == site[j]

    def test_colocated_same_band_complete(self):
        # a tiny box forces all sites within the radius; with one band every
        # inter-site pair within distance gets an edge
        cfg = small_config(
            sites=3,
            bbox=(57.0, 57.0001, 11.5, 11.5001),
            radius_km=5.0,
            bands=1,
            seed=9,
        )
        gt = generate(cfg)
        n = gt.graph.n
        assert gt.graph.num_edges == n * (n - 1) // 2

    @pytest.mark.parametrize("case", sorted(BRUTE_FORCE_CASES))
    def test_band_rule_brute_force(self, case):
        cfg = SynthConfig(**{**BRUTE_FORCE_CASES[case], "edge_rule": BAND_RULE})
        gt = generate(cfg)
        expected = brute_force_edges(gt, cfg)
        assert edge_set(gt.graph) == expected
        assert csr_neighbors(gt.graph) == adjacency_sets(gt.graph.n, expected)
        assert gt.graph.num_edges > 0

    @pytest.mark.parametrize("case", sorted(BRUTE_FORCE_CASES))
    def test_site_mean_rule_brute_force(self, case):
        cfg = SynthConfig(**{**BRUTE_FORCE_CASES[case], "edge_rule": SITE_MEAN_RULE})
        gt = generate(cfg)
        expected = brute_force_edges(gt, cfg)
        assert edge_set(gt.graph) == expected
        assert csr_neighbors(gt.graph) == adjacency_sets(gt.graph.n, expected)

    def test_small_radius_gives_site_cliques(self):
        cfg = small_config(radius_km=1e-6, seed=10)
        gt = generate(cfg)
        site = np.array(gt.site_of)
        coords = gt.graph.features.coords()
        # applies when no two sites are within the radius
        min_inter = min(
            geo_distance(coords[i], coords[j])
            for i, j in itertools.combinations(range(gt.graph.n), 2)
            if site[i] != site[j]
        )
        assert min_inter > cfg.radius_km
        expected = sum(
            int(c) * (int(c) - 1) // 2
            for c in np.bincount(site)
        )
        assert gt.graph.num_edges == expected


class TestGeneration:
    def test_deterministic(self):
        a = generate(small_config())
        b = generate(small_config())
        assert a.graph.ids == b.graph.ids
        assert np.array_equal(a.graph.edge_array, b.graph.edge_array)
        assert np.array_equal(a.graph.features.values, b.graph.features.values)

    def test_feature_schema(self):
        gt = generate(small_config())
        assert gt.graph.features.columns == FEATURE_COLUMNS
        band = gt.graph.features.values[:, gt.graph.features.columns.index("band")]
        assert np.all((band >= 0) & (band < small_config().bands))
        assert np.array_equal(band, band.astype(int))

    def test_cells_share_site_coordinates(self):
        gt = generate(small_config())
        coords = gt.graph.features.coords()
        site = np.array(gt.site_of)
        for s in set(gt.site_of):
            members = np.flatnonzero(site == s)
            assert np.all(coords[members] == coords[members[0]])

    def test_graph_invariants(self):
        gt = generate(small_config(seed=30))
        g = gt.graph
        rows = csr_neighbors(g)
        for i, j in edge_set(g):
            assert i != j
            assert j in rows[i]
            assert i in rows[j]
        assert g.features.n_rows == g.n

    def test_bad_configs(self):
        for obj, refusal in (
            ({"sites": 1}, "sites must be >= 2"),
            ({"radius_km": 0.0}, "radius_km must be > 0"),
            ({"radius_km": float("nan")}, "radius_km must be > 0"),
            ({"bbox": [70.0, 80.0, 0.0, 1.0]}, r"bbox must lie within \|lat\| <= 60"),
            ({"edge_rule": "magic"}, "unknown edge rule 'magic'"),
            ({"unknown_field": 1}, r"unknown config keys \['unknown_field'\]"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"feature_noise": float("inf")}, "feature_noise must be finite and >= 0"),
            ({"site_mean_threshold": float("nan")}, "site_mean_threshold must be finite"),
            ({"site_mean_threshold": float("inf")}, "site_mean_threshold must be finite"),
        ):
            with pytest.raises(ValidationError, match=refusal):
                SynthConfig.from_dict(obj)
        for obj in ([1, 2], "sites", None):
            with pytest.raises(ValidationError, match="config must be a JSON object"):
                SynthConfig.from_dict(obj)
        # a field of the wrong JSON type
        for obj in (
            {"sites": "ten"}, {"sites": 1e9}, {"sites": 300.0}, {"sites": True},
            {"bands": 2.5}, {"seed": "0"},
            {"bbox": [1, 2]}, {"bbox": [56.8, 57.8, 11.0, "13"]}, {"bbox": "box"},
            {"cells_per_site": [3]}, {"cells_per_site": [3, 7.5]}, {"cells_per_site": 3},
            {"radius_km": "4"}, {"feature_noise": [1.0]}, {"site_mean_threshold": None},
        ):
            field = next(iter(obj))
            with pytest.raises(ValidationError, match=f"config.{field} has the wrong JSON type or length"):
                SynthConfig.from_dict(obj)


class TestExport:
    def test_round_trip(self, tmp_path):
        """The generator builds its edge array from index pairs; re-reading the
        export, by read_network or by build_graph over the files' id pairs,
        gives the same canonical graph, under both rules and on a network of
        a few hundred sites."""
        for name, cfg in (
            ("band", small_config(seed=40)),
            ("site_mean", small_config(seed=40, edge_rule=SITE_MEAN_RULE)),
            ("300_sites", SynthConfig(sites=300, seed=40)),
        ):
            gt = generate(cfg)
            (tmp_path / name).mkdir()
            export(gt, tmp_path / name)
            read = read_network(tmp_path / name / "cells.csv", tmp_path / name / "edges.csv")
            with open(tmp_path / name / "edges.csv", newline="") as fh:
                pairs = [tuple(row) for row in csv.reader(fh)][1:]
            ids = list(read.ids)
            for rebuilt in (read, build_graph(ids, pairs, read.features)):
                assert rebuilt.ids == gt.graph.ids
                assert np.array_equal(rebuilt.edge_array, gt.graph.edge_array), name
                assert np.array_equal(rebuilt.features.values, gt.graph.features.values)
            assert gt.graph.rows_of(ids[::-1]).tolist() == list(range(len(ids)))[::-1]

    def test_empty_edges_header_only(self, tmp_path):
        cfg = small_config(
            sites=2, cells_per_site=(1, 1), bbox=(50.0, 59.0, 5.0, 25.0),
            radius_km=1e-6, seed=11,
        )
        gt = generate(cfg)
        assert gt.graph.num_edges == 0
        export(gt, tmp_path)
        assert (tmp_path / "edges.csv").read_text() == "cell_id_a,cell_id_b\n"

    def test_export_deterministic_bytes(self, tmp_path):
        gt = generate(small_config(seed=41))
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        export(gt, dir_a)
        export(generate(small_config(seed=41)), dir_b)
        assert (dir_a / "cells.csv").read_bytes() == (dir_b / "cells.csv").read_bytes()
        assert (dir_a / "edges.csv").read_bytes() == (dir_b / "edges.csv").read_bytes()
