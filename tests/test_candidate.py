import math

import numpy as np
import pytest

from conftest import adjacency_sets, make_graph
from geo_oracle import distances_to_all, geo_distance
from ran_topo.candidate import (
    EARTH_RADIUS_KM,
    CandidateConfig,
    GeoIndex,
    candidates,
    candidates_for_new,
    evaluate_candidates,
)
from ran_topo.config import SynthConfig
from ran_topo.errors import ValidationError
from ran_topo.graph import FeatureMatrix, build_graph
from ran_topo.synth import generate

KM_PER_DEGREE = 6371.0 * math.pi / 180.0  # 111.1949...


def brute_force_candidates(graph, query_idx, cfg):
    """Independent scan-sort-truncate oracle using pairwise geo_distance."""
    coords = graph.features.coords()
    scored = []
    for j in range(graph.n):
        if j == query_idx:
            continue
        d = geo_distance(coords[query_idx], coords[j])
        if d <= cfg.max_dist:
            scored.append((d, j))
    scored.sort()
    return [(graph.ids[j], d) for d, j in scored[: cfg.k]]


def scan_reference(coords, point, cfg, exclude=None):
    """The full scan the index replaces: every row's haversine distance, the
    distance cap and ``exclude``, a (distance, index) sort, the first K."""
    dist = distances_to_all(coords, point)
    keep = dist <= cfg.max_dist
    if exclude is not None:
        keep[exclude] = False
    idx = np.flatnonzero(keep)
    chosen = idx[np.lexsort((idx, dist[idx]))][: cfg.k]
    return chosen, dist[chosen]


def assert_same_as_scan(index, coords, point, cfg, exclude=None):
    """Same indices and distances of the same bits as the full scan."""
    got_idx, got_dist = index.query(point, cfg, exclude)
    want_idx, want_dist = scan_reference(coords, point, cfg, exclude)
    assert np.array_equal(got_idx, want_idx)
    assert np.array_equal(got_dist.view(np.int64), want_dist.view(np.int64))


def assert_same_candidates(got, expected):
    """Same ids in the same order; distances agree to float noise."""
    assert [cid for cid, _ in got] == [cid for cid, _ in expected]
    for (_, d1), (_, d2) in zip(got, expected):
        assert d1 == pytest.approx(d2, rel=1e-12, abs=1e-12)


class TestGeoDistance:
    def test_identity(self):
        assert geo_distance((12.0, 34.0), (12.0, 34.0)) == 0.0

    def test_one_degree_on_equator(self):
        d = geo_distance((0.0, 0.0), (0.0, 1.0))
        assert d == pytest.approx(KM_PER_DEGREE, abs=1e-9)
        assert d == pytest.approx(111.195, abs=1e-3)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            a = (rng.uniform(-90, 90), rng.uniform(-180, 180))
            b = (rng.uniform(-90, 90), rng.uniform(-180, 180))
            ab = geo_distance(a, b)
            ba = geo_distance(b, a)
            assert ab >= 0
            assert ab == pytest.approx(ba, rel=1e-12)


class TestCandidates:
    def equator_graph(self):
        return make_graph(4, [], coords=[(0, 0), (0, 0.01), (0, 0.02), (0, 0.05)])

    def test_k_and_distance_filter(self):
        g = self.equator_graph()
        result = candidates(g, "n0", CandidateConfig(k=2, max_dist=2.0))
        # cell at lon 0.02 is ~2.224 km away, beyond the 2 km cap
        assert [cid for cid, _ in result] == ["n1"]
        assert result[0][1] == pytest.approx(0.01 * KM_PER_DEGREE, abs=1e-9)

    def test_k_zero(self):
        g = self.equator_graph()
        assert candidates(g, "n0", CandidateConfig(k=0)) == []

    def test_filter_disabled(self):
        g = self.equator_graph()
        result = candidates(g, "n0", CandidateConfig(k=10))
        assert [cid for cid, _ in result] == ["n1", "n2", "n3"]

    def test_unknown_node(self):
        g = self.equator_graph()
        with pytest.raises(ValidationError, match="unknown cell id 'zz'"):
            candidates(g, "zz", CandidateConfig(k=1))

    def test_tie_break_by_index(self):
        g = make_graph(3, [], coords=[(0, 0), (0, 0.01), (0, -0.01)])
        result = candidates(g, "n0", CandidateConfig(k=2))
        assert [cid for cid, _ in result] == ["n1", "n2"]


class TestCandidatesForNew:
    def test_single_cell(self):
        g = make_graph(1, [], coords=[(0, 0)])
        result = candidates_for_new(g, (0.0, 0.0), CandidateConfig(k=5, max_dist=1.0))
        assert result == [("n0", 0.0)]

    def test_empty_graph(self):
        fm = FeatureMatrix(("lat", "lon"), np.empty((0, 2)))
        g = build_graph([], [], fm)
        assert candidates_for_new(g, (0.0, 0.0), CandidateConfig(k=5)) == []

    def test_matches_candidates_after_removal(self):
        from ran_topo.graph import remove_nodes

        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(3, 10))
            coords = [(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for _ in range(n)]
            g = make_graph(n, [], coords=coords)
            cfg = CandidateConfig(k=int(rng.integers(0, n)), max_dist=float(rng.uniform(10, 300)))
            via_node = candidates(g, "n0", cfg)
            without = remove_nodes(g, {"n0"})
            via_point = candidates_for_new(without, coords[0], cfg)
            assert_same_candidates(via_point, via_node)


class TestEvaluateCandidates:
    def test_unlimited_recall_one(self):
        g = make_graph(5, [(0, 1), (1, 2), (3, 4)], coords=[(0, 0.001 * i) for i in range(5)])
        report = evaluate_candidates(g, g.ids, CandidateConfig(k=10))
        assert report.recall == 1.0

    def test_k_zero_degenerate(self):
        g = make_graph(4, [(0, 1)])
        report = evaluate_candidates(g, g.ids, CandidateConfig(k=0))
        assert report.recall == 0.0
        assert report.precision == 0.0  # zero predicted positives

    def test_counts_match_exhaustive_enumeration(self):
        coords = [(0, 0), (0, 0.01), (0, 0.03), (0, 0.1)]
        edges = [(0, 1), (0, 3)]
        cases = [(make_graph(4, edges, coords=coords), range(4), CandidateConfig(k=2, max_dist=3.0))]
        # random graphs in a small box, with site-mates, scored on eval subsets
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            sites = np.column_stack([rng.uniform(57.0, 57.05, n), rng.uniform(12.0, 12.05, n)])
            coords = sites[rng.integers(0, n, n)].tolist()
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            edges = [pair for pair in pairs if rng.random() < 0.3]
            eval_idx = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()
            cfg = CandidateConfig(k=int(rng.integers(0, n + 1)), max_dist=float(rng.choice([0.0, 1.0, 3.0, math.inf])))
            cases.append((make_graph(n, edges, coords=coords), eval_idx, cfg))
        for g, eval_idx, cfg in cases:
            report = evaluate_candidates(g, [g.ids[i] for i in eval_idx], cfg)
            # independent oracle: per eval node, compare candidate set to true
            # neighbors over all ordered (eval, other) pairs, so a pair of two
            # eval nodes counts once per direction
            adjacency = adjacency_sets(g.n, g.edge_array.tolist())
            tp = fp = fn = pairs = 0
            for i in eval_idx:
                predicted = {cid for cid, _ in brute_force_candidates(g, i, cfg)}
                actual = {g.ids[j] for j in adjacency[i]}
                for j in range(g.n):
                    if i == j:
                        continue
                    pairs += 1
                    p, t = g.ids[j] in predicted, g.ids[j] in actual
                    tp += p and t
                    fp += p and not t
                    fn += t and not p
            assert (report.tp, report.fp, report.fn) == (tp, fp, fn)
            assert report.pairs == pairs == len(eval_idx) * (g.n - 1)
            assert report.tn == pairs - tp - fp - fn

    def test_empty_eval_set(self):
        g = make_graph(3, [(0, 1)])
        with pytest.raises(ValidationError, match="no evaluation nodes given"):
            evaluate_candidates(g, [], CandidateConfig(k=1))


class TestProperties:
    def random_instance(self, rng, max_nodes=40):
        n = int(rng.integers(2, max_nodes))
        coords = [
            (float(rng.uniform(-60, 60)), float(rng.uniform(-179, 179))) for _ in range(n)
        ]
        return make_graph(n, [], coords=coords)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            g = self.random_instance(rng)
            cfg = CandidateConfig(
                k=int(rng.integers(0, g.n + 2)),
                max_dist=float(rng.choice([math.inf, rng.uniform(0, 20000)])),
            )
            q = int(rng.integers(0, g.n))
            assert_same_candidates(
                candidates(g, g.ids[q], cfg), brute_force_candidates(g, q, cfg)
            )

    def test_monotone_in_k_and_m(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            g = self.random_instance(rng, max_nodes=20)
            k = int(rng.integers(0, g.n))
            m = float(rng.uniform(0, 5000))
            q = g.ids[int(rng.integers(0, g.n))]
            base = {cid for cid, _ in candidates(g, q, CandidateConfig(k=k, max_dist=m))}
            bigger_k = {cid for cid, _ in candidates(g, q, CandidateConfig(k=k + 3, max_dist=m))}
            bigger_m = {cid for cid, _ in candidates(g, q, CandidateConfig(k=k, max_dist=m * 2))}
            assert base <= bigger_k
            assert base <= bigger_m

    def test_recall_monotone(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(4, 15))
            coords = [(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for _ in range(n)]
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
            g = make_graph(n, edges, coords=coords)
            k = int(rng.integers(0, n))
            m = float(rng.uniform(0, 300))
            r1 = evaluate_candidates(g, g.ids, CandidateConfig(k=k, max_dist=m)).recall
            r2 = evaluate_candidates(g, g.ids, CandidateConfig(k=k + 2, max_dist=m)).recall
            r3 = evaluate_candidates(g, g.ids, CandidateConfig(k=k, max_dist=2 * m)).recall
            assert r2 >= r1
            assert r3 >= r1

    def test_distance_filter_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = self.random_instance(rng, max_nodes=15)
            m = float(rng.uniform(0, 10000))
            cfg = CandidateConfig(k=g.n, max_dist=m)  # K unlimited: pure distance filter
            sets = {node: {cid for cid, _ in candidates(g, node, cfg)} for node in g.ids}
            for a in g.ids:
                for b in sets[a]:
                    assert a in sets[b]


# the shipped planner filter, and caps around the sphere's half circumference
SHIPPED_FILTER = CandidateConfig(k=60, max_dist=4.0)
HALF_CIRCLE_KM = math.pi * EARTH_RADIUS_KM


@pytest.fixture(scope="module")
def predict_network_coords():
    """(lat, lon) of the 1,500-site, 7,443-cell network of the predict benchmark workload."""
    return generate(SynthConfig(sites=1500, bbox=(56.8, 59.036, 11.0, 15.472))).graph.features.coords()


class TestGeoIndexMatchesScan:
    def test_every_cell_of_the_predict_network(self, predict_network_coords):
        coords = predict_network_coords
        index = GeoIndex(coords)
        for i in range(len(coords)):
            assert_same_as_scan(index, coords, coords[i], SHIPPED_FILTER, exclude=i)

    @pytest.mark.parametrize("cfg", [SHIPPED_FILTER, CandidateConfig(k=60), CandidateConfig(k=0)],
                             ids=["shipped", "uncapped", "k0"])
    def test_query_rows_is_the_per_row_loop(self, predict_network_coords, cfg):
        coords = predict_network_coords
        index = GeoIndex(coords)
        rng = np.random.default_rng(9)
        # every row in a shuffled order; the uncapped scan reads every cell per
        # query, so it takes 300 random rows, repeats allowed
        capped = cfg.max_dist < math.inf
        rows = rng.permutation(len(coords)) if capped else rng.integers(0, len(coords), 300)
        got_rows, got_cand = index.query_rows(rows, cfg)
        want = [index.query(coords[r], cfg, exclude=r)[0] for r in rows.tolist()]
        assert got_rows.dtype == got_cand.dtype == np.int64
        assert np.array_equal(got_rows, np.repeat(rows, [len(w) for w in want]))
        assert np.array_equal(got_cand, np.concatenate([np.empty(0, dtype=np.int64), *want]))
        assert not (got_rows == got_cand).any()

    def test_query_rows_of_no_rows(self, predict_network_coords):
        got_rows, got_cand = GeoIndex(predict_network_coords).query_rows([], SHIPPED_FILTER)
        assert got_rows.shape == got_cand.shape == (0,)
        assert got_rows.dtype == got_cand.dtype == np.int64

    @pytest.mark.parametrize(
        "coords",
        [
            [(10.0, 179.9), (10.0, -179.9), (10.05, 179.95), (9.9, -179.97), (10.0, 0.0)],
            [(89.9, 0.0), (89.9, 90.0), (89.9, -179.0), (-89.9, 10.0), (-89.9, -170.0)],
            [(1.0, 2.0)] * 4 + [(1.0, 2.001)] * 3 + [(1.0, 1.999)] * 2,
            [(0.0, 0.0)],
            np.empty((0, 2)),
        ],
        ids=["antimeridian", "poles", "site_mates", "one_cell", "no_cells"],
    )
    @pytest.mark.parametrize(
        "k,max_dist",
        [(0, 4.0), (2, 0.0), (3, 15.0), (3, 2000.0), (4, HALF_CIRCLE_KM), (4, 30000.0),
         (2, math.inf), (100, math.inf), (100, 4.0)],
    )
    def test_edge_cases(self, coords, k, max_dist):
        coords = np.asarray(coords, dtype=float).reshape(-1, 2)
        index = GeoIndex(coords)
        cfg = CandidateConfig(k=k, max_dist=max_dist)
        for i in range(len(coords)):
            assert_same_as_scan(index, coords, coords[i], cfg, exclude=i)
            assert_same_as_scan(index, coords, coords[i], cfg)
        for point in [(10.0, 180.0), (10.0, -180.0), (89.95, 45.0), (-90.0, 0.0), (1.0, 2.0005), (0.0, 0.0)]:
            assert_same_as_scan(index, coords, point, cfg)

    def test_random_points_in_a_dense_box(self):
        rng = np.random.default_rng(6)
        coords = np.column_stack([rng.uniform(57.0, 57.1, 400), rng.uniform(12.0, 12.1, 400)])
        coords[200:] = coords[rng.integers(0, 200, 200)]  # site-mates: distance-0 ties
        index = GeoIndex(coords)
        points = np.column_stack([rng.uniform(56.95, 57.15, 50), rng.uniform(11.95, 12.15, 50)])
        for cfg in [SHIPPED_FILTER, CandidateConfig(k=5, max_dist=1.0), CandidateConfig(k=60),
                    CandidateConfig(k=3, max_dist=0.0), CandidateConfig(k=1000, max_dist=20000.0)]:
            for point in points:
                assert_same_as_scan(index, coords, point, cfg)
            for i in range(0, len(coords), 7):
                assert_same_as_scan(index, coords, coords[i], cfg, exclude=i)

    def test_band_edges_and_query_rows_against_the_scan(self):
        """Caps that fall exactly on a cell's distance, points on the band's
        latitude edges, no cap and an excluded row: the scan's order and bits."""
        rng = np.random.default_rng(29)
        coords = np.column_stack([rng.uniform(-60.0, 60.0, 300), rng.uniform(-180.0, 180.0, 300)])
        coords[150:200, 0] = coords[100:150, 0]  # shared latitudes: ties at the band's edges
        index = GeoIndex(coords)
        for i in rng.integers(0, len(coords), 25).tolist():
            dist = distances_to_all(coords, coords[i])
            edge = float(np.sort(dist)[10])  # a cap on which a cell lies exactly
            for cfg in [CandidateConfig(k=8, max_dist=edge), CandidateConfig(k=8, max_dist=np.nextafter(edge, 0.0)),
                        CandidateConfig(k=400, max_dist=edge), CandidateConfig(k=7, max_dist=math.inf),
                        CandidateConfig(k=400, max_dist=math.inf)]:
                assert_same_as_scan(index, coords, coords[i], cfg, exclude=i)
                assert_same_as_scan(index, coords, coords[i], cfg)
                # a point one cap north or south of the cell: the cell on the band's edge
                span = math.degrees(min(cfg.max_dist, 1e4) / EARTH_RADIUS_KM)
                for lat in (coords[i, 0] + span, coords[i, 0] - span):
                    assert_same_as_scan(index, coords, (min(max(lat, -90.0), 90.0), coords[i, 1]), cfg)
        for point in np.column_stack([rng.uniform(-70.0, 70.0, 40), rng.uniform(-180.0, 180.0, 40)]):
            assert_same_as_scan(index, coords, point, CandidateConfig(k=50, max_dist=3000.0))
        rows = rng.integers(0, len(coords), 60)
        for cfg in [CandidateConfig(k=5, max_dist=2000.0), CandidateConfig(k=300, max_dist=math.inf)]:
            got_rows, got_cand = index.query_rows(rows, cfg)
            want = [scan_reference(coords, coords[r], cfg, exclude=r)[0] for r in rows.tolist()]
            assert np.array_equal(got_rows, np.repeat(rows, [len(w) for w in want]))
            assert np.array_equal(got_cand, np.concatenate(want))


class TestGeoIndexRefusesBadCoordinates:
    @pytest.mark.parametrize(
        "bad", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf), (90.5, 0.0), (-91.0, 0.0)]
    )
    def test_bad_graph_coordinates(self, bad):
        g = make_graph(2, [], coords=[(0.0, 0.0), bad])
        with pytest.raises(ValidationError):
            candidates(g, "n0", CandidateConfig(k=1))

    @pytest.mark.parametrize(
        "bad", [(math.nan, 0.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0), (90.5, 0.0), (-91.0, 0.0)]
    )
    def test_bad_query_point(self, bad):
        g = make_graph(2, [], coords=[(0.0, 0.0), (0.0, 0.01)])
        for cfg in [CandidateConfig(k=0), CandidateConfig(k=1), CandidateConfig(k=1, max_dist=4.0)]:
            with pytest.raises(ValidationError):
                candidates_for_new(g, bad, cfg)
