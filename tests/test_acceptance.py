"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
``criterion N: PASS/FAIL`` line with the measured values.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import rankdata

from conftest import adjacency_sets, csr_neighbors, edge_set, make_graph
from geo_oracle import geo_distance
from grad_oracle import grad_check, make_loss_fn
from ran_topo import models, pipeline
from ran_topo.candidate import CandidateConfig, candidates, evaluate_candidates
from ran_topo.cli import main as cli_main
from ran_topo.config import ExperimentConfig
from ran_topo.synth import SITE_MEAN_RULE, SynthConfig, generate


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def run_default_experiment(ratios):
    cfg = ExperimentConfig().to_dict()
    cfg["split"]["ratios"] = list(ratios)
    return pipeline.run_experiment(ExperimentConfig.from_dict(cfg))


@pytest.fixture(scope="session")
def default_run():
    return run_default_experiment((0.9, 0.05, 0.05))


@pytest.fixture(scope="session")
def alt_split_run():
    return run_default_experiment((0.8, 0.1, 0.1))


class TestCriterion1:
    def test_criterion_1_gradient_correctness(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(100)
        worst = 0.0
        checks = 0
        for kind in ("mlp", "gnn"):
            for dims in ({"k": 8, "hidden": 64, "embed": 64}, {"k": 3, "hidden": 4, "embed": 4}):
                graph = make_graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
                x = rng.normal(size=(6, dims["k"]))
                pairs = np.array([[0, 1], [2, 5], [3, 4], [1, 4]])
                labels = np.array([1.0, 0.0, 1.0, 0.0])
                loss_fn = make_loss_fn(
                    kind, x, pairs, labels,
                    graph=graph if kind == "gnn" else None,
                )
                for seed in range(20):
                    init = models.init_params(kind, seed=seed, **dims)
                    # jitter every parameter (biases included) so no ReLU
                    # pre-activation sits exactly on its kink, where a
                    # finite difference is not a valid derivative estimate
                    d = {
                        name: arr + rng.normal(scale=0.05, size=arr.shape)
                        for name, arr in init.items()
                    }
                    params = models.params_from_dict(kind, d)
                    _, grads = models.loss_and_grads(
                        params, models.model_input(params, x, graph), pairs, labels,
                    )
                    result = grad_check(loss_fn, d, grads, tolerance=1e-4)
                    worst = max(worst, result.worst_rel_error)
                    checks += 1
                    assert result.passed, (
                        f"{kind} dims={dims} seed={seed}: "
                        f"{result.worst_param} rel err {result.worst_rel_error:.2e}"
                    )
        elapsed = time.monotonic() - t0
        ok = checks == 80 and elapsed < 30.0
        report(1, ok, f"{checks} grad checks, worst rel err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2:
    @staticmethod
    def brute_candidates(graph, q, cfg):
        coords = graph.features.coords()
        scored = []
        for j in range(graph.n):
            if j == q:
                continue
            d = geo_distance(tuple(coords[q]), tuple(coords[j]))
            if d <= cfg.max_dist:
                scored.append((d, j))
        scored.sort()
        return [(graph.ids[j], d) for d, j in scored[: cfg.k]]

    @staticmethod
    def brute_auc(scores, labels):
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        gt = 0
        eq = 0
        for p in pos:
            gt += int(np.sum(p > neg))
            eq += int(np.sum(p == neg))
        return (gt + 0.5 * eq) / (len(pos) * len(neg))

    def test_criterion_2_oracle_equivalence(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(200)
        for trial in range(100):
            n = int(rng.integers(5, 501))
            coords = np.column_stack(
                [rng.uniform(-60, 60, size=n), rng.uniform(-179, 179, size=n)]
            )
            g = make_graph(n, [], coords=coords)
            cfg = CandidateConfig(
                k=int(rng.integers(0, n + 1)),
                max_dist=float(rng.choice([math.inf, rng.uniform(100, 15000)])),
            )
            q = int(rng.integers(0, n))
            got = candidates(g, g.ids[q], cfg)
            expected = self.brute_candidates(g, q, cfg)
            assert [c for c, _ in got] == [c for c, _ in expected], f"trial {trial}"

        for trial in range(100):
            n = int(rng.integers(2, 10001))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            # coarse grid forces ties
            scores = np.round(rng.random(n), 2)
            assert pipeline.auc(scores, labels) == self.brute_auc(scores, labels), (
                f"auc trial {trial}"
            )
        elapsed = time.monotonic() - t0
        ok = elapsed < 60.0
        report(2, ok, f"100 candidate graphs + 100 score sets exact, {elapsed:.1f}s")


class TestCriterion3:
    def test_criterion_3_candidate_recall(self):
        t0 = time.monotonic()
        cfg = ExperimentConfig().to_dict()
        synth_cfg = SynthConfig.from_dict(cfg["data"]["synthetic"])
        graph = generate(synth_cfg).graph
        from ran_topo.graph import split_nodes

        split = split_nodes(
            graph, (0.9, 0.05, 0.05), seed=pipeline.subseed(cfg["seed"], "split")
        )
        unlimited = evaluate_candidates(
            graph, split.val_nodes, CandidateConfig(k=graph.n)
        )
        shrunk = evaluate_candidates(
            graph, split.val_nodes,
            CandidateConfig(k=graph.n, max_dist=synth_cfg.radius_km / 2.0),
        )
        elapsed = time.monotonic() - t0
        ok = unlimited.recall == 1.0 and shrunk.recall < 1.0 and elapsed < 10.0
        report(
            3,
            ok,
            f"unlimited recall {unlimited.recall:.3f}, m=r/2 recall "
            f"{shrunk.recall:.3f}, {elapsed:.1f}s on {graph.n} cells",
        )


class TestCriterion4:
    def test_criterion_4_balanced_accuracy(self, default_run):
        t0 = time.monotonic()
        epochs = ExperimentConfig().to_dict()["train"]["epochs"]
        accs = {
            kind: default_run.model_reports[(kind, "balanced")].accuracy
            for kind in ("mlp", "gnn")
        }
        elapsed = time.monotonic() - t0  # fixture shared; training itself is ~10 s
        ok = all(a >= 0.90 for a in accs.values()) and epochs <= 200
        report(
            4,
            ok,
            f"mlp {accs['mlp']:.4f}, gnn {accs['gnn']:.4f} after {epochs} epochs, "
            f"+{elapsed:.1f}s",
        )


class TestCriterion5:
    def test_criterion_5_gnn_structure_advantage(self):
        mlp_accs, gnn_accs = [], []
        for seed in range(5):
            cfg = ExperimentConfig().to_dict()
            cfg["seed"] = seed
            cfg["data"]["synthetic"].update(
                {
                    "sites": 60,
                    "bbox": [57.0, 57.018, 11.5, 11.533],
                    "edge_rule": SITE_MEAN_RULE,
                    "site_mean_threshold": 66.0,
                    "seed": seed,
                }
            )
            cfg["train"]["epochs"] = 20
            result = pipeline.run_experiment(ExperimentConfig.from_dict(cfg))
            mlp_accs.append(result.model_reports[("mlp", "balanced")].accuracy)
            gnn_accs.append(result.model_reports[("gnn", "balanced")].accuracy)
        mlp_mean, gnn_mean = float(np.mean(mlp_accs)), float(np.mean(gnn_accs))
        ok = gnn_mean > mlp_mean
        report(5, ok, f"5-seed mean: gnn {gnn_mean:.4f} vs mlp {mlp_mean:.4f}")


class TestCriterion6:
    def test_criterion_6_imbalance_collapse(self, default_run):
        ok = True
        parts = []
        for kind in ("mlp", "gnn"):
            bal = default_run.model_reports[(kind, "balanced")]
            ap = default_run.model_reports[(kind, "all_pairs")]
            collapse = ap.precision < 0.25 * bal.precision
            recall_held = abs(ap.recall - bal.recall) <= 0.02
            ok = ok and collapse and recall_held
            parts.append(
                f"{kind} prec {bal.precision:.3f}->{ap.precision:.3f} "
                f"rec {bal.recall:.3f}->{ap.recall:.3f}"
            )
        report(6, ok, "; ".join(parts))


class TestCriterion7:
    def test_criterion_7_candidate_filter_recovery(self, default_run):
        ok = True
        parts = []
        for kind in ("mlp", "gnn"):
            ap = default_run.model_reports[(kind, "all_pairs")]
            cf = default_run.model_reports[(kind, "candidate_filtered")]
            ok = ok and cf.precision >= 2.0 * ap.precision
            parts.append(f"{kind} {cf.precision:.3f} vs {ap.precision:.3f}")
        report(7, ok, "; ".join(parts))


class TestCriterion8:
    def test_criterion_8_determinism(self, tmp_path):
        config = ExperimentConfig().to_dict()
        config["data"]["synthetic"].update({"sites": 40, "bbox": [57.0, 57.3, 11.5, 12.1]})
        config["train"]["epochs"] = 3
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        dirs = [tmp_path / "run_a", tmp_path / "run_b"]
        for d in dirs:
            code = cli_main(["experiment", "--config", str(cfg_path), "--out", str(d)])
            assert code == 0
        files_a = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(dirs[1]) for p in dirs[1].rglob("*") if p.is_file())
        identical = files_a == files_b and all(
            (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes()
            for rel in files_a
        )
        report(8, identical, f"{len(files_a)} files byte-identical across two runs")


class TestCriterion9:
    def test_criterion_9_invariant_suites(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(900)
        cases = {}

        # graph: edge symmetry and canonical storage
        count = 0
        for _ in range(60):
            n = int(rng.integers(3, 15))
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3
            ]
            g = make_graph(n, edges)
            assert edge_set(g) == set(edges)
            assert csr_neighbors(g) == adjacency_sets(n, edges)
            for i, j in g.edge_array.tolist():
                assert i < j
                count += 1
            count += n  # id <-> index round trip
            for idx, cid in enumerate(g.ids):
                assert g.index_of(cid) == idx
        cases["graph"] = count

        # candidate: monotonicity in K and m
        count = 0
        for _ in range(350):
            n = int(rng.integers(3, 12))
            coords = np.column_stack(
                [rng.uniform(-60, 60, size=n), rng.uniform(-179, 179, size=n)]
            )
            g = make_graph(n, [], coords=coords)
            q = g.ids[int(rng.integers(0, n))]
            k = int(rng.integers(0, n))
            m = float(rng.uniform(0, 8000))
            base = {c for c, _ in candidates(g, q, CandidateConfig(k=k, max_dist=m))}
            more_k = {c for c, _ in candidates(g, q, CandidateConfig(k=k + 2, max_dist=m))}
            more_m = {c for c, _ in candidates(g, q, CandidateConfig(k=k, max_dist=2 * m))}
            assert base <= more_k and base <= more_m
            count += 3
        cases["candidate"] = count

        # models: scores in (0,1) and symmetric under argument swap
        params = {kind: models.init_params(kind, k=4, hidden=8, embed=8, seed=0)
                  for kind in ("mlp", "gnn")}
        x = rng.normal(size=(40, 4))
        g = make_graph(40, [(i, i + 1) for i in range(39)], coords=x[:, :2])
        rows = {
            "mlp": x,
            "gnn": models.sage_embed(params["gnn"], models.model_input(params["gnn"], x, g)),
        }
        count = 0
        for _ in range(1100):
            i, j = rng.integers(0, 40, size=2)
            if i == j:
                continue
            for kind in ("mlp", "gnn"):
                a = models.symmetric_score_batch(params[kind], rows[kind], np.array([[i, j]]))[0]
                b = models.symmetric_score_batch(params[kind], rows[kind], np.array([[j, i]]))[0]
                assert a == b
                assert 0.0 < a < 1.0
                count += 1
        cases["scoring"] = count

        # pipeline: auc bounds and complement antisymmetry
        count = 0
        for _ in range(1000):
            n = int(rng.integers(2, 30))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            scores = rng.random(n)
            a = pipeline.auc(scores, labels)
            assert 0.0 <= a <= 1.0
            assert pipeline.auc(-scores, labels) == pytest.approx(1.0 - a, abs=1e-12)
            count += 1
        cases["auc"] = count

        # synth: oracle edges re-verified by an independent pass
        count = 0
        for seed in range(8):
            cfg = SynthConfig(
                sites=10,
                cells_per_site=(2, 4),
                bbox=(57.0, 57.1, 11.5, 11.7),
                radius_km=4.0,
                bands=3,
                seed=seed,
                edge_rule="band" if seed % 2 == 0 else SITE_MEAN_RULE,
            )
            gt = generate(cfg)
            graph = gt.graph
            coords = graph.features.coords()
            band = graph.features.values[:, graph.features.columns.index("band")]
            tx = graph.features.values[:, graph.features.columns.index("tx_power")]
            site = np.array(gt.site_of)
            edges, expected = edge_set(graph), set()
            mate = np.zeros(graph.n)
            for s in set(gt.site_of):
                members = np.flatnonzero(site == s)
                if len(members) >= 2:
                    mate[members] = (tx[members].sum() - tx[members]) / (len(members) - 1)
            for i in range(graph.n):
                for j in range(i + 1, graph.n):
                    if site[i] == site[j]:
                        expect = True
                    else:
                        near = geo_distance(tuple(coords[i]), tuple(coords[j])) <= cfg.radius_km
                        if cfg.edge_rule == "band":
                            expect = near and abs(band[i] - band[j]) <= 1
                        else:
                            expect = near and mate[i] + mate[j] >= cfg.site_mean_threshold
                    assert ((i, j) in edges) == expect
                    if expect:
                        expected.add((i, j))
                    count += 1
            assert csr_neighbors(graph) == adjacency_sets(graph.n, expected)
        cases["synth"] = count

        # data-io: z-score round trip recenters training rows
        from ran_topo.data_io import zscore_apply, zscore_fit
        from ran_topo.graph import FeatureMatrix

        count = 0
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            values = rng.normal(size=(n, 3)) * rng.uniform(0.5, 20)
            fm = FeatureMatrix(("lat", "lon", "f0"), values)
            norm = zscore_fit(fm, list(range(n)))
            z = zscore_apply(norm, fm).values
            assert np.all(np.abs(z.mean(axis=0)) < 1e-9)
            count += 1
        cases["normalize"] = count

        elapsed = time.monotonic() - t0
        ok = all(v >= 1000 for v in cases.values()) and elapsed < 300.0
        detail = ", ".join(f"{k}={v}" for k, v in cases.items())
        report(9, ok, f"{detail}, {elapsed:.1f}s")


class TestCriterion10:
    def test_criterion_10_split_robustness(self, default_run, alt_split_run):
        ok = True
        parts = []
        for kind in ("mlp", "gnn"):
            base = default_run.model_reports[(kind, "balanced")].accuracy
            alt = alt_split_run.model_reports[(kind, "balanced")].accuracy
            diff = abs(base - alt)
            ok = ok and alt >= 0.90 and diff < 0.03
            parts.append(f"{kind} {base:.4f} vs {alt:.4f} (diff {100 * diff:.2f}pp)")
        report(10, ok, "; ".join(parts))
