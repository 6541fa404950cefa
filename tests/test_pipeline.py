import csv
import re
import tracemalloc

import numpy as np
import pytest

from conftest import edge_set, make_graph, random_graph
from ran_topo import models, pipeline
from ran_topo.candidate import CandidateConfig, evaluate_candidates
from ran_topo.config import ExperimentConfig, TrainConfig
from ran_topo.data_io import zscore_apply, zscore_fit
from ran_topo.errors import StageError, ValidationError
from ran_topo.graph import FeatureMatrix, NodeSplit, RanGraph, key_pairs, pair_keys, split_nodes, unique_keys
from ran_topo.pipeline import (
    auc,
    evaluate,
    make_scorer,
    mask_to_train_edges,
    predict_new_node,
    sample_pairs,
    subseed,
    train,
)
from ran_topo.report import EvalReport
from ran_topo.synth import SynthConfig, generate


def pair_auc(scores, labels):
    """Quadratic oracle: fraction of (pos, neg) pairs ranked correctly,
    counting ties as half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestSubseed:
    def test_stable_and_distinct(self):
        assert subseed(1, "a") == subseed(1, "a")
        assert subseed(1, "a") != subseed(1, "b")
        assert subseed(1, "a") != subseed(2, "a")


class TestSamplePairs:
    def test_balanced_counts_and_labels(self):
        # path of 5 nodes, eval on the middle: positives (1,2) and (2,3)
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        ps = sample_pairs(g, ["n2"], "balanced", seed=0)
        assert len(ps.pairs) == 4
        assert ps.labels.sum() == 2
        pos = {tuple(p) for p, y in zip(ps.pairs.tolist(), ps.labels) if y == 1}
        assert pos == {(1, 2), (2, 3)}
        for i, j in ps.pairs.tolist():
            assert i < j
            assert 2 in (i, j)

    def test_balanced_negatives_are_nonedges(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            g = random_graph(rng)
            eval_nodes = [g.ids[int(k)] for k in rng.choice(g.n, size=2, replace=False)]
            try:
                ps = sample_pairs(g, eval_nodes, "balanced", seed=trial)
            except ValidationError as exc:
                assert "negative pairs but only" in str(exc)
                continue
            eval_idx = set(g.rows_of(eval_nodes).tolist())
            edges = edge_set(g)
            for (i, j), y in zip(ps.pairs.tolist(), ps.labels.tolist()):
                assert i < j
                assert (i in eval_idx) or (j in eval_idx)
                assert ((i, j) in edges) == bool(y)
            assert ps.labels.sum() * 2 == len(ps.labels)
            # no duplicate pairs
            assert len({tuple(p) for p in ps.pairs.tolist()}) == len(ps.pairs)

    def test_balanced_not_enough_negatives(self):
        g = make_graph(3, [(0, 1), (0, 2), (1, 2)])  # complete graph
        with pytest.raises(ValidationError, match="need 2 negative pairs but only 0 exist"):
            sample_pairs(g, ["n0"], "balanced", seed=0)

    def test_balanced_deterministic(self):
        g = make_graph(20, [(i, i + 1) for i in range(19)])
        a = sample_pairs(g, ["n3", "n7"], "balanced", seed=5)
        b = sample_pairs(g, ["n3", "n7"], "balanced", seed=5)
        assert np.array_equal(a.pairs, b.pairs)
        assert np.array_equal(a.labels, b.labels)

    def test_all_pairs_single_eval(self):
        g = make_graph(5, [(0, 1), (1, 2)])
        ps = sample_pairs(g, ["n1"], "all_pairs")
        assert ps.pairs.tolist() == [[0, 1], [1, 2], [1, 3], [1, 4]]
        assert ps.labels.tolist() == [1, 1, 0, 0]

    def test_all_pairs_eval_pair_counted_once(self):
        g = make_graph(4, [(0, 1)])
        ps = sample_pairs(g, ["n0", "n1"], "all_pairs")
        # (0,1) once, plus each eval node against nodes 2 and 3
        assert len(ps.pairs) == 5
        assert len({tuple(p) for p in ps.pairs.tolist()}) == 5

    def test_candidate_filtered_k_zero_empty(self):
        g = make_graph(4, [(0, 1)])
        ps = sample_pairs(g, ["n0"], CandidateConfig(k=0))
        assert ps.pairs.shape == (0, 2)

    def test_candidate_filtered_subset_of_all_pairs(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            g = random_graph(rng)
            eval_nodes = [g.ids[int(rng.integers(0, g.n))]]
            k = int(rng.integers(0, g.n))
            full = sample_pairs(g, eval_nodes, "all_pairs")
            filt = sample_pairs(
                g, eval_nodes, CandidateConfig(k=k)
            )
            full_set = {tuple(p) for p in full.pairs.tolist()}
            filt_set = {tuple(p) for p in filt.pairs.tolist()}
            assert filt_set <= full_set
            _ = trial

    @pytest.mark.parametrize("mode", ["balancd", object()], ids=["misspelt", "object"])
    def test_unknown_mode_refused(self, mode):
        g = make_graph(6, [(0, 1), (1, 2)])
        with pytest.raises(ValidationError, match=re.escape(f"unknown pair mode {mode!r}")):
            sample_pairs(g, ["n1"], mode)
        with pytest.raises(ValidationError, match=re.escape(f"unknown pair mode {mode!r}")):
            evaluate(lambda p: np.zeros(len(p)), g, ["n1"], mode)

    def test_empty_eval_set(self):
        g = make_graph(3, [(0, 1)])
        with pytest.raises(ValidationError, match="no evaluation nodes given"):
            sample_pairs(g, [], "balanced")

    @pytest.mark.parametrize("mode", ["balanced", "all_pairs", CandidateConfig(k=4)],
                             ids=["balanced", "all_pairs", "candidate_filtered"])
    def test_repeated_eval_node_counts_once(self, mode):
        # dense and sparse graphs, so both of the balanced mode's negative samplers run
        for edge_prob in (0.1, 0.45):
            g = random_graph(np.random.default_rng(5), max_nodes=14, edge_prob=edge_prob)
            once = sample_pairs(g, g.ids[:3], mode, seed=1)
            repeated = sample_pairs(g, [g.ids[1], *g.ids[:3], g.ids[0]], mode, seed=1)
            assert np.array_equal(repeated.pairs, once.pairs)
            assert np.array_equal(repeated.labels, once.labels)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_inverted(self):
        assert auc([0.1, 0.9], [1, 0]) == 0.0

    def test_all_tied_half(self):
        assert auc([0.5, 0.5, 0.5], [1, 0, 0]) == 0.5

    def test_hand_value(self):
        # pos scores {0.8, 0.4}, neg {0.6, 0.2}: correct pairs 3/4
        assert auc([0.8, 0.4, 0.6, 0.2], [1, 1, 0, 0]) == 0.75

    def test_single_class_raises(self):
        with pytest.raises(ValidationError, match="AUC needs at least one positive and one negative"):
            auc([0.5, 0.6], [1, 1])

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of ties
            scores = np.round(rng.random(n), 1)
            assert auc(scores, labels) == pytest.approx(
                pair_auc(scores.tolist(), labels.tolist()), rel=1e-12
            )

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(4, 30))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            scores = rng.random(n)
            assert auc(scores, labels) == pytest.approx(
                auc(2.0 * scores + 1.0, labels), rel=1e-12
            )


class TestEvaluate:
    def oracle_scorer(self, graph):
        edges = edge_set(graph)

        def score(pairs):
            return np.array(
                [1.0 - 1e-9 if (i, j) in edges else 1e-9 for i, j in pairs.tolist()]
            )

        return score

    def test_oracle_scorer_perfect(self):
        g = make_graph(6, [(0, 1), (1, 2), (2, 3)])
        rep = evaluate(self.oracle_scorer(g), g, ["n1", "n2"], "balanced", seed=1)
        assert rep.accuracy == 1.0
        assert rep.precision == 1.0
        assert rep.recall == 1.0
        assert rep.auc == 1.0

    def test_anti_oracle_scorer(self):
        g = make_graph(6, [(0, 1), (1, 2), (2, 3)])

        def anti(pairs):
            return 1.0 - self.oracle_scorer(g)(pairs)

        rep = evaluate(anti, g, ["n1", "n2"], "balanced", seed=1)
        assert rep.accuracy == 0.0
        assert rep.auc == 0.0

    def test_constant_scorer_below_cutoff(self):
        g = make_graph(6, [(0, 1), (1, 2)])
        rep = evaluate(lambda p: np.full(len(p), 0.3), g, ["n1"], "balanced", seed=0)
        assert rep.recall == 0.0
        assert rep.precision == 0.0  # no predicted positives
        assert rep.auc == 0.5

    def test_empty_pair_set_zero_report(self):
        g = make_graph(4, [(0, 1)])
        rep = evaluate(
            lambda p: np.zeros(len(p)), g, ["n3"],
            CandidateConfig(k=0),
        )
        assert rep == EvalReport(mode="candidate_filtered", cutoff=0.5, tp=0, fp=0, tn=0, fn=0, auc=None)
        # derived from the counts, 0 for an empty denominator
        assert (rep.pairs, rep.accuracy, rep.precision, rep.recall) == (0, 0.0, 0.0, 0.0)

    def test_single_class_auc_none(self):
        g = make_graph(4, [])
        rep = evaluate(lambda p: np.zeros(len(p)), g, ["n0"], "all_pairs")
        assert rep.auc is None
        complete = make_graph(3, [(0, 1), (0, 2), (1, 2)])
        rep = evaluate(lambda p: np.zeros(len(p)), complete, ["n0"], "all_pairs")
        assert (rep.pairs, rep.tp + rep.fn) == (2, 2) and rep.auc is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_is_refused(self, bad):
        # a diverged model's NaN reached the reports and the params file as "NaN"
        g = make_graph(6, [(0, 1), (1, 2)])

        def scorer(pairs):
            scores = np.full(len(pairs), 0.7)
            scores[-1] = bad
            return scores

        with pytest.raises(ValidationError, match="balanced scores are not finite"):
            evaluate(scorer, g, ["n1"], "balanced", seed=0)

    def test_metrics_consistent_with_counts(self):
        rng = np.random.default_rng(4)
        for trial in range(200):
            g = random_graph(rng)
            eval_nodes = [g.ids[int(rng.integers(0, g.n))]]

            def noisy(pairs):
                return np.random.default_rng(trial).random(len(pairs))

            rep = evaluate(noisy, g, eval_nodes, "all_pairs", cutoff=float(rng.random()))
            assert rep.pairs == rep.tp + rep.fp + rep.tn + rep.fn
            if rep.pairs:
                assert rep.accuracy == pytest.approx(
                    (rep.tp + rep.tn) / rep.pairs, abs=1e-12
                )
            if rep.tp + rep.fp:
                assert rep.precision == pytest.approx(
                    rep.tp / (rep.tp + rep.fp), abs=1e-12
                )
            if rep.tp + rep.fn:
                assert rep.recall == pytest.approx(
                    rep.tp / (rep.tp + rep.fn), abs=1e-12
                )

    def test_cutoff_monotonicity(self):
        # raising the cutoff can only shrink the predicted-positive set
        g = make_graph(8, [(0, 1), (1, 2), (2, 3), (4, 5)])

        def scorer(pairs):
            return np.random.default_rng(9).random(len(pairs))

        reports = [
            evaluate(scorer, g, ["n1", "n5"], "all_pairs", cutoff=c)
            for c in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        for lo, hi in zip(reports, reports[1:]):
            assert hi.tp + hi.fp <= lo.tp + lo.fp
            assert hi.recall <= lo.recall


def experiment_fixture(seed=13):
    cfg = SynthConfig(
        sites=30,
        cells_per_site=(2, 4),
        bbox=(57.0, 57.08, 11.5, 11.64),
        radius_km=4.0,
        bands=3,
        seed=seed,
    )
    gt = generate(cfg)
    graph = gt.graph
    split = split_nodes(graph, (0.7, 0.15, 0.15), seed=1)
    norm = zscore_fit(graph.features, graph.rows_of(split.train_nodes))
    x = zscore_apply(norm, graph.features).values
    return graph, split, x, norm


def train_on(kind, fixture, seed, cutoff=0.5, hidden=8, embed=8, **train_keys):
    """``train`` on an experiment fixture, with the experiment seed ``seed``
    and the ``train`` section ``train_keys``."""
    graph, split, x, norm = fixture
    data = pipeline.ExperimentData(graph=graph, split=split, norm_params=norm, features_norm=x)
    cfg = ExperimentConfig(seed=seed, hidden=hidden, embed=embed, cutoff=cutoff, train=TrainConfig(**train_keys))
    return train(kind, data, cfg)


def kind_seed(seed, kind, name):
    """The sub-seed ``train`` derives for ``name`` from the experiment seed."""
    return subseed(subseed(seed, f"train_{kind}"), name)


class TestTrain:
    def test_lr_zero_keeps_init_params(self):
        _, _, x, _ = fixture = experiment_fixture()
        result = train_on("mlp", fixture, 3, epochs=2, batch_size=64, learning_rate=0.0)
        init = models.init_params("mlp", k=x.shape[1], hidden=8, seed=kind_seed(3, "mlp", "init"))
        for name, arr in result.params.items():
            assert np.array_equal(arr, init[name])

    @pytest.mark.parametrize("kind", ["mlp", "gnn"])
    def test_params_validated_once(self, kind, monkeypatch):
        # the optimizer steps on the validated dict; only init builds params
        calls = []
        original = models.params_from_dict

        def counting(kind, arrays):
            calls.append(kind)
            return original(kind, arrays)

        monkeypatch.setattr(models, "params_from_dict", counting)
        result = train_on(kind, experiment_fixture(), 3, epochs=2, batch_size=64)
        assert calls == [kind]
        assert models.kind_of(result.params) == kind

    @pytest.mark.parametrize("kind", ["mlp", "gnn"])
    def test_trains_on_training_cells_only(self, kind, monkeypatch):
        # the optimizer's input is built once, over the training cells and
        # the edges among them: no held-out cell or relation is in it
        graph, split, x, norm = fixture = experiment_fixture()
        calls = []
        original = models.model_input

        def spy(params, x_in, g=None, rows=None):
            calls.append((x_in, g))
            return original(params, x_in, g, rows)

        monkeypatch.setattr(models, "model_input", spy)
        train_on(kind, fixture, 3, epochs=1, batch_size=128)
        trained = [(x_in, g) for x_in, g in calls if g is not graph]
        assert len(trained) == 1
        x_train, train_graph = trained[0]
        assert train_graph.ids == split.train_nodes
        assert np.array_equal(x_train, x[graph.rows_of(split.train_nodes)])
        train_cells = set(split.train_nodes)
        among = {frozenset(e) for e in graph.edge_list() if train_cells.issuperset(e)}
        assert 0 < len(among) < graph.num_edges
        assert {frozenset(e) for e in train_graph.edge_list()} == among

    def test_deterministic(self):
        fixture = experiment_fixture()
        a = train_on("gnn", fixture, 5, epochs=3, batch_size=128)
        b = train_on("gnn", fixture, 5, epochs=3, batch_size=128)
        assert a.history == b.history
        for name, arr in a.params.items():
            assert np.array_equal(arr, b.params[name])

    def test_loss_decreases_on_separable_problem(self):
        result = train_on(
            "mlp", experiment_fixture(), 7, hidden=16, epochs=30, batch_size=256, resample_negatives=False
        )
        losses = [row["train_loss"] for row in result.history]
        assert losses[-1] < losses[0] * 0.8
        assert result.history[result.best_epoch]["val_accuracy"] > 0.6

    def test_draws_validation_pairs_once(self, monkeypatch):
        # every epoch scores the one validation pair set; only the training
        # pairs are drawn per epoch
        _, split, _, _ = fixture = experiment_fixture()
        calls = []
        original = pipeline.sample_pairs

        def spy(g, eval_nodes, mode, seed=0):
            calls.append(tuple(eval_nodes))
            return original(g, eval_nodes, mode, seed=seed)

        monkeypatch.setattr(pipeline, "sample_pairs", spy)
        result = train_on("gnn", fixture, 3, epochs=4, batch_size=128)
        assert len(result.history) == 4
        assert calls.count(tuple(split.val_nodes)) == 1
        assert len(calls) == 1 + len(result.history)

    @pytest.mark.parametrize("kind, calls", [("mlp", 0), ("gnn", 2)])
    @pytest.mark.parametrize("epochs", [1, 4])
    def test_builds_each_graph_input_once(self, monkeypatch, kind, calls, epochs):
        # the neighbor mean does not depend on the params: a GNN aggregates
        # the training graph and the deployed graph once each, whatever the
        # number of epochs, and the MLP never aggregates
        whole_graph = []
        original = models.neighbor_mean

        def spy(g, x_in, rows=None):
            if rows is None:
                whole_graph.append(g)
            return original(g, x_in, rows)

        monkeypatch.setattr(models, "neighbor_mean", spy)
        graph, _, _, _ = fixture = experiment_fixture()
        result = train_on(kind, fixture, 3, epochs=epochs, batch_size=128)
        assert len(result.history) == epochs
        assert len(whole_graph) == calls
        assert sum(g is graph for g in whole_graph) == calls // 2  # the deployed graph's

    @pytest.mark.parametrize("resample, draws", [(False, 1), (True, 4)])
    def test_draws_training_pairs_once_unless_resampling(self, monkeypatch, resample, draws):
        # without resampling every epoch's seed is the same, so is its pair set
        calls = []
        original = pipeline.sample_pairs

        def spy(g, eval_nodes, mode, seed=0):
            if eval_nodes is g.ids:  # the training graph's own cells
                calls.append(seed)
            return original(g, eval_nodes, mode, seed=seed)

        monkeypatch.setattr(pipeline, "sample_pairs", spy)
        result = train_on("mlp", experiment_fixture(), 3, epochs=4, batch_size=128, resample_negatives=resample)
        assert len(result.history) == 4
        assert len(calls) == draws
        assert calls == [calls[0] + epoch for epoch in range(draws)]

    def test_history_schema_and_best_epoch(self):
        result = train_on("mlp", experiment_fixture(), 8, epochs=4, batch_size=128)
        assert [row["epoch"] for row in result.history] == [0, 1, 2, 3]
        accs = [row["val_accuracy"] for row in result.history]
        assert result.best_epoch == accs.index(max(accs))

    @pytest.mark.parametrize("kind, seed", [("mlp", 0), ("gnn", 16)])
    def test_best_val_accuracy_is_the_scorers(self, kind, seed):
        # validation scores the deployed graph the way evaluation does; at
        # these seeds (each kind's first from 0 and 10) the best epoch is not
        # the last, so the returned params must be that epoch's
        graph, split, x, _ = fixture = experiment_fixture()
        result = train_on(kind, fixture, seed, epochs=4, batch_size=128)
        assert result.best_epoch < len(result.history) - 1
        scorer = make_scorer(result.params, models.model_input(result.params, x, graph))
        report = evaluate(scorer, graph, split.val_nodes, "balanced", seed=kind_seed(seed, kind, "val_pairs"))
        assert result.history[result.best_epoch]["val_accuracy"] == report.accuracy

    @pytest.mark.parametrize("kind", ["mlp", "gnn"])
    def test_best_epoch_is_picked_at_the_config_cutoff(self, kind):
        # the validation accuracy of the best epoch is the one evaluation
        # reports at the config's cutoff, which here differs from 0.5's
        graph, split, x, _ = fixture = experiment_fixture()
        result = train_on(kind, fixture, 3, cutoff=0.7, epochs=4, batch_size=128)
        scorer = make_scorer(result.params, models.model_input(result.params, x, graph))
        at = {
            cutoff: evaluate(
                scorer, graph, split.val_nodes, "balanced", cutoff, seed=kind_seed(3, kind, "val_pairs")
            ).accuracy
            for cutoff in (0.5, 0.7)
        }
        assert at[0.7] != at[0.5]
        assert result.history[result.best_epoch]["val_accuracy"] == at[0.7]

    def test_patience_stops_early(self):
        result = train_on(
            "mlp", experiment_fixture(), 9, epochs=50, batch_size=128, learning_rate=0.0, patience=2
        )
        # lr 0 never improves after the first epoch
        assert len(result.history) == 3

    def test_refuses_validation_cells_without_relations(self):
        # the one validation cell is isolated: no epoch could be judged
        graph = make_graph(12, [(i, i + 1) for i in range(10)], extra=np.arange(12.0))
        split = NodeSplit(train_nodes=graph.ids[:11], val_nodes=(graph.ids[11],), test_nodes=())
        norm = zscore_fit(graph.features, graph.rows_of(split.train_nodes))
        fixture = (graph, split, zscore_apply(norm, graph.features).values, norm)
        with pytest.raises(StageError, match=r"^\[train_mlp\] no validation cell has a relation$") as info:
            train_on("mlp", fixture, 0, epochs=3, batch_size=8)
        assert isinstance(info.value.cause, ValidationError)


class TestMaskToTrainEdges:
    def test_only_train_train_edges_survive(self):
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        masked = mask_to_train_edges(g, ["n0", "n1", "n2"])
        assert masked.ids == g.ids
        assert masked.edge_array.tolist() == [[0, 1], [1, 2]]

    def test_all_train_is_identity_topology(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        masked = mask_to_train_edges(g, g.ids)
        assert np.array_equal(masked.edge_array, g.edge_array)


class TestPredictNewNode:
    def setup_scene(self):
        graph, split, x, norm = experiment_fixture(seed=17)
        params = models.init_params("mlp", k=x.shape[1], hidden=8, seed=0)
        return graph, x, params

    def test_no_candidates_flag(self):
        graph, x, params = self.setup_scene()
        pred = predict_new_node(
            params, graph, x, x[0], (0.0, 0.0), CandidateConfig(k=0)
        )
        assert pred.no_candidates
        assert pred.neighbors == []

    def test_far_point_with_distance_cap(self):
        graph, x, params = self.setup_scene()
        pred = predict_new_node(
            params, graph, x, x[0], (-30.0, 100.0),
            CandidateConfig(k=10, max_dist=5.0),
        )
        assert pred.no_candidates

    def test_output_sorted_and_capped(self):
        graph, x, params = self.setup_scene()
        coords = tuple(graph.features.coords()[0])
        cfg = CandidateConfig(k=12)
        pred = predict_new_node(
            params, graph, x, x[0], coords, cfg, cutoff=0.0, max_neighbors=5
        )
        assert not pred.no_candidates
        assert len(pred.neighbors) <= 5
        probs = [p for _, p in pred.neighbors]
        assert probs == sorted(probs, reverse=True)
        known = set(graph.ids)
        for cid, p in pred.neighbors:
            assert cid in known
            assert 0.0 < p < 1.0

    def test_cutoff_filters(self):
        graph, x, params = self.setup_scene()
        coords = tuple(graph.features.coords()[0])
        cfg = CandidateConfig(k=12)
        loose = predict_new_node(params, graph, x, x[0], coords, cfg, cutoff=0.0)
        tight = predict_new_node(params, graph, x, x[0], coords, cfg, cutoff=1.0 - 1e-9)
        assert tight.neighbors == []
        assert not tight.no_candidates
        assert len(loose.neighbors) <= cfg.k

    @pytest.mark.parametrize("kind", ["mlp", "gnn"])
    @pytest.mark.parametrize("k", [0, 5])
    def test_new_row_of_wrong_width(self, kind, k):
        graph, x, _ = self.setup_scene()
        params = models.init_params(kind, k=x.shape[1], hidden=8, embed=8, seed=1)
        coords = tuple(graph.features.coords()[0])
        with pytest.raises(ValidationError, match=re.escape("a new cell's features must have shape (8,), got (9,)")):
            predict_new_node(params, graph, x, np.append(x[0], 0.0), coords, CandidateConfig(k=k))

    @pytest.mark.parametrize("kind", ["mlp", "gnn"])
    @pytest.mark.parametrize("k", [0, 5])
    def test_feature_matrix_of_wrong_width(self, kind, k):
        """Refused whether or not the request finds a candidate."""
        graph, x, _ = self.setup_scene()
        params = models.init_params(kind, k=x.shape[1], hidden=8, embed=8, seed=1)
        coords = tuple(graph.features.coords()[0])
        wide = np.column_stack([x, x[:, 0]])
        with pytest.raises(ValidationError, match=re.escape(f"an (N, 8) array, got shape {wide.shape}")):
            predict_new_node(params, graph, wide, x[0], coords, CandidateConfig(k=k))

    def test_a_gnn_request_on_a_large_network_allocates_for_its_candidates_only(self):
        """A request embeds its K candidates: it allocates no copy of the
        deployed network's (N, k) feature matrix, 6.1 MiB here."""
        n, k = 100_000, 8
        rng = np.random.default_rng(29)
        coords = np.column_stack([rng.uniform(57.0, 59.0, n), rng.uniform(11.0, 15.0, n)])
        ends = np.concatenate([np.column_stack([np.arange(n - 1), np.arange(1, n)]), rng.integers(0, n, (2 * n, 2))])
        ends = ends[ends[:, 0] != ends[:, 1]]
        edges = key_pairs(unique_keys(pair_keys(ends[:, 0], ends[:, 1], n)), n)
        graph = RanGraph(tuple(range(n)), edges, FeatureMatrix(("lat", "lon"), coords))
        x = rng.normal(size=(n, k))
        params = models.init_params("gnn", k=k, seed=3)
        cfg = CandidateConfig(k=60, max_dist=4.0)
        point = tuple(coords[0])
        first = predict_new_node(params, graph, x, x[0], point, cfg, cutoff=0.0)  # builds the index
        tracemalloc.start()
        try:
            second = predict_new_node(params, graph, x, x[0], point, cfg, cutoff=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert second == first and len(second.neighbors) == cfg.k
        assert peak < 2**20, peak

    @pytest.mark.parametrize("kind", ["mlp", "gnn"])
    def test_new_node_uses_empty_neighborhood(self, kind):
        graph, x, _ = self.setup_scene()
        params = models.init_params(kind, k=x.shape[1], hidden=8, embed=8, seed=1)
        coords = tuple(graph.features.coords()[0])
        pred = predict_new_node(
            params, graph, x, x[0], coords, CandidateConfig(k=5), cutoff=0.0
        )
        # manual recomputation of the top candidate's score
        emb = models.node_rows(params, models.model_input(params, x, graph))
        new_emb = models.new_node_row(params, x[0])
        rows = np.vstack([emb, new_emb[None, :]])
        top_id, top_p = pred.neighbors[0]
        j = graph.index_of(top_id)
        expected = models.symmetric_score_batch(
            params, rows, np.array([[graph.n, j]])
        )[0]
        assert top_p == expected


class TestRunExperiment:
    def small_config(self):
        return {
            "seed": 3,
            "data": {
                "synthetic": {
                    "sites": 20,
                    "cells_per_site": [2, 4],
                    "bbox": [57.0, 57.2, 11.5, 11.9],
                    "radius_km": 3.0,
                    "bands": 3,
                    "seed": 2,
                }
            },
            "split": {"ratios": [0.8, 0.1, 0.1]},
            "filter": {"k": 10, "max_dist_km": 4.0},
            "dims": {"h": 8, "d": 8},
            "train": {"epochs": 2, "batch_size": 256, "learning_rate": 1e-3},
            "cutoff": 0.5,
        }

    def test_structure_and_reports(self, tmp_path):
        cfg = ExperimentConfig.from_dict(self.small_config())
        result = pipeline.run_experiment(cfg, str(tmp_path))
        # the baseline is the candidate filter, written as reports/candidate.json
        data = result.data
        assert result.candidate_report == evaluate_candidates(data.graph, data.split.val_nodes, cfg.filter)
        assert (tmp_path / "reports" / "candidate.json").read_text() == result.candidate_report.to_json() + "\n"
        assert set(result.model_results) == {"mlp", "gnn"}
        assert set(result.model_reports) == {
            (kind, mode)
            for kind in ("mlp", "gnn")
            for mode in ("balanced", "all_pairs", "candidate_filtered")
        }
        for name in (
            "config.json",
            "norm_params.json",
            "summary.csv",
            "params_mlp.json",
            "params_gnn.json",
            "history_mlp.csv",
            "history_gnn.csv",
        ):
            assert (tmp_path / name).is_file()
        report_files = sorted(p.name for p in (tmp_path / "reports").iterdir())
        assert report_files == [
            "candidate.json",
            "gnn_all_pairs.json",
            "gnn_balanced.json",
            "gnn_candidate_filtered.json",
            "mlp_all_pairs.json",
            "mlp_balanced.json",
            "mlp_candidate_filtered.json",
        ]
        assert (tmp_path / "data" / "cells.csv").is_file()

    def test_bundle_byte_identical(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        pipeline.run_experiment(ExperimentConfig.from_dict(self.small_config()), str(dir_a))
        pipeline.run_experiment(ExperimentConfig.from_dict(self.small_config()), str(dir_b))
        files_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes()

    def test_format_summary_lists_all_rows(self):
        result = pipeline.run_experiment(ExperimentConfig.from_dict(self.small_config()))
        text = pipeline.format_summary(result.candidate_report, result.model_reports)
        assert len(text.splitlines()) == 1 + 1 + 6  # header + candidate baseline + model rows
        assert "balanced" in text
        assert "candidate_filtered" in text
        # without the candidate report: the same header and model rows
        lines = text.splitlines()
        assert pipeline.format_summary(None, result.model_reports).splitlines() == [lines[0], *lines[2:]]

    def test_printed_summary_matches_summary_csv(self, tmp_path):
        """Each printed line holds its summary.csv row's cells, "-" for an empty one."""
        result = pipeline.run_experiment(ExperimentConfig.from_dict(self.small_config()), str(tmp_path))
        printed = pipeline.format_summary(result.candidate_report, result.model_reports).splitlines()
        with open(tmp_path / "summary.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["model", "mode", "acc_pct", "precision_pct", "recall_pct", "auc"]
        assert printed[0].split() == ["model", "mode", "ACC", "%", "Prec", "%", "Rec", "%", "AUC"]
        assert [line.split() for line in printed[1:]] == [[cell or "-" for cell in row] for row in rows]
        assert rows[0][5] == ""  # the candidate baseline has no AUC


class TestScorer:
    def test_mlp_scorer_matches_direct_scores(self):
        graph, split, x, _ = experiment_fixture()
        params = models.init_params("mlp", k=x.shape[1], hidden=8, seed=2)
        scorer = make_scorer(params, models.model_input(params, x))
        pairs = np.array([[0, 1], [2, 5], [3, 3 + 1]])
        direct = models.symmetric_score_batch(params, x, pairs)
        assert np.array_equal(scorer(pairs), direct)
        _ = split

    def test_gnn_scorer_requires_graph(self):
        # a scorer takes model_input's array, and a GNN's needs the graph
        params = models.init_params("gnn", k=2, hidden=4, embed=4, seed=0)
        with pytest.raises(ValidationError, match="the GNN needs the graph"):
            models.model_input(params, np.zeros((3, 2)))
