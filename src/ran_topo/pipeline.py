"""Pair sampling, the training loop, evaluation in the three regimes
(balanced, all-pairs, candidate-filtered), AUC, new-node prediction, and the
end-to-end experiment runner.

``train``, ``evaluate_model`` and ``write_models`` are the one
config -> train -> evaluate -> write path: ``run_experiment`` and the
``train`` and ``eval`` subcommands all go through them, so both model kinds
are trained, scored and written by the same code. Training draws its
validation pairs once and scores them each epoch through ``score_pairs``, the
function behind every report ``evaluate`` writes.

Everything is seeded: one experiment seed fans out into named stage
sub-seeds, so any stage can be reproduced on its own and a full run is
byte-identical when repeated.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import models
from .candidate import evaluate_candidates
from .config import CandidateConfig, ExperimentConfig, SynthConfig, check_cutoff
from .data_io import NormParams, read_network, write_csv, write_text, zscore_apply, zscore_fit
from .errors import StageError, ValidationError
from .graph import NodeSplit, RanGraph, key_pairs, pair_keys, remove_nodes, split_nodes, unique_keys
from .neural import AdamState, adam_step
from .report import EvalReport
from .synth import export, generate


def subseed(seed: int, name: str) -> int:
    """Stable named sub-seed derived from the experiment seed."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@contextmanager
def stage(name: str):
    """Run a block as the named pipeline stage: any exception it raises
    leaves as ``StageError(name, cause)``. This is the only place a
    StageError is raised; the CLI maps its cause to the exit code."""
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc


# ---------------------------------------------------------------------------
# pair sampling

def mode_name(mode) -> str:
    return "candidate_filtered" if isinstance(mode, CandidateConfig) else mode


@dataclass(frozen=True, eq=False)
class PairSet:
    """Labeled node-index pairs; label 1 iff the pair is an edge."""

    mode: str  # mode_name of the mode that drew them
    pairs: np.ndarray  # (B, 2) int
    labels: np.ndarray  # (B,) int


def _labeled(graph: RanGraph, keys: np.ndarray, mode) -> PairSet:
    """PairSet for canonical ``pair_keys``, in the given order."""
    pairs = key_pairs(keys, graph.n)
    return PairSet(mode_name(mode), pairs, graph.has_edges(pairs[:, 0], pairs[:, 1]).astype(np.int64))


def _incident_keys(graph: RanGraph, eval_idx: np.ndarray) -> np.ndarray:
    """Sorted keys of every (eval node, other node) pair, each once: a pair
    of two (distinct) eval nodes is taken from its lower index."""
    n = graph.n
    is_eval = np.zeros(n, dtype=bool)
    is_eval[eval_idx] = True
    e = np.repeat(eval_idx, n)
    j = np.tile(np.arange(n, dtype=np.int64), len(eval_idx))
    keep = (j != e) & ~(is_eval[j] & (j < e))
    e, j = e[keep], j[keep]
    return np.sort(pair_keys(e, j, n))


def _positive_keys(graph: RanGraph, eval_idx: np.ndarray) -> np.ndarray:
    """Sorted keys of every edge with an eval-node endpoint."""
    is_eval = np.zeros(graph.n, dtype=bool)
    is_eval[eval_idx] = True
    incident = is_eval[graph.edge_array].any(axis=1)
    return graph.edge_keys[incident]


def _rejection_negatives(
    graph: RanGraph, eval_idx: np.ndarray, needed: int, rng: np.random.Generator
) -> np.ndarray:
    """``needed`` distinct non-edge eval-incident pair keys, by rejection.

    Each round draws a batch of (eval node, any node) pairs and keeps, in
    draw order, those that are no self-pair, no edge, not yet chosen and not
    a repeat within the batch, up to the number still needed.
    """
    n = graph.n
    chosen = np.empty(0, dtype=np.int64)
    while len(chosen) < needed:
        batch = max(64, 2 * (needed - len(chosen)))
        es = eval_idx[rng.integers(0, len(eval_idx), size=batch)]
        js = rng.integers(0, n, size=batch)
        keys = pair_keys(es, js, n)
        valid = (js != es) & ~graph.has_edges(es, js) & ~np.isin(keys, chosen)
        keys = keys[valid]
        _, first = np.unique(keys, return_index=True)
        fresh = keys[np.sort(first)][: needed - len(chosen)]
        chosen = np.concatenate([chosen, fresh])
    return chosen


def sample_pairs(
    graph: RanGraph, eval_nodes, mode, seed: int = 0
) -> PairSet:
    """Draw labeled pairs connecting eval nodes to the rest of the graph.

    Mode ``"balanced"`` draws all positive pairs incident to the eval nodes
    plus an equal number of uniformly sampled negative pairs; ``"all_pairs"``
    every (eval node, other node) pair exactly once; a ``CandidateConfig``
    (candidate-filtered) only pairs whose other node is in the eval node's
    candidate set. Pairs are canonical: a pair between two eval nodes appears once.
    """
    eval_idx = unique_keys(graph.rows_of(eval_nodes))
    if not len(eval_idx):
        raise ValidationError("no evaluation nodes given")
    n = graph.n

    if isinstance(mode, CandidateConfig):
        rows, cand = graph.geo_index.query_rows(eval_idx, mode)
        return _labeled(graph, unique_keys(pair_keys(rows, cand, n)), mode)

    if mode == "all_pairs":
        return _labeled(graph, _incident_keys(graph, eval_idx), mode)
    if mode != "balanced":
        raise ValidationError(f"unknown pair mode {mode!r}")

    positives = _positive_keys(graph, eval_idx)
    needed = len(positives)
    n_eval = len(eval_idx)
    total_incident = n_eval * (n - n_eval) + n_eval * (n_eval - 1) // 2
    available = total_incident - needed
    if needed > available:
        raise ValidationError(
            f"need {needed} negative pairs but only {available} exist"
        )

    rng = np.random.default_rng(seed)
    if needed > available // 2:
        # dense case: enumerate everything and choose without replacement
        pool = _incident_keys(graph, eval_idx)
        pool = pool[~np.isin(pool, graph.edge_keys)]
        negatives = pool[rng.choice(len(pool), size=needed, replace=False)]
    else:
        negatives = _rejection_negatives(graph, eval_idx, needed, rng)

    return _labeled(graph, np.concatenate([positives, np.sort(negatives)]), mode)


# ---------------------------------------------------------------------------
# metrics

def auc(scores, labels) -> float:
    """Mann-Whitney AUC: the share of (positive, negative) pairs the
    positive outscores, a tie counting one half; NaN if a score is NaN.
    It equals the rank-sum form with ``scipy.stats.rankdata(method="average")``
    midranks, without importing scipy.stats."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = int((labels == 1).sum())
    neg = int((labels == 0).sum())
    if pos == 0 or neg == 0:
        raise ValidationError("AUC needs at least one positive and one negative")
    if np.isnan(scores).any():
        return float("nan")
    # positives below or tied with each negative, and strictly below it;
    # U is a count plus half a count, exact in float64
    positives, negatives = np.sort(scores[labels == 1]), scores[labels == 0]
    not_above = int(np.searchsorted(positives, negatives, side="right").sum())
    below = int(np.searchsorted(positives, negatives, side="left").sum())
    return ((pos * neg - not_above) + 0.5 * (not_above - below)) / (pos * neg)


# ---------------------------------------------------------------------------
# scoring

def make_scorer(params: dict[str, np.ndarray], inputs: np.ndarray):
    """Symmetric pair scorer: maps an (B, 2) index-pair array to probabilities.

    ``inputs`` is ``models.model_input``'s array; ``models.node_rows`` turns
    it into the rows scored, once. Evaluation and ``train()``'s validation
    pass the deployed graph's, held-out cells' edges included.
    """
    rows = models.node_rows(params, inputs)
    return lambda pairs: models.symmetric_score_batch(params, rows, pairs)


def score_pairs(scorer, pair_set: PairSet, cutoff: float) -> EvalReport:
    """Score a pair set, threshold at the cutoff, report counts and AUC.

    ``scorer`` maps an (B, 2) index-pair array to probabilities, as
    ``make_scorer``'s does; a non-finite score raises ValidationError.
    """
    scores = np.asarray(scorer(pair_set.pairs), dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValidationError(f"the model's {pair_set.mode} scores are not finite: its weights overflow")
    predicted = scores >= cutoff
    actual = pair_set.labels == 1
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    tn = int(np.sum(~predicted & ~actual))
    # AUC is undefined when every pair is one class
    auc_value = auc(scores, pair_set.labels) if actual.any() and not actual.all() else None
    return EvalReport(
        mode=pair_set.mode, cutoff=cutoff, tp=tp, fp=fp, tn=tn, fn=fn, auc=auc_value
    )


def evaluate(
    scorer,
    graph: RanGraph,
    eval_nodes,
    mode,
    cutoff: float = ExperimentConfig.cutoff,
    seed: int = 0,
) -> EvalReport:
    """``score_pairs`` on the pairs ``sample_pairs`` draws."""
    check_cutoff(cutoff)
    return score_pairs(scorer, sample_pairs(graph, eval_nodes, mode, seed=seed), cutoff)


# ---------------------------------------------------------------------------
# training

@dataclass(frozen=True, eq=False)
class TrainResult:
    params: dict[str, np.ndarray]
    history: list[dict]  # epoch, train_loss, val_accuracy
    best_epoch: int


def mask_to_train_edges(graph: RanGraph, train_nodes) -> RanGraph:
    """All nodes of ``graph`` but only edges between train nodes.

    No ``src/`` caller: training uses ``remove_nodes``. Embedding held-out
    cells over this graph is ROADMAP item 1's fix for the edge leak.
    """
    is_train = np.zeros(graph.n, dtype=bool)
    is_train[graph.rows_of(train_nodes)] = True
    return RanGraph(graph.ids, graph.edge_array[is_train[graph.edge_array].all(axis=1)], graph.features)


def train(kind: str, data: ExperimentData, cfg: ExperimentConfig) -> TrainResult:
    """Train one model kind on balanced pairs among the split's training
    cells, with the config's ``train`` section and dims, on a seed derived
    from the experiment's; failures carry the stage ``train_<kind>``.

    Each positive and sampled negative pair is presented once per epoch, in
    one shuffled order: the head's pair input is symmetric, so one order is
    both. ``models.model_input`` of the training graph and of the deployed
    graph are each computed once per call. The validation cells' balanced
    pairs are drawn once; each epoch ``score_pairs`` scores them over the
    deployed graph's input at the config's cutoff, as ``eval`` does.
    Returns the parameters of the epoch with the best validation accuracy.
    """
    with stage(f"train_{kind}"):
        graph, split, train_cfg = data.graph, data.split, cfg.train
        seed = subseed(cfg.seed, f"train_{kind}")
        if not split.train_nodes:
            raise ValidationError("no training nodes")
        train_graph = remove_nodes(graph, split.val_nodes + split.test_nodes)
        if not train_graph.num_edges:
            raise ValidationError("training graph has no edges")
        val_pairs = sample_pairs(graph, split.val_nodes, "balanced", seed=subseed(seed, "val_pairs"))
        if not val_pairs.labels.any():
            raise ValidationError("no validation cell has a relation")

        # features aligned with the train graph's dense indices
        x_train = data.features_norm[graph.rows_of(train_graph.ids)]
        params = models.init_params(
            kind, k=x_train.shape[1], hidden=cfg.hidden, embed=cfg.embed, seed=subseed(seed, "init")
        )
        adam = AdamState(lr=train_cfg.learning_rate)
        train_input = models.model_input(params, x_train, train_graph)
        val_input = models.model_input(params, data.features_norm, graph)

        sample_rng_seed = subseed(seed, "negatives")
        shuffle_rng = np.random.default_rng(subseed(seed, "shuffle"))

        history: list[dict] = []
        best_epoch, best_params = -1, params  # adam_step returns new arrays: a reference is a snapshot
        for epoch in range(train_cfg.epochs):
            if train_cfg.resample_negatives or epoch == 0:
                epoch_pairs = sample_pairs(
                    train_graph, train_graph.ids, "balanced", seed=sample_rng_seed + epoch
                )
            order = shuffle_rng.permutation(len(epoch_pairs.pairs))
            shuffled, labels = epoch_pairs.pairs[order], epoch_pairs.labels[order].astype(np.float64)

            total_loss = 0.0
            for start in range(0, len(shuffled), train_cfg.batch_size):
                batch = slice(start, start + train_cfg.batch_size)
                loss, grads = models.loss_and_grads(params, train_input, shuffled[batch], labels[batch])
                total_loss += loss * len(labels[batch])
                params, adam = adam_step(params, grads, adam)

            val_acc = score_pairs(make_scorer(params, val_input), val_pairs, cfg.cutoff).accuracy
            history.append(
                {"epoch": epoch, "train_loss": total_loss / len(labels), "val_accuracy": val_acc}
            )
            if best_epoch < 0 or val_acc > history[best_epoch]["val_accuracy"]:
                best_epoch, best_params = epoch, params
            elif train_cfg.patience is not None and epoch - best_epoch >= train_cfg.patience:
                break

        return TrainResult(params=best_params, history=history, best_epoch=best_epoch)


# ---------------------------------------------------------------------------
# prediction for a new cell

@dataclass(frozen=True)
class Prediction:
    """Ranked predicted neighbors for a new cell."""

    neighbors: list  # (cell id, probability), probability descending
    no_candidates: bool


def predict_new_node(
    params: dict[str, np.ndarray],
    graph: RanGraph,
    features_norm: np.ndarray,
    new_features_norm: np.ndarray,
    coords,
    cand_cfg: CandidateConfig,
    cutoff: float = ExperimentConfig.cutoff,
    max_neighbors: int | None = None,
) -> Prediction:
    """Score a not-yet-deployed cell against its geographic candidate set.

    The new cell's features must already be normalized with the stored
    normalization parameters; ``coords`` are its raw (lat, lon). For the
    GNN the new cell embeds with an empty neighborhood while each candidate
    embeds over its neighbors in the deployed graph; an embedding reads
    only its own 1-hop neighborhood, so only the candidates are embedded.
    """
    check_cutoff(cutoff)
    if max_neighbors is not None and max_neighbors < 0:
        raise ValidationError(f"max_neighbors must be >= 0, got {max_neighbors}")
    new_row = models.new_node_row(params, new_features_norm)
    cand_idx, _ = graph.geo_index.query(coords, cand_cfg)
    cand_rows = models.node_rows(params, models.model_input(params, features_norm, graph, cand_idx))
    if not len(cand_idx):
        return Prediction(neighbors=[], no_candidates=True)

    # row 0 is the new cell, rows 1..K its candidates
    rows = np.concatenate([new_row[None, :], cand_rows])
    pairs = np.zeros((len(cand_idx), 2), dtype=np.int64)
    pairs[:, 1] = np.arange(1, len(cand_idx) + 1)
    scores = models.symmetric_score_batch(params, rows, pairs)

    keep = scores >= cutoff
    ranked = sorted(
        zip(cand_idx[keep].tolist(), scores[keep].tolist()),
        key=lambda item: (-item[1], item[0]),
    )
    if max_neighbors is not None:
        ranked = ranked[:max_neighbors]
    return Prediction(
        neighbors=[(graph.ids[i], p) for i, p in ranked],
        no_candidates=False,
    )


# ---------------------------------------------------------------------------
# experiment runner

@dataclass(frozen=True, eq=False)
class ExperimentData:
    """Everything the training/evaluation stages consume."""

    graph: RanGraph  # raw features (candidate module needs raw lat/lon)
    split: NodeSplit
    norm_params: NormParams
    features_norm: np.ndarray  # (N, k) aligned with graph indices


def prepare_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> ExperimentData:
    """Run the data, split, and normalization stages of an experiment.

    With a synthetic data source and an out_dir, the generated network is
    exported as cells.csv / edges.csv for inspection and reuse.
    """
    with stage("data"):
        if isinstance(cfg.data, SynthConfig):
            gt = generate(cfg.data)
            graph = gt.graph
            if out_dir is not None:
                data_dir = os.path.join(out_dir, "data")
                os.makedirs(data_dir, exist_ok=True)
                export(gt, data_dir)
        else:
            graph = read_network(cfg.data.cells_csv, cfg.data.edges_csv, cfg.data.missing_policy)

    with stage("split"):
        split = split_nodes(graph, cfg.split, seed=subseed(cfg.seed, "split"))

    with stage("normalize"):
        norm_params = zscore_fit(graph.features, graph.rows_of(split.train_nodes))
        features_norm = zscore_apply(norm_params, graph.features).values

    return ExperimentData(
        graph=graph, split=split, norm_params=norm_params, features_norm=features_norm
    )


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    data: ExperimentData
    candidate_report: EvalReport  # the candidate filter as the baseline
    model_results: dict  # kind -> TrainResult
    model_reports: dict  # (kind, mode name) -> EvalReport


def evaluate_model(params: dict[str, np.ndarray], data: ExperimentData, cfg: ExperimentConfig) -> dict:
    """(kind, mode name) -> EvalReport for the three evaluation modes over
    the validation cells, with the config's cutoff and candidate ``filter``.

    Scores embed over the deployed graph, validation edges included; ``train()``
    removes the validation and test cells. A failure carries stage ``eval_<kind>``.
    """
    kind = models.kind_of(params)
    with stage(f"eval_{kind}"):
        scorer = make_scorer(params, models.model_input(params, data.features_norm, data.graph))
        reports = {}
        for mode in ("balanced", "all_pairs", cfg.filter):
            name = mode_name(mode)
            reports[(kind, name)] = evaluate(
                scorer, data.graph, data.split.val_nodes, mode, cutoff=cfg.cutoff,
                seed=subseed(cfg.seed, f"eval_{kind}_{name}"),
            )
        return reports


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> ExperimentResult:
    """Execute the full pipeline and optionally write the report bundle."""
    data = prepare_experiment(cfg, out_dir)
    with stage("candidate"):
        cand_report = evaluate_candidates(data.graph, data.split.val_nodes, cfg.filter)

    model_results: dict = {}
    model_reports: dict = {}
    for kind in models.KINDS:
        model_results[kind] = train(kind, data, cfg)
        model_reports.update(evaluate_model(model_results[kind].params, data, cfg))

    result = ExperimentResult(
        data=data,
        candidate_report=cand_report,
        model_results=model_results,
        model_reports=model_reports,
    )
    if out_dir is not None:
        with stage("write"):
            write_bundle(result, cfg, out_dir)
    return result


def write_models(out_dir: str, model_results: dict, norm_params: NormParams) -> None:
    """Write what ``eval`` and ``predict`` read back: ``params_<kind>.json``
    and ``history_<kind>.csv`` per trained kind, and ``norm_params.json``."""
    os.makedirs(out_dir, exist_ok=True)
    write_text(os.path.join(out_dir, "norm_params.json"), norm_params.to_json())
    for kind, train_result in model_results.items():
        params_text = models.params_to_json(train_result.params)
        write_text(os.path.join(out_dir, f"params_{kind}.json"), params_text)
        write_csv(
            os.path.join(out_dir, f"history_{kind}.csv"),
            ["epoch", "train_loss", "val_accuracy"],
            ([row["epoch"], repr(row["train_loss"]), repr(row["val_accuracy"])]
             for row in train_result.history),
        )


def write_reports(out_dir: str, model_reports: dict) -> None:
    """One ``<kind>_<mode>.json`` per (kind, mode) -> EvalReport entry."""
    os.makedirs(out_dir, exist_ok=True)
    for (kind, mode), report in model_reports.items():
        write_text(os.path.join(out_dir, f"{kind}_{mode}.json"), report.to_json())


def summary_rows(candidate_report: EvalReport | None, model_reports: dict) -> list[list[str]]:
    """The six text cells of each summary line, the candidate baseline (if
    given) first: model, mode, accuracy, precision and recall in percent,
    and AUC ("" where undefined)."""
    labeled = [(kind, mode, report) for (kind, mode), report in model_reports.items()]
    if candidate_report is not None:
        labeled.insert(0, (candidate_report.mode, "all_pairs", candidate_report))
    return [
        [model_name, mode, *(f"{100 * ratio:.2f}" for ratio in (rep.accuracy, rep.precision, rep.recall)),
         "" if rep.auc is None else f"{rep.auc:.4f}"]
        for model_name, mode, rep in labeled
    ]


def write_bundle(result: ExperimentResult, cfg: ExperimentConfig, out_dir: str) -> None:
    """Write reports, parameters, histories, and summary.csv for a run.

    Output is a pure function of the config, so repeated runs are
    byte-identical.
    """
    reports_dir = os.path.join(out_dir, "reports")
    os.makedirs(reports_dir, exist_ok=True)
    write_text(os.path.join(out_dir, "config.json"), json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
    write_models(out_dir, result.model_results, result.data.norm_params)
    write_text(os.path.join(reports_dir, "candidate.json"), result.candidate_report.to_json())
    write_reports(reports_dir, result.model_reports)
    write_csv(
        os.path.join(out_dir, "summary.csv"),
        ["model", "mode", "acc_pct", "precision_pct", "recall_pct", "auc"],
        summary_rows(result.candidate_report, result.model_reports),
    )


def format_summary(candidate_report: EvalReport | None, model_reports: dict) -> str:
    """Human-readable table of ``summary_rows``, an undefined AUC shown as -."""
    header = ["model", "mode", "ACC %", "Prec %", "Rec %", "AUC"]
    return "\n".join(
        f"{model_name:<34} {mode:<20} " + " ".join(f"{cell or '-':>7}" for cell in numbers)
        for model_name, mode, *numbers in [header, *summary_rows(candidate_report, model_reports)]
    )
