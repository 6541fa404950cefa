"""The two ran-topo benchmark workloads, their output checks and the planner requests.

Every workload drives the package in-process through its public entry points,
``ran_topo.cli.main`` and ``pipeline.predict_new_node``. A workload has a
set-up, one timed operation that the runner repeats, and a check of each
operation's outputs that counts towards ``failed``.

Every workload also serves planner requests: the split's test cells are
withheld from a network, and each is then sent through ``predict_new_node``
as a not-yet-deployed cell, GNN then MLP, one caller in a closed loop. For
``predict`` a burst of those requests is the timed operation; for
``eval-default`` a burst follows every timed operation, so the requests are
spread over the whole run and see the same host as the operations do.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# called through their modules, so the traced run sees the wrapped functions
from ran_topo import cli, data_io, graph, models, pipeline
from ran_topo.candidate import CandidateConfig
from ran_topo.errors import RanTopoError

from spans import Tracer

KINDS = (models.GNN_KIND, models.MLP_KIND)  # the order each new cell is answered in
CUTOFF = 0.5
FILTER = CandidateConfig(k=60, max_dist=4.0)
# distinct new cells a run asks about, round robin, so every cell is asked
# several times and its answers can be compared
PASS_REQUESTS = 120
# new cells per burst of requests, the timed operation of ``predict``
BURST_REQUESTS = 8
# a run goes on until each model has answered this many requests, so that at
# least ten latency samples lie beyond p95 and below p5
MIN_REQUESTS = 240
PREDICT_SYNTH = {"sites": 1500, "bbox": [56.8, 59.036, 11.0, 15.472]}


class OpFailed(Exception):
    """A CLI call returned a non-zero exit code."""


@dataclass
class Run:
    """What one benchmark process shares with its workload: paths, seed, checks."""

    root: Path
    work: Path
    seed: int
    tiny: bool
    tracer: Tracer
    attempted: int = 0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)  # accuracy/AUC per model and mode; not gated
    latencies: dict = field(default_factory=lambda: {kind: [] for kind in KINDS})
    answers: dict = field(default_factory=dict)  # (kind, cell id) -> first answer, as JSON
    served: int = 0  # requests sent so far; the next one is requests[served % len]

    def attempt(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    def cli(self, *argv) -> str:
        """``ran-topo <argv>`` in this process; returns what it printed."""
        out = io.StringIO()
        with self.tracer.span("cli"), contextlib.redirect_stdout(out):
            code = cli.main([str(a) for a in argv])
        if code != cli.EXIT_OK:
            raise OpFailed(f"ran-topo {argv[0]} exited with {code}")
        return out.getvalue()

    def config(self, base: Path, name: str, label: str, tiny_sites: int, **synth) -> tuple[Path, dict]:
        """A shipped config with the run's seed and the workload's synthetic overrides."""
        config = json.loads((self.root / "configs" / name).read_text())
        config["seed"] = self.seed
        config["data"]["synthetic"].update(synth)
        if self.tiny:
            config["data"]["synthetic"]["sites"] = tiny_sites
            config["train"]["epochs"] = 1
        path = base / f"{label}.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True))
        return path, config

    def synth(self, base: Path, config: dict) -> Path:
        """Write the config's synthetic network with ``ran-topo synth``."""
        path = base / "synth.json"
        path.write_text(json.dumps(config["data"]["synthetic"]))
        self.cli("synth", "--config", path, "--out", base / "net")
        return base / "net"

    def params(self, base: Path) -> Path:
        """``ran-topo train`` both models on the default config; returns the params directory."""
        config, _ = self.config(base, "default.json", "params", tiny_sites=20)
        self.cli("train", "--config", config, "--out", base / "params", "--model", "both")
        for kind in KINDS:
            with open(base / "params" / f"history_{kind}.csv", newline="") as fh:
                best = max(float(row["val_accuracy"]) for row in csv.DictReader(fh))
            self.info[f"{kind} training"] = {"best_val_accuracy": best}
        return base / "params"

    def record(self, label: str, digest: str, index: int) -> list[str]:
        """Keep an output digest; a repeat must reproduce the first one byte for byte."""
        self.digests[f"{label}#{index}"] = digest
        return [] if digest == self.digests[f"{label}#0"] else [f"{label} differs from the first repeat"]


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(file.relative_to(path)).encode() + b"\0" + file.read_bytes())
    return h.hexdigest()


def text_digest(*texts: str) -> str:
    return hashlib.sha256("\0".join(texts).encode()).hexdigest()


def _report_problems(label: str, report: dict) -> list[str]:
    counted = report["tp"] + report["fp"] + report["tn"] + report["fn"]
    return [] if counted == report["pairs"] else [f"{label}: tp+fp+tn+fn {counted} != pairs {report['pairs']}"]


# ---------------------------------------------------------------------------
# planner requests


@dataclass(frozen=True, eq=False)
class Deployment:
    """A deployed network, trained parameters and the withheld cells to ask about."""

    graph: object  # RanGraph re-loaded from the written deployed network
    features_norm: np.ndarray
    norm: data_io.NormParams
    params: dict  # kind -> model params
    requests: list  # (cell id, raw feature row), PASS_REQUESTS long


def deploy(run: Run, base: Path, net: Path, params_dir: Path, config: dict) -> Deployment:
    """Withhold the split's test cells from ``net``; write and re-load the rest."""
    full = cli._load_graph(net / "cells.csv", net / "edges.csv")
    split = graph.split_nodes(full, tuple(config["split"]["ratios"]), seed=pipeline.subseed(run.seed, "split"))
    deployed = graph.remove_nodes(full, split.test_nodes)
    out = base / "deployed"
    out.mkdir()
    data_io.write_cells_csv(out / "cells.csv", deployed.ids, deployed.features)
    data_io.write_edges_csv(out / "edges.csv", deployed.edge_list())
    network = cli._load_graph(out / "cells.csv", out / "edges.csv")

    norm = data_io.NormParams.from_json((params_dir / "norm_params.json").read_text())
    params = {kind: models.params_from_json((params_dir / f"params_{kind}.json").read_text()) for kind in KINDS}
    withheld = [split.test_nodes[i] for i in np.random.default_rng(run.seed).permutation(len(split.test_nodes))]
    cycled = (withheld * math.ceil(PASS_REQUESTS / len(withheld)))[:PASS_REQUESTS]
    requests = [(cid, full.features.values[full.index_of(cid)]) for cid in cycled]
    return Deployment(network, data_io.zscore_apply(norm, network.features).values, norm, params, requests)


def answer(dep: Deployment, kind: str, row: np.ndarray):
    """One planner request, as ``ran-topo predict`` serves it: normalize, then predict."""
    features = dep.graph.features
    new_cell = graph.FeatureMatrix(features.columns, row[None, :], features.coord_cols)
    new_norm = data_io.zscore_apply(dep.norm, new_cell).values[0]
    lat, lon = features.coord_cols
    return pipeline.predict_new_node(
        dep.params[kind], dep.graph, dep.features_norm, new_norm, (row[lat], row[lon]), FILTER, cutoff=CUTOFF
    )


def answer_problems(row: np.ndarray, outcome) -> list[str]:
    """What is wrong with one answer, judged from the request and the answer alone."""
    if not np.isfinite(row).all():
        # bad input must be refused loudly (exit code 2 on the CLI), not answered
        return [] if isinstance(outcome, RanTopoError) else ["answered a cell with a non-finite feature"]
    if isinstance(outcome, Exception):
        return [f"raised {outcome!r}"]
    probs = [p for _, p in outcome.neighbors]
    problems = []
    if not all(math.isfinite(p) and p >= CUTOFF for p in probs):
        problems.append("probability not finite or below the cutoff")
    if any(a < b for a, b in zip(probs, probs[1:])):
        problems.append("neighbors not sorted by descending probability")
    return problems


def serve_burst(run: Run, dep: Deployment, count: int = BURST_REQUESTS) -> None:
    """Send the next ``count`` requests, each GNN then MLP, closed loop; check each answer.

    A cell asked about again must get the identical neighbor list.
    """
    for _ in range(count):
        cid, row = dep.requests[run.served % len(dep.requests)]
        run.served += 1
        for kind in KINDS:
            start = time.perf_counter()
            try:
                outcome = answer(dep, kind, row)
            except Exception as exc:  # a refused or crashed request is checked, not fatal
                outcome = exc
            run.latencies[kind].append(time.perf_counter() - start)
            problems = answer_problems(row, outcome)
            if not isinstance(outcome, Exception):
                text = json.dumps(outcome.neighbors)
                if run.answers.setdefault((kind, cid), text) != text:
                    problems.append("answer differs from an earlier one for the same cell")
            run.attempt(f"{kind} request for {cid}", problems)


def answers_digest(run: Run) -> str:
    return text_digest(*(f"{kind} {cid} {text}" for (kind, cid), text in sorted(run.answers.items())))


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True, eq=False)
class EvalState:
    config: Path
    bundle: Path
    deployment: Deployment


class EvalDefault:
    """``ran-topo eval`` of the GNN on the default network; params from ``ran-topo experiment``."""

    name = "eval-default"
    # new cells asked about after each timed operation: about a fifth of the run
    requests_after_op = 48

    def setup(self, run: Run, base: Path, index: int) -> EvalState:
        config_path, config = run.config(base, "default.json", "eval", tiny_sites=20)
        bundle = base / "bundle"
        printed = run.cli("experiment", "--config", config_path, "--out", bundle)
        problems = run.record("bundle", text_digest(dir_digest(bundle), printed), index)
        with open(bundle / "summary.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        for model, mode, *values in rows:
            if not all(math.isfinite(float(v)) for v in values if v):
                problems.append(f"non-finite summary value for {model} {mode}")
            run.info[f"experiment {model} {mode}"] = dict(zip(header[2:], values))
        run.attempt(f"experiment set-up {index}", problems)
        return EvalState(config_path, bundle, deploy(run, base, bundle / "data", bundle, config))

    def operate(self, run: Run, state: EvalState, out: Path) -> str:
        return run.cli("eval", "--params", state.bundle / f"params_{models.GNN_KIND}.json",
                       "--config", state.config, "--out", out)

    def check(self, run: Run, state: EvalState, out: Path, index: int, printed: str) -> list[str]:
        problems = run.record("eval", text_digest(dir_digest(out), printed), index)
        config = json.loads(state.config.read_text())
        with open(state.bundle / "data" / "cells.csv") as fh:
            n = sum(1 for _ in fh) - 1
        n_eval = math.floor(n * config["split"]["ratios"][1])
        all_pairs = n_eval * (n - n_eval) + n_eval * (n_eval - 1) // 2
        kind = models.GNN_KIND
        for mode in ("balanced", "all_pairs", "candidate_filtered"):
            report = json.loads((out / f"{kind}_{mode}.json").read_text())
            problems += _report_problems(f"{kind} {mode}", report)
            if mode == "all_pairs" and report["pairs"] != all_pairs:
                problems.append(f"{kind} all_pairs has {report['pairs']} pairs, expected {all_pairs}")
            run.info[f"eval {kind} {mode}"] = {k: report[k] for k in ("accuracy", "precision", "recall", "auc")}
        return problems


class Predict:
    """Planner requests for withheld cells of a 1,500-site network, closed loop."""

    name = "predict"
    requests_after_op = 0  # the timed operation is already a burst

    def setup(self, run: Run, base: Path, index: int) -> Deployment:
        params = run.params(base)
        _, config = run.config(base, "default.json", "predict", tiny_sites=30, **PREDICT_SYNTH)
        return deploy(run, base, run.synth(base, config), params, config)

    def operate(self, run: Run, state: Deployment, out: Path) -> None:
        serve_burst(run, state)

    def check(self, run: Run, state: Deployment, out: Path, index: int, printed: None) -> None:
        return None  # each request was checked and counted as it was answered


WORKLOADS = {w.name: w for w in (EvalDefault(), Predict())}
