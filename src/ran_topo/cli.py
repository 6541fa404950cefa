"""Command-line surface: ``ran-topo <subcommand>``.

Exit codes: 0 success, 2 configuration/validation error, 3 I/O error,
4 a bug: a failure the package did not raise. ``main`` alone maps a
failure to its code, a StageError by its cause: an OSError to 3, any other
package error to 2, anything else to 4. RAN_TOPO_LOG sets the log level (a
name that is not a level exits 2); DEBUG also logs a failure's traceback.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import sys
from dataclasses import replace

from . import models, pipeline
from .candidate import evaluate_candidates
from .config import CandidateConfig, ExperimentConfig, SynthConfig
from .data_io import NormParams, decode_json, open_input, parse_new_cell, read_network, write_text, zscore_apply
from .errors import RanTopoError, StageError, ValidationError
from .graph import split_nodes
from .synth import export, generate

log = logging.getLogger("ran_topo")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _load_json(path: str):
    with open_input(path) as fh:
        return decode_json(fh.read(), path)


# the subcommands' network reader, under the name perfbench/workloads.py calls
_load_graph = read_network


def cmd_synth(args) -> int:
    cfg = SynthConfig.from_dict(_load_json(args.config))
    cfg = cfg if args.seed is None else replace(cfg, seed=args.seed)
    gt = generate(cfg)
    os.makedirs(args.out, exist_ok=True)
    export(gt, args.out)
    meta = {
        "config": cfg.to_dict(),
        "nodes": gt.graph.n,
        "edges": gt.graph.num_edges,
    }
    write_text(os.path.join(args.out, "groundtruth-meta.json"), json.dumps(meta, indent=2, sort_keys=True))
    log.info("wrote %d cells, %d edges to %s", gt.graph.n, gt.graph.num_edges, args.out)
    return EXIT_OK


def _add_filter_flags(parser: argparse.ArgumentParser) -> None:
    """``--k`` and ``--max-dist-km``, defaulting to the experiment's candidate ``filter``."""
    parser.add_argument("--k", type=int, default=ExperimentConfig.filter.k, help="max candidates per cell")
    parser.add_argument("--max-dist-km", type=float, default=ExperimentConfig.filter.max_dist,
                        help="max candidate distance (km); inf for no cap")


def _candidate_config(args) -> CandidateConfig:
    return CandidateConfig.from_dict({"k": args.k, "max_dist_km": args.max_dist_km})


def cmd_candidates(args) -> int:
    graph = read_network(args.cells, args.edges)
    cfg = _candidate_config(args)
    try:
        ratios = tuple(float(r) for r in args.eval_split.split(","))
    except ValueError:
        raise ValidationError(f"--eval-split {args.eval_split!r} is not a list of numbers") from None
    split = split_nodes(graph, ratios, seed=pipeline.subseed(args.seed, "split"))
    report = evaluate_candidates(graph, split.val_nodes, cfg)
    text = report.to_json()
    print(text)
    if args.out:
        write_text(args.out, text)
    return EXIT_OK


def _experiment_config(args) -> ExperimentConfig:
    """The whole --config file (default: ``{}``), parsed before any other stage."""
    with pipeline.stage("config"):
        cfg = ExperimentConfig.from_dict(_load_json(args.config) if args.config else {})
        return cfg if args.seed is None else replace(cfg, seed=args.seed)


def cmd_train(args) -> int:
    cfg = _experiment_config(args)
    data = pipeline.prepare_experiment(cfg, args.out)
    kinds = [args.model] if args.model != "both" else models.KINDS
    results = {}
    for kind in kinds:
        results[kind] = result = pipeline.train(kind, data, cfg)
        best_accuracy = result.history[result.best_epoch]["val_accuracy"]
        log.info("%s: best val accuracy %.4f at epoch %d", kind, best_accuracy, result.best_epoch)
    with pipeline.stage("write"):
        pipeline.write_models(args.out, results, data.norm_params)
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _experiment_config(args)
    with open_input(args.params) as fh:
        params = models.params_from_json(fh.read())
    data = pipeline.prepare_experiment(cfg)
    reports = pipeline.evaluate_model(params, data, cfg)
    print(pipeline.format_summary(None, reports))
    with pipeline.stage("write"):
        pipeline.write_reports(args.out, reports)
    return EXIT_OK


def cmd_predict(args) -> int:
    with open_input(args.params) as fh:
        params = models.params_from_json(fh.read())
    with open_input(args.norm_params) as fh:
        norm = NormParams.from_json(fh.read())
    graph = read_network(args.cells, args.edges)
    new_cell = parse_new_cell(_load_json(args.new_cell), graph.features)
    features_norm = zscore_apply(norm, graph.features).values
    new_norm = zscore_apply(norm, new_cell).values[0]
    prediction = pipeline.predict_new_node(
        params, graph, features_norm, new_norm, new_cell.coords()[0], _candidate_config(args),
        cutoff=args.cutoff, max_neighbors=args.max_neighbors,
    )
    if prediction.no_candidates:
        print("warning: candidate set is empty", file=sys.stderr)
    print(json.dumps(
        [{"cell_id": cid, "probability": prob} for cid, prob in prediction.neighbors],
        indent=2,
    ))
    return EXIT_OK


def cmd_experiment(args) -> int:
    cfg = _experiment_config(args)
    result = pipeline.run_experiment(cfg, args.out)
    print(pipeline.format_summary(result.candidate_report, result.model_reports))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ran-topo",
        description="Predict mobility relations for cells in a radio network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = argparse.ArgumentParser(add_help=False)  # train, eval and experiment
    run.add_argument("--config", default=None, help="experiment config JSON (default: configs/default.json)")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser("synth", help="generate a synthetic network")
    p.add_argument("--config", required=True, help="SynthConfig JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("candidates", help="evaluate the geographic candidate baseline")
    p.add_argument("--cells", required=True)
    p.add_argument("--edges", required=True)
    _add_filter_flags(p)
    p.add_argument("--eval-split", default=",".join(map(str, ExperimentConfig.split)))
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed, help="seed of the split")
    p.add_argument("--out", default=None, help="also write the report JSON here")
    p.set_defaults(func=cmd_candidates)

    p = sub.add_parser("train", parents=[run], help="train the link-prediction models")
    p.add_argument("--model", choices=[*models.KINDS, "both"], default="both")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[run], help="evaluate trained parameters in all modes")
    p.add_argument("--params", required=True, help="model parameter JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="predict neighbors for a new cell")
    p.add_argument("--params", required=True)
    p.add_argument("--norm-params", required=True)
    p.add_argument("--cells", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--new-cell", required=True, help="JSON with lat, lon, and features")
    _add_filter_flags(p)
    p.add_argument("--cutoff", type=float, default=ExperimentConfig.cutoff)
    p.add_argument("--max-neighbors", type=int, default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("experiment", parents=[run], help="run the full pipeline end to end")
    p.set_defaults(func=cmd_experiment)

    return parser


# glibc's dynamic thresholds hand the heap top back after each optimizer step
# and fault it in again on the next: fixed ones took `train --model both` on the
# default config from 334-341 k to 3.5 k minor faults, 2.7-3.0 s to 1.5-1.8 s (2-core VM)
_HEAP_THRESHOLDS = ((-3, 32 << 20), (-1, 128 << 20))  # (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD), bytes


def _keep_heap() -> None:
    """Fix glibc's mmap and trim thresholds, which ends their dynamic adjustment; a no-op without ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _HEAP_THRESHOLDS:
        mallopt(param, value)


def main(argv=None) -> int:
    _keep_heap()
    level = os.environ.get("RAN_TOPO_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):
        print(f"error: RAN_TOPO_LOG={level!r} is not a log level such as DEBUG or INFO", file=sys.stderr)
        return EXIT_CONFIG
    logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        log.debug("traceback of the failure", exc_info=True)
        cause = exc.cause if isinstance(exc, StageError) else exc
        if isinstance(cause, OSError):
            return EXIT_IO
        if isinstance(cause, RanTopoError):
            return EXIT_CONFIG
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
