"""Wrapper spans at ran_topo's module boundaries, recorded from outside the package.

``Tracer.patched()`` replaces each public function listed in ``BOUNDARIES``,
in every loaded ``ran_topo`` module that binds it, with a wrapper that
records a span (name, start, end, parent) plus a few counts, and puts the
originals back on exit. Nothing under ``src/`` is edited; untraced code runs
the original functions. Spans stay in memory until ``metrics()`` folds them
into per-module numbers and ``records()`` hands them to the run record.

Span names are the metric names (``models.neighbor_mean`` gives
``models.neighbor_mean.s`` and ``.calls``), so spans added inside the program
later can keep them.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

F64_BYTES = 8


@dataclass
class Span:
    name: str
    start: float
    parent: int | None  # index into Tracer.spans
    end: float = 0.0
    child_s: float = 0.0  # children run one after another, so durations add
    counts: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


def _kind(params) -> str:
    from ran_topo import models

    return models.kind_of(params)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _mode_name(prefix: str, pos: int):
    def name(args, kwargs):
        from ran_topo import pipeline

        return prefix + pipeline.mode_name(_arg(args, kwargs, pos, "mode"))

    return name


def _sample_pairs_name(args, kwargs):
    # train() draws its epoch pairs over every node of the training graph
    if _arg(args, kwargs, 1, "eval_nodes") is args[0].ids:
        return "pipeline.sample_pairs.train"
    return _mode_name("pipeline.sample_pairs.", 2)(args, kwargs)


def _dir_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def _score_counts(args, kwargs, result):
    rows, pairs = args[1], args[2]
    # both concat orders build a (B, 2 * width) float64 pair input: computed, not measured
    return {"pairs": len(pairs), "input_bytes": 2 * len(pairs) * 2 * rows.shape[1] * F64_BYTES}


def _candidate_counts(args, kwargs, result):
    return {"distances": args[0].n, "kept": len(result)}


# (module, function, span name or naming function, counts function)
BOUNDARIES = [
    ("models", "neighbor_mean", None, None),
    ("models", "sage_embed", None, None),
    ("models", "loss_and_grads", lambda a, k: "models.loss_and_grads." + _kind(a[0]),
     lambda a, k, r: {"pairs": len(a[2])}),
    ("models", "symmetric_score_batch", None, _score_counts),
    ("models", "params_from_dict", None, None),
    ("neural", "adam_step", None, None),
    ("pipeline", "train", lambda a, k: "pipeline.train." + a[0], None),
    ("pipeline", "sample_pairs", _sample_pairs_name, lambda a, k, r: {"pairs": len(r.pairs)}),
    ("pipeline", "evaluate", _mode_name("pipeline.evaluate.", 3), None),
    ("pipeline", "auc", None, None),
    ("pipeline", "make_scorer", None, None),
    ("pipeline", "predict_new_node", lambda a, k: "pipeline.predict_new_node." + _kind(a[0]), None),
    ("pipeline", "write_bundle", None, lambda a, k, r: {"bytes": _dir_bytes(a[2])}),
    ("candidate", "evaluate_candidates", None, None),
    ("candidate", "candidates", None, _candidate_counts),
    ("candidate", "candidates_for_new", None, _candidate_counts),
    ("synth", "generate", None, lambda a, k, r: {"cells": r.graph.n, "edges": r.graph.num_edges}),
    ("synth", "export", None, None),
    ("data_io", "parse_cells_csv", None, None),
    ("data_io", "parse_edges_csv", None, None),
    ("data_io", "zscore_apply", None, None),
    ("graph", "build_graph", None, None),
    ("graph", "split_nodes", None, None),
    ("graph", "remove_nodes", None, None),
]


class Tracer:
    """In-memory span recorder; one per run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record ``name`` around the block while tracing is on."""
        if not self.active:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += record.total_s

    def _wrap(self, fn, module: str, name, counts):
        default = f"{module}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else default
            with self.span(span_name) as record:
                result = fn(*args, **kwargs)
                if counts is not None and record is not None:
                    record.counts = counts(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Trace every boundary in ``BOUNDARIES`` for the duration of the block."""
        loaded = [m for key, m in sys.modules.items() if key.split(".")[0] == "ran_topo"]
        swaps = []
        for module_name, attr, name, counts in BOUNDARIES:
            original = getattr(sys.modules["ran_topo." + module_name], attr)
            wrapper = self._wrap(original, module_name, name, counts)
            for module in loaded:
                for key, value in vars(module).items():
                    if value is original:
                        swaps.append((module, key, original))
                        setattr(module, key, wrapper)
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            for module, key, original in reversed(swaps):
                setattr(module, key, original)

    def _ancestor(self, index: int, prefix: str) -> Span | None:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name.startswith(prefix):
                return self.spans[parent]
            parent = self.spans[parent].parent
        return None

    def metrics(self) -> dict[str, float]:
        """Per-name sums: ``.s`` self time, ``.total_s``, ``.calls`` and each count."""
        out: dict[str, float] = defaultdict(float)
        for index, record in enumerate(self.spans):
            out[record.name + ".s"] += record.self_s
            out[record.name + ".total_s"] += record.total_s
            out[record.name + ".calls"] += 1
            for key, value in record.counts.items():
                out[f"{record.name}.{key}"] += value
            if record.name == "neural.adam_step":
                train = self._ancestor(index, "pipeline.train.")
                if train is not None:
                    out[train.name + ".steps"] += 1
            if record.name.startswith("models.loss_and_grads."):
                train = self._ancestor(index, "pipeline.train.")
                if train is not None:
                    out[train.name + ".pairs"] += record.counts["pairs"]
        for kind in ("mlp", "gnn"):
            name = "pipeline.train." + kind
            if out[name + ".total_s"] > 0:
                out[name + ".pairs_per_s"] = out[name + ".pairs"] / out[name + ".total_s"]
        scanned = out["candidate.candidates.distances"] + out["candidate.candidates_for_new.distances"]
        out["candidate.distances"] = scanned
        kept = out["candidate.candidates.kept"] + out["candidate.candidates_for_new.kept"]
        out["candidate.kept_ratio"] = kept / scanned if scanned else 0.0
        # the benchmark's own "cli" span wraps cli.main; its self time is argparse and printing
        out["cli.self.s"] = out["cli.s"]
        return dict(out)

    def records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, **s.counts}
            for s in self.spans
        ]
