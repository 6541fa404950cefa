"""ran-topo benchmark: one workload per process, or all of them.

    python3 perfbench/run.py --workload predict --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 1

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-module metrics,
taken from wrapper spans around the package's public functions. Each run also
writes its full record (environment, output digests, info-only accuracy and
AUC, every operation time and request latency and, when traced, every span)
to ``.perfbench_out/`` in the checkout. ``--all`` runs every workload in a fresh process, so each reports
its own peak memory, and prints their metrics one after another.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# one BLAS thread beside the interpreter's: at most nproc (2) threads, and the
# same on both sides of every comparison
BLAS_THREADS = 1
SETUP_REPS = 3
# timed operations in a run, however short ``--seconds`` is
MIN_OPS = 3

END_TO_END = {
    "run_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "predict_gnn_p95_ms": "ms",
    "predict_mlp_p95_ms": "ms",
}

_SPANS = {
    "models.neighbor_mean": ("s", "calls"),
    "models.sage_embed": ("s", "total_s", "calls"),
    "models.loss_and_grads.mlp": ("s", "calls"),
    "models.loss_and_grads.gnn": ("s", "calls"),
    "models.symmetric_score_batch": ("s", "pairs", "input_bytes"),
    "models.params_from_dict": ("calls",),
    "neural.adam_step": ("s", "calls"),
    "pipeline.train.mlp": ("s", "total_s", "steps", "pairs_per_s"),
    "pipeline.train.gnn": ("s", "total_s", "steps", "pairs_per_s"),
    "pipeline.sample_pairs.train": ("s", "pairs"),
    "pipeline.sample_pairs.balanced": ("s", "pairs"),
    "pipeline.sample_pairs.all_pairs": ("s", "pairs"),
    "pipeline.sample_pairs.candidate_filtered": ("s", "pairs"),
    "pipeline.evaluate.balanced": ("s",),
    "pipeline.evaluate.all_pairs": ("s",),
    "pipeline.evaluate.candidate_filtered": ("s",),
    "pipeline.auc": ("s",),
    "pipeline.make_scorer": ("s",),
    "pipeline.predict_new_node.mlp": ("s", "total_s"),
    "pipeline.predict_new_node.gnn": ("s", "total_s"),
    "pipeline.write_bundle": ("s", "bytes"),
    "candidate.evaluate_candidates": ("s",),
    "candidate.candidates": ("calls",),
    "candidate.candidates_for_new": ("s",),
    "candidate": ("distances", "kept_ratio"),
    "synth.generate": ("s", "cells", "edges"),
    "synth.export": ("s",),
    "data_io.parse_cells_csv": ("s",),
    "data_io.parse_edges_csv": ("s",),
    "data_io.zscore_apply": ("s",),
    "graph.build_graph": ("s", "calls"),
    "graph.split_nodes": ("s",),
    "graph.remove_nodes": ("s",),
    "cli.self": ("s",),
}
_UNITS = {"s": "s", "total_s": "s", "pairs_per_s": "1/s", "input_bytes": "bytes", "bytes": "bytes",
          "kept_ratio": "ratio"}
PER_LAYER = {f"{span}.{key}": _UNITS.get(key, "count") for span, keys in _SPANS.items() for key in keys}
PER_LAYER["trace.overhead_s"] = "s"


def blas_state() -> list[dict]:
    """Version and thread count in effect of every OpenBLAS the process loaded."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                with contextlib.suppress(AttributeError):
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    entry.update(threads=threads(), config=config().decode())
        found.append(entry)
    return found


def environment(args) -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_requested": BLAS_THREADS,
        "openblas": blas_state(),
        "src_lines": src_lines,
    }


def measure(args, import_s: float) -> dict:
    """Set up, then run the timed loop with its planner requests; return the run record."""
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    run = workloads.Run(ROOT, work, args.seed, args.tiny, tracer)
    traced = tracer.patched if args.trace else contextlib.nullcontext
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            base = work / f"setup{rep}"
            base.mkdir()
            last = rep == SETUP_REPS - 1
            with traced() if last else contextlib.nullcontext():
                start = time.perf_counter()
                state = workload.setup(run, base, rep)
                setup_times.append(time.perf_counter() - start)
            if not last:
                shutil.rmtree(base)

        def operation(index: int, tracing) -> float:
            out = work / f"op{index}"
            out.mkdir()
            start = time.perf_counter()
            try:
                try:
                    with tracing():
                        printed = workload.operate(run, state, out)
                finally:
                    took = time.perf_counter() - start
                problems = workload.check(run, state, out, index, printed)
            except Exception as exc:  # a failed operation or check is counted, and the run goes on
                problems = [repr(exc)]
            if problems is not None:  # None: the workload counted its own requests
                run.attempt(f"{args.workload} operation {index}", problems)
            shutil.rmtree(out)
            if workload.requests_after_op:
                with tracing():
                    workloads.serve_burst(run, state.deployment, workload.requests_after_op)
            return took

        # operations and planner bursts alternate for the whole run, so both
        # see the same mix of fast and slow host periods
        op_times = []
        loop_start = time.perf_counter()
        while (
            time.perf_counter() - loop_start < args.seconds
            or len(op_times) < MIN_OPS
            or min(map(len, run.latencies.values())) < workloads.MIN_REQUESTS
        ):
            op_times.append(operation(len(op_times), contextlib.nullcontext))
        record = {"setup_s": setup_times, "op_s": op_times}

        if args.trace:
            traced_s = operation(len(op_times), traced)
            record["traced_op_s"] = traced_s
            record["trace.overhead_s"] = traced_s - statistics.median(op_times)
        run.digests["answers"] = workloads.answers_digest(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    figures = summary(op_times, import_s, setup_times, peak_rss_mb, run.latencies)
    if args.trace:
        spans = tracer.metrics()
        spans["trace.overhead_s"] = record["trace.overhead_s"]
        metrics = {name: {"value": spans.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER.items()}
        record["spans"] = tracer.records()
    else:
        metrics = {name: {"value": figures[name]["value"], "unit": unit} for name, unit in END_TO_END.items()}
    record.update(
        environment=environment(args),
        import_s=import_s,
        latency_s=run.latencies,
        attempted=run.attempted,
        failed=len(run.failures),
        failures=run.failures,
        error_rate=len(run.failures) / max(run.attempted, 1),
        digests=run.digests,
        info=run.info,
        figures=figures,
        metrics=metrics,
    )
    return record


def summary(op_times, import_s, setup_times, peak_rss_mb, latencies) -> dict:
    """Every end-to-end figure of a run with its unit and sample count; END_TO_END picks the gated ones."""
    import numpy

    figures = {
        "run_s": (statistics.median(op_times), "s", len(op_times)),
        "run_p90_s": (float(numpy.percentile(op_times, 90)), "s", len(op_times)),
        "setup_s": (import_s + statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    for kind, samples in latencies.items():
        for q in (5, 50, 95):
            figures[f"predict_{kind}_p{q}_ms"] = (float(numpy.percentile(samples, q)) * 1e3, "ms", len(samples))
    return {name: {"value": v, "unit": unit, "samples": n} for name, (v, unit, n) in figures.items()}


def report(record: dict, path: Path) -> None:
    env = record["environment"]
    print(f"workload {env['workload']}  seed {env['seed']}  trace {env['trace']}  "
          f"nproc {env['nproc']}  blas threads {[b.get('threads') for b in env['openblas']]}  "
          f"src lines {env['src_lines']}")
    for name, metric in record["metrics"].items():
        n = record["figures"].get(name, {}).get("samples")
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']:<6}" + (f" ({n} samples)" if n else ""))
    for name, figure in record["figures"].items():
        if name not in record["metrics"]:
            print(f"  info {name:<39} {figure['value']:>14.6g} {figure['unit']:<6} ({figure['samples']} samples)")
    print(f"  {'error_rate':<44} {record['error_rate']:>14.6g} ratio  "
          f"({record['failed']} failed of {record['attempted']} attempted)")
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure}")
    for row, values in record["info"].items():
        print(f"  info {row}: {json.dumps(values)}")
    print(f"  record {path.relative_to(ROOT)}")


def run_all(args, names) -> int:
    """Every workload in its own process; a failure in one does not stop the rest."""
    code = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        child = subprocess.run(cmd, cwd=ROOT, check=False)
        code = code or child.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one of the names in BENCHMARK.json")
    parser.add_argument("--all", action="store_true", help="run every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=0, help="workload seed: split, initialization, sampling, request order")
    parser.add_argument("--seconds", type=float, default=40.0, help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-module metrics from wrapper spans")
    parser.add_argument("--tiny", action="store_true", help="tiny networks and one epoch, for the smoke test")
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    if not (ROOT / "src" / "ran_topo" / "__init__.py").is_file():
        print(f"error: no ran_topo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    start = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - start
    if args.all:
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    record = measure(args, import_s)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    report(record, path)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
