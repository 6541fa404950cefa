import contextlib
import csv
import io
import json
import logging

import pytest

from conftest import adjacency_sets
from ran_topo import cli, models, pipeline
from ran_topo.cli import main
from ran_topo.errors import ValidationError

SYNTH_CFG = {
    "sites": 15,
    "cells_per_site": [2, 4],
    "bbox": [57.0, 57.15, 11.5, 11.8],
    "radius_km": 3.0,
    "bands": 3,
    "seed": 4,
}

EXPERIMENT_CFG = {
    "seed": 11,
    "data": {"synthetic": SYNTH_CFG},
    "split": {"ratios": [0.8, 0.1, 0.1]},
    "filter": {"k": 10, "max_dist_km": 3.0},
    "dims": {"h": 8, "d": 8},
    "train": {"epochs": 3, "batch_size": 256, "learning_rate": 1e-3},
    "cutoff": 0.5,
}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def write_file(path, content):
    """Write str or bytes ``content``; bytes let a test write a file that is not UTF-8."""
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return str(path)


@pytest.fixture
def synth_dir(tmp_path):
    cfg = write_json(tmp_path / "synth.json", SYNTH_CFG)
    out = tmp_path / "net"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    return out


class FakeLibc:
    """A libc handle whose ``mallopt`` records each (param, value) call and returns ``result``."""

    def __init__(self, result=1):
        self.calls = []

        def mallopt(param, value):  # a function, so that it takes ctypes' argtypes and restype
            self.calls.append((param, value))
            return result

        self.mallopt = mallopt


def no_libc(name):
    raise OSError(f"cannot open {name!r}")


# what opening libc may give: a working mallopt, one that refuses (returns 0),
# a libc without mallopt, or no libc at all
LIBC_HANDLES = {
    "mallopt_ok": lambda name: FakeLibc(),
    "mallopt_refuses": lambda name: FakeLibc(result=0),
    "no_mallopt": lambda name: object(),
    "no_libc": no_libc,
}


class TestKeepHeap:
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3

    @staticmethod
    def synth(tmp_path):
        cfg = write_json(tmp_path / "synth.json", SYNTH_CFG)
        return main(["synth", "--config", cfg, "--out", str(tmp_path / "net")])

    def test_main_fixes_the_mmap_then_the_trim_threshold(self, tmp_path, monkeypatch):
        libc, opened = FakeLibc(), []
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: opened.append(name) or libc)
        assert self.synth(tmp_path) == 0
        assert opened == [None]
        assert libc.calls == [(self.M_MMAP_THRESHOLD, 32 << 20), (self.M_TRIM_THRESHOLD, 128 << 20)]

    @pytest.mark.parametrize("handle", sorted(LIBC_HANDLES))
    def test_main_runs_whatever_libc_gives(self, tmp_path, monkeypatch, handle):
        monkeypatch.setattr(cli.ctypes, "CDLL", LIBC_HANDLES[handle])
        assert self.synth(tmp_path) == 0
        assert (tmp_path / "net" / "cells.csv").is_file()

    @pytest.mark.parametrize("handle", sorted(LIBC_HANDLES))
    def test_help_and_bad_log_level_exits_unchanged(self, monkeypatch, capsys, handle):
        monkeypatch.setattr(cli.ctypes, "CDLL", LIBC_HANDLES[handle])
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == cli.build_parser().format_help()
        monkeypatch.setenv("RAN_TOPO_LOG", "bogus")
        assert main(["synth", "--config", "unused.json", "--out", "unused"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: RAN_TOPO_LOG='bogus' is not a log level such as DEBUG or INFO\n"


class TestSynth:
    def test_writes_network(self, synth_dir):
        assert (synth_dir / "cells.csv").is_file()
        assert (synth_dir / "edges.csv").is_file()
        meta = json.loads((synth_dir / "groundtruth-meta.json").read_text())
        assert meta["nodes"] > 0
        assert meta["edges"] > 0

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json", {**SYNTH_CFG, "sites": 1})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exit_3(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")]) == 3

    def test_unwritable_out_exit_3(self, tmp_path):
        cfg = write_json(tmp_path / "synth.json", SYNTH_CFG)
        # a regular file in the middle of the output path makes makedirs fail
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        assert main(["synth", "--config", cfg, "--out", str(blocker / "sub")]) == 3

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_json(tmp_path / "synth.json", SYNTH_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--config", cfg, "--out", str(a), "--seed", "1"]) == 0
        assert main(["synth", "--config", cfg, "--out", str(b), "--seed", "2"]) == 0
        assert (a / "cells.csv").read_text() != (b / "cells.csv").read_text()


class TestCandidates:
    def test_unlimited_k_perfect_recall(self, synth_dir, capsys):
        code = main([
            "candidates",
            "--cells", str(synth_dir / "cells.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--k", "100000",
            "--eval-split", "0.8,0.1,0.1",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["recall"] == 1.0

    def test_k_zero_zero_recall(self, synth_dir, capsys):
        code = main([
            "candidates",
            "--cells", str(synth_dir / "cells.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--k", "0",
            "--eval-split", "0.8,0.1,0.1",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["recall"] == 0.0

    def test_missing_file_exit_3(self, tmp_path):
        code = main([
            "candidates",
            "--cells", str(tmp_path / "missing.csv"),
            "--edges", str(tmp_path / "missing2.csv"),
            "--k", "5",
        ])
        assert code == 3

    @pytest.mark.parametrize("field", ["nan", "inf", "1e400"])
    def test_non_finite_feature_exit_2(self, synth_dir, tmp_path, capsys, field):
        header, first, *rest = (synth_dir / "cells.csv").read_text().splitlines()
        values = first.split(",")
        values[-1] = field
        cells = tmp_path / "cells.csv"
        cells.write_text("\n".join([header, ",".join(values), *rest]) + "\n")
        code = main([
            "candidates", "--cells", str(cells), "--edges", str(synth_dir / "edges.csv"), "--k", "5",
        ])
        assert code == 2
        assert "missing feature values" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["a,b", "0.9,0.1", "0.9,0.05,0.05,0"])
    def test_bad_eval_split_exit_2(self, synth_dir, capsys, split):
        code = main([
            "candidates",
            "--cells", str(synth_dir / "cells.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--k", "10",
            "--eval-split", split,
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_split_without_validation_cell_exit_2(self, tmp_path, capsys):
        cells = tmp_path / "cells.csv"
        cells.write_text("cell_id,lat,lon,f1\n" + "".join(f"c{i},57.0{i},11.5,1\n" for i in range(8)))
        edges = tmp_path / "edges.csv"
        edges.write_text("cell_id_a,cell_id_b\nc0,c1\n")
        code = main(["candidates", "--cells", str(cells), "--edges", str(edges), "--k", "3"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: a validation ratio of 0.05 leaves no validation cell among 8 cells\n"
        )

    @pytest.mark.parametrize("name", ["cells.csv", "edges.csv"])
    def test_non_utf8_file_exit_2(self, synth_dir, tmp_path, capsys, name):
        paths = {other: str(synth_dir / other) for other in ("cells.csv", "edges.csv")}
        # a byte 0xff on the second line, which no UTF-8 text holds
        header, rest = (synth_dir / name).read_bytes().split(b"\n", 1)
        paths[name] = write_file(tmp_path / name, header + b"\n\xff" + rest)
        code = main(["candidates", "--cells", paths["cells.csv"], "--edges", paths["edges.csv"], "--k", "5"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {paths[name]} is not UTF-8 text (invalid start byte)\n"

    def test_nan_max_distance_exit_2(self, synth_dir, capsys):
        code = main([
            "candidates",
            "--cells", str(synth_dir / "cells.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--k", "10", "--max-dist-km", "nan",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["bogus", "10", ""])
    def test_unknown_log_level_exit_2(self, synth_dir, capsys, monkeypatch, level):
        monkeypatch.setenv("RAN_TOPO_LOG", level)
        code = main([
            "candidates",
            "--cells", str(synth_dir / "cells.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--k", "10",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: RAN_TOPO_LOG=") and captured.err.count("\n") == 1

    def test_report_written_to_out(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "cand.json"
        code = main([
            "candidates",
            "--cells", str(synth_dir / "cells.csv"),
            "--edges", str(synth_dir / "edges.csv"),
            "--k", "10", "--max-dist-km", "2.0",
            "--eval-split", "0.8,0.1,0.1",
            "--out", str(out),
        ])
        assert code == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["mode"].startswith("candidate")
        assert report["pairs"] == report["tp"] + report["fp"] + report["tn"] + report["fn"]


class TestExperiment:
    def test_full_bundle(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "exp.json", EXPERIMENT_CFG)
        out = tmp_path / "run"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "balanced" in stdout
        for name in ("config.json", "summary.csv", "params_mlp.json", "params_gnn.json"):
            assert (out / name).is_file()
        assert len(list((out / "reports").iterdir())) == 7

    def test_bad_experiment_config_exit_2(self, tmp_path):
        cfg = write_json(tmp_path / "exp.json", {**EXPERIMENT_CFG, "data": {}})
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "run")]) == 2


def _raiser(exc):
    def raise_(*args, **kwargs):
        raise exc
    return raise_


def _fail_after(monkeypatch, name, calls, exc):
    """Let the first ``calls`` calls of ``pipeline.<name>`` through (the
    MLP's, which an experiment runs first), then raise ``exc``."""
    original, done = getattr(pipeline, name), []

    def patched(*args, **kwargs):
        if len(done) == calls:
            raise exc
        done.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, patched)


def _missing_network(config, out, monkeypatch):
    config["data"] = {"cells_csv": str(out / "missing.csv"), "edges_csv": str(out / "missing.csv")}


def _reports_dir_is_a_file(config, out, monkeypatch):
    out.mkdir()
    (out / "reports").write_text("")


# every stage a StageError can name -> (a change to the experiment, or a fault
# injected into a function only that stage calls, that makes the stage fail;
# the exit code of the failure's cause: 3 for an OSError, 2 for any other
# package error, 4 for an exception the package does not raise itself, such
# as the IndexError of a bug). A bad config value fails in the config stage.
STAGE_FAILURES = {
    "config": (lambda config, out, mp: config.update(train={"epochs": 0}), 2),
    "data": (_missing_network, 3),
    "split": (lambda config, out, mp: mp.setattr(pipeline, "split_nodes", _raiser(ValidationError("broken"))), 2),
    "normalize": (lambda config, out, mp: mp.setattr(pipeline, "zscore_fit", _raiser(IndexError("broken"))), 4),
    "candidate": (lambda config, out, mp: mp.setattr(pipeline, "evaluate_candidates", _raiser(ValidationError("broken"))), 2),
    # train() builds its training graph with one remove_nodes call
    "train_mlp": (lambda config, out, mp: _fail_after(mp, "remove_nodes", 0, ValidationError("broken")), 2),
    "train_gnn": (lambda config, out, mp: _fail_after(mp, "remove_nodes", 1, IndexError("broken")), 4),
    # training validates through score_pairs; evaluation calls evaluate once
    # per mode: balanced, all_pairs, candidate_filtered
    "eval_mlp": (lambda config, out, mp: _fail_after(mp, "evaluate", 0, ValidationError("broken")), 2),
    "eval_gnn": (lambda config, out, mp: _fail_after(mp, "evaluate", 3, OSError("disk gone")), 3),
    "write": (_reports_dir_is_a_file, 3),
}


@pytest.mark.parametrize("stage", list(STAGE_FAILURES))
def test_stage_failure_names_stage_and_maps_exit_code(tmp_path, capsys, monkeypatch, stage):
    provoke, expected_code = STAGE_FAILURES[stage]
    config, out = json.loads(json.dumps(EXPERIMENT_CFG)), tmp_path / "run"
    provoke(config, out, monkeypatch)
    code = main(["experiment", "--config", write_json(tmp_path / "exp.json", config), "--out", str(out)])
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
    assert code == expected_code
    assert len(errors) == 1 and errors[0].startswith(f"error: [{stage}] "), errors


def test_bug_in_predict_exit_4(experiment_bundle, tmp_path, capsys, monkeypatch, caplog):
    """An exception the package does not raise itself is a bug: outside any
    stage too, it exits 4 with one error line, and RAN_TOPO_LOG=DEBUG logs
    its traceback."""
    _, bundle = experiment_bundle
    header, first_row = (bundle / "data" / "cells.csv").read_text().splitlines()[:2]
    new_cell = write_json(tmp_path / "new.json", dict(zip(header.split(",")[1:], map(float, first_row.split(",")[1:]))))
    monkeypatch.setattr(pipeline, "predict_new_node", _raiser(IndexError("index 9 is out of bounds")))
    monkeypatch.setenv("RAN_TOPO_LOG", "DEBUG")
    caplog.set_level(logging.DEBUG, logger="ran_topo")
    code = main([
        "predict", "--params", str(bundle / "params_mlp.json"), "--norm-params", str(bundle / "norm_params.json"),
        "--cells", str(bundle / "data" / "cells.csv"), "--edges", str(bundle / "data" / "edges.csv"),
        "--new-cell", new_cell,
    ])
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
    assert code == 4
    assert errors == ["error: index 9 is out of bounds"]
    assert [record.exc_info[0] for record in caplog.records if record.exc_info] == [IndexError]


# experiment-config changes that used to run anyway, or fail late -> exit 2
# with one error line from the config stage, before any data is written
BAD_CONFIG_VALUES = {
    "misspelt_train_key": {"train": {"epoch": 1}},
    "unknown_dims_key": {"dims": {"h": 8, "dd": 8}},
    "unknown_top_level_key": {"seeds": 3},
    "nan_learning_rate": {"train": {**EXPERIMENT_CFG["train"], "learning_rate": float("nan")}},
    "nan_cutoff": {"cutoff": float("nan")},
    "cutoff_above_one": {"cutoff": 1.5},
    "negative_cutoff": {"cutoff": -0.1},
    "nan_filter_distance": {"filter": {"k": 10, "max_dist_km": float("nan")}},
    "misspelt_filter_key": {"filter": {"k": 10, "max_dist": 0.5}},
    "misspelt_split_key": {"split": {"ratio": [0.8, 0.1, 0.1]}},
    "two_data_sources": {"data": {"synthetic": SYNTH_CFG, "cells_csv": "cells.csv", "edges_csv": "edges.csv"}},
    "fractional_k": {"filter": {"k": 2.7, "max_dist_km": 3.0}},
    "boolean_k": {"filter": {"k": True}},
    # the filter is the one baseline: a list of baselines is an unknown key
    "candidate_configs_key": {"candidate_configs": []},
    "cells_without_edges": {"data": {"cells_csv": "cells.csv"}},
    "ratios_not_summing_to_one": {"split": {"ratios": [0.5, 0.5, 0.5]}},
    "zero_hidden_dim": {"dims": {"h": 0, "d": 64}},
    # refused before either file is read, so neither needs to exist
    "unknown_missing_policy": {"data": {"cells_csv": "cells.csv", "edges_csv": "edges.csv", "missing_policy": "zap"}},
}


@pytest.mark.parametrize("change", sorted(BAD_CONFIG_VALUES))
def test_bad_config_value_exit_2(tmp_path, capsys, change):
    cfg = write_json(tmp_path / "exp.json", {**EXPERIMENT_CFG, **BAD_CONFIG_VALUES[change]})
    code = main(["experiment", "--config", cfg, "--out", str(tmp_path / "run")])
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
    assert code == 2
    assert len(errors) == 1 and errors[0].startswith("error: [config] "), errors
    assert not (tmp_path / "run" / "data").exists()


def test_edgeless_training_graph_exit_2(tmp_path, capsys):
    """Training cells that share no edge leave nothing to learn: one cell per
    site and a radius no two sites are within give a network without edges."""
    config = {**EXPERIMENT_CFG, "data": {"synthetic": {**SYNTH_CFG, "cells_per_site": [1, 1], "radius_km": 0.001}}}
    code = main(["experiment", "--config", write_json(tmp_path / "exp.json", config), "--out", str(tmp_path / "run")])
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
    assert code == 2
    assert len(errors) == 1 and errors[0].startswith("error: [train_mlp] "), errors


def test_candidates_defaults_to_the_experiment_seed(tmp_path, capsys):
    """``candidates`` at its default --seed, --k and --max-dist-km splits as
    an experiment at its default seed does and proposes its default
    ``filter``, so it reproduces the bundle's candidate.json."""
    config = {key: value for key, value in EXPERIMENT_CFG.items() if key not in ("seed", "filter")}
    out = tmp_path / "run"
    assert main(["experiment", "--config", write_json(tmp_path / "exp.json", config), "--out", str(out)]) == 0
    report = tmp_path / "candidate.json"
    assert main([
        "candidates", "--cells", str(out / "data" / "cells.csv"), "--edges", str(out / "data" / "edges.csv"),
        "--eval-split", ",".join(map(str, config["split"]["ratios"])), "--out", str(report),
    ]) == 0
    assert json.loads(report.read_text())["mode"] == "candidate(k=60,m=4.0)"
    assert report.read_bytes() == (out / "reports" / "candidate.json").read_bytes()


@pytest.mark.parametrize("policy", ["drop_row", "fill_column_mean"])
def test_edge_to_an_unlisted_cell_exit_2(experiment_bundle, tmp_path, capsys, policy):
    """Every edge must name a listed cell under a missing-value policy too,
    as ``candidates`` requires; a policy used to drop such an edge silently."""
    _, bundle = experiment_bundle
    cells = bundle / "data" / "cells.csv"
    first_id = cells.read_text().splitlines()[1].split(",")[0]
    edges = write_file(tmp_path / "edges.csv", (bundle / "data" / "edges.csv").read_text() + f"{first_id},NOPE\n")
    data = {"cells_csv": str(cells), "edges_csv": edges, "missing_policy": policy}
    cfg = write_json(tmp_path / "exp.json", {**EXPERIMENT_CFG, "data": data})
    code = main(["experiment", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == ["error: [data] edge endpoint 'NOPE' is not a node"]


# (subcommand, --config file text or bytes) pairs that used to end in a
# traceback, or in an error line naming no file
MALFORMED_CONFIGS = [
    ("synth", "[1, 2]"),
    ("synth", '{"sites": "ten"}'),
    ("synth", '{"bbox": [1, 2]}'),
    ("synth", '{"sites": 1e9}'),
    ("synth", '{"seed": -1}'),
    ("experiment", "[1]"),
    ("experiment", "{"),
    ("train", "[1]"),
    ("eval", "[1]"),
    ("synth", b'{"sites": 10}\xff'),
    ("experiment", b"\xff{}"),
]


@pytest.mark.parametrize("command, text", MALFORMED_CONFIGS)
def test_malformed_config_exit_2(tmp_path, capsys, command, text):
    config = write_file(tmp_path / "config.json", text)
    argv = [command, "--config", config, "--out", str(tmp_path / "out")]
    if command == "eval":
        params = tmp_path / "params.json"
        params.write_text(models.params_to_json(models.init_params(models.MLP_KIND, k=8, seed=0)))
        argv += ["--params", str(params)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if isinstance(text, bytes):
        assert f"{config} is not UTF-8 text" in err


# every kind of input file -> the command that reads it, from the file paths
# of an experiment bundle and an output directory; a UTF-8 byte-order mark at
# the start of the file changes nothing the command prints or writes
BOM_INPUTS = {
    "cells_csv": lambda f, out: ["candidates", "--cells", f["cells_csv"], "--edges", f["edges_csv"],
                                 "--k", "10", "--eval-split", "0.8,0.1,0.1"],
    "edges_csv": lambda f, out: ["candidates", "--cells", f["cells_csv"], "--edges", f["edges_csv"], "--k", "10"],
    "config": lambda f, out: ["synth", "--config", f["config"], "--out", out],
    **{name: lambda f, out: ["predict", "--params", f["params"], "--norm-params", f["norm_params"],
                             "--cells", f["cells_csv"], "--edges", f["edges_csv"],
                             "--new-cell", f["new_cell"], "--cutoff", "0"]
       for name in ("new_cell", "params", "norm_params")},
}


@pytest.mark.parametrize("name", sorted(BOM_INPUTS))
def test_byte_order_mark_is_skipped(experiment_bundle, tmp_path, capsys, name):
    _, bundle = experiment_bundle
    header, first_row = (bundle / "data" / "cells.csv").read_text().splitlines()[:2]
    new_cell = dict(zip(header.split(",")[1:], map(float, first_row.split(",")[1:])))
    files = {
        "cells_csv": str(bundle / "data" / "cells.csv"), "edges_csv": str(bundle / "data" / "edges.csv"),
        "config": write_json(tmp_path / "synth.json", SYNTH_CFG),
        "new_cell": write_json(tmp_path / "new.json", new_cell),
        "params": str(bundle / "params_mlp.json"), "norm_params": str(bundle / "norm_params.json"),
    }

    def run(files, out):
        code = main(BOM_INPUTS[name](files, str(out)))
        written = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {}
        return code, capsys.readouterr(), written

    code, plain, written = run(files, tmp_path / "plain")
    with open(files[name], "rb") as fh:
        bom = write_file(tmp_path / f"bom_{name}", b"\xef\xbb\xbf" + fh.read())
    assert code == 0 and plain.err == ""
    assert run({**files, name: bom}, tmp_path / "bom") == (0, plain, written)


# --new-cell file text made from a valid cell's raw features
NEW_CELL_DEFECTS = {
    "missing_feature": lambda cell: json.dumps({"lat": cell["lat"], "lon": cell["lon"]}),
    "not_an_object": lambda cell: json.dumps([1, 2]),
    "non_numeric": lambda cell: json.dumps({**cell, "tx_power": "abc"}),
    "null_value": lambda cell: json.dumps({**cell, "tx_power": None}),
    "nan_value": lambda cell: json.dumps({**cell, "tx_power": float("nan")}),
    "infinite_value": lambda cell: json.dumps({**cell, "tx_power": "big"}).replace('"big"', "1e400"),
    "huge_integer": lambda cell: json.dumps({**cell, "tx_power": "big"}).replace('"big"', "9" * 400),
    "latitude_out_of_range": lambda cell: json.dumps({**cell, "lat": 95.0}),
    "longitude_out_of_range": lambda cell: json.dumps({**cell, "lon": -181.0}),
    "boolean_value": lambda cell: json.dumps({**cell, "band": True}),
    "not_utf8": lambda cell: json.dumps(cell).encode() + b"\xff",
}


@pytest.fixture(scope="module")
def experiment_bundle(tmp_path_factory):
    base = tmp_path_factory.mktemp("one_path")
    cfg = write_json(base / "exp.json", EXPERIMENT_CFG)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(["experiment", "--config", cfg, "--out", str(base / "bundle")]) == 0
    (base / "printed.txt").write_text(printed.getvalue())  # beside the bundle, not in it
    return cfg, base / "bundle"


class TestOnePath:
    """``train`` and ``eval`` run the experiment's own code: same files, byte for byte."""

    def test_train_writes_the_experiment_files(self, experiment_bundle, tmp_path):
        cfg, bundle = experiment_bundle
        out = tmp_path / "model"
        assert main(["train", "--config", cfg, "--out", str(out), "--model", "both"]) == 0
        for name in ("norm_params.json", "params_mlp.json", "params_gnn.json", "history_mlp.csv", "history_gnn.csv"):
            assert (out / name).read_bytes() == (bundle / name).read_bytes(), name

    def test_train_logs_the_best_history_row(self, experiment_bundle, tmp_path, monkeypatch, caplog):
        """Under RAN_TOPO_LOG=INFO, ``train`` logs each kind's best epoch and
        its validation accuracy: the first history row with the top accuracy."""
        cfg, _ = experiment_bundle
        out = tmp_path / "model"
        monkeypatch.setenv("RAN_TOPO_LOG", "INFO")
        caplog.set_level(logging.INFO, logger="ran_topo")
        assert main(["train", "--config", cfg, "--out", str(out), "--model", "both"]) == 0
        for kind in ("mlp", "gnn"):
            with open(out / f"history_{kind}.csv", newline="") as fh:
                best = max(csv.DictReader(fh), key=lambda row: float(row["val_accuracy"]))
            line = f"{kind}: best val accuracy {float(best['val_accuracy']):.4f} at epoch {best['epoch']}"
            assert line in caplog.messages

    @pytest.mark.parametrize("kind", ["mlp", "gnn"])
    def test_eval_reproduces_the_experiment_reports(self, experiment_bundle, tmp_path, kind):
        cfg, bundle = experiment_bundle
        out = tmp_path / "eval"
        assert main(["eval", "--params", str(bundle / f"params_{kind}.json"), "--config", cfg, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            p.name for p in (bundle / "reports").glob(f"{kind}_*.json")
        )
        for path in out.iterdir():
            assert path.read_bytes() == (bundle / "reports" / path.name).read_bytes(), path.name

    @pytest.mark.parametrize("kind", ["mlp", "gnn"])
    def test_eval_prints_the_experiment_rows(self, experiment_bundle, tmp_path, capsys, kind):
        """``eval`` prints the experiment's summary header and its rows for the kind."""
        cfg, bundle = experiment_bundle
        header, *rows = (bundle.parent / "printed.txt").read_text().splitlines()
        capsys.readouterr()
        assert main(["eval", "--params", str(bundle / f"params_{kind}.json"), "--config", cfg,
                     "--out", str(tmp_path / "eval")]) == 0
        expected = [header, *(row for row in rows if row.split()[0] == kind)]
        assert len(expected) == 1 + 3
        assert capsys.readouterr().out.splitlines() == expected

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_unwritable_out_fails_in_write_stage(self, experiment_bundle, tmp_path, capsys, command):
        cfg, bundle = experiment_bundle
        out = tmp_path / "out"
        # a directory where the command writes a file
        blocked = "params_mlp.json" if command == "train" else "mlp_balanced.json"
        (out / blocked).mkdir(parents=True)
        argv = [command, "--config", cfg, "--out", str(out)]
        argv += ["--model", "mlp"] if command == "train" else ["--params", str(bundle / "params_mlp.json")]
        code = main(argv)
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert code == 3
        assert len(errors) == 1 and errors[0].startswith("error: [write] "), errors


class TestTrainEvalPredict:
    @pytest.fixture
    def trained(self, tmp_path):
        cfg = write_json(tmp_path / "exp.json", EXPERIMENT_CFG)
        out = tmp_path / "model"
        assert main(["train", "--config", cfg, "--out", str(out), "--model", "mlp"]) == 0
        return cfg, out

    def test_train_outputs(self, trained):
        _, out = trained
        assert (out / "params_mlp.json").is_file()
        assert (out / "history_mlp.csv").is_file()
        assert (out / "norm_params.json").is_file()
        history = (out / "history_mlp.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_accuracy"
        assert len(history) == 1 + EXPERIMENT_CFG["train"]["epochs"]

    def test_eval_reports(self, trained, tmp_path, capsys):
        cfg, out = trained
        eval_out = tmp_path / "eval"
        code = main([
            "eval", "--params", str(out / "params_mlp.json"),
            "--config", cfg, "--out", str(eval_out),
        ])
        assert code == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split() == ["model", "mode", "ACC", "%", "Prec", "%", "Rec", "%", "AUC"]
        assert len(rows) == 3
        for row, mode in zip(rows, ("balanced", "all_pairs", "candidate_filtered")):
            report = json.loads((eval_out / f"mlp_{mode}.json").read_text())
            assert report["mode"] == mode
            assert 0.0 <= report["accuracy"] <= 1.0
            percents = [f"{100 * report[key]:.2f}" for key in ("accuracy", "precision", "recall")]
            auc = "-" if report["auc"] is None else f"{report['auc']:.4f}"
            assert row.split() == ["mlp", mode, *percents, auc]

    def test_predict_ranked_output(self, trained, tmp_path, capsys):
        cfg, out = trained
        data_dir = out / "data"
        with open(data_dir / "cells.csv") as fh:
            header = fh.readline().strip().split(",")
            first_row = fh.readline().strip().split(",")
        new_cell = dict(zip(header[1:], map(float, first_row[1:])))
        cell_path = write_json(tmp_path / "new.json", new_cell)
        code = main([
            "predict",
            "--params", str(out / "params_mlp.json"),
            "--norm-params", str(out / "norm_params.json"),
            "--cells", str(data_dir / "cells.csv"),
            "--edges", str(data_dir / "edges.csv"),
            "--new-cell", cell_path,
            "--k", "10", "--cutoff", "0.0",
        ])
        assert code == 0
        out_text = capsys.readouterr().out
        ranked = json.loads(out_text)
        assert len(ranked) > 0
        probs = [r["probability"] for r in ranked]
        assert probs == sorted(probs, reverse=True)
        _ = cfg

    def test_predict_caps_distance_like_the_filter(self, trained, tmp_path, capsys):
        """Without --max-dist-km, predict keeps the experiment filter's 4 km
        cap, the regime the candidate_filtered reports measure; inf lifts it."""
        _, out = trained
        data_dir = out / "data"
        with open(data_dir / "cells.csv") as fh:
            header = fh.readline().strip().split(",")
            first_row = fh.readline().strip().split(",")
        cell_path = write_json(tmp_path / "new.json", dict(zip(header[1:], map(float, first_row[1:]))))
        answers = []
        for flags in ([], ["--max-dist-km", "4"], ["--max-dist-km", "inf"]):
            assert main([
                "predict", "--params", str(out / "params_mlp.json"), "--norm-params", str(out / "norm_params.json"),
                "--cells", str(data_dir / "cells.csv"), "--edges", str(data_dir / "edges.csv"),
                "--new-cell", cell_path, "--k", "1000", "--cutoff", "0", *flags,
            ]) == 0
            answers.append(json.loads(capsys.readouterr().out))
        default, capped, uncapped = answers
        assert default == capped
        assert len(capped) < len(uncapped)

    @pytest.mark.parametrize("flags", [
        ["--cutoff", "nan"], ["--cutoff", "1.5"], ["--cutoff", "-0.5"], ["--max-dist-km", "nan"],
        ["--max-neighbors", "-1"],
    ], ids=["nan_cutoff", "cutoff_above_one", "negative_cutoff", "nan_max_distance", "negative_max_neighbors"])
    def test_predict_bad_flag_exit_2(self, trained, tmp_path, capsys, flags):
        _, out = trained
        data_dir = out / "data"
        with open(data_dir / "cells.csv") as fh:
            header = fh.readline().strip().split(",")
            first_row = fh.readline().strip().split(",")
        cell_path = write_json(tmp_path / "new.json", dict(zip(header[1:], map(float, first_row[1:]))))
        code = main([
            "predict",
            "--params", str(out / "params_mlp.json"),
            "--norm-params", str(out / "norm_params.json"),
            "--cells", str(data_dir / "cells.csv"),
            "--edges", str(data_dir / "edges.csv"),
            "--new-cell", cell_path,
            *flags,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert len([line for line in err.splitlines() if line.startswith("error: ")]) == 1, err

    def test_predict_empty_candidates_warns(self, trained, tmp_path, capsys):
        _, out = trained
        data_dir = out / "data"
        with open(data_dir / "cells.csv") as fh:
            header = fh.readline().strip().split(",")
            first_row = fh.readline().strip().split(",")
        new_cell = dict(zip(header[1:], map(float, first_row[1:])))
        new_cell["lat"], new_cell["lon"] = -30.0, 100.0  # far from the network
        cell_path = write_json(tmp_path / "new.json", new_cell)
        code = main([
            "predict",
            "--params", str(out / "params_mlp.json"),
            "--norm-params", str(out / "norm_params.json"),
            "--cells", str(data_dir / "cells.csv"),
            "--edges", str(data_dir / "edges.csv"),
            "--new-cell", cell_path,
            "--k", "10", "--max-dist-km", "5.0",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out) == []
        assert "empty" in captured.err

    def test_predict_recovers_true_neighbors(self, tmp_path, capsys):
        # distance-only network: hold one cell out, train on the rest, and
        # the predicted neighbor list must equal the held-out cell's true
        # neighbors
        from ran_topo.graph import remove_nodes
        from ran_topo.synth import SynthConfig, export, generate

        synth = SynthConfig(
            sites=40, cells_per_site=(2, 4), bbox=(57.0, 57.2, 11.5, 11.9),
            radius_km=3.0, bands=1, seed=6,
        )
        gt = generate(synth)
        adjacency = adjacency_sets(gt.graph.n, gt.graph.edge_array.tolist())
        t = next(i for i in range(gt.graph.n) if 3 <= len(adjacency[i]) <= 8)
        target = gt.graph.ids[t]
        true_neighbors = sorted(gt.graph.ids[j] for j in adjacency[t])
        reduced = gt.graph
        idx = reduced.index_of(target)
        new_cell = dict(zip(reduced.features.columns, reduced.features.values[idx]))
        reduced = remove_nodes(reduced, {target})

        data_dir = tmp_path / "data"
        data_dir.mkdir()
        from ran_topo.data_io import write_cells_csv, write_edges_csv

        write_cells_csv(data_dir / "cells.csv", list(reduced.ids), reduced.features)
        write_edges_csv(data_dir / "edges.csv", reduced.edge_list())

        config = {
            "seed": 5,
            "data": {
                "cells_csv": str(data_dir / "cells.csv"),
                "edges_csv": str(data_dir / "edges.csv"),
            },
            "split": {"ratios": [0.9, 0.05, 0.05]},
            "dims": {"h": 64, "d": 64},
            "train": {"epochs": 40, "batch_size": 256, "learning_rate": 1e-3},
        }
        cfg_path = write_json(tmp_path / "cfg.json", config)
        model_dir = tmp_path / "model"
        assert main(["train", "--config", cfg_path, "--out", str(model_dir), "--model", "mlp"]) == 0

        cell_path = write_json(tmp_path / "new.json", new_cell)
        code = main([
            "predict",
            "--params", str(model_dir / "params_mlp.json"),
            "--norm-params", str(model_dir / "norm_params.json"),
            "--cells", str(data_dir / "cells.csv"),
            "--edges", str(data_dir / "edges.csv"),
            "--new-cell", cell_path,
            "--k", "100000", "--max-dist-km", str(synth.radius_km),
        ])
        assert code == 0
        ranked = json.loads(capsys.readouterr().out)
        assert sorted(r["cell_id"] for r in ranked) == true_neighbors

    @pytest.mark.parametrize("new_cell", sorted(NEW_CELL_DEFECTS))
    def test_predict_missing_feature_exit_2(self, trained, tmp_path, capsys, new_cell):
        _, out = trained
        data_dir = out / "data"
        with open(data_dir / "cells.csv") as fh:
            header = fh.readline().strip().split(",")
            first_row = fh.readline().strip().split(",")
        cell = dict(zip(header[1:], map(float, first_row[1:])))
        cell_path = write_file(tmp_path / "new.json", NEW_CELL_DEFECTS[new_cell](cell))
        code = main([
            "predict",
            "--params", str(out / "params_mlp.json"),
            "--norm-params", str(out / "norm_params.json"),
            "--cells", str(data_dir / "cells.csv"),
            "--edges", str(data_dir / "edges.csv"),
            "--new-cell", cell_path,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert len([line for line in err.splitlines() if line.startswith("error: ")]) == 1, err
        assert "Traceback" not in err


def _drop_b1(obj):
    del obj["arrays"]["b1"]


def _shape_not_data(obj):
    obj["arrays"]["w2"]["shape"] = [3, 3]


def _broken_layer_chain(obj):
    rows = obj["arrays"]["w2"]["shape"][0]
    obj["arrays"]["w2"] = {"shape": [rows, rows + 1], "data": [0.0] * (rows * (rows + 1))}


def _non_finite(obj):
    obj["arrays"]["w1"]["data"][0] = float("nan")


def _nested_data(obj):
    obj["arrays"]["w1"]["data"] = [obj["arrays"]["w1"]["data"]]


def _wrong_feature_width(obj):
    # a consistent first layer for two more features per cell than the data has
    rows, cols = obj["arrays"]["w1"]["shape"]
    obj["arrays"]["w1"] = {"shape": [rows, cols + 2], "data": [0.0] * (rows * (cols + 2))}


PARAM_DEFECTS = {
    "missing_array": _drop_b1,
    "shape_not_data": _shape_not_data,
    "broken_layer_chain": _broken_layer_chain,
    "non_finite": _non_finite,
    "wrong_feature_width": _wrong_feature_width,
    "not_json": lambda obj: "{",  # a defect returning text or bytes replaces the whole file
    "not_utf8": lambda obj: b"\xff",
    "unknown_kind": lambda obj: obj.update(kind="cnn"),
    "kind_not_a_string": lambda obj: obj.update(kind=["mlp"]),
    "arrays_not_an_object": lambda obj: obj.update(arrays=[]),
    "shape_not_a_list": lambda obj: obj["arrays"]["w1"].update(shape=6),
    "non_numeric_data": lambda obj: obj["arrays"]["w1"]["data"].__setitem__(0, "x"),
    "nested_data": _nested_data,
}

# norm_params.json edits, as PARAM_DEFECTS
NORM_DEFECTS = {
    "short_std": lambda obj: obj.update(std=obj["std"][:-1]),
    "non_finite_mean": lambda obj: obj["mean"].__setitem__(0, float("inf")),
    "negative_std": lambda obj: obj["std"].__setitem__(0, -1.0),
    "not_json": lambda obj: "{",
    "not_utf8": lambda obj: b"\xff",
    "non_string_columns": lambda obj: obj["columns"].__setitem__(0, 1),
    "non_numeric_mean": lambda obj: obj["mean"].__setitem__(0, "x"),
}


class TestMalformedModelFiles:
    """A broken params or norm-params file is a validation error: exit 2, one error line."""

    @pytest.fixture
    def trained(self, tmp_path):
        cfg = write_json(tmp_path / "exp.json", EXPERIMENT_CFG)
        out = tmp_path / "model"
        assert main(["train", "--config", cfg, "--out", str(out), "--model", "mlp"]) == 0
        return cfg, out

    @staticmethod
    def broken_copy(path, defect, tmp_path):
        obj = json.loads(path.read_text())
        text = defect(obj)
        return write_file(tmp_path / f"broken_{path.name}", json.dumps(obj) if text is None else text)

    @staticmethod
    def predict(out, tmp_path, params, norm_params):
        data_dir = out / "data"
        with open(data_dir / "cells.csv") as fh:
            header = fh.readline().strip().split(",")
            first_row = fh.readline().strip().split(",")
        cell_path = write_json(tmp_path / "new.json", dict(zip(header[1:], map(float, first_row[1:]))))
        return main([
            "predict", "--params", params, "--norm-params", norm_params,
            "--cells", str(data_dir / "cells.csv"), "--edges", str(data_dir / "edges.csv"),
            "--new-cell", cell_path, "--k", "10",
        ])

    @staticmethod
    def assert_refused(code, capsys):
        err = capsys.readouterr().err
        assert code == 2
        assert [line for line in err.splitlines() if line.startswith("error: ")], err
        assert "Traceback" not in err

    @pytest.mark.parametrize("defect", sorted(PARAM_DEFECTS))
    def test_eval_refuses_params(self, trained, tmp_path, capsys, defect):
        cfg, out = trained
        params = self.broken_copy(out / "params_mlp.json", PARAM_DEFECTS[defect], tmp_path)
        code = main(["eval", "--params", params, "--config", cfg, "--out", str(tmp_path / "eval")])
        self.assert_refused(code, capsys)

    @pytest.mark.parametrize("defect", sorted(PARAM_DEFECTS))
    def test_predict_refuses_params(self, trained, tmp_path, capsys, defect):
        _, out = trained
        params = self.broken_copy(out / "params_mlp.json", PARAM_DEFECTS[defect], tmp_path)
        code = self.predict(out, tmp_path, params, str(out / "norm_params.json"))
        self.assert_refused(code, capsys)

    @pytest.mark.parametrize("defect", sorted(NORM_DEFECTS))
    def test_predict_refuses_norm_params(self, trained, tmp_path, capsys, defect):
        _, out = trained
        path = self.broken_copy(out / "norm_params.json", NORM_DEFECTS[defect], tmp_path)
        code = self.predict(out, tmp_path, str(out / "params_mlp.json"), path)
        self.assert_refused(code, capsys)
