import base64
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from unlearnkit import EvalReport, Model, build_model, fileio
from unlearnkit.cli import _parse_grid_field, main
from unlearnkit.config import UnlearnConfig, config_hash, train_hash
from unlearnkit.data import generate
from unlearnkit.errors import ConfigError, NumericError
from unlearnkit.manifest import Manifest
from unlearnkit.report import aggregate
from unlearnkit.unlearn import METHODS, TraceRow, unlearn, write_trace_csv

from conftest import v1_checkpoint_record

DATA = "gaussian_blobs:c3:s30:d4:noise0.1"
FAST = ["--data_name", DATA, "--backbone", "mlp:12", "--train_epochs", "20",
        "--epochs", "4", "--learning_rate", "0.02"]


def run(root, *argv):
    return main(["--artifacts", str(root), *argv])


def fast_cfg(**kwargs):
    base = dict(data_name=DATA, backbone="mlp:12", train_epochs=20, epochs=4,
                learning_rate=0.02)
    base.update(kwargs)
    return UnlearnConfig(**base)


def test_train_creates_checkpoint_and_meta(tmp_path, capsys):
    assert run(tmp_path, "train", *FAST, "--seed", "1") == 0
    cfg = fast_cfg(seed=1)
    ckpt = tmp_path / "checkpoints" / train_hash(cfg)
    assert (ckpt / "model.json").exists()
    meta = json.loads((ckpt / "meta.json").read_text())
    assert meta["train_seconds"] > 0
    assert meta["test_acc"] >= 95.0
    assert (ckpt / "trace.csv").exists()
    # repeated training is a cached no-op
    assert run(tmp_path, "train", *FAST, "--seed", "1") == 0
    assert "already exists" in capsys.readouterr().out


def test_train_checkpoints_are_deterministic_across_roots(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(a, "train", *FAST, "--seed", "2")
    run(b, "train", *FAST, "--seed", "2")
    cfg = fast_cfg(seed=2)
    rel = Path("checkpoints") / train_hash(cfg) / "model.json"
    assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_unlearn_flags_match_config_keys(tmp_path):
    run(tmp_path, "train", *FAST, "--seed", "0")
    rc = run(tmp_path, "unlearn", *FAST, "--no-budget", "--seed", "0",
             "--unlearn_method", "rand_label", "--del_ratio", "5")
    assert rc == 0
    cfg = fast_cfg(seed=0, unlearn_method="rand_label", del_ratio=5)
    run_dir = tmp_path / "runs" / config_hash(cfg)
    for name in ("config.json", "report.json", "model_prime.json", "trace.csv"):
        assert (run_dir / name).exists(), name
    stored = json.loads((run_dir / "config.json").read_text())
    assert stored["unlearn_method"] == "rand_label" and stored["del_ratio"] == 5


def test_unlearn_is_noop_when_repeated(tmp_path, capsys):
    run(tmp_path, "train", *FAST, "--seed", "0")
    args = ("unlearn", *FAST, "--no-budget", "--seed", "0", "--unlearn_method", "neg_grad")
    assert run(tmp_path, *args) == 0
    cfg = fast_cfg(seed=0, unlearn_method="neg_grad")
    report = tmp_path / "runs" / config_hash(cfg) / "report.json"
    first = report.read_bytes()
    capsys.readouterr()
    assert run(tmp_path, *args) == 0
    assert "already complete" in capsys.readouterr().out
    assert report.read_bytes() == first


def test_unlearn_force_reruns_and_reproduces_model(tmp_path):
    run(tmp_path, "train", *FAST, "--seed", "0")
    args = ("unlearn", *FAST, "--no-budget", "--seed", "0", "--unlearn_method", "rand_label")
    run(tmp_path, *args)
    cfg = fast_cfg(seed=0, unlearn_method="rand_label")
    run_dir = tmp_path / "runs" / config_hash(cfg)
    model_bytes = (run_dir / "model_prime.json").read_bytes()
    report_before = json.loads((run_dir / "report.json").read_text())
    assert run(tmp_path, *args, "--force") == 0
    assert (run_dir / "model_prime.json").read_bytes() == model_bytes
    report_after = json.loads((run_dir / "report.json").read_text())
    for key, value in report_before.items():
        if key != "seconds":  # wall time is measured, everything else replays
            assert report_after[key] == value


def test_unknown_method_exits_1_and_lists_methods(tmp_path, capsys):
    run(tmp_path, "train", *FAST, "--seed", "0")
    rc = run(tmp_path, "unlearn", *FAST, "--seed", "0", "--unlearn_method", "forget_fast")
    assert rc == 1
    err = capsys.readouterr().err
    assert "rand_label" in err and "scrub" in err


def test_config_errors_leave_no_run_directory(tmp_path, capsys):
    # 40 training rows, so 1% deletes none: rejected before the run is recorded, except
    # for exact_retrain, which needs no deletion set.
    flags = [*FAST, "--data_name", "gaussian_blobs:c2:s25:d4", "--seed", "0", "--del_ratio", "1"]
    assert run(tmp_path, "train", *flags) == 0
    before = (tmp_path / "manifest.json").read_bytes()
    capsys.readouterr()
    assert run(tmp_path, "unlearn", *flags) == 1
    assert ("config error: rand_label requires a deletion set, but del_ratio 1 deletes none "
            "of 40 training rows") in capsys.readouterr().err
    assert (tmp_path / "manifest.json").read_bytes() == before
    assert not (tmp_path / "runs").exists()
    assert run(tmp_path, "unlearn", *flags, "--unlearn_method", "exact_retrain") == 0
    entries = [e for e in Manifest(tmp_path).entries.values() if e["kind"] == "unlearn"]
    assert [e["status"] for e in entries] == ["done"]


def test_unlearn_rejects_a_temperature_that_is_not_positive(tmp_path, capsys):
    run(tmp_path, "train", *FAST, "--seed", "0")
    capsys.readouterr()
    for method in ("bad_t", "scrub"):
        for temperature in ("-2", "0"):
            rc = run(tmp_path, "unlearn", *FAST, "--no-budget", "--seed", "0",
                     "--unlearn_method", method, "--temperature", temperature)
            assert rc == 1
            assert "temperature must be > 0" in capsys.readouterr().err
    assert list((tmp_path / "runs").glob("*")) == []


def test_missing_checkpoint_gives_clear_resolution_error(tmp_path, capsys):
    rc = run(tmp_path, "unlearn", *FAST, "--seed", "9", "--unlearn_method", "rand_label")
    assert rc == 1
    assert "unlearnkit train" in capsys.readouterr().err


@pytest.mark.parametrize("version", [1, 2], ids=["v1", "v2"])
@pytest.mark.parametrize("damage", ["truncated", "short_array"])
def test_unlearn_on_a_malformed_checkpoint_exits_1_and_records_failed(
        tmp_path, capsys, version, damage):
    assert run(tmp_path, "train", *FAST, "--seed", "0") == 0
    path = tmp_path / "checkpoints" / train_hash(fast_cfg(seed=0)) / "model.json"
    model = Model.load(path)
    record = model.to_dict() if version == 2 else v1_checkpoint_record(model)
    weight = record["params"]["layers.0.weight"]  # one value short
    record["params"]["layers.0.weight"] = (
        weight[:-1] if version == 1 else
        base64.b64encode(base64.b64decode(weight)[:-8]).decode())
    text = json.dumps(record, indent=2, sort_keys=True)
    path.write_text(text[:len(text) // 2] if damage == "truncated" else text)
    capsys.readouterr()
    assert run(tmp_path, "unlearn", *FAST, "--no-budget", "--seed", "0",
               "--unlearn_method", "rand_label") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad checkpoint {path}: ")
    assert "Traceback" not in err
    if damage == "short_array":
        assert "layers.0.weight" in err
    [entry] = [e for e in Manifest(tmp_path).entries.values() if e["kind"] == "unlearn"]
    assert entry["status"] == "failed" and str(path) in entry["message"]
    assert list((tmp_path / "runs").glob("*")) == []


@pytest.mark.parametrize("write", [
    pytest.param(lambda path: build_model(4, 3, "mlp:5").save(path), id="model"),
    pytest.param(lambda path: EvalReport(90.0, 80.0, 95.0, 0.5, 1e6, 50.0).save(path),
                 id="report"),
    pytest.param(lambda path: fileio.write_json(path, {"meta": 1}), id="meta_config"),
    pytest.param(lambda path: Manifest(path.parent).start_all("train", [("k", path.parent)]),
                 id="manifest"),
    pytest.param(lambda path: write_trace_csv([TraceRow(0, None, 0.5, 90.0, None, 95.0, 0.0, 0.1)],
                                              path), id="trace"),
    pytest.param(lambda path: fileio.write_csv(path, [["method", "runs"], ["rand_label", 2]]),
                 id="leaderboard_csv"),
])
def test_a_write_that_fails_halfway_keeps_the_previous_file(tmp_path, monkeypatch, write):
    path = tmp_path / "manifest.json"  # the name Manifest writes; any name for the others
    previous = b'{"old": {"status": "done"}}'
    path.write_bytes(previous)

    def open_on_a_full_disk(file, mode, **kwargs):
        fh = open(file, mode, **kwargs)
        write_half = fh.write
        def fail(text):
            write_half(text[:len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        fh.write = fail
        return fh

    monkeypatch.setattr(fileio, "open", open_on_a_full_disk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        write(path)
    assert path.read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
    monkeypatch.undo()
    write(path)
    assert path.read_bytes() != previous
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_budget_enforced_by_default_and_releasable(tmp_path, capsys):
    run(tmp_path, "train", "--data_name", DATA, "--backbone", "mlp:12",
        "--train_epochs", "1", "--seed", "0")
    args = ("unlearn", "--data_name", DATA, "--backbone", "mlp:12",
            "--train_epochs", "1", "--seed", "0", "--unlearn_method", "rand_label",
            "--epochs", "400", "--learning_rate", "0.001")
    assert run(tmp_path, *args) == 2  # exceeds the recorded training time
    capsys.readouterr()
    assert run(tmp_path, *args, "--no-budget", "--force") == 0


def test_evaluate_run_directory(tmp_path, capsys):
    run(tmp_path, "train", *FAST, "--seed", "0")
    run(tmp_path, "unlearn", *FAST, "--no-budget", "--seed", "0", "--unlearn_method", "l1_sparse_ft")
    cfg = fast_cfg(seed=0, unlearn_method="l1_sparse_ft")
    run_dir = tmp_path / "runs" / config_hash(cfg)
    capsys.readouterr()
    assert run(tmp_path, "evaluate", "--run", str(run_dir)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"acc_test", "acc_f", "acc_r", "seconds", "flos",
                            "mia_success", "transfer_acc", "config_hash", "seed"}


def test_evaluate_run_reproduces_the_stored_report_of_a_run_whose_retain_set_is_split(
        tmp_path, capsys):
    """At a width of ``EVAL_BLOCK_VALUES // 64`` an evaluation block holds 64 rows,
    fewer than D_r's 65: the report ``evaluate --run`` scores from the saved
    model is the stored one."""
    from unlearnkit.metrics import EVAL_BLOCK_VALUES, row_blocks

    width = EVAL_BLOCK_VALUES // 64
    backbone = f"mlp:{width}"
    wide = [*FAST, "--backbone", backbone, "--seed", "0"]
    assert run(tmp_path, "train", *wide) == 0
    assert run(tmp_path, "unlearn", *wide, "--no-budget", "--del_ratio", "10",
               "--unlearn_method", "l1_sparse_ft") == 0
    cfg = fast_cfg(backbone=backbone, seed=0, del_ratio=10, unlearn_method="l1_sparse_ft")
    split = generate(cfg.data_spec()).with_deletion(cfg.del_ratio)
    assert len(row_blocks(len(split.retain_y), EVAL_BLOCK_VALUES // width)) == 2
    run_dir = tmp_path / "runs" / config_hash(cfg)
    capsys.readouterr()
    assert run(tmp_path, "evaluate", "--run", str(run_dir)) == 0
    assert json.loads(capsys.readouterr().out) == json.loads((run_dir / "report.json").read_text())


def test_config_file_with_flag_overrides(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text(
        "# experiment settings\n"
        f"data_name={DATA}\n"
        "backbone=mlp:12\n"
        "train_epochs=20\n"
        "epochs=4\n"
        "unlearn_method=neg_grad\n"
        "del_ratio=3\n")
    run(tmp_path, "train", "--config", str(config_file), "--seed", "4")
    rc = run(tmp_path, "unlearn", "--config", str(config_file), "--seed", "4",
             "--no-budget", "--unlearn_method", "rand_label")  # flag wins over the file
    assert rc == 0
    cfg = UnlearnConfig(data_name=DATA, backbone="mlp:12", train_epochs=20,
                        epochs=4, unlearn_method="rand_label", del_ratio=3, seed=4)
    assert (tmp_path / "runs" / config_hash(cfg) / "report.json").exists()


@pytest.mark.parametrize("off, unset", [("false", "none"), ("Off", "null"), ("0", " ")])
def test_flags_parse_the_false_and_none_spellings(off, unset):
    from unlearnkit.cli import _resolve_config, build_parser

    args = build_parser().parse_args(["unlearn", "--curriculum", off, "--budget_seconds", unset])
    cfg = _resolve_config(args)
    assert cfg.curriculum is False and cfg.budget_seconds is None


def test_unknown_config_key_rejected(tmp_path, capsys):
    config_file = tmp_path / "bad.cfg"
    config_file.write_text("learning_rte=0.5\n")
    assert run(tmp_path, "train", "--config", str(config_file)) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_env_var_artifact_root(tmp_path, monkeypatch):
    monkeypatch.setenv("UNLEARNKIT_ARTIFACTS", str(tmp_path / "from_env"))
    assert main(["train", *FAST, "--seed", "7"]) == 0
    assert (tmp_path / "from_env" / "checkpoints").exists()


# ----------------------------------------------------------------------- sweep

def test_sweep_grid_resume_and_manifest_integrity(tmp_path, capsys):
    rc = run(tmp_path, "sweep", *FAST, "--no-budget", "--seed", "0",
             "--methods", "rand_label,neg_grad", "--ratios", "2,4", "--seeds", "0,1")
    assert rc == 0
    out = capsys.readouterr().out
    assert "sweep: 8 runs (2 methods x 2 ratios x 2 seeds)" in out
    manifest = Manifest(tmp_path)
    unlearn_entries = [e for e in manifest.entries.values() if e["kind"] == "unlearn"]
    assert len(unlearn_entries) == 8
    assert all(e["status"] == "done" for e in unlearn_entries)

    # every artifact dir is reachable from the manifest and vice versa
    on_disk = {str(p) for p in (tmp_path / "runs").iterdir()}
    on_disk |= {str(p) for p in (tmp_path / "checkpoints").iterdir()}
    in_manifest = {e["dir"] for e in manifest.entries.values()}
    assert on_disk == in_manifest
    for d in in_manifest:
        assert Path(d).exists()

    # resume executes nothing new
    rc = run(tmp_path, "sweep", *FAST, "--no-budget", "--seed", "0",
             "--methods", "rand_label,neg_grad", "--ratios", "2,4", "--seeds", "0,1")
    assert rc == 0
    assert "8 already done, 0 to run" in capsys.readouterr().out


def test_sweep_deduplicates_grid(tmp_path, capsys):
    rc = run(tmp_path, "sweep", *FAST, "--no-budget", "--seed", "0",
             "--methods", "rand_label,rand_label", "--ratios", "2", "--seeds", "0")
    assert rc == 0
    out = capsys.readouterr().out
    assert "duplicate grid entry" in out
    assert "sweep: 1 runs" in out


def test_sweep_isolates_failures(tmp_path, capsys, monkeypatch):
    # a salun planner that raises breaks salun runs but rand_label ones must survive
    def broken(f, split, config):
        raise ConfigError("salun cannot plan")

    monkeypatch.setitem(METHODS, "salun", METHODS["salun"]._replace(plan=broken))
    rc = run(tmp_path, "sweep", *FAST, "--no-budget", "--seed", "0",
             "--methods", "salun,rand_label", "--ratios", "2", "--seeds", "0")
    assert rc == 2
    manifest = Manifest(tmp_path)
    statuses = sorted(e["status"] for e in manifest.entries.values()
                      if e["kind"] == "unlearn")
    assert statuses == ["done", "failed"]


def test_sweep_rejects_unknown_methods_before_any_work(tmp_path, capsys):
    rc = run(tmp_path, "sweep", *FAST, "--no-budget", "--seed", "0",
             "--methods", "rand_label,mega", "--ratios", "2", "--seeds", "0")
    assert rc == 1
    err = capsys.readouterr().err
    assert "mega" in err and "available: exact_retrain, neg_grad, rand_label" in err
    assert list(tmp_path.iterdir()) == []  # nothing trained, no manifest written


@pytest.mark.parametrize("ratios, problem", [("x", "bad grid entry 'x'"),
                                             ("2-x", "bad grid entry '2-x'"),
                                             ("4-2,7", "range '4-2' in '4-2,7' runs backwards")])
def test_sweep_rejects_bad_ratio_lists_before_any_work(tmp_path, capsys, ratios, problem):
    # A non-integer entry or a range that runs backwards is a config error, not a traceback.
    rc = run(tmp_path, "sweep", *FAST, "--methods", "rand_label", "--ratios", ratios,
             "--seeds", "0")
    assert rc == 1
    assert f"config error: {problem}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("ratios, outside", [("0,11", "0, 11"), ("5,12", "12"), ("0-3", "0")])
def test_sweep_rejects_ratios_outside_1_to_10_before_any_work(tmp_path, capsys, ratios, outside):
    # Checked before the originals train: no checkpoint, run directory or manifest.
    rc = run(tmp_path, "sweep", *FAST, "--no-budget", "--methods", "rand_label,neg_grad",
             "--ratios", ratios, "--seeds", "0")
    assert rc == 1
    assert f"config error: deletion ratios must lie in 1..10, got {outside}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_sweep_rejects_workers_below_1_before_any_work(tmp_path, capsys, workers):
    rc = run(tmp_path, "sweep", *FAST, "--no-budget", "--methods", "rand_label",
             "--ratios", "2", "--seeds", "0", "--workers", workers)
    assert rc == 1
    assert f"config error: --workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_sweep_with_an_empty_deletion_set_exits_1_before_any_work(tmp_path, capsys):
    # 40 training rows: 5% deletes 2, 1% deletes none, and neg_grad needs a deletion set.
    rc = run(tmp_path, "sweep", *FAST, "--data_name", "gaussian_blobs:c2:s25:d4", "--no-budget",
             "--methods", "exact_retrain,neg_grad", "--ratios", "5,1", "--seeds", "0,1")
    assert rc == 1
    assert ("config error: neg_grad requires a deletion set, but del_ratio 1 deletes none "
            "of 40 training rows") in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_group_loads_each_original_once_and_never_mutates_it(tmp_path, monkeypatch):
    import unlearnkit.cli as cli
    from unlearnkit.unlearn import METHODS

    for seed in (0, 1):
        assert run(tmp_path, "train", *FAST, "--seed", str(seed)) == 0
    paths = [tmp_path / "checkpoints" / train_hash(fast_cfg(seed=s)) / "model.json"
             for s in (0, 1)]
    real_load = Model.load
    loaded = []  # (path, model) of every load the groups make
    monkeypatch.setattr(cli.Model, "load", classmethod(
        lambda cls, path: loaded.append((Path(path), real_load(path))) or loaded[-1][1]))

    def group(method, seeds, ratios):
        cfgs = [fast_cfg(seed=s, unlearn_method=method, del_ratio=r)
                for r in ratios for s in seeds]
        outcomes = cli.execute_unlearn_group(tmp_path, cfgs, no_budget=True,
                                             keys=[config_hash(c) for c in cfgs])
        assert all(isinstance(o, Path) for o in outcomes), (method, outcomes)
        return outcomes

    group("neg_grad", (0, 1), (2, 6))  # four runs over two checkpoints: two loads
    assert [path for path, _ in loaded] == paths
    for method in METHODS:  # stacked groups of two, and groups of one
        for seeds, ratio in (((0, 1), 5), ((0,), 3)):
            group(method, seeds, (ratio,))
    assert len(loaded) == 2 + len(METHODS) * 3
    for path, original in loaded:
        assert original.param_digest() == real_load(path).param_digest()

    # A checkpoint rewritten between two groups, here as version 1, is the one
    # the second group trains from.
    record = v1_checkpoint_record(real_load(paths[0]))
    record["params"]["layers.0.weight"][0] = 0.125
    paths[0].write_text(json.dumps(record, indent=2, sort_keys=True))
    loaded.clear()
    [run_dir] = group("neg_grad", (0,), (5,))
    [(_, original)] = loaded
    assert original.layers[0].weight[0, 0] == 0.125
    assert original.param_digest() == real_load(paths[0]).param_digest()
    cfg = fast_cfg(unlearn_method="neg_grad", del_ratio=5)
    expected = unlearn("neg_grad", real_load(paths[0]),
                       generate(cfg.data_spec()).with_deletion(5), cfg).model
    assert real_load(run_dir / "model_prime.json").param_digest() == expected.param_digest()


# An entry of a grid field: a single integer, or an ascending range (lo, hi).
_GRID_ENTRY = st.one_of(
    st.integers(-50, 50),
    st.tuples(st.integers(0, 50), st.integers(0, 12)).map(lambda t: (t[0], t[0] + t[1])))


@given(st.lists(_GRID_ENTRY, min_size=1, max_size=6))
def test_parse_grid_field_expands_ints_and_ascending_ranges(entries):
    text = ",".join(f"{e[0]}-{e[1]}" if isinstance(e, tuple) else str(e) for e in entries)
    expected = []
    for e in entries:
        expected.extend(range(e[0], e[1] + 1) if isinstance(e, tuple) else [e])
    assert _parse_grid_field(text, int) == expected


def test_parse_grid_field_skips_empty_items_and_rejects_an_empty_field():
    assert _parse_grid_field("1,,2", int) == [1, 2]
    with pytest.raises(ConfigError, match="empty grid field ','"):
        _parse_grid_field(",", int)


def test_a_run_whose_write_raises_is_failed_and_its_group_sibling_done(tmp_path, monkeypatch,
                                                                        capsys):
    real, saves = Model.save, []

    def first_run_save_fails(model, path):
        if Path(path).name == "model_prime.json" and not saves:
            saves.append(path)
            raise OSError("simulated full disk")
        real(model, path)

    monkeypatch.setattr(Model, "save", first_run_save_fails)
    rc = run(tmp_path, "sweep", *FAST, "--no-budget", "--seed", "0",
             "--methods", "rand_label", "--ratios", "2,4", "--seeds", "0")
    assert rc == 2
    entries = Manifest(tmp_path).entries
    failed_dir = str(Path(saves[0]).parent)
    runs = {e["dir"]: e for e in entries.values() if e["kind"] == "unlearn"}
    assert len(runs) == 2
    failed = runs.pop(failed_dir)
    assert (failed["status"], failed["message"]) == ("failed", "OSError: simulated full disk")
    assert [e["status"] for e in runs.values()] == ["done"]


def test_sweep_records_non_toolkit_errors_as_failed(tmp_path, monkeypatch, capsys):
    import unlearnkit.cli as cli

    real = cli.execute_unlearn_group

    def flaky(root, cfgs, no_budget=False, keys=None):
        if cfgs[0].unlearn_method == "neg_grad":
            raise MemoryError("simulated out of memory")
        return real(root, cfgs, no_budget, keys)

    monkeypatch.setattr(cli, "execute_unlearn_group", flaky)
    rc = run(tmp_path, "sweep", *FAST, "--no-budget", "--seed", "0",
             "--methods", "rand_label,neg_grad,l1_sparse_ft", "--ratios", "2,4", "--seeds", "0")
    assert rc == 2
    entries = Manifest(tmp_path).entries
    statuses = {(method, ratio): entries[config_hash(fast_cfg(
        unlearn_method=method, del_ratio=ratio, seed=0))]["status"]
        for method in ("rand_label", "neg_grad", "l1_sparse_ft") for ratio in (2, 4)}
    # The error fails exactly its group's runs: neg_grad's, at both ratios.
    assert {key for key, status in statuses.items() if status == "failed"} == {
        ("neg_grad", 2), ("neg_grad", 4)}
    assert sum(status == "done" for status in statuses.values()) == 4
    failed = [e for e in entries.values() if e["status"] == "failed"]
    assert all(e["message"] == "MemoryError: simulated out of memory" for e in failed)
    assert capsys.readouterr().err.count("Traceback") == 1


@pytest.mark.parametrize("methods, ratios, seeds, runs, saves_expected", [
    # 2 originals marked pending, each finished; all 8 runs marked pending, 2 method jobs
    # finished
    ("rand_label,neg_grad", "2,4", "0,1", 8, 1 + 2 + 1 + 2),
    # 3 originals marked pending, each finished; all 30 runs marked pending, 3 jobs of 10
    # finished
    ("neg_grad", "1-10", "0-2", 30, 1 + 3 + 1 + 3)], ids=["8_runs", "30_runs"])
def test_sweep_writes_the_manifest_once_per_job(tmp_path, monkeypatch, capsys, methods, ratios,
                                                 seeds, runs, saves_expected):
    saves = []
    real = Manifest.save
    monkeypatch.setattr(Manifest, "save", lambda self: saves.append(1) or real(self))
    rc = run(tmp_path, "sweep", *FAST, "--no-budget", "--seed", "0",
             "--methods", methods, "--ratios", ratios, "--seeds", seeds)
    assert rc == 0
    assert len(saves) == saves_expected
    entries = [e for e in Manifest(tmp_path).entries.values() if e["kind"] == "unlearn"]
    assert len(entries) == runs and all(e["status"] == "done" for e in entries)


def test_a_sweep_job_trains_at_most_one_stack_of_consecutive_runs(tmp_path, monkeypatch,
                                                                   capsys):
    import unlearnkit.cli as cli
    from unlearnkit.unlearn import MAX_STACK

    real = cli.execute_unlearn_group
    jobs = []  # each job's (ratio, seed) pairs, in order

    def spy(root, cfgs, no_budget=False, keys=None):
        assert {cfg.unlearn_method for cfg in cfgs} == {"neg_grad"}
        jobs.append([(cfg.del_ratio, cfg.seed) for cfg in cfgs])
        return real(root, cfgs, no_budget, keys)

    def sweep():
        jobs.clear()
        return run(tmp_path, "sweep", *FAST, "--no-budget", "--seed", "0",
                   "--methods", "neg_grad", "--ratios", "1-10", "--seeds", "0-2")

    def check(pending):  # consecutive ratio-major slices that cover each pending run once
        assert [run for job in jobs for run in job] == pending
        assert [len(job) for job in jobs] == [
            min(MAX_STACK, len(pending) - lo) for lo in range(0, len(pending), MAX_STACK)]

    monkeypatch.setattr(cli, "execute_unlearn_group", spy)
    assert sweep() == 0
    grid = [(ratio, seed) for ratio in range(1, 11) for seed in range(3)]
    check(grid)
    assert len(jobs) == 3

    # Resume after 13 runs lost their reports: the 13 pending runs make jobs of 10 and 3.
    lost = sorted({*grid[1::3], (9, 0), (9, 2), (10, 2)})
    for ratio, seed in lost:
        key = config_hash(fast_cfg(unlearn_method="neg_grad", del_ratio=ratio, seed=seed))
        (tmp_path / "runs" / key / "report.json").unlink()
    assert sweep() == 0
    check(lost)
    assert "17 already done, 13 to run" in capsys.readouterr().out


def test_no_command_imports_numpy_ma(tmp_path):
    # np.unique imports numpy.ma; no command needs it, so none may load it.
    script = f"""
import sys
from unlearnkit.cli import main
argv = {["--artifacts", str(tmp_path), *FAST[:4], "--train_epochs", "2", "--epochs", "1"]!r}
for command in (["train"], ["unlearn", "--unlearn_method", "neg_grad", "--no-budget"],
                ["evaluate"], ["sweep", "--methods", "rand_label", "--ratios", "2",
                               "--seeds", "0", "--no-budget"]):
    assert main([*argv[:2], command[0], *argv[2:], *command[1:]]) == 0, command
assert main([*argv[:2], "report"]) == 0
print("numpy.ma" in sys.modules)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_parallel_sweep_prints_a_line_per_run(tmp_path, capsys):
    rc = run(tmp_path, "sweep", *FAST, "--no-budget", "--seed", "0", "--workers", "2",
             "--methods", "neg_grad,rand_label", "--ratios", "3", "--seeds", "0,1")
    assert rc == 0
    lines = {line.strip() for line in capsys.readouterr().out.splitlines()}
    for method in ("neg_grad", "rand_label"):
        for seed in (0, 1):
            assert f"{method} r=3 s={seed}: done" in lines


def test_sweep_ratio_range_syntax(tmp_path, capsys):
    rc = run(tmp_path, "sweep", *FAST, "--no-budget", "--seed", "0",
             "--methods", "neg_grad", "--ratios", "1-3", "--seeds", "0")
    assert rc == 0
    assert "sweep: 3 runs" in capsys.readouterr().out


# ---------------------------------------------------------------------- report

def _record_done(root, run_dir):
    """Record the run in ``run_dir`` done in the manifest, as a completed run is."""
    manifest = Manifest(root)
    manifest.start_all("unlearn", [(run_dir.name, run_dir)])
    manifest.finish_all([(run_dir.name, "done", None)])


def _fake_run(root, method, seed, ratio, report_overrides):
    cfg = fast_cfg(unlearn_method=method, seed=seed, del_ratio=ratio)
    run_dir = root / "runs" / config_hash(cfg)
    run_dir.mkdir(parents=True)
    _record_done(root, run_dir)
    (run_dir / "config.json").write_text(json.dumps(cfg.resolved_dict()))
    report = {"acc_test": 95.0, "acc_f": 33.3, "acc_r": 99.0, "seconds": 1.0,
              "flos": 1e6, "mia_success": 50.0, "transfer_acc": None,
              "config_hash": config_hash(cfg), "seed": seed}
    report.update(report_overrides)
    (run_dir / "report.json").write_text(json.dumps(report))
    return run_dir


def test_report_single_run_echoes_metrics(tmp_path, capsys):
    run(tmp_path, "train", *FAST, "--seed", "0")
    run(tmp_path, "unlearn", *FAST, "--no-budget", "--seed", "0",
        "--unlearn_method", "rand_label")
    assert run(tmp_path, "report") == 0
    md = (tmp_path / "reports" / "leaderboard.md").read_text()
    assert "| 1 | rand_label | 1 |" in md
    assert "Unlearning time (hrs)" in md  # hours-style table layout
    assert (tmp_path / "reports" / "leaderboard.csv").exists()
    assert (tmp_path / "reports" / "ratio_curves.csv").exists()
    assert (tmp_path / "reports" / "scaling_curves.csv").exists()


def test_report_averages_runs(tmp_path):
    _fake_run(tmp_path, "rand_label", 0, 5, {"acc_test": 40.0})
    _fake_run(tmp_path, "rand_label", 1, 5, {"acc_test": 60.0})
    assert run(tmp_path, "report") == 0
    csv_text = (tmp_path / "reports" / "leaderboard.csv").read_text()
    row = csv_text.splitlines()[1].split(",")
    assert row[0] == "rand_label" and row[1] == "2"
    assert float(row[2]) == 50.0


def test_report_leaves_out_a_run_the_manifest_records_failed(tmp_path, capsys):
    run(tmp_path, "train", *FAST, "--seed", "0")
    for method in ("neg_grad", "rand_label"):
        assert run(tmp_path, "unlearn", *FAST, "--no-budget", "--seed", "0",
                   "--unlearn_method", method) == 0
    # budget_seconds is not in the hash: the rerun fails in the complete run's directory.
    assert run(tmp_path, "unlearn", *FAST, "--seed", "0", "--unlearn_method", "rand_label",
               "--force", "--budget_seconds", "0.000001") == 2
    assert "BudgetError" in capsys.readouterr().err
    assert run(tmp_path, "report") == 0
    out = tmp_path / "reports"
    for name in ("leaderboard.csv", "ratio_curves.csv", "scaling_curves.csv"):
        rows = (out / name).read_text().splitlines()[1:]
        assert rows and {row.split(",")[0] for row in rows} == {"neg_grad"}, name


def test_a_failed_rerun_leaves_no_completion_file_for_the_explicit_readers(tmp_path, capsys):
    run(tmp_path, "train", *FAST, "--seed", "0")
    assert run(tmp_path, "unlearn", *FAST, "--no-budget", "--seed", "0",
               "--unlearn_method", "rand_label") == 0
    [run_dir] = (tmp_path / "runs").iterdir()
    assert run(tmp_path, "unlearn", *FAST, "--seed", "0", "--unlearn_method", "rand_label",
               "--force", "--budget_seconds", "0.000001") == 2
    assert not (run_dir / "report.json").exists()
    capsys.readouterr()
    assert run(tmp_path, "report", str(run_dir)) == 1
    assert "no completed runs" in capsys.readouterr().err
    assert run(tmp_path, "evaluate", "--run", str(run_dir)) == 1
    assert "bad run file" in capsys.readouterr().err


def test_report_refuses_mixed_datasets(tmp_path, capsys):
    _fake_run(tmp_path, "rand_label", 0, 5, {})
    cfg = fast_cfg(unlearn_method="neg_grad", seed=0,
                   data_name="spiral:c3:s30:d2:noise0.1")
    run_dir = tmp_path / "runs" / config_hash(cfg)
    run_dir.mkdir(parents=True)
    _record_done(tmp_path, run_dir)
    (run_dir / "config.json").write_text(json.dumps(cfg.resolved_dict()))
    (run_dir / "report.json").write_text(json.dumps(
        {"acc_test": 1.0, "acc_f": 1.0, "acc_r": 1.0, "seconds": 1.0, "flos": 1.0,
         "mia_success": 1.0, "transfer_acc": None, "config_hash": "x", "seed": 0}))
    assert run(tmp_path, "report") == 1
    assert "mix dataset specs" in capsys.readouterr().err


def test_report_without_runs_exits_1(tmp_path, capsys):
    assert run(tmp_path, "report") == 1
    assert "no completed runs" in capsys.readouterr().err


def test_aggregate_of_no_records_raises_config_error():
    with pytest.raises(ConfigError, match="no completed runs to report on"):
        aggregate([])


def test_sweep_parallel_workers(tmp_path, capsys):
    rc = run(tmp_path, "sweep", *FAST, "--no-budget", "--seed", "0", "--workers", "2",
             "--methods", "neg_grad,l1_sparse_ft", "--ratios", "3", "--seeds", "0,1")
    assert rc == 0
    manifest = Manifest(tmp_path)
    done = [e for e in manifest.entries.values()
            if e["kind"] == "unlearn" and e["status"] == "done"]
    assert len(done) == 4


def test_report_renders_reference_mia_table(tmp_path):
    # Report-format fixture: the published per-method MIA success numbers are
    # rendered faithfully, not reproduced by runs at this scale.
    reference = {"neg_grad": 8.6, "rand_label": 10.7, "bad_t": 14.7,
                 "scrub": 10.8, "salun": 11.5}
    for method, mia in reference.items():
        _fake_run(tmp_path, method, 0, 5, {"mia_success": mia})
    assert run(tmp_path, "report") == 0
    rows = (tmp_path / "reports" / "leaderboard.csv").read_text().splitlines()[1:]
    rendered = {row.split(",")[0]: float(row.split(",")[5]) for row in rows}
    assert rendered == reference


def test_evaluate_checkpoint_by_config(tmp_path, capsys):
    run(tmp_path, "train", *FAST, "--seed", "0")
    capsys.readouterr()
    assert run(tmp_path, "evaluate", *FAST, "--seed", "0", "--del_ratio", "5") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["acc_r"] >= payload["acc_test"] - 20  # sanity: a real report
    assert run(tmp_path, "evaluate", *FAST, "--seed", "99") == 1  # no checkpoint


def test_sweep_full_grid_counts_250_entries(tmp_path, capsys):
    # 5 methods x 10 ratios x 5 seeds; zero-epoch runs so only counting is slow
    rc = run(tmp_path, "sweep", "--data_name", DATA, "--backbone", "mlp:12",
             "--train_epochs", "2", "--epochs", "0", "--scrub_max_steps", "0",
             "--scrub_min_steps", "0", "--no-budget",
             "--methods", "rand_label,neg_grad,bad_t,scrub,l1_sparse_ft",
             "--ratios", "1-10", "--seeds", "0-4")
    assert rc == 0
    assert "sweep: 250 runs (5 methods x 10 ratios x 5 seeds)" in capsys.readouterr().out
    manifest = Manifest(tmp_path)
    entries = [e for e in manifest.entries.values() if e["kind"] == "unlearn"]
    assert len(entries) == 250
    assert all(e["status"] == "done" for e in entries)


def test_train_config_error_is_recorded_as_failed(tmp_path, monkeypatch, capsys):
    # The config values train reads are all checked before it records anything (see
    # _BAD_VALUES), so a config error that training raises is simulated.
    import unlearnkit.cli as cli

    def late_config_error(*args, **kwargs):
        raise ConfigError("simulated config error in training")

    monkeypatch.setattr(cli, "train_original", late_config_error)
    rc = run(tmp_path, "train", "--data_name", DATA, "--seed", "0")
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    entries = list(Manifest(tmp_path).entries.values())
    assert [(e["kind"], e["status"]) for e in entries] == [("train", "failed")]
    assert "simulated config error in training" in entries[0]["message"]


def _rows_without_seconds(path):
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    col = header.index("seconds")
    return [row[:col] + row[col + 1:] for row in rows]


def _library_trace_without_seconds(root, cfg, tmp_path):
    """The rows the diverging run records alone in the library, as its trace.csv holds them."""
    model = Model.load(root / "checkpoints" / train_hash(cfg) / "model.json")
    split = generate(cfg.data_spec()).with_deletion(cfg.del_ratio)
    with pytest.raises(NumericError) as info:
        unlearn(cfg.unlearn_method, model, split, cfg)
    path = tmp_path / "library_trace.csv"
    write_trace_csv(info.value.trace, path)
    return _rows_without_seconds(path)


def test_unlearn_divergence_keeps_its_partial_trace(tmp_path, capsys):
    import warnings

    root = tmp_path / "root"
    assert run(root, "train", *FAST, "--seed", "0") == 0
    cfg = fast_cfg(seed=0, unlearn_method="neg_grad", learning_rate=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = run(root, "unlearn", *FAST, "--seed", "0", "--unlearn_method", "neg_grad",
                 "--learning_rate", "1e300", "--no-budget")
        want = _library_trace_without_seconds(root, cfg, tmp_path)
    assert rc == 2
    err = capsys.readouterr().err
    assert "runtime error: NumericError: training loss became non-finite" in err
    [entry] = [e for e in Manifest(root).entries.values() if e["kind"] == "unlearn"]
    assert entry["status"] == "failed"
    assert entry["message"].startswith("NumericError: training loss became non-finite")
    run_dir = root / "runs" / config_hash(cfg)
    assert [p.name for p in run_dir.iterdir()] == ["trace.csv"]
    assert _rows_without_seconds(run_dir / "trace.csv") == want and len(want) >= 2


def test_each_diverging_sweep_run_keeps_the_partial_trace_it_records_alone(tmp_path, capsys):
    import warnings

    root = tmp_path / "root"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = run(root, "sweep", *FAST, "--methods", "neg_grad", "--ratios", "5",
                 "--seeds", "0,1", "--learning_rate", "1e300", "--no-budget")
        cfgs = [fast_cfg(seed=seed, unlearn_method="neg_grad", learning_rate=1e300)
                for seed in (0, 1)]
        wants = [_library_trace_without_seconds(root, cfg, tmp_path) for cfg in cfgs]
    assert rc == 2
    entries = Manifest(root).entries
    for cfg, want in zip(cfgs, wants):
        key = config_hash(cfg)
        assert entries[key]["status"] == "failed"
        assert entries[key]["message"].startswith("NumericError: ")
        trace = root / "runs" / key / "trace.csv"
        assert _rows_without_seconds(trace) == want and len(want) >= 2


def test_train_divergence_aborts_with_trace(tmp_path, capsys):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = run(tmp_path, "train", "--data_name", DATA, "--backbone", "mlp:12",
                 "--train_epochs", "3", "--train_learning_rate", "1e200",
                 "--seed", "0")
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err
    ckpt_dir = next((tmp_path / "checkpoints").iterdir())
    assert (ckpt_dir / "trace.csv").exists()  # partial trace survives the abort
    assert not (ckpt_dir / "model.json").exists()
    manifest = Manifest(tmp_path)
    assert all(e["status"] == "failed" for e in manifest.entries.values())


def test_a_sweep_whose_originals_diverge_records_each_failed_and_runs_nothing(tmp_path,
                                                                              capsys):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = run(tmp_path, "sweep", *FAST, "--train_learning_rate", "1e200", "--no-budget",
                 "--methods", "neg_grad", "--ratios", "2", "--seeds", "0,1")
    assert rc == 2
    assert "runtime error: NumericError" in capsys.readouterr().err
    entries = list(Manifest(tmp_path).entries.values())
    assert entries and {(e["kind"], e["status"]) for e in entries} == {("train", "failed")}
    for e in entries:
        assert sorted(p.name for p in Path(e["dir"]).iterdir()) == ["trace.csv"]
    assert not (tmp_path / "runs").exists()


# ----------------------------------------------------- malformed artifact files

def test_a_malformed_manifest_is_a_config_error_naming_it(tmp_path, capsys):
    assert run(tmp_path, "train", *FAST, "--seed", "0") == 0
    manifest = tmp_path / "manifest.json"
    good = manifest.read_text()
    key = train_hash(fast_cfg(seed=0))
    entry = json.loads(good)[key]
    # Truncated, and the checkpoint's entry as a string, without a status, with a number.
    for text in (good[:40], json.dumps({key: "done"}), json.dumps({key: {"kind": "train"}}),
                 json.dumps({key: {**entry, "status": 1}})):
        manifest.write_text(text)
        for argv in (["train", *FAST, "--seed", "0"],
                     ["unlearn", *FAST, "--seed", "0", "--no-budget"],
                     ["sweep", *FAST, "--methods", "neg_grad", "--ratios", "2", "--seeds", "0"]):
            capsys.readouterr()
            assert run(tmp_path, *argv) == 1
            assert f"config error: bad manifest {manifest}: " in capsys.readouterr().err
        assert manifest.read_text() == text
    assert list((tmp_path / "runs").glob("*")) == []


@pytest.mark.parametrize("name, text", [
    ("report.json", lambda text: text[:40]),
    ("report.json", lambda text: "[]"),
    ("report.json", lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                             if k != "acc_f"})),
    ("config.json", lambda text: text[:40]),
    ("config.json", lambda text: json.dumps({**json.loads(text), "colour": "red"})),
], ids=["truncated_report", "report_not_an_object", "report_without_acc_f",
        "truncated_config", "config_with_unknown_key"])
def test_report_on_a_malformed_run_file_is_a_config_error_naming_it(tmp_path, capsys,
                                                                     name, text):
    _fake_run(tmp_path, "rand_label", 0, 5, {})
    bad = _fake_run(tmp_path, "rand_label", 1, 5, {}) / name
    bad.write_text(text(bad.read_text()))
    assert run(tmp_path, "report") == 1
    assert f"config error: bad run file {bad}: " in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()


# ------------------------------------------------------------- one scoring path

@pytest.mark.parametrize("seeds, hashes_per_run", [("0,1", 1), ("0", 1)])
def test_sweep_hashes_each_config_once_per_run(tmp_path, monkeypatch, capsys,
                                               seeds, hashes_per_run):
    import unlearnkit.cli as cli

    calls = []
    real = cli.config_hash
    monkeypatch.setattr(cli, "config_hash", lambda cfg: calls.append(1) or real(cfg))
    argv = ("sweep", *FAST, "--no-budget", "--methods", "neg_grad,rand_label",
            "--ratios", "2,4", "--seeds", seeds)
    assert run(tmp_path, *argv) == 0
    runs = 4 * len(seeds.split(","))
    assert len(calls) == hashes_per_run * runs
    calls.clear()
    assert run(tmp_path, *argv) == 0  # resumed: every run is done
    assert len(calls) == runs


def test_the_written_report_scores_the_saved_model(tmp_path):
    """Every method, solo and in a lockstep group: report.json is the report of
    model_prime.json, so scoring the last snapshot's logits changes nothing."""
    import unlearnkit.cli as cli
    from unlearnkit.data import generate
    from unlearnkit.metrics import build_report, split_logits
    from unlearnkit.unlearn import METHODS

    for seed in (0, 1, 2):
        assert run(tmp_path, "train", *FAST, "--seed", str(seed)) == 0
    run_dirs = []
    for method in METHODS:
        for seeds in ((0, 1), (2,)):
            cfgs = [fast_cfg(seed=s, unlearn_method=method, del_ratio=10) for s in seeds]
            outcomes = cli.execute_unlearn_group(tmp_path, cfgs, no_budget=True,
                                                 keys=[config_hash(c) for c in cfgs])
            assert all(isinstance(o, Path) for o in outcomes), (method, outcomes)
            run_dirs += outcomes
    for run_dir in run_dirs:
        cfg = UnlearnConfig.from_mapping(json.loads((run_dir / "config.json").read_text()))
        written = json.loads((run_dir / "report.json").read_text())
        model = Model.load(run_dir / "model_prime.json")
        split = generate(cfg.data_spec()).with_deletion(cfg.del_ratio)
        again = build_report(split, split_logits(model, split), seconds=written["seconds"],
                             flos=written["flos"], config_hash=config_hash(cfg), seed=cfg.seed)
        assert again.to_dict() == written, run_dir


def test_runs_forward_once_per_set_per_snapshot_and_never_for_the_report(tmp_path,
                                                                         monkeypatch):
    import unlearnkit.cli as cli
    from unlearnkit.unlearn import RunRecorder

    counts = {"forward": 0, "snapshots": 0, "steps": 0, "in_snapshots": 0, "in_writes": 0}

    def counting(fn, key=None, counted=None):
        def wrapper(*args, **kwargs):
            before = counts["forward"]
            if key:
                counts[key] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if counted:
                    counts[counted] += counts["forward"] - before
        return wrapper

    monkeypatch.setattr(Model, "forward_cache", counting(Model.forward_cache, "forward"))
    monkeypatch.setattr(RunRecorder, "snapshot",
                        counting(RunRecorder.snapshot, "snapshots", "in_snapshots"))
    monkeypatch.setattr(RunRecorder, "add_samples", counting(RunRecorder.add_samples, "steps"))
    monkeypatch.setattr(cli, "_write_run", counting(cli._write_run, counted="in_writes"))

    # No deletion set while training: a snapshot forwards test and retain only.
    assert run(tmp_path, "train", *FAST, "--seed", "0") == 0
    assert counts["in_snapshots"] == 2 * counts["snapshots"] > 0
    assert counts["forward"] == counts["in_snapshots"] + counts["steps"]
    meta = json.loads(next((tmp_path / "checkpoints").glob("*/meta.json")).read_text())
    trace = (next((tmp_path / "checkpoints").glob("*/trace.csv")).read_text().splitlines())
    assert meta["test_acc"] == float(trace[-1].split(",")[3])  # the last row's acc_test

    counts.update(dict.fromkeys(counts, 0))
    assert run(tmp_path, "unlearn", *FAST, "--seed", "0", "--no-budget",
               "--unlearn_method", "neg_grad") == 0
    assert counts["in_snapshots"] == 3 * counts["snapshots"] > 0
    assert counts["in_writes"] == 0
    # neg_grad has no teacher: every other forward is a training step's.
    assert counts["forward"] == counts["in_snapshots"] + counts["steps"]


# ------------------------------------------------------------------ one run path

def test_meta_train_seconds_is_the_last_trace_rows_seconds(tmp_path):
    assert run(tmp_path, "train", *FAST, "--seed", "0") == 0
    ckpt = tmp_path / "checkpoints" / train_hash(fast_cfg(seed=0))
    meta = json.loads((ckpt / "meta.json").read_text())
    header, *rows = [line.split(",") for line in (ckpt / "trace.csv").read_text().splitlines()]
    assert meta["train_seconds"] == float(rows[-1][header.index("seconds")]) > 0


@pytest.mark.parametrize("command", ["train", "unlearn"])
def test_a_non_toolkit_error_is_recorded_failed_and_raised(tmp_path, monkeypatch, capsys,
                                                           command):
    import unlearnkit.cli as cli

    def out_of_memory(*args, **kwargs):
        raise MemoryError("simulated out of memory")

    target, argv = "train_original", ["train", *FAST, "--seed", "0"]
    if command == "unlearn":
        assert run(tmp_path, *argv) == 0
        target, argv = "unlearn_group", ["unlearn", *FAST, "--seed", "0", "--no-budget"]
    monkeypatch.setattr(cli, target, out_of_memory)
    with pytest.raises(MemoryError):
        run(tmp_path, *argv)
    [entry] = [e for e in Manifest(tmp_path).entries.values() if e["kind"] == command]
    assert entry["status"] == "failed"
    assert entry["message"] == "MemoryError: simulated out of memory"


def test_the_unlearn_command_hashes_its_config_once(tmp_path, monkeypatch, capsys):
    import unlearnkit.cli as cli

    assert run(tmp_path, "train", *FAST, "--seed", "0") == 0
    calls = []
    real = cli.config_hash
    monkeypatch.setattr(cli, "config_hash", lambda cfg: calls.append(1) or real(cfg))
    assert run(tmp_path, "unlearn", *FAST, "--seed", "0", "--no-budget") == 0
    assert len(calls) == 1


def test_a_dead_pool_worker_fails_its_runs_and_a_resumed_sweep_completes_them(
        tmp_path, monkeypatch, capsys):
    import os

    import unlearnkit.cli as cli

    real = cli.execute_unlearn_group

    def dies(root, cfgs, no_budget=False, keys=None):
        if cfgs[0].unlearn_method == "neg_grad":
            os._exit(3)  # the worker process ends at once, as if killed
        return real(root, cfgs, no_budget, keys)

    # One job per method; neg_grad's, the third, starts only once a worker is free.
    argv = ("sweep", *FAST, "--no-budget", "--workers", "2", "--methods",
            "rand_label,l1_sparse_ft,neg_grad", "--ratios", "2,4", "--seeds", "0,1")
    monkeypatch.setattr(cli, "execute_unlearn_group", dies)  # forked workers inherit it
    assert run(tmp_path, *argv) == 2
    entries = [e for e in Manifest(tmp_path).entries.values() if e["kind"] == "unlearn"]
    failed = [e for e in entries if e["status"] == "failed"]
    assert len(entries) == 12 and {e["status"] for e in entries} == {"done", "failed"}
    assert len(failed) >= 4
    assert all(e["message"].startswith("BrokenProcessPool: ") for e in failed)
    assert capsys.readouterr().err.count("BrokenProcessPool: ") == 1  # one traceback

    monkeypatch.setattr(cli, "execute_unlearn_group", real)
    assert run(tmp_path, *argv) == 0
    assert f"{12 - len(failed)} already done, {len(failed)} to run" in capsys.readouterr().out
    entries = [e for e in Manifest(tmp_path).entries.values() if e["kind"] == "unlearn"]
    assert all(e["status"] == "done" for e in entries)


def test_a_pool_worker_prints_a_non_toolkit_errors_traceback_once_naming_its_raise_site(
        tmp_path, monkeypatch, capfd):
    import unlearnkit.cli as cli

    real = cli.execute_unlearn_group

    def out_of_memory(root, cfgs, no_budget=False, keys=None):
        if cfgs[0].unlearn_method == "neg_grad":
            raise MemoryError("simulated out of memory")
        return real(root, cfgs, no_budget, keys)

    monkeypatch.setattr(cli, "execute_unlearn_group", out_of_memory)  # workers inherit it
    assert run(tmp_path, "sweep", *FAST, "--no-budget", "--workers", "2", "--methods",
               "neg_grad,rand_label", "--ratios", "2,4", "--seeds", "0") == 2
    err = capfd.readouterr().err
    assert err.count("Traceback") == 1
    assert "in out_of_memory" in err and 'raise MemoryError("simulated out of memory")' in err
    failed = [e for e in Manifest(tmp_path).entries.values() if e["status"] == "failed"]
    assert [e["message"] for e in failed] == ["MemoryError: simulated out of memory"] * 2


def test_a_pool_starts_no_more_workers_than_jobs(tmp_path, monkeypatch, capsys):
    import unlearnkit.cli as cli

    sizes = []

    class Recording(cli.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recording)
    assert run(tmp_path, "sweep", *FAST, "--no-budget", "--workers", "4", "--methods",
               "neg_grad,rand_label", "--ratios", "2", "--seeds", "0") == 0
    assert sizes == [2]  # two jobs, one per method


@pytest.mark.parametrize("damage", ["truncated", "without_train_seconds"])
def test_unlearn_on_a_malformed_checkpoint_meta_exits_1_and_records_failed(
        tmp_path, capsys, damage):
    assert run(tmp_path, "train", *FAST, "--seed", "0") == 0
    meta = tmp_path / "checkpoints" / train_hash(fast_cfg(seed=0)) / "meta.json"
    text = meta.read_text()
    meta.write_text(text[:30] if damage == "truncated" else json.dumps(
        {k: v for k, v in json.loads(text).items() if k != "train_seconds"}))
    capsys.readouterr()
    assert run(tmp_path, "unlearn", *FAST, "--seed", "0") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad checkpoint {meta}: ") and "Traceback" not in err
    [entry] = [e for e in Manifest(tmp_path).entries.values() if e["kind"] == "unlearn"]
    assert entry["status"] == "failed" and str(meta) in entry["message"]


@pytest.mark.parametrize("name, text", [
    ("config.json", lambda text: text[:30]),
    ("config.json", lambda text: json.dumps({**json.loads(text), "seed": -1})),
    ("report.json", lambda text: text[:30]),
    ("report.json", lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                             if k != "seconds"})),
], ids=["truncated_config", "config_with_a_negative_seed", "truncated_report",
        "report_without_seconds"])
def test_evaluate_on_a_malformed_run_file_is_a_config_error_naming_it(tmp_path, capsys,
                                                                      name, text):
    assert run(tmp_path, "train", *FAST, "--seed", "0") == 0
    assert run(tmp_path, "unlearn", *FAST, "--seed", "0", "--no-budget") == 0
    run_dir = tmp_path / "runs" / config_hash(fast_cfg(seed=0))
    bad = run_dir / name
    bad.write_text(text(bad.read_text()))
    capsys.readouterr()
    assert run(tmp_path, "evaluate", "--run", str(run_dir)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad run file {bad}: ") and "Traceback" not in err


def test_unlearn_after_a_checkpoint_meta_is_removed_exits_1_and_train_repairs_it(tmp_path,
                                                                                 capsys):
    assert run(tmp_path, "train", *FAST, "--seed", "0") == 0
    meta = tmp_path / "checkpoints" / train_hash(fast_cfg(seed=0)) / "meta.json"
    meta.unlink()
    capsys.readouterr()
    assert run(tmp_path, "unlearn", *FAST, "--seed", "0") == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: no trained checkpoint") and "Traceback" not in err
    [entry] = [e for e in Manifest(tmp_path).entries.values() if e["kind"] == "unlearn"]
    assert entry["status"] == "failed" and "no trained checkpoint" in entry["message"]
    assert run(tmp_path, "train", *FAST, "--seed", "0") == 0
    assert "already exists" not in capsys.readouterr().out
    assert json.loads(meta.read_text())["train_seconds"] > 0
    assert run(tmp_path, "unlearn", *FAST, "--seed", "0", "--no-budget") == 0


@pytest.mark.parametrize("missing", ["config.json", "model_prime.json", "report.json"])
def test_evaluate_on_a_run_missing_a_file_is_a_config_error_naming_it(tmp_path, capsys, missing):
    assert run(tmp_path, "train", *FAST, "--seed", "0") == 0
    assert run(tmp_path, "unlearn", *FAST, "--seed", "0", "--no-budget") == 0
    run_dir = tmp_path / "runs" / config_hash(fast_cfg(seed=0))
    (run_dir / missing).unlink()
    capsys.readouterr()
    assert run(tmp_path, "evaluate", "--run", str(run_dir)) == 1
    err = capsys.readouterr().err
    what = "checkpoint" if missing == "model_prime.json" else "run file"
    assert err.startswith(f"config error: bad {what} {run_dir / missing}: ")
    assert "Traceback" not in err


def test_evaluate_on_a_directory_that_is_not_a_run_exits_1(tmp_path, capsys):
    assert run(tmp_path, "evaluate", "--run", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad run file {tmp_path / 'config.json'}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, code", [
    (["train", "--no_such_flag"], 1),
    (["train", "--data_name"], 1),
    (["no_such_command"], 1),
    (["train", "--help"], 0),
], ids=["unknown_flag", "flag_without_value", "unknown_command", "help"])
def test_a_usage_error_exits_1_and_help_exits_0(tmp_path, capsys, argv, code):
    assert run(tmp_path, *argv) == code
    out, err = capsys.readouterr()
    assert ("usage: unlearnkit" in out) if code == 0 else ("error:" in err)
    assert list(tmp_path.iterdir()) == []


# Values no run can use. Each exits 1 before anything is trained or recorded.
_BAD_VALUES = [
    ("train", ["--train_batch_size", "0"], "train_batch_size must be an integer >= 1"),
    ("train", ["--train_batch_size", "-4"], "train_batch_size must be an integer >= 1"),
    ("train", ["--train_epochs", "-1"], "train_epochs must be an integer >= 0"),
    ("train", ["--seed", "-1"], "seed must be an integer >= 0"),
    ("train", ["--data_name", DATA + ":seedx"], "bad field 'seedx' in data name"),
    ("train", ["--data_name", DATA + ":seed-2"], "data seed must be >= 0"),
    ("train", ["--data_name", "gaussian_blobs:c3:s30:d4:noisenan"], "noise must be finite"),
    ("train", ["--config", "missing.cfg"], "bad config file"),
    ("train", ["--epochs", "x"], "bad value 'x' for config key 'epochs'"),
    ("train", ["--learning_rate", "fast"], "bad value 'fast' for config key 'learning_rate'"),
    ("train", ["--curriculum", "maybe"], "bad value 'maybe' for config key 'curriculum'"),
    ("unlearn", ["--config", "no_equals.cfg"],
     "no_equals.cfg:1: expected key=value, got 'epochs 5'"),
    ("unlearn", ["--batch_size", "0"], "batch_size must be an integer >= 1"),
    ("unlearn", ["--batch_size", "-4"], "batch_size must be an integer >= 1"),
    ("unlearn", ["--epochs", "-2"], "epochs must be an integer >= 0"),
    ("unlearn", ["--bad_teacher_seed", "-1"], "bad_teacher_seed must be an integer >= 0"),
    ("unlearn", ["--unlearn_method", "salun", "--adapter_rank", "-1"],
     "adapter_rank must be an integer >= 0"),
    ("unlearn", ["--unlearn_method", "salun", "--adapter_rank", "2", "--adapter_layer", "-1"],
     "adapter_layer must be an integer >= 0"),
    ("unlearn", ["--unlearn_method", "scrub", "--scrub_max_steps", "-1"],
     "scrub_max_steps must be an integer >= 0"),
    ("unlearn", ["--unlearn_method", "scrub", "--scrub_min_steps", "-1"],
     "scrub_min_steps must be an integer >= 0"),
    ("train", ["--train_learning_rate", "0"], "train_learning_rate must be > 0"),
    ("train", ["--train_learning_rate", "nan"], "train_learning_rate must be > 0"),
    ("unlearn", ["--learning_rate", "-1"], "learning_rate must be > 0"),
    ("unlearn", ["--learning_rate", "inf"], "learning_rate must be finite"),
    ("unlearn", ["--unlearn_method", "bad_t", "--temperature", "0"], "temperature must be > 0"),
    ("unlearn", ["--unlearn_method", "scrub", "--temperature", "nan"], "temperature must be > 0"),
    ("unlearn", ["--unlearn_method", "salun", "--salun_sparsity", "0"],
     "salun_sparsity must be in (0, 1]"),
    ("unlearn", ["--unlearn_method", "salun", "--salun_sparsity", "1.5"],
     "salun_sparsity must be in (0, 1]"),
    ("unlearn", ["--unlearn_method", "l1_sparse_ft", "--l1_lambda", "-1"],
     "l1_lambda must be >= 0"),
    ("unlearn", ["--curriculum", "true", "--curriculum_lambda", "0"],
     "curriculum_lambda must be > 0"),
    ("unlearn", ["--curriculum", "true", "--curriculum_decay", "1.5"],
     "curriculum_decay must be in [0, 1)"),
    ("unlearn", ["--curriculum", "true", "--curriculum_decay", "nan"],
     "curriculum_decay must be in [0, 1)"),
    ("unlearn", ["--unlearn_method", "salun", "--adapter_rank", "2", "--adapter_layer", "7"],
     "adapter_layer must be < 2"),
    ("unlearn", ["--unlearn_method", "salun", "--adapter_rank", "2", "--adapter_scale", "nan"],
     "adapter_scale must be finite"),
    ("unlearn", ["--budget_seconds", "inf"], "budget_seconds must be finite"),
    ("unlearn", ["--unlearn_method", "mega"], "unknown unlearning method(s) mega; available: "),
    ("unlearn", ["--del_ratio", "0"], "deletion ratios must lie in 1..10, got 0"),
    ("unlearn", ["--del_ratio", "11"], "deletion ratios must lie in 1..10, got 11"),
    ("unlearn", ["--data_name", "gaussian_blobs:c2:s25:d4", "--del_ratio", "1"],
     "rand_label requires a deletion set, but del_ratio 1 deletes none of 40 training rows"),
    ("unlearn", ["--data_name", "gaussian_blobs:c2:s10:d4", "--del_ratio", "10"],
     "need >= 10 test samples to calibrate the attack, got 4"),
    ("unlearn", ["--data_name", "gaussian_blobs:c2:s10:d4", "--unlearn_method", "exact_retrain"],
     "need >= 10 test samples to calibrate the attack, got 4"),
    ("train", ["--optimizer", "foo"], "optimizer must be sgd or adam, got 'foo'"),
    ("train", ["--backbone", "mlp:0"], "bad backbone spec 'mlp:0'"),
    ("train", ["--backbone", "cnn:3"], "unknown backbone family 'cnn'"),
    ("unlearn", ["--unlearn_method", "salun", "--adapter_rank", "9"],
     "adapter_rank must be <= 4, the smaller dimension of layer 0"),
]


@pytest.mark.parametrize("command, flags, problem", _BAD_VALUES,
                         ids=[" ".join(flags) for _, flags, _ in _BAD_VALUES])
def test_a_config_value_no_run_can_use_exits_1_before_any_work(tmp_path, monkeypatch, capsys,
                                                                command, flags, problem):
    monkeypatch.chdir(tmp_path)
    argv = [command, *FAST, "--seed", "0", *flags]
    if command == "unlearn":
        assert run(tmp_path, "train", *FAST, "--seed", "0") == 0
        argv.append("--no-budget")
        (tmp_path / "no_equals.cfg").write_text("epochs 5\n")  # for the --config row
    before = (tmp_path / "manifest.json").read_bytes() if command == "unlearn" else None
    capsys.readouterr()
    assert run(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and problem in err and "Traceback" not in err
    if command == "train":
        assert list(tmp_path.iterdir()) == []
    else:
        assert (tmp_path / "manifest.json").read_bytes() == before
        assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("flags", [["--salun_sparsity", "0"], ["--learning_rate", "-1"],
                                   ["--adapter_scale", "nan"],
                                   ["--adapter_rank", "2", "--adapter_layer", "7"],
                                   ["--adapter_rank", "9"], ["--optimizer", "foo"]], ids=" ".join)
def test_a_sweep_with_a_float_value_no_run_can_use_exits_1_before_training_an_original(
        tmp_path, capsys, flags):
    rc = run(tmp_path, "sweep", *FAST, "--no-budget", *flags,
             "--methods", "salun,rand_label", "--ratios", "2", "--seeds", "0,1")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{flags[-2][2:]} must be" in err
    assert list(tmp_path.iterdir()) == []  # no original trained, no manifest written


def test_a_test_set_too_small_for_the_attack_exits_1_before_any_run_is_recorded(
        tmp_path, capsys):
    # 4 test rows: the original trains, but no run can calibrate the membership attack.
    flags = [*FAST, "--data_name", "gaussian_blobs:c2:s10:d4", "--no-budget"]
    assert run(tmp_path, "train", *flags[:-1], "--seed", "0") == 0
    before = (tmp_path / "manifest.json").read_bytes()
    capsys.readouterr()
    problem = "config error: need >= 10 test samples to calibrate the attack, got 4"
    for argv in (["unlearn", *flags, "--seed", "0", "--del_ratio", "10",
                  "--unlearn_method", "exact_retrain"],
                 ["sweep", *flags, "--methods", "exact_retrain", "--ratios", "10",
                  "--seeds", "0,1"]):
        assert run(tmp_path, *argv) == 1
        assert capsys.readouterr().err.startswith(problem)
        assert (tmp_path / "manifest.json").read_bytes() == before
        assert not (tmp_path / "runs").exists()
        assert len(list((tmp_path / "checkpoints").iterdir())) == 1  # no seed-1 original


_INT_KEYS = ("seed", "train_epochs", "train_batch_size", "epochs", "batch_size", "del_ratio",
             "bad_teacher_seed", "scrub_max_steps", "adapter_rank")


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.sampled_from(_INT_KEYS), st.integers(-3, 3)),
       st.one_of(st.just("gaussian_blobs:c2:s10:d2"), st.text(max_size=30)))
@example(ints={}, data_name="-:")
def test_train_on_any_small_int_config_exits_0_or_1_and_leaves_nothing_pending(ints, data_name):
    import tempfile

    flags = ["--backbone", "mlp:4", "--train_epochs", "2", "--data_name", data_name]
    for key, value in ints.items():
        flags += [f"--{key}", str(value)]
    with tempfile.TemporaryDirectory() as root:
        assert run(root, "train", *flags) in (0, 1)
        statuses = [e["status"] for e in Manifest(root).entries.values()]
    assert "pending" not in statuses


_UNLEARN_INT_KEYS = ("seed", "train_epochs", "epochs", "batch_size", "del_ratio",
                     "bad_teacher_seed", "scrub_max_steps", "scrub_min_steps", "adapter_rank",
                     "adapter_layer")


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.sampled_from(_UNLEARN_INT_KEYS), st.integers(-1, 3), max_size=3),
       st.sampled_from([*METHODS, "mega"]), st.sampled_from(["adam", "sgd", "foo"]),
       st.sampled_from(["mlp:4", "mlp:3,3", "mlp:4:tanh", "mlp:0", "cnn:3"]))
@example(ints={"adapter_rank": 2}, method="salun", optimizer="sgd", backbone="mlp:3,3")
@example(ints={"adapter_rank": 3, "adapter_layer": 1}, method="scrub", optimizer="adam",
         backbone="mlp:3,3")
@example(ints={"adapter_rank": 3, "adapter_layer": 2}, method="salun", optimizer="adam",
         backbone="mlp:3,3")
def test_unlearn_on_any_small_int_config_exits_0_or_1_and_records_nothing_on_1(
        ints, method, optimizer, backbone):
    import tempfile

    # 80 training rows, so every ratio in 1..10 deletes at least one.
    flags = ["--data_name", "gaussian_blobs:c2:s50:d2", "--train_epochs", "2", "--epochs", "2",
             "--optimizer", optimizer, "--backbone", backbone]
    for key, value in ints.items():
        flags += [f"--{key}", str(value)]
    with tempfile.TemporaryDirectory() as root:
        run(root, "train", *flags)
        manifest = Path(root) / "manifest.json"
        before = manifest.read_bytes() if manifest.exists() else None
        rc = run(root, "unlearn", *flags, "--unlearn_method", method, "--no-budget")
        after = manifest.read_bytes() if manifest.exists() else None
        assert rc == 0 or (rc == 1 and after == before and not (Path(root) / "runs").exists())
