import dataclasses
import hashlib

import numpy as np
import pytest

from unlearnkit import BudgetError, ConfigError, Model, UnlearnConfig, evaluate, unlearn
from unlearnkit.data import generate
from unlearnkit.nn import kl_rows
from unlearnkit.optim import ParamMask
from unlearnkit.unlearn import (METHODS, TAXONOMY, Plan, RunRecorder, TeacherSpec, _drive,
                                _epochs, loss_and_grad, train_original, write_trace_csv)

from conftest import spy_trained_rows, v1_checkpoint_bytes

DATA = "gaussian_blobs:c3:s30:d4:noise0.1"


def small_cfg(**kwargs):
    base = dict(data_name=DATA, backbone="mlp:12", seed=3, train_epochs=25,
                epochs=6, learning_rate=0.02)
    base.update(kwargs)
    return UnlearnConfig(**base)


@pytest.fixture(scope="module")
def setup():
    cfg = small_cfg()
    split = generate(cfg.data_spec()).with_deletion(10)
    f = train_original(split, cfg).model
    return f, split, cfg


# -------------------------------------------------------------------- taxonomy

def test_taxonomy_matches_design_axis_table():
    expected = {
        "exact_retrain": (None, None, "original_f", ("Loss",), ("Dense", "Internal")),
        "neg_grad": ("Loss", "Grad", "none", (), ("Dense", "Internal")),
        "rand_label": ("Loss", "Data", "original_f", ("Loss",), ("Dense", "Internal")),
        "bad_t": ("Logit", "Model", "original_f", ("Logit",), ("Dense", "Internal")),
        "scrub": ("Loss", "Grad", "original_f", ("Loss", "Logit"), ("Dense", "Internal")),
        "salun": ("Loss", "Data", "original_f", ("Loss",), ("Sparse", "Internal")),
        "l1_sparse_ft": (None, None, "original_f", ("Loss",), ("Sparse", "Internal")),
    }
    assert set(TAXONOMY) == set(expected)
    for method, fields in expected.items():
        assert TAXONOMY[method] == TeacherSpec(*fields), method


@pytest.mark.parametrize("method", sorted(METHODS))
def test_taxonomy_matches_what_the_loop_trains(setup, monkeypatch, method):
    """Each declared design cell follows from the parts its plan trains on."""
    f, split, cfg = setup
    spec, planner = METHODS[method]
    plan = planner(f, split, cfg)
    original = f.logits(split.train_x)  # the original's logits, the teacher that keeps D_r
    terms = {"D_f": set(), "D_r": set()}
    corrupt, order = set(), []
    for _, ascending, steps in plan.passes:
        for parts in steps:
            for rows, _, labels, teacher in parts:
                order.append(rows.tolist())
                measured = {"Loss"} if labels is not None else set()
                if teacher is not None:
                    measured.add("Logit")
                forget = np.isin(rows, split.del_indices)
                for side, picked in (("D_f", forget), ("D_r", ~forget)):
                    if picked.any():
                        terms[side] |= measured
                if (~forget).any():  # the remaining rows follow the original
                    assert teacher is None or teacher.tobytes() == original[rows].tobytes()
                    if labels is not None:
                        assert np.array_equal(labels[~forget], split.train_y[rows[~forget]])
                if not forget.any():
                    continue
                if ascending:
                    corrupt.add("Grad")
                if labels is not None and np.any(labels[forget] != split.train_y[rows[forget]]):
                    corrupt.add("Data")
                if teacher is not None and teacher.tobytes() != original[rows].tobytes():
                    corrupt.add("Model")
    assert len(set(spec.retain_km)) == len(spec.retain_km)
    assert set(spec.retain_km) == terms["D_r"]
    assert (spec.retain == "none") == (not terms["D_r"])
    assert (spec.km is None) == (not terms["D_f"])
    if spec.km is not None:
        assert spec.km in terms["D_f"]
    assert corrupt == ({spec.corrupt} if spec.corrupt else set())
    assert (spec.scope[0] == "Sparse") == (plan.mask is not None or plan.l1_lambda > 0)
    # the run itself trains on exactly the rows the plan lists, in order
    trained = spy_trained_rows(monkeypatch)
    unlearn(method, f, split, cfg)
    assert [rows.tolist() for rows in trained[cfg.seed]] == order


# -------------------------------------------------------------------- dispatch

def test_unknown_method_lists_available(setup):
    f, split, cfg = setup
    with pytest.raises(ConfigError, match="rand_label"):
        unlearn("mega_delete", f, split, cfg)


def test_methods_require_deletion_set(setup):
    f, _, cfg = setup
    fresh = generate(cfg.data_spec())
    with pytest.raises(ConfigError):
        unlearn("neg_grad", f, fresh, cfg)


def test_original_never_mutated(setup):
    f, split, cfg = setup
    digest = f.param_digest()
    for method in TAXONOMY:
        unlearn(method, f, split, cfg)
        assert f.param_digest() == digest, method


@pytest.mark.parametrize("method", sorted(TAXONOMY))
def test_same_seed_runs_are_bit_identical(setup, method):
    f, split, cfg = setup
    a = unlearn(method, f, split, cfg)
    b = unlearn(method, f, split, cfg)
    assert a.model.param_digest() == b.model.param_digest()


def test_zero_epochs_is_identity(setup):
    f, split, cfg = setup
    for method in ("neg_grad", "rand_label", "l1_sparse_ft"):
        run = unlearn(method, f, split, dataclasses.replace(cfg, epochs=0))
        assert run.model.param_digest() == f.param_digest(), method


# --------------------------------------------------------------- exact retrain

def test_exact_retrain_with_empty_deletion_equals_original_training(setup):
    f, _, cfg = setup
    fresh = generate(cfg.data_spec())  # no deletion set
    run = unlearn("exact_retrain", f, fresh, cfg)
    assert run.model.param_digest() == f.param_digest()


@pytest.mark.parametrize("backbone, optimizer", [("mlp:12", "adam"), ("mlp:12,10:tanh", "sgd")])
def test_train_original_is_exact_retrain_on_an_undeleted_split(backbone, optimizer):
    """One recipe: the original's parameters, trace rows apart from ``seconds``
    and FLOs are those of ``exact_retrain`` over a split with no deletion set."""
    cfg = small_cfg(backbone=backbone, optimizer=optimizer, train_epochs=6,
                    unlearn_method="exact_retrain")
    split = generate(cfg.data_spec())
    original = train_original(split, cfg)
    retrain = unlearn("exact_retrain", None, split, cfg)

    def rows(trace):
        return [dataclasses.replace(row, seconds=0.0) for row in trace]

    assert original.method == "exact_retrain"
    assert original.model.param_digest() == retrain.model.param_digest()
    assert rows(original.trace) == rows(retrain.trace) and len(original.trace) == 7
    assert original.flos == retrain.flos > 0


def test_train_original_ignores_the_deletion_set():
    """The original trains on every row: a split's deletion set changes nothing it records."""
    cfg = small_cfg(train_epochs=6)
    split = generate(cfg.data_spec())
    marked, plain = train_original(split.with_deletion(10), cfg), train_original(split, cfg)

    def rows(trace):
        return [dataclasses.replace(row, seconds=0.0) for row in trace]

    assert marked.model.param_digest() == plain.model.param_digest()
    assert rows(marked.trace) == rows(plain.trace) and len(marked.trace) == 7
    assert marked.flos == plain.flos > 0


def test_exact_retrain_never_observes_deleted_rows(setup, monkeypatch):
    f, split, cfg = setup
    trained = spy_trained_rows(monkeypatch)
    unlearn("exact_retrain", f, split, cfg)
    touched = np.unique(np.concatenate(trained[cfg.seed]))
    assert np.intersect1d(touched, split.del_indices).size == 0
    assert np.array_equal(touched, split.retain_indices)


def test_l1_never_consumes_deleted_rows(setup, monkeypatch):
    f, split, cfg = setup
    trained = spy_trained_rows(monkeypatch)
    unlearn("l1_sparse_ft", f, split, cfg)
    touched = np.unique(np.concatenate(trained[cfg.seed]))
    assert np.intersect1d(touched, split.del_indices).size == 0


def test_l1_zero_lambda_is_plain_finetune(setup):
    f, split, cfg = setup
    plain = unlearn("l1_sparse_ft", f, split, dataclasses.replace(cfg, l1_lambda=0.0))
    ref = f.clone()
    passes = _epochs(np.random.default_rng(cfg.seed), np.arange(len(split.retain_y)),
                     split.train_x[split.retain_indices], split.retain_y, cfg.epochs,
                     cfg.batch_size)
    _drive([Plan(ref, passes, cfg.learning_rate)], cfg.optimizer, cfg.temperature,
           [RunRecorder(split)])
    assert plain.model.param_digest() == ref.param_digest()


def test_l1_shrinks_parameter_norm(setup):
    f, split, cfg = setup
    low = unlearn("l1_sparse_ft", f, split, dataclasses.replace(cfg, l1_lambda=0.0, epochs=10))
    high = unlearn("l1_sparse_ft", f, split, dataclasses.replace(cfg, l1_lambda=0.01, epochs=10))
    assert np.abs(high.model.param_vector()).sum() < np.abs(low.model.param_vector()).sum()


def test_l1_negative_lambda_rejected(setup):
    f, split, cfg = setup
    with pytest.raises(ConfigError):
        unlearn("l1_sparse_ft", f, split, dataclasses.replace(cfg, l1_lambda=-1.0))


# -------------------------------------------------------------------- neg_grad

def test_neg_grad_full_batch_ascent_is_nondecreasing(setup):
    f, split, cfg = setup
    ascent_cfg = dataclasses.replace(cfg, optimizer="sgd", learning_rate=1e-3,
                                     batch_size=split.del_indices.size, epochs=8)
    run = unlearn("neg_grad", f, split, ascent_cfg)
    losses = [row.loss_f for row in run.trace]
    assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))


# ------------------------------------------------------------------ rand_label

def test_rand_label_uses_corrupted_labels_and_full_train(setup, monkeypatch):
    f, split, cfg = setup
    trained = spy_trained_rows(monkeypatch)
    unlearn("rand_label", f, split, cfg)
    touched = np.unique(np.concatenate(trained[cfg.seed]))
    assert np.array_equal(touched, np.arange(split.num_train))


# ----------------------------------------------------------------------- salun

def test_salun_full_sparsity_is_bit_identical_to_rand_label(setup):
    f, split, cfg = setup
    a = unlearn("salun", f, split, dataclasses.replace(cfg, salun_sparsity=1.0))
    b = unlearn("rand_label", f, split, cfg)
    assert a.model.param_digest() == b.model.param_digest()


def test_salun_changes_nothing_outside_mask(setup):
    f, split, cfg = setup
    sparsity = 0.4
    run = unlearn("salun", f, split, dataclasses.replace(cfg, salun_sparsity=sparsity))
    # recompute the saliency mask exactly as the method does
    sal = np.abs(loss_and_grad(f.clone(), split.forget_x, labels=split.forget_y)[1])
    mask = ParamMask.top_fraction(sal, sparsity)
    delta = run.model.param_vector() - f.param_vector()
    assert np.abs(delta[~mask.selected]).sum() == 0.0
    assert np.abs(delta[mask.selected]).sum() > 0.0


def test_salun_sparsity_validation(setup):
    f, split, cfg = setup
    for bad in (0.0, 1.2, -0.5):
        with pytest.raises(ConfigError):
            unlearn("salun", f, split, dataclasses.replace(cfg, salun_sparsity=bad))


# ----------------------------------------------------------------------- bad_t

def test_bad_t_loss_is_zero_when_student_matches_both_teachers(setup):
    f, split, cfg = setup
    from unlearnkit.nn import build_model

    g = build_model(split.train_x.shape[1], split.num_classes, cfg.backbone,
                    seed=cfg.bad_teacher_seed)
    xf, xr = split.forget_x, split.train_x[split.retain_indices][:16]
    total = (kl_rows(g.logits(xf), g.logits(xf), cfg.temperature)[0].mean()
             + kl_rows(f.logits(xr), f.logits(xr), cfg.temperature)[0].mean())
    assert total == 0.0


def test_bad_t_processes_more_samples_per_epoch_than_rand_label(setup):
    f, split, cfg = setup
    one_epoch = dataclasses.replace(cfg, epochs=1)
    flos_bt = unlearn("bad_t", f, split, one_epoch).flos
    flos_rl = unlearn("rand_label", f, split, one_epoch).flos
    assert flos_bt > flos_rl


# ----------------------------------------------------------------------- scrub

def test_scrub_trace_phases_follow_schedule(setup):
    f, split, cfg = setup
    run = unlearn("scrub", f, split, dataclasses.replace(
        cfg, scrub_max_steps=2, scrub_min_steps=3))
    phases = [row.phase for row in run.trace]
    assert phases == ["init", "max", "min", "max", "min", "min"]


def test_scrub_initial_divergence_is_zero_then_rises(setup):
    f, split, cfg = setup
    x = split.forget_x
    assert kl_rows(f.logits(x), f.logits(x), 1.0)[0].mean() == 0.0
    run = unlearn("scrub", f, split, dataclasses.replace(
        cfg, scrub_max_steps=3, scrub_min_steps=3, learning_rate=0.05))
    # every max pass pushes the deletion-set loss up from where it stood,
    # and the min passes recover test accuracy afterwards
    for i, row in enumerate(run.trace):
        if row.phase == "max":
            assert row.loss_f > run.trace[i - 1].loss_f
    min_rows = [row for row in run.trace if row.phase == "min"]
    max_rows = [row for row in run.trace if row.phase == "max"]
    assert min_rows[-1].acc_test >= max_rows[-1].acc_test


def test_scrub_without_min_steps_degrades_forget_accuracy(setup):
    f, split, cfg = setup
    run = unlearn("scrub", f, split, dataclasses.replace(
        cfg, scrub_max_steps=6, scrub_min_steps=0, learning_rate=0.05))
    assert all(row.phase in ("init", "max") for row in run.trace)
    _, acc_f0, _ = evaluate(f, split)
    _, acc_f1, _ = evaluate(run.model, split)
    assert acc_f1 < acc_f0


def test_scrub_step_validation(setup):
    f, split, cfg = setup
    with pytest.raises(ConfigError):
        unlearn("scrub", f, split, dataclasses.replace(cfg, scrub_max_steps=-1))


@pytest.mark.parametrize("temperature", [-1.0, 0.0, float("nan")])
@pytest.mark.parametrize("method", ["bad_t", "scrub"])
def test_kl_methods_reject_a_temperature_that_is_not_positive(setup, method, temperature):
    f, split, cfg = setup
    with pytest.raises(ConfigError, match="temperature must be > 0"):
        unlearn(method, f, split, dataclasses.replace(cfg, temperature=temperature))


# ------------------------------------------------------------------ curriculum

def test_curriculum_keeps_data_order_identical(setup, monkeypatch):
    f, split, cfg = setup
    trained = spy_trained_rows(monkeypatch)
    orders = []
    for flag in (False, True):
        unlearn("rand_label", f, split, dataclasses.replace(cfg, curriculum=flag))
        orders.append([rows.tolist() for rows in trained.pop(cfg.seed)])
    assert orders[0] == orders[1]


def test_curriculum_changes_trajectory_but_stays_deterministic(setup):
    f, split, cfg = setup
    on1 = unlearn("rand_label", f, split, dataclasses.replace(cfg, curriculum=True))
    on2 = unlearn("rand_label", f, split, dataclasses.replace(cfg, curriculum=True))
    off = unlearn("rand_label", f, split, cfg)
    assert on1.model.param_digest() == on2.model.param_digest()
    assert on1.model.param_digest() != off.model.param_digest()


# ---------------------------------------------------------------------- budget

def test_budget_error_carries_partial_trace(setup):
    f, split, cfg = setup
    with pytest.raises(BudgetError) as info:
        unlearn("rand_label", f, split, dataclasses.replace(cfg, budget_seconds=1e-9))
    assert len(info.value.trace) >= 1  # at least the init snapshot plus epoch rows


# ----------------------------------------------------------------------- trace

def test_trace_structure_and_flos_monotonicity(setup):
    f, split, cfg = setup
    run = unlearn("rand_label", f, split, cfg)
    assert run.trace[0].epoch == 0 and run.trace[0].flos == 0.0
    flos = [row.flos for row in run.trace]
    assert all(b > a for a, b in zip(flos, flos[1:]))
    assert run.flos == flos[-1]
    assert run.seconds > 0


def test_trace_csv_roundtrip(tmp_path, setup):
    f, split, cfg = setup
    run = unlearn("scrub", f, split, cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(run.trace, path)
    import csv

    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["epoch", "loss_f", "loss_r", "acc_test", "acc_f",
                             "acc_r", "flos", "seconds", "phase"]
    assert len(rows) == len(run.trace)


# ----------------------------------------------------------------- PEFT option

def test_adapter_run_trains_only_adapter(setup):
    f, split, cfg = setup
    run = unlearn("rand_label", f, split,
                  dataclasses.replace(cfg, adapter_rank=2, adapter_layer=0))
    assert any(layer.adapter is not None for layer in run.model.layers)
    for layer, ref in zip(run.model.layers, f.layers):
        assert np.array_equal(layer.weight, ref.weight)
        assert np.array_equal(layer.bias, ref.bias)


# --------------------------------------------------------------- golden bytes

GOLDEN_VARIANTS = {
    "plain": {},
    "curriculum": dict(curriculum=True),
    "adapter": dict(adapter_rank=2, adapter_layer=1),
    "tanh_sgd": dict(backbone="mlp:12,10:tanh", optimizer="sgd", learning_rate=0.05,
                     train_learning_rate=0.05),
}


def _golden_run(method, variant, tmp_path, originals):
    """sha256 prefix of one run's param digest, the version-1 checkpoint bytes of
    its saved and reloaded model, and its trace rows without ``seconds``;
    ``originals`` caches the originals by training recipe."""
    cfg = small_cfg(**{"backbone": "mlp:12,10", "seed": 0, **GOLDEN_VARIANTS[variant]})
    split = generate(cfg.data_spec()).with_deletion(10)
    key = (cfg.backbone, cfg.optimizer, cfg.train_learning_rate)
    if key not in originals:
        originals[key] = train_original(split, cfg).model
    run = unlearn(method, originals[key], split, dataclasses.replace(cfg, unlearn_method=method))
    path = tmp_path / "model_prime.json"
    run.model.save(path)
    h = hashlib.sha256(run.model.param_digest().encode())
    h.update(v1_checkpoint_bytes(Model.load(path)))  # the digests predate version 2
    for row in run.trace:
        h.update(repr(dataclasses.replace(row, seconds=0.0)).encode())
    return h.hexdigest()[:16]


# Recorded with the plain-expression forward, Adam update and json.dumps version-1
# checkpoint writer; a faster path must reproduce them byte for byte. The seven
# bad_t and scrub entries other than scrub's tanh_sgd were re-recorded when
# inference moved to fixed row tiles (``Model.logits``) and teachers to logits
# forwarded once per run, on numpy 2.4.6 and OpenBLAS 0.3.31 (SkylakeX core,
# 2 threads; exp, log, tanh: X86_V4). The other 21 kept their bytes.
GOLDEN_DIGESTS = {
    ("bad_t", "plain"): "9891b52e5e591bcb",
    ("bad_t", "curriculum"): "33e74bf3b67c615e",
    ("bad_t", "adapter"): "05d46a0220ec5360",
    ("bad_t", "tanh_sgd"): "c96b5791aaa89901",
    ("exact_retrain", "plain"): "d23fb298a2c23439",
    ("exact_retrain", "curriculum"): "d23fb298a2c23439",
    ("exact_retrain", "adapter"): "d23fb298a2c23439",
    ("exact_retrain", "tanh_sgd"): "33926f2887f72d32",
    ("l1_sparse_ft", "plain"): "8768f7d45b2bc7ca",
    ("l1_sparse_ft", "curriculum"): "0128727286ead29b",
    ("l1_sparse_ft", "adapter"): "1c87e3dd2d9ee53c",
    ("l1_sparse_ft", "tanh_sgd"): "e18dc461239c07c4",
    ("neg_grad", "plain"): "7a89bdfede7ccdf2",
    ("neg_grad", "curriculum"): "90100684a0a5193c",
    ("neg_grad", "adapter"): "d222041960f2f64d",
    ("neg_grad", "tanh_sgd"): "7f304696afc958d6",
    ("rand_label", "plain"): "c1735d009892bf31",
    ("rand_label", "curriculum"): "006d4f15031a110e",
    ("rand_label", "adapter"): "5401ce8452a1bd2e",
    ("rand_label", "tanh_sgd"): "45869e1e08b53975",
    ("salun", "plain"): "5807bc9f3a64f8be",
    ("salun", "curriculum"): "95d2f73bb20184ec",
    ("salun", "adapter"): "847e7598ad941ea5",
    ("salun", "tanh_sgd"): "bb02b8a28fc3213b",
    ("scrub", "plain"): "db920f6901ae2ade",
    ("scrub", "curriculum"): "986b9f2eddf622c5",
    ("scrub", "adapter"): "ca39bba77c7e2b92",
    ("scrub", "tanh_sgd"): "a867a308a505ced9",
}


@pytest.fixture(scope="module")
def golden_originals():
    return {}


@pytest.mark.parametrize("method,variant", sorted(GOLDEN_DIGESTS))
def test_trained_outputs_match_golden_digests(method, variant, tmp_path, golden_originals):
    """Parameters, checkpoint bytes and trace (all but ``seconds``) of every
    method on plain, curriculum, adapter and tanh+SGD recipes, pinned."""
    got = _golden_run(method, variant, tmp_path, golden_originals)
    assert got == GOLDEN_DIGESTS[method, variant]


# The package's default recipe, which the benchmark's grid sweeps: sha256 prefix of each
# run's param digest and its trace rows without ``seconds``, at seed 0. Recorded, like
# GOLDEN_DIGESTS, on numpy 2.4.6 and OpenBLAS 0.3.31 (SkylakeX core, 2 threads), with the
# ufunc loops ``tools/numeric_platform.py`` prints there (exp, log, tanh: X86_V4); all 21
# re-recorded there with the tiled inference of ``Model.logits``.
DEFAULT_RECIPE_DIGESTS = {
    ("bad_t", 1): "b4a5e7d4753f9d92",
    ("bad_t", 5): "80ccfa156d94cfc0",
    ("bad_t", 10): "41e24e38ee00fdce",
    ("exact_retrain", 1): "32d63007890d9c7e",
    ("exact_retrain", 5): "3bdfb71c73c8806a",
    ("exact_retrain", 10): "ed84d36203bf6abf",
    ("l1_sparse_ft", 1): "52c3c05db7f54359",
    ("l1_sparse_ft", 5): "151da2bf7744c3c8",
    ("l1_sparse_ft", 10): "1c73fd009cfa5a27",
    ("neg_grad", 1): "9394178fb78ec4f1",
    ("neg_grad", 5): "0ad4d35d8858e0b7",
    ("neg_grad", 10): "55cb2e8df3f992c9",
    ("rand_label", 1): "544eb746424a0c12",
    ("rand_label", 5): "7999170c47b4bbe4",
    ("rand_label", 10): "5358e05101bc6192",
    ("salun", 1): "f161b9af2b080fc0",
    ("salun", 5): "7496623ff4d6367d",
    ("salun", 10): "08ca36abcf786e56",
    ("scrub", 1): "b3e7a312efa23029",
    ("scrub", 5): "192aa53457ed9be8",
    ("scrub", 10): "5977dbf0c3799fd3",
}


@pytest.fixture(scope="module")
def default_original():
    cfg = UnlearnConfig(seed=0)
    data = generate(cfg.data_spec())
    return train_original(data, cfg).model, data, cfg


@pytest.mark.parametrize("method,ratio", sorted(DEFAULT_RECIPE_DIGESTS))
def test_default_recipe_outputs_match_golden_digests(method, ratio, default_original):
    """Parameters and trace (all but ``seconds``) of every method on the default recipe
    at deletion ratios 1, 5 and 10, pinned."""
    f, data, cfg = default_original
    run = unlearn(method, f, data.with_deletion(ratio),
                  dataclasses.replace(cfg, unlearn_method=method, del_ratio=ratio))
    h = hashlib.sha256(run.model.param_digest().encode())
    for row in run.trace:
        h.update(repr(dataclasses.replace(row, seconds=0.0)).encode())
    assert h.hexdigest()[:16] == DEFAULT_RECIPE_DIGESTS[method, ratio]


# The key that sets each method's number of passes, for the methods that make
# one pass per epoch (scrub's passes follow scrub_max_steps and scrub_min_steps).
EPOCH_KEYS = {"exact_retrain": "train_epochs", "neg_grad": "epochs", "rand_label": "epochs",
              "bad_t": "epochs", "salun": "epochs", "l1_sparse_ft": "epochs"}


@pytest.fixture(scope="module")
def noisy_original():
    cfg = UnlearnConfig(data_name="gaussian_blobs:c3:s125:d8:noise0.4", seed=0, del_ratio=10)
    data = generate(cfg.data_spec())
    return train_original(data, cfg).model, data.with_deletion(10), cfg


@pytest.mark.parametrize("method", sorted(EPOCH_KEYS))
def test_a_shorter_run_traces_a_prefix_of_a_longer_one(method, noisy_original):
    """With no budget, a 3-epoch run's trace (all but ``seconds``) is the first
    four rows of the 15-epoch run's: each epoch's snapshot is a stopping point,
    and nothing a run computes once (a teacher's logits) moves the draws."""
    f, split, cfg = noisy_original

    def trace(epochs):
        config = dataclasses.replace(cfg, unlearn_method=method, **{EPOCH_KEYS[method]: epochs})
        return [repr(dataclasses.replace(row, seconds=0.0))
                for row in unlearn(method, f, split, config).trace]

    long = trace(15)
    assert len(long) == 16 and trace(3) == long[:4]


def test_exact_retrain_on_a_split_with_every_training_row_deleted_raises_config_error(setup):
    f, split, cfg = setup
    everything = dataclasses.replace(split, del_indices=np.arange(split.num_train))
    with pytest.raises(ConfigError, match="the remaining set is empty"):
        unlearn("exact_retrain", f, everything, dataclasses.replace(
            cfg, unlearn_method="exact_retrain"))
