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

from conftest import v1_checkpoint_bytes

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
    f = train_original(split, cfg)
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
def test_taxonomy_matches_what_the_loop_trains(setup, method):
    """Each declared design cell follows from the parts its plan trains on."""
    f, split, cfg = setup
    spec, planner = METHODS[method]
    plan = planner(f, split, cfg)
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
                    assert teacher is None or teacher is f
                    if labels is not None:
                        assert np.array_equal(labels[~forget], split.train_y[rows[~forget]])
                if not forget.any():
                    continue
                if ascending:
                    corrupt.add("Grad")
                if labels is not None and np.any(labels[forget] != split.train_y[rows[forget]]):
                    corrupt.add("Data")
                if teacher is not None and teacher is not f:
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
    seen = []
    unlearn(method, f, split, cfg, observer=lambda idx: seen.append(idx.tolist()))
    assert seen == order


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
    recorder = RunRecorder(split)
    f = train_original(split, cfg, recorder)
    retrain = unlearn("exact_retrain", None, split, cfg)

    def rows(trace):
        return [dataclasses.replace(row, seconds=0.0) for row in trace]

    assert f.param_digest() == retrain.model.param_digest()
    assert rows(recorder.rows) == rows(retrain.trace) and len(recorder.rows) == 7
    assert recorder.flos == retrain.flos > 0


def test_exact_retrain_never_observes_deleted_rows(setup):
    f, split, cfg = setup
    seen = []
    unlearn("exact_retrain", f, split, cfg, observer=lambda idx: seen.append(idx))
    touched = np.unique(np.concatenate(seen))
    assert np.intersect1d(touched, split.del_indices).size == 0
    assert np.array_equal(touched, split.retain_indices)


def test_l1_never_consumes_deleted_rows(setup):
    f, split, cfg = setup
    seen = []
    unlearn("l1_sparse_ft", f, split, cfg, observer=lambda idx: seen.append(idx))
    touched = np.unique(np.concatenate(seen))
    assert np.intersect1d(touched, split.del_indices).size == 0


def test_l1_zero_lambda_is_plain_finetune(setup):
    f, split, cfg = setup
    plain = unlearn("l1_sparse_ft", f, split, dataclasses.replace(cfg, l1_lambda=0.0))
    ref = f.clone()
    passes = _epochs(np.random.default_rng(cfg.seed), np.arange(len(split.retain_y)),
                     split.retain_x, split.retain_y, cfg.epochs, cfg.batch_size)
    _drive([Plan(ref, passes, cfg.learning_rate)], cfg.optimizer)
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

def test_rand_label_uses_corrupted_labels_and_full_train(setup):
    f, split, cfg = setup
    seen = []
    unlearn("rand_label", f, split, cfg, observer=lambda idx: seen.append(idx))
    touched = np.unique(np.concatenate(seen))
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
    xf, xr = split.forget_x, split.retain_x[:16]
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

def test_curriculum_keeps_data_order_identical(setup):
    f, split, cfg = setup
    orders = []
    for flag in (False, True):
        seen = []
        unlearn("rand_label", f, split, dataclasses.replace(cfg, curriculum=flag),
                observer=lambda idx: seen.append(idx.tolist()))
        orders.append(seen)
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
    assert run.model.has_adapter()
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
        originals[key] = train_original(split, cfg)
    run = unlearn(method, originals[key], split, dataclasses.replace(cfg, unlearn_method=method))
    path = tmp_path / "model_prime.json"
    run.model.save(path)
    h = hashlib.sha256(run.model.param_digest().encode())
    h.update(v1_checkpoint_bytes(Model.load(path)))  # the digests predate version 2
    for row in run.trace:
        h.update(repr(dataclasses.replace(row, seconds=0.0)).encode())
    return h.hexdigest()[:16]


# Recorded with the plain-expression forward, Adam update and json.dumps version-1
# checkpoint writer; a faster path must reproduce them byte for byte.
GOLDEN_DIGESTS = {
    ("bad_t", "plain"): "8c0ff7d9220f4fcf",
    ("bad_t", "curriculum"): "de1086a4b5f2d126",
    ("bad_t", "adapter"): "6a4a0c90a135a3fa",
    ("bad_t", "tanh_sgd"): "7d0706858c3118e4",
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
    ("scrub", "plain"): "13b439a35051461c",
    ("scrub", "curriculum"): "b7f39f656c26dcdc",
    ("scrub", "adapter"): "a55f676d01cfdc41",
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
